//! The wire protocol of coordinated sweep execution: length-prefixed
//! JSON frames between a coordinator (see [`super::coord`]) and its
//! workers, plus [`serve_worker`] — the worker-side loop a process or
//! thread runs over any byte stream (child stdio pipes, a TCP socket,
//! an in-process loopback).
//!
//! # Framing
//!
//! Every message is one frame: a 4-byte little-endian payload length
//! followed by that many bytes of JSON text. JSON (over the vendored
//! `serde_json` writer/parser the journal and cache already use) keeps
//! the payloads debuggable and reuses the byte-exact number round trip
//! the merge identity depends on — a [`SweepPoint`] crossing the wire
//! re-serializes to the same bytes it would have had in-process.
//!
//! # Conversation
//!
//! Per request, on each worker connection (strictly in order — one
//! frame's reply is always read before the next frame is sent, so
//! replies never need correlation beyond their ids):
//!
//! 1. coordinator → [`ToWorker::Request`]: request id, the
//!    coordinator's plan fingerprint, and the opaque key-value params
//!    the worker rebuilds its experiment from.
//! 2. worker → [`ToCoord::Ready`]: the worker's own plan fingerprint
//!    and cell count (the coordinator aborts on any disagreement —
//!    a config drift must fail loudly, not skew results), plus
//!    whether the worker has a local cell cache attached.
//! 3. coordinator → [`ToWorker::Prewarm`] (optional, cache-holding
//!    workers only): cache entries the coordinator already has, so a
//!    worker's local cache warms without simulating — entries travel,
//!    cells don't. No reply; the stream stays ordered.
//! 4. coordinator → [`ToWorker::Chunk`] / worker →
//!    [`ToCoord::ChunkDone`], repeated until the grid is done.
//! 5. coordinator → [`ToWorker::Shutdown`] when the service exits
//!    (workers also exit cleanly on EOF — a vanished coordinator must
//!    not strand a fleet).
//!
//! The params are deliberately opaque `(key, value)` string pairs: the
//! sim layer neither knows nor cares what "rate-points" means — the
//! bench layer interprets them identically on both ends, and the
//! fingerprint exchange catches any interpretation drift.

use std::io::{Read, Write};

use serde_json::Value;

use super::journal::{cell_from_value, entry_line, point_from_value};
use super::plan::CellId;
use super::result::SweepPoint;

/// Upper bound on one frame's payload (64 MiB) — far above any real
/// chunk, small enough that a corrupt length prefix cannot trigger an
/// absurd allocation.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Writes one length-prefixed frame and flushes it.
///
/// # Errors
///
/// Fails on I/O errors, or on a payload exceeding [`MAX_FRAME`].
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME)
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "frame of {} bytes exceeds the {MAX_FRAME}-byte cap",
                    payload.len()
                ),
            )
        })?;
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Reads one length-prefixed frame. EOF before the first length byte
/// surfaces as [`std::io::ErrorKind::UnexpectedEof`] — the "peer hung
/// up" condition both loops treat as a clean or recoverable end.
///
/// # Errors
///
/// Fails on I/O errors, truncated frames, or a length prefix beyond
/// [`MAX_FRAME`].
pub fn read_frame(reader: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    reader.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    Ok(payload)
}

/// A message from the coordinator to a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum ToWorker {
    /// Start (or switch to) a sweep request: the worker rebuilds its
    /// experiment from `params` and replies [`ToCoord::Ready`].
    Request {
        /// Coordinator-assigned request id (echoed in `Ready`).
        id: u64,
        /// The coordinator's plan fingerprint, for the worker's log;
        /// authoritative validation happens coordinator-side against
        /// the fingerprint `Ready` reports back.
        fingerprint: u64,
        /// Opaque key-value parameters the bench layer interprets.
        params: Vec<(String, String)>,
    },
    /// Cache entries for the worker's local cell cache (no reply).
    Prewarm {
        /// The entries, as `(cell, point)` of the current request's
        /// plan.
        entries: Vec<(CellId, SweepPoint)>,
    },
    /// Simulate these cells of the current request and reply
    /// [`ToCoord::ChunkDone`].
    Chunk {
        /// Coordinator-assigned chunk id (echoed in `ChunkDone`).
        id: u64,
        /// The cells, in the order their points must come back.
        cells: Vec<CellId>,
    },
    /// Exit the serve loop cleanly.
    Shutdown,
}

/// A message from a worker to the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum ToCoord {
    /// The worker rebuilt its experiment for a request.
    Ready {
        /// The request id being acknowledged.
        request: u64,
        /// The worker's own plan fingerprint (the coordinator aborts
        /// the request unless it matches its own).
        fingerprint: u64,
        /// The worker's plan cell count (same cross-check).
        cells: u64,
        /// Whether the worker has a local cell cache attached (the
        /// coordinator only pre-warms workers that can store).
        cache: bool,
    },
    /// A chunk's points, in the chunk's cell order.
    ChunkDone {
        /// The chunk id being answered.
        id: u64,
        /// One `(cell, point)` per requested cell, in request order.
        entries: Vec<(CellId, SweepPoint)>,
    },
    /// The worker could not serve the last frame (bad params, cells
    /// outside its plan, a chunk before any request).
    Error {
        /// What went wrong.
        message: String,
    },
}

fn json_str(text: &str) -> String {
    serde_json::to_string(&text).expect("string serializes")
}

fn entries_json(entries: &[(CellId, SweepPoint)]) -> String {
    let mut out = String::from("[");
    for (i, (cell, point)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&entry_line(*cell, point));
    }
    out.push(']');
    out
}

fn entries_from_value(value: &Value) -> Result<Vec<(CellId, SweepPoint)>, String> {
    value
        .as_array()
        .ok_or_else(|| "field 'entries' is not an array".to_owned())?
        .iter()
        .map(|entry| {
            let cell = entry
                .get("cell")
                .ok_or_else(|| "entry missing 'cell'".to_owned())
                .and_then(cell_from_value)?;
            let point = entry
                .get("point")
                .ok_or_else(|| "entry missing 'point'".to_owned())
                .and_then(point_from_value)?;
            Ok((cell, point))
        })
        .collect()
}

fn u64_field(value: &Value, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("field '{key}' is not an unsigned integer"))
}

impl ToWorker {
    /// Serializes to one frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Self::Request {
                id,
                fingerprint,
                params,
            } => {
                let mut out = format!(
                    "{{\"type\":\"request\",\"id\":{id},\"fingerprint\":{fingerprint},\"params\":["
                );
                for (i, (key, value)) in params.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{},{}]", json_str(key), json_str(value)));
                }
                out.push_str("]}");
                out.into_bytes()
            }
            Self::Prewarm { entries } => format!(
                "{{\"type\":\"prewarm\",\"entries\":{}}}",
                entries_json(entries)
            )
            .into_bytes(),
            Self::Chunk { id, cells } => {
                let mut out = format!("{{\"type\":\"chunk\",\"id\":{id},\"cells\":[");
                for (i, cell) in cells.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&serde_json::to_string(cell).expect("cell serializes"));
                }
                out.push_str("]}");
                out.into_bytes()
            }
            Self::Shutdown => b"{\"type\":\"shutdown\"}".to_vec(),
        }
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("frame is not UTF-8: {e}"))?;
        let value: Value = text
            .parse()
            .map_err(|e| format!("frame is not JSON: {e}"))?;
        let kind = value
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| "frame has no 'type'".to_owned())?;
        match kind {
            "request" => {
                let params = value
                    .get("params")
                    .and_then(Value::as_array)
                    .ok_or_else(|| "field 'params' is not an array".to_owned())?
                    .iter()
                    .map(|pair| {
                        let key = pair.index(0).and_then(Value::as_str);
                        let val = pair.index(1).and_then(Value::as_str);
                        match (key, val) {
                            (Some(k), Some(v)) => Ok((k.to_owned(), v.to_owned())),
                            _ => Err("param is not a [key, value] string pair".to_owned()),
                        }
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Self::Request {
                    id: u64_field(&value, "id")?,
                    fingerprint: u64_field(&value, "fingerprint")?,
                    params,
                })
            }
            "prewarm" => Ok(Self::Prewarm {
                entries: value
                    .get("entries")
                    .map(entries_from_value)
                    .transpose()?
                    .ok_or_else(|| "prewarm has no 'entries'".to_owned())?,
            }),
            "chunk" => {
                let cells = value
                    .get("cells")
                    .and_then(Value::as_array)
                    .ok_or_else(|| "field 'cells' is not an array".to_owned())?
                    .iter()
                    .map(cell_from_value)
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Self::Chunk {
                    id: u64_field(&value, "id")?,
                    cells,
                })
            }
            "shutdown" => Ok(Self::Shutdown),
            other => Err(format!("unknown coordinator message type '{other}'")),
        }
    }
}

impl ToCoord {
    /// Serializes to one frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Self::Ready {
                request,
                fingerprint,
                cells,
                cache,
            } => format!(
                "{{\"type\":\"ready\",\"request\":{request},\"fingerprint\":{fingerprint},\
                 \"cells\":{cells},\"cache\":{cache}}}"
            )
            .into_bytes(),
            Self::ChunkDone { id, entries } => format!(
                "{{\"type\":\"chunk-done\",\"id\":{id},\"entries\":{}}}",
                entries_json(entries)
            )
            .into_bytes(),
            Self::Error { message } => {
                format!("{{\"type\":\"error\",\"message\":{}}}", json_str(message)).into_bytes()
            }
        }
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("frame is not UTF-8: {e}"))?;
        let value: Value = text
            .parse()
            .map_err(|e| format!("frame is not JSON: {e}"))?;
        let kind = value
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| "frame has no 'type'".to_owned())?;
        match kind {
            "ready" => Ok(Self::Ready {
                request: u64_field(&value, "request")?,
                fingerprint: u64_field(&value, "fingerprint")?,
                cells: u64_field(&value, "cells")?,
                cache: value
                    .get("cache")
                    .and_then(Value::as_bool)
                    .ok_or_else(|| "field 'cache' is not a boolean".to_owned())?,
            }),
            "chunk-done" => Ok(Self::ChunkDone {
                id: u64_field(&value, "id")?,
                entries: value
                    .get("entries")
                    .map(entries_from_value)
                    .transpose()?
                    .ok_or_else(|| "chunk-done has no 'entries'".to_owned())?,
            }),
            "error" => Ok(Self::Error {
                message: value
                    .get("message")
                    .and_then(Value::as_str)
                    .ok_or_else(|| "field 'message' is not a string".to_owned())?
                    .to_owned(),
            }),
            other => Err(format!("unknown worker message type '{other}'")),
        }
    }
}

/// Runs the worker side of the protocol over any byte stream until the
/// coordinator sends [`ToWorker::Shutdown`] or hangs up (EOF).
///
/// `build` rebuilds the worker's [`super::Experiment`] from a
/// request's params — called once per [`ToWorker::Request`], so one
/// long-lived worker serves any number of (differently shaped)
/// requests over one connection, reusing whatever the closure caches
/// (topologies, routing tables, floorplan latencies) across them. A
/// build error is reported to the coordinator as [`ToCoord::Error`]
/// and the loop keeps serving — a bad request must not kill the
/// fleet.
///
/// Malformed frames and chunks that stray outside the current plan
/// also answer with [`ToCoord::Error`] instead of dying; simulation
/// itself goes through [`super::Experiment::run_cells`], so the
/// worker's local cache applies exactly as it would in a single-process
/// run.
///
/// # Errors
///
/// Fails on transport I/O errors (EOF is a clean `Ok` exit).
pub fn serve_worker<'e, R, W, B>(
    reader: &mut R,
    writer: &mut W,
    mut build: B,
) -> std::io::Result<()>
where
    R: Read,
    W: Write,
    B: FnMut(&[(String, String)]) -> Result<super::Experiment<'e>, String>,
{
    let mut current: Option<super::Experiment<'e>> = None;
    loop {
        let frame = match read_frame(reader) {
            Ok(frame) => frame,
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        let message = match ToWorker::decode(&frame) {
            Ok(message) => message,
            Err(message) => {
                write_frame(writer, &ToCoord::Error { message }.encode())?;
                continue;
            }
        };
        match message {
            ToWorker::Request { id, params, .. } => match build(&params) {
                Ok(experiment) => {
                    let plan = experiment.plan();
                    let reply = ToCoord::Ready {
                        request: id,
                        fingerprint: plan.fingerprint(),
                        cells: plan.num_cells() as u64,
                        cache: experiment.cache().is_some(),
                    };
                    current = Some(experiment);
                    write_frame(writer, &reply.encode())?;
                }
                Err(message) => {
                    current = None;
                    write_frame(writer, &ToCoord::Error { message }.encode())?;
                }
            },
            ToWorker::Prewarm { entries } => {
                // Best-effort by design: entries failing validation
                // (or arriving before any request) are dropped — the
                // pre-warm is an accelerator, never load-bearing.
                if let Some(experiment) = &current {
                    for (cell, point) in &entries {
                        experiment.store_cached(*cell, point);
                    }
                }
            }
            ToWorker::Chunk { id, cells } => {
                let Some(experiment) = &current else {
                    let message = format!("chunk {id} received before any request");
                    write_frame(writer, &ToCoord::Error { message }.encode())?;
                    continue;
                };
                if let Some(cell) = cells.iter().find(|&&c| !experiment.contains_cell(c)) {
                    let message = format!("chunk {id} cell {cell} is outside the current plan");
                    write_frame(writer, &ToCoord::Error { message }.encode())?;
                    continue;
                }
                let points = experiment.run_cells(&cells);
                let entries: Vec<(CellId, SweepPoint)> = cells.into_iter().zip(points).collect();
                write_frame(writer, &ToCoord::ChunkDone { id, entries }.encode())?;
            }
            ToWorker::Shutdown => return Ok(()),
        }
    }
}

/// Dials a coordinator, retrying with capped jittered exponential
/// backoff until `patience` is exhausted — a worker is routinely
/// started before (or alongside) the coordinator it serves, so the
/// first connection attempts are expected to be refused.
///
/// Delays double from 50 ms up to a 2 s cap; each gets up to 25%
/// additive jitter derived from the process id and attempt number (so
/// a fleet launched by one script does not hammer the listener in
/// lockstep, without introducing a shared RNG). The final attempt is
/// made right at the deadline, so a coordinator appearing anywhere
/// within `patience` is always caught.
///
/// # Errors
///
/// Returns the last connection error once `patience` has elapsed.
pub fn connect_with_backoff(
    addr: &str,
    patience: std::time::Duration,
) -> std::io::Result<std::net::TcpStream> {
    let start = std::time::Instant::now();
    let mut attempt = 0u32;
    loop {
        match std::net::TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(error) => {
                let remaining = match patience.checked_sub(start.elapsed()) {
                    Some(left) if !left.is_zero() => left,
                    _ => return Err(error),
                };
                let exp_ms = 50u64.saturating_mul(1 << attempt.min(16)).min(2_000);
                // splitmix64 of (pid, attempt): deterministic per
                // process, decorrelated across a fleet.
                let mut z = (u64::from(std::process::id()) << 32) | u64::from(attempt);
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                let delay = std::time::Duration::from_millis(exp_ms + (z % (exp_ms / 4 + 1)));
                std::thread::sleep(delay.min(remaining));
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{FaultStats, SimOutcome};
    use crate::traffic::TrafficPattern;

    fn sample_entries() -> Vec<(CellId, SweepPoint)> {
        let point = |rate: f64, seed: u64| SweepPoint {
            case: "mesh \"8x8\"".to_owned(),
            pattern: TrafficPattern::Hotspot(20),
            rate,
            seed,
            outcome: SimOutcome {
                offered_rate: rate,
                accepted_rate: 1.0 / 3.0,
                avg_packet_latency: 30.25,
                p50_packet_latency: 28.0,
                p99_packet_latency: 70.5,
                max_packet_latency: 80.0,
                measured_packets: 12_345,
                stable: true,
                cycles: 20_000,
                faults: FaultStats::default(),
            },
        };
        vec![
            (
                CellId {
                    case: 0,
                    pattern: 1,
                    rate: 0,
                },
                point(0.062_5, u64::MAX),
            ),
            (
                CellId {
                    case: 2,
                    pattern: 0,
                    rate: 3,
                },
                point(1.0 / 3.0, 7),
            ),
        ]
    }

    #[test]
    fn frames_roundtrip_and_cap_their_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("writes");
        write_frame(&mut buf, b"").expect("empty frame is fine");
        let mut reader = buf.as_slice();
        assert_eq!(read_frame(&mut reader).expect("reads"), b"hello");
        assert_eq!(read_frame(&mut reader).expect("reads"), b"");
        let eof = read_frame(&mut reader).expect_err("stream exhausted");
        assert_eq!(eof.kind(), std::io::ErrorKind::UnexpectedEof);
        // A corrupt length prefix must not trigger a huge allocation.
        let bogus = (MAX_FRAME + 1).to_le_bytes();
        let err = read_frame(&mut bogus.as_slice()).expect_err("over cap");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn coordinator_messages_roundtrip() {
        let messages = vec![
            ToWorker::Request {
                id: 3,
                fingerprint: u64::MAX,
                params: vec![
                    ("rate-points".to_owned(), "2".to_owned()),
                    ("add-rates".to_owned(), "0.31,0.5".to_owned()),
                    ("quoted \"key\"".to_owned(), "a\nb".to_owned()),
                ],
            },
            ToWorker::Prewarm {
                entries: sample_entries(),
            },
            ToWorker::Chunk {
                id: 9,
                cells: sample_entries().into_iter().map(|(c, _)| c).collect(),
            },
            ToWorker::Shutdown,
        ];
        for message in messages {
            let decoded = ToWorker::decode(&message.encode()).expect("decodes");
            assert_eq!(decoded, message);
        }
    }

    #[test]
    fn worker_messages_roundtrip() {
        let messages = vec![
            ToCoord::Ready {
                request: 3,
                fingerprint: 0xdead_beef,
                cells: 126,
                cache: true,
            },
            ToCoord::ChunkDone {
                id: 9,
                entries: sample_entries(),
            },
            ToCoord::Error {
                message: "no \"such\" plan".to_owned(),
            },
        ];
        for message in messages {
            let decoded = ToCoord::decode(&message.encode()).expect("decodes");
            assert_eq!(decoded, message);
        }
    }

    #[test]
    fn malformed_frames_decode_to_descriptive_errors() {
        for bad in [
            &b"not json"[..],
            b"{\"type\":\"mystery\"}",
            b"{\"no\":\"type\"}",
            b"{\"type\":\"chunk\",\"id\":1,\"cells\":[{\"case\":0}]}",
            b"\xff\xfe",
        ] {
            assert!(ToWorker::decode(bad).is_err(), "{bad:?}");
            assert!(ToCoord::decode(bad).is_err(), "{bad:?}");
        }
    }
}
