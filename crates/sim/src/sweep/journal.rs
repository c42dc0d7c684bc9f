//! The journal layer: append-only JSONL of completed sweep cells,
//! enabling kill-and-resume shard execution.
//!
//! A journal file holds one header line (the plan fingerprint, the
//! shard assignment and the plan's cell count) followed by one line per
//! completed cell, **in canonical cell order** — so an interrupted
//! journal is always a prefix of the uninterrupted one, and a resumed
//! run reproduces the complete journal byte-for-byte. Completed cells
//! are flushed in order as chunks of the shard finish; work from a
//! chunk that was killed mid-flight is recomputed on resume.
//!
//! Lines are read back through the vendored `serde_json` [`Value`]
//! parser, and numbers survive the round trip byte-exactly
//! (shortest-float formatting and raw-text integers), which is what makes
//! `merge(journals).to_json()` reproduce a single-shot run's bytes.

use std::io::Write as _;
use std::path::Path;

use serde::Serialize;
use serde_json::Value;

use super::coord::JournalSink;
use super::plan::{CellId, SweepPlan};
use super::result::{ShardResult, SweepPoint};
use super::shard::ShardSpec;
use crate::stats::{FaultStats, SimOutcome};
use crate::traffic::TrafficPattern;

/// The journal format tag (first line's `format` field).
const FORMAT: &str = "shg-sweep-journal";
/// The journal format version.
const VERSION: u64 = 1;

/// The header line of a journal file. Besides the fingerprint it
/// records the plan's *shape* (case count, rates per pattern), so a
/// reader can re-enumerate the exact strided cell sequence the writer
/// followed and reject any entry that strays from it — a corrupted but
/// well-formed cell id is a hard error, not silently misplaced data.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
struct JournalHeader {
    /// Format tag, always [`FORMAT`].
    format: &'static str,
    /// Format version, always [`VERSION`].
    version: u64,
    /// The plan fingerprint (see [`super::SweepPlan::fingerprint`]).
    fingerprint: u64,
    /// Zero-based shard index.
    shard_index: u32,
    /// Total shard count.
    shard_count: u32,
    /// Number of cases in the plan.
    num_cases: u64,
    /// How many rates each pattern sweeps, in spec order.
    rates_per_pattern: Vec<u64>,
    /// Total cells in the plan (across all shards).
    plan_cells: u64,
}

impl JournalHeader {
    fn of_plan(plan: &SweepPlan, shard: ShardSpec) -> Self {
        Self {
            format: FORMAT,
            version: VERSION,
            fingerprint: plan.fingerprint(),
            shard_index: shard.index,
            shard_count: shard.count,
            num_cases: plan.num_cases() as u64,
            rates_per_pattern: plan.rates_per_pattern().iter().map(|&n| n as u64).collect(),
            plan_cells: plan.num_cells() as u64,
        }
    }

    /// The cell enumeration this journal was written under.
    fn plan(&self) -> SweepPlan {
        SweepPlan::from_shape(
            self.num_cases as usize,
            self.rates_per_pattern.iter().map(|&n| n as usize).collect(),
            self.fingerprint,
        )
    }

    /// The shard assignment (validated at parse time).
    fn shard(&self) -> ShardSpec {
        ShardSpec::new(self.shard_index, self.shard_count)
    }
}

/// Why a journal could not be written, read or resumed.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A line failed to parse or decode (1-based line number).
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The journal was written under a different plan (spec, case set
    /// or topology changed).
    FingerprintMismatch {
        /// The current experiment's fingerprint.
        expected: u64,
        /// The journal's fingerprint.
        found: u64,
    },
    /// The journal belongs to a different shard assignment.
    ShardMismatch {
        /// The requested shard.
        expected: ShardSpec,
        /// The journal's shard.
        found: ShardSpec,
    },
    /// A journal entry is not the expected next cell of the shard's
    /// canonical sequence.
    NotAPrefix {
        /// 1-based line number of the offending entry.
        line: usize,
        /// The cell the canonical order requires there.
        expected: CellId,
        /// The cell the journal recorded.
        found: CellId,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "journal I/O error: {e}"),
            Self::Corrupt { line, message } => {
                write!(f, "corrupt journal at line {line}: {message}")
            }
            Self::FingerprintMismatch { expected, found } => write!(
                f,
                "journal plan fingerprint {found:#018x} does not match the current experiment \
                 {expected:#018x} — the sweep spec, case set or topology changed; delete the \
                 journal to start over"
            ),
            Self::ShardMismatch { expected, found } => write!(
                f,
                "journal belongs to shard {found}, but shard {expected} was requested"
            ),
            Self::NotAPrefix {
                line,
                expected,
                found,
            } => write!(
                f,
                "journal line {line} records cell {found}, but the shard's canonical order \
                 requires {expected} there"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// One journal line for a completed cell.
pub(crate) fn entry_line(cell: CellId, point: &SweepPoint) -> String {
    let cell = serde_json::to_string(&cell).expect("cell serializes");
    let point = serde_json::to_string(point).expect("point serializes");
    format!("{{\"cell\":{cell},\"point\":{point}}}")
}

fn corrupt(line: usize, message: impl Into<String>) -> JournalError {
    JournalError::Corrupt {
        line,
        message: message.into(),
    }
}

fn field<'v>(value: &'v Value, key: &str) -> Result<&'v Value, String> {
    value
        .get(key)
        .ok_or_else(|| format!("missing field '{key}'"))
}

fn u64_field(value: &Value, key: &str) -> Result<u64, String> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| format!("field '{key}' is not an unsigned integer"))
}

fn u32_field(value: &Value, key: &str) -> Result<u32, String> {
    u64_field(value, key)?
        .try_into()
        .map_err(|_| format!("field '{key}' exceeds u32"))
}

fn f64_field(value: &Value, key: &str) -> Result<f64, String> {
    field(value, key)?
        .as_f64()
        .ok_or_else(|| format!("field '{key}' is not a number"))
}

fn bool_field(value: &Value, key: &str) -> Result<bool, String> {
    field(value, key)?
        .as_bool()
        .ok_or_else(|| format!("field '{key}' is not a boolean"))
}

fn str_field<'v>(value: &'v Value, key: &str) -> Result<&'v str, String> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| format!("field '{key}' is not a string"))
}

pub(crate) fn cell_from_value(value: &Value) -> Result<CellId, String> {
    Ok(CellId {
        case: u32_field(value, "case")?,
        pattern: u32_field(value, "pattern")?,
        rate: u32_field(value, "rate")?,
    })
}

fn outcome_from_value(value: &Value) -> Result<SimOutcome, String> {
    // `faults` is omitted from fault-free outcomes (the overwhelmingly
    // common case, and every pre-fault-injection journal line), so its
    // absence decodes to the all-zero default — keeping the byte-exact
    // re-serialization identity in both directions.
    let faults = match value.get("faults") {
        Some(v) => FaultStats {
            dropped_packets: u64_field(v, "dropped_packets")?,
            unroutable_packets: u64_field(v, "unroutable_packets")?,
        },
        None => FaultStats::default(),
    };
    Ok(SimOutcome {
        offered_rate: f64_field(value, "offered_rate")?,
        accepted_rate: f64_field(value, "accepted_rate")?,
        avg_packet_latency: f64_field(value, "avg_packet_latency")?,
        p50_packet_latency: f64_field(value, "p50_packet_latency")?,
        p99_packet_latency: f64_field(value, "p99_packet_latency")?,
        max_packet_latency: f64_field(value, "max_packet_latency")?,
        measured_packets: u64_field(value, "measured_packets")?,
        stable: bool_field(value, "stable")?,
        cycles: u64_field(value, "cycles")?,
        faults,
    })
}

/// Decodes a serialized [`SweepPoint`] (a journal line's `point`
/// field, or an element of a `SweepResult`'s `points` array).
pub(crate) fn point_from_value(value: &Value) -> Result<SweepPoint, String> {
    Ok(SweepPoint {
        case: str_field(value, "case")?.to_owned(),
        pattern: TrafficPattern::from_json(field(value, "pattern")?)
            .ok_or_else(|| "field 'pattern' is not a traffic pattern".to_owned())?,
        rate: f64_field(value, "rate")?,
        seed: u64_field(value, "seed")?,
        outcome: outcome_from_value(field(value, "outcome")?)?,
    })
}

fn parse_entry(line_no: usize, line: &str) -> Result<(CellId, SweepPoint), JournalError> {
    let value: Value = line
        .parse()
        .map_err(|e: serde_json::ParseError| corrupt(line_no, e.to_string()))?;
    let cell = field(&value, "cell")
        .and_then(cell_from_value)
        .map_err(|m| corrupt(line_no, m))?;
    let point = field(&value, "point")
        .and_then(point_from_value)
        .map_err(|m| corrupt(line_no, m))?;
    Ok((cell, point))
}

fn parse_header(line: &str) -> Result<JournalHeader, JournalError> {
    let value: Value = line
        .parse()
        .map_err(|e: serde_json::ParseError| corrupt(1, e.to_string()))?;
    let decode = || -> Result<JournalHeader, String> {
        if str_field(&value, "format")? != FORMAT {
            return Err(format!("not a {FORMAT} file"));
        }
        let version = u64_field(&value, "version")?;
        if version != VERSION {
            return Err(format!(
                "unsupported version {version} (expected {VERSION})"
            ));
        }
        let shard_index = u32_field(&value, "shard_index")?;
        let shard_count = u32_field(&value, "shard_count")?;
        if shard_count == 0 || shard_index >= shard_count {
            return Err(format!(
                "shard index {shard_index} out of range for {shard_count} shards"
            ));
        }
        let rates_per_pattern = field(&value, "rates_per_pattern")?
            .as_array()
            .ok_or_else(|| "field 'rates_per_pattern' is not an array".to_owned())?
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| "non-integer in 'rates_per_pattern'".to_owned())
            })
            .collect::<Result<Vec<u64>, String>>()?;
        let header = JournalHeader {
            format: FORMAT,
            version: VERSION,
            fingerprint: u64_field(&value, "fingerprint")?,
            shard_index,
            shard_count,
            num_cases: u64_field(&value, "num_cases")?,
            rates_per_pattern,
            plan_cells: u64_field(&value, "plan_cells")?,
        };
        if header.plan().num_cells() as u64 != header.plan_cells {
            return Err(format!(
                "plan_cells {} does not match the recorded plan shape ({} cells)",
                header.plan_cells,
                header.plan().num_cells()
            ));
        }
        Ok(header)
    };
    decode().map_err(|m| corrupt(1, m))
}

/// A parsed journal plus the byte length of its valid prefix (resume
/// truncates the file there before appending, discarding a partial
/// line left by a kill mid-write).
#[derive(Debug)]
struct ParsedJournal {
    header: JournalHeader,
    entries: Vec<(CellId, SweepPoint)>,
    valid_len: u64,
}

/// `strict`: a **final** line without its terminating newline — a torn
/// write, whether or not the fragment happens to parse — is an error
/// (merge path) rather than discarded for recomputation (resume path).
fn parse_journal(text: &str, strict: bool) -> Result<ParsedJournal, JournalError> {
    let mut lines = Vec::new(); // (1-based line number, byte end, text)
    let mut offset = 0usize;
    for line in text.split_inclusive('\n') {
        let end = offset + line.len();
        lines.push((lines.len() + 1, end, line.trim_end_matches('\n')));
        offset = end;
    }
    // A complete line ends with '\n'; a trailing fragment does not.
    let torn_tail = !text.is_empty() && !text.ends_with('\n');
    let Some(&(_, header_end, header_line)) = lines.first() else {
        return Err(corrupt(1, "empty journal (missing header)"));
    };
    if torn_tail && (strict || lines.len() == 1) {
        return Err(corrupt(
            lines.len(),
            "truncated final line (torn write? resume the shard to repair)",
        ));
    }
    let header = parse_header(header_line)?;
    let mut entries = Vec::new();
    let mut valid_len = header_end as u64;
    for (i, &(line_no, end, line)) in lines.iter().enumerate().skip(1) {
        if line.is_empty() && i + 1 == lines.len() {
            break; // the final newline
        }
        if torn_tail && i + 1 == lines.len() {
            // The write never completed (resume path); recompute it.
            break;
        }
        match parse_entry(line_no, line) {
            Ok(entry) => {
                entries.push(entry);
                valid_len = end as u64;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(ParsedJournal {
        header,
        entries,
        valid_len,
    })
}

/// Checks that journaled entries are exactly the leading cells of the
/// shard's canonical sequence.
fn validate_prefix(cells: &[CellId], entries: &[(CellId, SweepPoint)]) -> Result<(), JournalError> {
    if entries.len() > cells.len() {
        return Err(corrupt(
            cells.len() + 2,
            format!(
                "journal records {} cells but the shard only has {}",
                entries.len(),
                cells.len()
            ),
        ));
    }
    for (i, (cell, _)) in entries.iter().enumerate() {
        if cells[i] != *cell {
            return Err(JournalError::NotAPrefix {
                line: i + 2,
                expected: cells[i],
                found: *cell,
            });
        }
    }
    Ok(())
}

/// Reads a completed (or partial) shard journal into a [`ShardResult`]
/// for [`SweepResult::merge`](super::SweepResult::merge).
///
/// # Errors
///
/// Fails on I/O errors, any malformed or torn line (the merge path is
/// strict; repairing a torn journal is a resumed
/// [`run_sweep`](super::run_sweep)'s job), or
/// entries that are not the leading cells of the shard's canonical
/// sequence under the header's recorded plan shape — so a corrupted
/// cell id cannot slip into a merge as silently misplaced data.
pub fn read_journal(path: impl AsRef<Path>) -> Result<ShardResult, JournalError> {
    let text = std::fs::read_to_string(path)?;
    let parsed = parse_journal(&text, true)?;
    let shard = parsed.header.shard();
    validate_prefix(&parsed.header.plan().shard_cells(shard), &parsed.entries)?;
    Ok(ShardResult {
        fingerprint: parsed.header.fingerprint,
        shard,
        plan_cells: parsed.header.plan_cells,
        entries: parsed.entries,
    })
}

/// Runs `shard` of `experiment` into a scratch journal and reads it
/// back: a shard as production produces one, through
/// [`run_sweep`](super::run_sweep) and [`read_journal`].
#[cfg(test)]
pub(crate) fn journaled_shard(experiment: &super::Experiment<'_>, shard: ShardSpec) -> ShardResult {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "shg_journaled_shard_{}_{}.jsonl",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let sink = JournalSink {
        path: &path,
        resume: false,
        durable: false,
    };
    super::run_sweep(experiment, shard, super::Executors::Local, Some(sink), None)
        .expect("shard runs");
    let result = read_journal(&path).expect("journal reads back");
    let _ = std::fs::remove_file(&path);
    result
}

/// An open journal file being appended to in canonical cell order —
/// the sink of [`run_sweep`](super::run_sweep).
///
/// With `durable` set, the header and every appended batch are
/// [`File::sync_data`](std::fs::File::sync_data)-ed to disk before the
/// writer moves on: after a power loss or machine crash the on-disk
/// file is guaranteed to be a prefix of the logical journal (plus at
/// most one torn line), which is exactly the shape the torn-line
/// recovery of a resume repairs. A `flush()` alone does **not** give
/// that guarantee — it only moves bytes into the page cache, and
/// writeback may land them out of order. Durability is flag-gated
/// because each sync is a disk round trip; local single-shot runs that
/// only need kill-resilience (not crash-resilience) keep their speed
/// by leaving it off.
#[derive(Debug)]
pub struct JournalWriter {
    file: std::fs::File,
    durable: bool,
    syncs: u64,
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path` and writes its header
    /// line for `plan` under `shard`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn create(
        path: impl AsRef<Path>,
        plan: &SweepPlan,
        shard: ShardSpec,
        durable: bool,
    ) -> Result<Self, JournalError> {
        let header = JournalHeader::of_plan(plan, shard);
        let mut file = std::fs::File::create(path)?;
        let header_line = serde_json::to_string(&header).expect("header serializes");
        writeln!(file, "{header_line}")?;
        file.flush()?;
        let mut writer = Self {
            file,
            durable,
            syncs: 0,
        };
        writer.sync_if_durable()?;
        Ok(writer)
    }

    /// Opens the journal `sink` names for `shard` and returns it with
    /// the points it already holds, in canonical order.
    ///
    /// With [`JournalSink::resume`] set and a journal at the path, its
    /// entries are validated against `plan` (fingerprint, shard, and a
    /// prefix of `cells`, the shard's cells) and kept; a torn final line
    /// is cut off, and so is everything when the kill landed inside the
    /// header. Otherwise the file is created afresh.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, or — when resuming — on a journal written
    /// under a different plan or shard, or whose entries are not a
    /// prefix of `cells`.
    pub(crate) fn open(
        sink: JournalSink<'_>,
        plan: &SweepPlan,
        shard: ShardSpec,
        cells: &[CellId],
    ) -> Result<(Self, Vec<SweepPoint>), JournalError> {
        let (path, durable) = (sink.path, sink.durable);
        // A file with no complete line means the kill landed during the
        // header write itself: nothing is recoverable, so recreate
        // rather than dead-ending every subsequent resume attempt.
        let existing = (sink.resume && path.exists())
            .then(|| std::fs::read_to_string(path))
            .transpose()?
            .filter(|text| text.contains('\n'));
        let Some(text) = existing else {
            return Ok((Self::create(path, plan, shard, durable)?, Vec::new()));
        };
        let parsed = parse_journal(&text, false)?;
        if parsed.header.fingerprint != plan.fingerprint() {
            return Err(JournalError::FingerprintMismatch {
                expected: plan.fingerprint(),
                found: parsed.header.fingerprint,
            });
        }
        let journal_shard = parsed.header.shard();
        if journal_shard != shard {
            return Err(JournalError::ShardMismatch {
                expected: shard,
                found: journal_shard,
            });
        }
        validate_prefix(cells, &parsed.entries)?;
        let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(parsed.valid_len)?; // drop any torn trailing line
        std::io::Seek::seek(&mut file, std::io::SeekFrom::End(0))?;
        let writer = Self {
            file,
            durable,
            syncs: 0,
        };
        Ok((writer, parsed.entries.into_iter().map(|(_, p)| p).collect()))
    }

    /// Appends one batch of completed cells as journal lines, flushed
    /// (and synced, when durable) as a unit.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn append(&mut self, entries: &[(CellId, SweepPoint)]) -> Result<(), JournalError> {
        let mut buffer = String::new();
        for (cell, point) in entries {
            buffer.push_str(&entry_line(*cell, point));
            buffer.push('\n');
        }
        self.file.write_all(buffer.as_bytes())?;
        self.file.flush()?;
        self.sync_if_durable()?;
        Ok(())
    }

    /// How many `sync_data` calls this writer has issued (0 unless
    /// durable): one for the header (on create) plus one per appended
    /// batch — the sync points the durability tests assert.
    #[must_use]
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    fn sync_if_durable(&mut self) -> Result<(), JournalError> {
        if self.durable {
            self.file.sync_data()?;
            self.syncs += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_lines_roundtrip_through_the_parser() {
        let point = SweepPoint {
            case: "mesh \"quoted\"".to_owned(),
            pattern: TrafficPattern::Hotspot(20),
            rate: 0.062_5,
            seed: u64::MAX,
            outcome: SimOutcome {
                offered_rate: 0.1,
                accepted_rate: 1.0 / 3.0,
                avg_packet_latency: 30.25,
                p50_packet_latency: 28.0,
                p99_packet_latency: 70.5,
                max_packet_latency: 80.0,
                measured_packets: 12_345,
                stable: true,
                cycles: 20_000,
                faults: FaultStats {
                    dropped_packets: 17,
                    unroutable_packets: 4,
                },
            },
        };
        let cell = CellId {
            case: 3,
            pattern: 6,
            rate: 11,
        };
        let line = entry_line(cell, &point);
        let (cell2, point2) = parse_entry(2, &line).expect("parses");
        assert_eq!(cell2, cell);
        assert_eq!(point2, point);
        // Byte-exact re-serialization (the merge identity's backbone).
        assert_eq!(entry_line(cell2, &point2), line);
    }

    fn test_header() -> JournalHeader {
        // One case, two patterns sweeping 3 + 2 rates: 5 cells.
        JournalHeader {
            format: FORMAT,
            version: VERSION,
            fingerprint: u64::MAX - 1,
            shard_index: 2,
            shard_count: 5,
            num_cases: 1,
            rates_per_pattern: vec![3, 2],
            plan_cells: 5,
        }
    }

    #[test]
    fn header_roundtrips_and_rejects_foreign_files() {
        let header = test_header();
        let line = serde_json::to_string(&header).expect("serializes");
        assert_eq!(parse_header(&line).expect("parses"), header);
        let err = parse_header("{\"format\":\"other\"}").expect_err("foreign");
        assert!(err.to_string().contains("not a shg-sweep-journal"), "{err}");
        assert!(parse_header("not json").is_err());
    }

    #[test]
    fn header_rejects_out_of_range_shards_and_inconsistent_shape() {
        let bad_shard = JournalHeader {
            shard_index: 5,
            ..test_header()
        };
        let line = serde_json::to_string(&bad_shard).expect("serializes");
        let err = parse_header(&line).expect_err("index 5 of 5 shards");
        assert!(err.to_string().contains("out of range"), "{err}");
        let bad_cells = JournalHeader {
            plan_cells: 7,
            ..test_header()
        };
        let line = serde_json::to_string(&bad_cells).expect("serializes");
        let err = parse_header(&line).expect_err("shape says 5 cells");
        assert!(err.to_string().contains("plan shape"), "{err}");
    }

    #[test]
    fn journal_writer_syncs_header_and_every_batch_only_when_durable() {
        let point = SweepPoint {
            case: "mesh".to_owned(),
            pattern: TrafficPattern::UniformRandom,
            rate: 0.1,
            seed: 7,
            outcome: SimOutcome {
                offered_rate: 0.1,
                accepted_rate: 0.1,
                avg_packet_latency: 10.0,
                p50_packet_latency: 9.0,
                p99_packet_latency: 20.0,
                max_packet_latency: 25.0,
                measured_packets: 100,
                stable: true,
                cycles: 1_000,
                faults: FaultStats::default(),
            },
        };
        let cell = |rate: u32| CellId {
            case: 0,
            pattern: 0,
            rate,
        };
        let plan = SweepPlan::from_shape(1, vec![3], 42);
        let dir = std::env::temp_dir().join(format!("shg_journal_writer_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let write_all = |path: &Path, durable: bool| -> u64 {
            let mut writer =
                JournalWriter::create(path, &plan, ShardSpec::SOLO, durable).expect("creates");
            // Three single-cell batches: durable mode must sync each
            // one (plus the header), non-durable none.
            for rate in 0..3 {
                writer
                    .append(&[(cell(rate), point.clone())])
                    .expect("appends");
            }
            writer.syncs()
        };
        let durable_path = dir.join("durable.jsonl");
        let fast_path = dir.join("fast.jsonl");
        assert_eq!(write_all(&durable_path, true), 1 + 3, "header + 3 batches");
        assert_eq!(write_all(&fast_path, false), 0, "flag off: no syncs");
        // Durability never changes the bytes.
        let durable_bytes = std::fs::read(&durable_path).expect("read");
        let fast_bytes = std::fs::read(&fast_path).expect("read");
        assert_eq!(durable_bytes, fast_bytes);
        // And both are valid, complete journals.
        let shard = read_journal(&durable_path).expect("parses");
        assert_eq!(shard.entries.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_is_dropped_on_resume_but_an_error_for_merge() {
        let mut text = serde_json::to_string(&test_header()).expect("serializes");
        text.push('\n');
        text.push_str("{\"cell\":{\"case\":0,\"pat"); // killed mid-write
        let lenient = parse_journal(&text, false).expect("resume tolerates");
        assert!(lenient.entries.is_empty());
        assert_eq!(lenient.valid_len as usize, text.find('\n').expect("nl") + 1);
        let err = parse_journal(&text, true).expect_err("merge is strict");
        assert!(err.to_string().contains("torn write"), "{err}");
        // Strict also rejects a torn final line that happens to parse:
        // the newline never landed, so the write did not complete.
        let mut parseable = serde_json::to_string(&test_header()).expect("serializes");
        parseable.push('\n');
        parseable.push_str(
            "{\"cell\":{\"case\":0,\"pattern\":0,\"rate\":0},\"point\":{}}", // no newline
        );
        assert!(parse_journal(&parseable, false).is_ok(), "resume tolerates");
        let err = parse_journal(&parseable, true).expect_err("merge is strict");
        assert!(err.to_string().contains("torn write"), "{err}");
    }
}
