//! The one full-outcome sweep driver, [`run_sweep`]: a shard of an
//! experiment's cells run on the local pool or across a fleet of
//! workers speaking the [`super::proto`] protocol.
//!
//! # Pipeline
//!
//! 1. **Shard cells**: `plan.shard_cells(shard)`.
//! 2. **Resume**: a resumed [`JournalSink`]'s entries are validated
//!    against the plan and loaded into the reorder buffer.
//! 3. **Cache probe (fleet only)**: hits in the experiment's
//!    [`CellCache`][super::CellCache] never reach a worker, and a fully
//!    warm request never touches the fleet. Local chunks need no probe:
//!    [`Experiment::run_cells`] probes each cell itself.
//! 4. **Chunk queue**: a local run cuts chunks only where a journal or
//!    a progress callback observes them, a few cells per pool thread;
//!    unobserved, its cells are one [`Experiment::run_cells`] call. A
//!    fleet gets about four chunks per worker, so stragglers leave
//!    stealable tail work.
//! 5. **Executors**: [`Executors::Local`] runs each chunk on the calling
//!    thread's pool. [`Executors::Fleet`] first handshakes (each worker
//!    must echo the plan fingerprint and cell count, or the request
//!    aborts before a cell is misattributed; a worker whose handshake
//!    I/O fails is dropped) and pre-warms workers that report a cache
//!    with the probe's hits — entries travel, cells don't. Then one
//!    coordinator thread per worker serves the queue. An idle worker
//!    *steals* a chunk still in flight elsewhere (results are
//!    deterministic, so the first completion wins); a dead worker's
//!    chunk is requeued, and only losing every worker is fatal.
//! 6. **Reorder buffer and sinks**: completed chunks land in one slot
//!    per shard cell, the longest completed prefix is appended to the
//!    [`JournalWriter`] in canonical order — byte-identical however
//!    chunks interleaved, were stolen or died, `fsync`ed when
//!    [`JournalSink::durable`] — and one progress callback hears of
//!    every banked chunk.
//!
//! Every worker-returned entry passes
//! [`Experiment::validate_point`][super::Experiment::validate_point]
//! before it is trusted, journaled or cached: mislabelled points are
//! a protocol error, not silent data corruption.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::{Condvar, Mutex};

use super::experiment::MIN_REUSE_GROUP;
use super::journal::{JournalError, JournalWriter};
use super::plan::CellId;
use super::proto::{read_frame, write_frame, ToCoord, ToWorker};
use super::result::{SweepPoint, SweepResult};
use super::shard::ShardSpec;
use super::Experiment;

/// Cache entries per [`ToWorker::Prewarm`] frame — keeps frames small
/// without chattiness.
const PREWARM_BATCH: usize = 256;

/// A connected worker: a name for diagnostics plus the byte streams it
/// speaks the protocol over (child stdio pipes, a TCP socket, an
/// in-process loopback — the coordinator does not care).
pub struct WorkerLink {
    name: String,
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
}

impl std::fmt::Debug for WorkerLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerLink")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl WorkerLink {
    /// Wraps a worker's byte streams.
    pub fn new(
        name: impl Into<String>,
        reader: impl Read + Send + 'static,
        writer: impl Write + Send + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            reader: Box::new(reader),
            writer: Box::new(writer),
        }
    }

    /// Wraps a connected TCP stream (cloned into separate read/write
    /// halves).
    ///
    /// # Errors
    ///
    /// Fails if the stream cannot be cloned.
    pub fn from_tcp(name: impl Into<String>, stream: std::net::TcpStream) -> std::io::Result<Self> {
        let reader = stream.try_clone()?;
        Ok(Self::new(name, reader, stream))
    }

    /// The worker's diagnostic name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sends [`ToWorker::Shutdown`]; errors are ignored (a worker that
    /// already hung up needs no goodbye).
    pub fn shutdown(&mut self) {
        let _ = write_frame(&mut self.writer, &ToWorker::Shutdown.encode());
    }

    fn send(&mut self, message: &ToWorker) -> std::io::Result<()> {
        write_frame(&mut self.writer, &message.encode())
    }

    fn receive(&mut self) -> std::io::Result<ToCoord> {
        let frame = read_frame(&mut self.reader)?;
        ToCoord::decode(&frame)
            .map_err(|message| std::io::Error::new(std::io::ErrorKind::InvalidData, message))
    }
}

/// Where [`run_sweep`] runs the cells nothing else answers.
#[derive(Debug)]
pub enum Executors<'w> {
    /// [`Experiment::run_cells`] on the calling thread, so a chunk runs
    /// on the caller's pool (the one `pool.install(..)` set).
    Local,
    /// A fleet of workers speaking the [`super::proto`] protocol.
    Fleet(Fleet<'w>),
}

/// A worker fleet serving one request of [`run_sweep`].
#[derive(Debug)]
pub struct Fleet<'w> {
    /// Labels the request on the wire.
    pub request_id: u64,
    /// The opaque key-value pairs every worker rebuilds its experiment
    /// from — ship the user's raw strings, never re-formatted values,
    /// so both sides parse identically (the fingerprint handshake
    /// catches any drift).
    pub params: &'w [(String, String)],
    /// The connected workers. Workers that die (handshake or
    /// mid-chunk) are removed; survivors remain connected and ready
    /// for the next request.
    pub workers: &'w mut Vec<WorkerLink>,
    /// Cells per dispatched chunk; `None` sizes chunks so each worker
    /// sees about four, leaving stealable tail work.
    pub chunk_size: Option<usize>,
}

/// The journal [`run_sweep`] streams completed cells into.
#[derive(Debug, Clone, Copy)]
pub struct JournalSink<'p> {
    /// The journal file.
    pub path: &'p Path,
    /// Continue the journal already at `path`, if any: its entries are
    /// validated against the plan (fingerprint, shard, prefix order)
    /// and skipped, a torn final line is discarded, and the finished
    /// journal is byte-identical to an uninterrupted run's. Without
    /// it, any existing file is truncated.
    pub resume: bool,
    /// `fsync` the journal after its header and after every appended
    /// batch (see [`JournalWriter`]).
    pub durable: bool,
}

/// What one run did — the numbers behind the service's summary line
/// and the smoke tests' assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoordSummary {
    /// Shard cells.
    pub cells: usize,
    /// Cells answered from the fleet's up-front cache probe.
    pub cached: usize,
    /// Cells handed to the executors.
    pub dispatched: usize,
    /// Chunks the dispatched cells were cut into.
    pub chunks: u64,
    /// Chunks an idle worker re-ran redundantly while the original
    /// assignee was still working.
    pub stolen_chunks: u64,
    /// Chunks requeued because their worker's connection died.
    pub requeued_chunks: u64,
    /// Workers lost over the request (handshake or mid-chunk).
    pub lost_workers: u64,
    /// Journal `fsync` calls (0 unless [`JournalSink::durable`]).
    pub journal_syncs: u64,
}

/// Why a run failed.
#[derive(Debug)]
pub enum CoordError {
    /// Cells needed simulating but no worker survived its handshake.
    NoWorkers,
    /// A worker rebuilt a *different* plan from the same params — a
    /// version or config drift that must not produce mixed results.
    FingerprintMismatch {
        /// The offending worker's name.
        worker: String,
        /// The coordinator's plan fingerprint.
        ours: u64,
        /// The worker's reported fingerprint.
        theirs: u64,
    },
    /// A worker reported an error (bad params, a cell outside its
    /// plan).
    Worker {
        /// The reporting worker's name.
        worker: String,
        /// The worker's message.
        message: String,
    },
    /// A worker answered with a malformed or mislabelled reply.
    Protocol {
        /// The offending worker's name.
        worker: String,
        /// What was wrong with the reply.
        message: String,
    },
    /// Every worker died with cells still outstanding.
    AllWorkersLost {
        /// Cells that never completed.
        remaining_cells: usize,
    },
    /// The journal could not be resumed or written.
    Journal(JournalError),
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoWorkers => write!(f, "no workers available to simulate uncached cells"),
            Self::FingerprintMismatch {
                worker,
                ours,
                theirs,
            } => write!(
                f,
                "worker '{worker}' built plan fingerprint {theirs:016x}, coordinator expects \
                 {ours:016x} — mismatched binaries or specs"
            ),
            Self::Worker { worker, message } => {
                write!(f, "worker '{worker}' reported an error: {message}")
            }
            Self::Protocol { worker, message } => {
                write!(f, "protocol violation from worker '{worker}': {message}")
            }
            Self::AllWorkersLost { remaining_cells } => write!(
                f,
                "all workers lost with {remaining_cells} cell(s) still outstanding"
            ),
            Self::Journal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoordError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Journal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JournalError> for CoordError {
    fn from(e: JournalError) -> Self {
        Self::Journal(e)
    }
}

/// A progress snapshot, reported once before the executors start and
/// after every banked chunk. Drives service logging and the smoke
/// tests' kill-a-worker-after-N-chunks hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordProgress {
    /// Chunks completed so far.
    pub chunks_done: u64,
    /// Total chunks.
    pub chunks_total: u64,
    /// Cells with results so far (resumed cells and cache hits
    /// included).
    pub cells_done: usize,
    /// Shard cells.
    pub cells_total: usize,
}

/// A progress callback; a fleet calls it from whichever coordinator
/// thread banked the chunk.
pub type ProgressFn<'p> = &'p mut (dyn FnMut(CoordProgress) + Send);

/// The canonical-order reorder buffer and its sinks: every executor
/// banks its completed chunks here.
struct Reorder<'p> {
    /// The shard's cells, canonical order.
    cells: Vec<CellId>,
    /// One slot per shard cell.
    points: Vec<Option<SweepPoint>>,
    /// Cells `[0, flushed)` are in the journal.
    flushed: usize,
    writer: Option<JournalWriter>,
    progress: Option<ProgressFn<'p>>,
    cells_done: usize,
    chunks_done: u64,
    chunks_total: u64,
}

impl Reorder<'_> {
    /// Places `entries` in their slots, appends the longest completed
    /// prefix to the journal and, for a completed chunk, reports it.
    fn bank(
        &mut self,
        entries: Vec<(CellId, SweepPoint)>,
        chunk: bool,
    ) -> Result<(), JournalError> {
        for (cell, point) in entries {
            let ordinal = self.cells.binary_search(&cell);
            self.points[ordinal.expect("executors answer shard cells")] = Some(point);
            self.cells_done += 1;
        }
        let ready = self.points[self.flushed..]
            .iter()
            .take_while(|p| p.is_some())
            .count();
        if let Some(writer) = self.writer.as_mut().filter(|_| ready > 0) {
            let batch: Vec<(CellId, SweepPoint)> = (self.flushed..self.flushed + ready)
                .map(|i| (self.cells[i], self.points[i].clone().expect("ready")))
                .collect();
            writer.append(&batch)?;
            self.flushed += ready;
        }
        if chunk {
            self.chunks_done += 1;
            self.report();
        }
        Ok(())
    }

    fn report(&mut self) {
        let snapshot = CoordProgress {
            chunks_done: self.chunks_done,
            chunks_total: self.chunks_total,
            cells_done: self.cells_done,
            cells_total: self.cells.len(),
        };
        if let Some(progress) = self.progress.as_mut() {
            progress(snapshot);
        }
    }

    /// The cells no executor has answered yet, canonical order.
    fn missing(&self) -> Vec<CellId> {
        self.cells
            .iter()
            .zip(&self.points)
            .filter(|(_, p)| p.is_none())
            .map(|(&c, _)| c)
            .collect()
    }
}

/// Runs `shard` of `experiment` to full outcomes, returning its points
/// in canonical order — bit-identical to
/// [`Experiment::run_parallel`]'s points of the same cells, whatever
/// executed them — and what it took. See the [module docs](self) for
/// the pipeline.
///
/// `journal`, when given, streams completed cells into a journal of
/// `shard` at its path. `progress`, when given, is called once before
/// the executors start and after every banked chunk. A local run with
/// neither runs all its cells in one [`Experiment::run_cells`] call;
/// with either, in chunks of a few cells per pool thread, the unit of
/// work a kill loses.
///
/// # Errors
///
/// See [`CoordError`]: a journal that cannot be resumed (a different
/// plan or shard, entries out of canonical order) or written, and the
/// fleet's failures. Worker deaths are not errors unless the fleet is
/// exhausted with cells outstanding ([`CoordError::AllWorkersLost`] —
/// or [`CoordError::NoWorkers`] when nobody survives the handshake).
///
/// # Panics
///
/// Panics if a coordinator thread panics (which would itself be a
/// bug, not an input condition).
pub fn run_sweep(
    experiment: &Experiment<'_>,
    shard: ShardSpec,
    executors: Executors<'_>,
    journal: Option<JournalSink<'_>>,
    progress: Option<ProgressFn<'_>>,
) -> Result<(SweepResult, CoordSummary), CoordError> {
    let plan = experiment.plan();
    let cells = plan.shard_cells(shard);
    let (writer, resumed) = match journal {
        Some(sink) => JournalWriter::open(sink, &plan, shard, &cells).map(|(w, r)| (Some(w), r))?,
        None => (None, Vec::new()),
    };
    let observed = writer.is_some() || progress.is_some();
    let mut summary = CoordSummary {
        cells: cells.len(),
        ..CoordSummary::default()
    };
    let mut points: Vec<Option<SweepPoint>> = resumed.into_iter().map(Some).collect();
    let flushed = points.len();
    points.resize(cells.len(), None);
    let mut buffer = Reorder {
        cells,
        points,
        flushed,
        writer,
        progress,
        cells_done: flushed,
        chunks_done: 0,
        chunks_total: 0,
    };

    match executors {
        Executors::Local => {
            let dispatch = buffer.missing();
            let chunk_size = if observed {
                rayon::current_num_threads().max(1) * 2 * MIN_REUSE_GROUP
            } else {
                dispatch.len().max(1)
            };
            buffer.chunks_total = dispatch.len().div_ceil(chunk_size) as u64;
            (summary.dispatched, summary.chunks) = (dispatch.len(), buffer.chunks_total);
            buffer.report();
            for chunk in dispatch.chunks(chunk_size) {
                let points = experiment.run_cells(chunk);
                buffer.bank(chunk.iter().copied().zip(points).collect(), true)?;
            }
        }
        Executors::Fleet(fleet) => run_fleet(experiment, &mut buffer, fleet, &mut summary)?,
    }

    summary.journal_syncs = buffer.writer.as_ref().map_or(0, JournalWriter::syncs);
    let points = buffer
        .points
        .into_iter()
        .map(|p| p.expect("every executor completed"))
        .collect();
    Ok((SweepResult { points }, summary))
}

/// One dispatched chunk and its queue state.
struct ChunkState {
    cells: Vec<CellId>,
    in_flight: u32,
    completed: bool,
}

/// Everything the per-worker threads share, behind one mutex.
struct State<'b, 'p> {
    buffer: &'b mut Reorder<'p>,
    /// Its stolen, requeued and lost counts are kept live.
    summary: &'b mut CoordSummary,
    chunks: Vec<ChunkState>,
    /// Chunk indices nobody is running.
    pending: VecDeque<usize>,
    /// Incomplete chunk count.
    remaining: usize,
    live_workers: usize,
    /// First fatal error; every thread drains and exits once set.
    abort: Option<CoordError>,
}

impl State<'_, '_> {
    /// Records the first fatal error; later ones lose the race and are
    /// dropped.
    fn set_abort(&mut self, error: CoordError) {
        if self.abort.is_none() {
            self.abort = Some(error);
        }
    }
}

/// The fleet executor: probes the cache, and — unless that answers
/// every cell — handshakes, pre-warms, and serves the chunk queue to
/// one coordinator thread per worker, banking into `buffer`.
fn run_fleet(
    experiment: &Experiment<'_>,
    buffer: &mut Reorder<'_>,
    executor: Fleet<'_>,
    summary: &mut CoordSummary,
) -> Result<(), CoordError> {
    let Fleet { request_id, .. } = executor;
    let plan = experiment.plan();
    let warm: Vec<(CellId, SweepPoint)> = buffer
        .missing()
        .into_iter()
        .filter_map(|cell| Some((cell, experiment.probe_cached(cell)?)))
        .collect();
    summary.cached = warm.len();
    buffer.bank(warm.clone(), false)?;
    let dispatch = buffer.missing();
    // Fully warm: no handshake, no dispatch — the fleet never hears
    // about this request.
    if dispatch.is_empty() {
        buffer.report();
        return Ok(());
    }

    // Handshake. Fingerprint drift is fatal; a dead worker is not.
    let mut fleet: Vec<(WorkerLink, bool)> = Vec::new();
    let request = ToWorker::Request {
        id: request_id,
        fingerprint: plan.fingerprint(),
        params: executor.params.to_vec(),
    };
    for mut link in executor.workers.drain(..) {
        let reply = link.send(&request).and_then(|()| link.receive());
        match reply {
            Ok(ToCoord::Ready {
                request: r,
                fingerprint,
                cells: n,
                cache,
            }) => {
                if r != request_id {
                    return Err(CoordError::Protocol {
                        worker: link.name,
                        message: format!("ready for request {r}, expected {request_id}"),
                    });
                }
                if fingerprint != plan.fingerprint() || n as usize != plan.num_cells() {
                    return Err(CoordError::FingerprintMismatch {
                        worker: link.name,
                        ours: plan.fingerprint(),
                        theirs: fingerprint,
                    });
                }
                fleet.push((link, cache));
            }
            Ok(ToCoord::Error { message }) => {
                return Err(CoordError::Worker {
                    worker: link.name,
                    message,
                });
            }
            Ok(ToCoord::ChunkDone { .. }) => {
                return Err(CoordError::Protocol {
                    worker: link.name,
                    message: "chunk-done before any chunk was dispatched".to_owned(),
                });
            }
            Err(_) => summary.lost_workers += 1, // dropped; the fleet shrinks
        }
    }

    // Pre-warm cache-holding workers with the probe's hits.
    fleet.retain_mut(|(link, has_cache)| {
        let alive = !*has_cache
            || warm.chunks(PREWARM_BATCH).all(|batch| {
                let entries = batch.to_vec();
                link.send(&ToWorker::Prewarm { entries }).is_ok()
            });
        summary.lost_workers += u64::from(!alive);
        alive
    });
    if fleet.is_empty() {
        return Err(CoordError::NoWorkers);
    }

    // Cut chunks. Default sizing leaves about four chunks per worker
    // so a straggler's tail is stealable.
    let chunk_size = executor
        .chunk_size
        .unwrap_or_else(|| dispatch.len().div_ceil(fleet.len() * 4))
        .max(1);
    let chunks: Vec<ChunkState> = dispatch
        .chunks(chunk_size)
        .map(|cells| ChunkState {
            cells: cells.to_vec(),
            in_flight: 0,
            completed: false,
        })
        .collect();
    buffer.chunks_total = chunks.len() as u64;
    (summary.dispatched, summary.chunks) = (dispatch.len(), buffer.chunks_total);
    buffer.report();

    let state = Mutex::new(State {
        buffer,
        remaining: chunks.len(),
        pending: (0..chunks.len()).collect(),
        chunks,
        summary,
        live_workers: fleet.len(),
        abort: None,
    });
    let work_available = Condvar::new();
    let survivors: Vec<Option<WorkerLink>> = std::thread::scope(|scope| {
        let handles: Vec<_> = fleet
            .into_iter()
            .map(|(link, _)| {
                scope.spawn(|| worker_thread(experiment, &state, &work_available, link))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("coordinator worker thread panicked"))
            .collect()
    });
    executor.workers.extend(survivors.into_iter().flatten());

    let mut state = state.into_inner().expect("coordinator state poisoned");
    if let Some(abort) = state.abort.take() {
        return Err(abort);
    }
    if state.remaining > 0 {
        let remaining_cells = state.buffer.missing().len();
        return Err(CoordError::AllWorkersLost { remaining_cells });
    }
    Ok(())
}

/// The per-worker coordinator loop: claim a pending chunk (or steal an
/// in-flight one), ship it, validate and bank the reply; on a dead
/// connection, requeue and exit. Returns the link if the worker is
/// still healthy when the request drains.
fn worker_thread(
    experiment: &Experiment<'_>,
    state: &Mutex<State<'_, '_>>,
    work_available: &Condvar,
    mut link: WorkerLink,
) -> Option<WorkerLink> {
    loop {
        // Claim work.
        let (index, chunk_cells) = {
            let mut guard = state.lock().expect("coordinator state poisoned");
            loop {
                if guard.abort.is_some() || guard.remaining == 0 {
                    return Some(link);
                }
                if let Some(index) = guard.pending.pop_front() {
                    guard.chunks[index].in_flight += 1;
                    break (index, guard.chunks[index].cells.clone());
                }
                // Nothing pending but cells remain: steal the least
                // contended incomplete chunk (earliest on ties — it
                // unblocks the journal prefix soonest).
                let steal = (0..guard.chunks.len())
                    .filter(|&i| !guard.chunks[i].completed)
                    .min_by_key(|&i| (guard.chunks[i].in_flight, i));
                if let Some(index) = steal {
                    guard.summary.stolen_chunks += 1;
                    guard.chunks[index].in_flight += 1;
                    break (index, guard.chunks[index].cells.clone());
                }
                // remaining > 0 yet nothing incomplete is impossible;
                // defensive wait keeps this loop honest if it ever
                // changes.
                guard = work_available
                    .wait(guard)
                    .expect("coordinator state poisoned");
            }
        };

        // Ship and await off-lock: this is where simulation time goes.
        let chunk = ToWorker::Chunk {
            id: index as u64,
            cells: chunk_cells.clone(),
        };
        let reply = link.send(&chunk).and_then(|()| link.receive());

        let mut guard = state.lock().expect("coordinator state poisoned");
        guard.chunks[index].in_flight -= 1;
        let error = match reply {
            Ok(ToCoord::ChunkDone { id, entries }) => {
                let checked = if id == index as u64 {
                    check_entries(experiment, &chunk_cells, &entries)
                } else {
                    Err(format!("chunk-done for chunk {id}, expected {index}"))
                };
                match checked {
                    Err(message) => CoordError::Protocol {
                        worker: link.name.clone(),
                        message,
                    },
                    // A stolen duplicate of a banked chunk is dropped:
                    // the first completion wins.
                    Ok(()) if guard.chunks[index].completed => continue,
                    Ok(()) => {
                        guard.chunks[index].completed = true;
                        guard.remaining -= 1;
                        for (cell, point) in &entries {
                            experiment.store_cached(*cell, point);
                        }
                        if let Err(e) = guard.buffer.bank(entries, true) {
                            guard.set_abort(CoordError::Journal(e));
                        }
                        let finished = guard.remaining == 0 || guard.abort.is_some();
                        drop(guard);
                        work_available.notify_all();
                        if finished {
                            return Some(link);
                        }
                        continue;
                    }
                }
            }
            Ok(ToCoord::Error { message }) => CoordError::Worker {
                worker: link.name.clone(),
                message,
            },
            Ok(ToCoord::Ready { .. }) => CoordError::Protocol {
                worker: link.name.clone(),
                message: "unexpected ready during dispatch".to_owned(),
            },
            Err(_) => {
                // The connection died. The chunk survives: requeue it
                // unless someone else is (or was) already on it.
                guard.live_workers -= 1;
                guard.summary.lost_workers += 1;
                if !guard.chunks[index].completed && guard.chunks[index].in_flight == 0 {
                    guard.pending.push_front(index);
                    guard.summary.requeued_chunks += 1;
                }
                if guard.live_workers == 0 && guard.remaining > 0 {
                    let remaining_cells = guard.buffer.missing().len();
                    guard.set_abort(CoordError::AllWorkersLost { remaining_cells });
                }
                work_available.notify_all();
                return None;
            }
        };
        guard.set_abort(error);
        work_available.notify_all();
        return Some(link);
    }
}

/// Validates one chunk reply: every requested cell answered, in order,
/// with a point that is really that cell's (see
/// [`Experiment::validate_point`]).
fn check_entries(
    experiment: &Experiment<'_>,
    requested: &[CellId],
    entries: &[(CellId, SweepPoint)],
) -> Result<(), String> {
    if entries.len() != requested.len() {
        return Err(format!(
            "chunk answered {} entries for {} requested cells",
            entries.len(),
            requested.len()
        ));
    }
    for (&cell, (got, point)) in requested.iter().zip(entries) {
        if *got != cell {
            return Err(format!("entry for cell {got}, expected {cell}"));
        }
        if !experiment.validate_point(cell, point) {
            return Err(format!("entry for cell {cell} fails identity validation"));
        }
    }
    Ok(())
}
