//! The parallel sweep engine: one shared evaluation loop for every
//! experiment that measures (topology × traffic pattern × injection
//! rate) grids, structured as **plan / execute / merge** so a sweep can
//! be split across threads, processes or machines and recombined
//! byte-identically.
//!
//! The paper's prediction toolchain exists to sweep thousands of such
//! points (Fig. 6's Pareto fronts); before this module each bench
//! binary carried its own warmup/measure loop. An [`Experiment`] owns a
//! set of [`SweepCase`]s (topology + routing table + per-link
//! latencies, computed **once** per topology and shared across all of
//! its grid cells) and a [`SweepSpec`] (the rate × pattern grid); it
//! fans the grid out over threads and returns a [`SweepResult`] that is
//! deterministic — same spec and seed ⇒ byte-identical JSON — no matter
//! how many threads ran it, because every point derives its RNG seed
//! from its grid coordinates alone and results are collected in grid
//! order.
//!
//! The layers, each its own submodule:
//!
//! * [`spec`] — the grid: rates × patterns plus the shared [`SimConfig`].
//! * [`plan`] — [`CellId`] coordinates with a canonical total order,
//!   [`SweepPlan::cells`] enumeration and the plan fingerprint.
//! * [`shard`] — [`ShardSpec`]: strided division of the cell sequence
//!   between independent workers.
//! * [`experiment`] — [`Experiment`]: runs the whole grid
//!   ([`Experiment::run_parallel`]) or an arbitrary cell subset
//!   ([`Experiment::run_cells`]), each same-case group of cells on one
//!   `Network` reset between cells.
//! * [`cache`] — [`CellCache`]: a content-addressed on-disk store of
//!   completed cells keyed per cell (not per plan), so re-runs and
//!   widened grids simulate only what actually changed.
//! * [`journal`] — append-only JSONL of completed cells
//!   ([`JournalWriter`], [`read_journal`]) enabling kill-and-resume
//!   workers, with opt-in `fsync` durability.
//! * [`result`] — [`SweepResult`], its deterministic JSON, and
//!   [`SweepResult::merge`] recombining shards into the single-shot
//!   bytes.
//! * [`proto`] — the framed wire protocol between a sweep-service
//!   coordinator and its workers, plus the worker-side
//!   [`serve_worker`] loop.
//! * [`coord`] — [`run_sweep`], the one full-outcome driver: shard
//!   cells, a resumed journal prefix, a chunk queue served to the local
//!   pool or to a worker fleet ([`Executors`]; with work stealing,
//!   dead-worker requeue and shared-cache pre-warming), and a
//!   canonical-order reorder buffer feeding the journal and one
//!   progress callback.
//!
//! The journal and the cache compose: the journal is the
//! crash-consistency layer of **one** execution (plan-fingerprinted,
//! strict ordering), while the cache is the **cross-run** layer
//! (per-cell identity, survives grid changes). A resumed journal skips
//! its completed cells outright; the remainder flows through
//! [`Experiment::run_cells`], where the cache answers every cell it
//! has seen before.
//!
//! # Examples
//!
//! ```
//! use shg_sim::{sweep, Experiment, SimConfig, SweepSpec};
//! use shg_topology::{generators, Grid};
//!
//! let mesh = generators::mesh(Grid::new(4, 4));
//! let spec = SweepSpec::new(SimConfig::fast_test())
//!     .rates([0.02, 0.1])
//!     .patterns(sweep::ALL_PATTERNS);
//! let result = Experiment::new(spec)
//!     .with_unit_latency_case("mesh", &mesh)
//!     .expect("mesh routes")
//!     .run_parallel();
//! assert_eq!(result.points.len(), 2 * sweep::ALL_PATTERNS.len());
//! ```
//!
//! Sharded: run each shard anywhere into its journal, then merge the
//! journals to the identical bytes.
//!
//! ```
//! # use shg_sim::sweep::{read_journal, run_sweep, Executors, JournalSink, ShardSpec};
//! # use shg_sim::{Experiment, SimConfig, SweepResult, SweepSpec};
//! # use shg_topology::{generators, Grid};
//! # let mesh = generators::mesh(Grid::new(4, 4));
//! # let spec = SweepSpec::new(SimConfig::fast_test()).rates([0.02, 0.1]);
//! # let experiment = Experiment::new(spec).with_unit_latency_case("mesh", &mesh)?;
//! # let dir = std::env::temp_dir().join(format!("shg_sweep_doc_{}", std::process::id()));
//! # std::fs::create_dir_all(&dir)?;
//! let mut shards = Vec::new();
//! for i in 0..3 {
//!     let path = dir.join(format!("shard{i}.jsonl"));
//!     let journal = JournalSink { path: &path, resume: false, durable: false };
//!     run_sweep(&experiment, ShardSpec::new(i, 3), Executors::Local, Some(journal), None)?;
//!     shards.push(read_journal(&path)?);
//! }
//! let merged = SweepResult::merge(shards).expect("disjoint and complete");
//! assert_eq!(merged.to_json(), experiment.run_parallel().to_json());
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cache;
pub mod coord;
pub mod experiment;
pub mod journal;
pub mod plan;
pub mod proto;
pub mod result;
pub mod shard;
pub mod spec;

pub use cache::{CacheStats, CellCache};
pub use coord::{
    run_sweep, CoordError, CoordProgress, CoordSummary, Executors, Fleet, JournalSink, ProgressFn,
    WorkerLink,
};
pub use experiment::{ExecBackend, ExecStats, Experiment, SustainedRow, SweepCase};
pub use journal::{read_journal, JournalError, JournalWriter};
pub use plan::{CellId, SweepPlan};
pub use proto::{connect_with_backoff, serve_worker};
pub use result::{MergeError, ShardResult, SweepPoint, SweepResult};
pub use shard::{ShardParseError, ShardSpec};
pub use spec::{log_spaced, PatternRates, SweepSpec, ALL_PATTERNS};

use shg_topology::routing::Routes;
use shg_topology::Topology;
use shg_units::Cycles;

use crate::config::SimConfig;
use crate::traffic::TrafficPattern;

/// Convenience free function mirroring the classic latency-vs-load
/// sweep: one case, one pattern, a rate grid, run in parallel.
#[must_use]
pub fn load_curve(
    name: &str,
    topology: &Topology,
    routes: Routes,
    link_latencies: Vec<Cycles>,
    config: &SimConfig,
    pattern: TrafficPattern,
    rates: &[f64],
) -> SweepResult {
    let spec = SweepSpec::new(config.clone())
        .rates(rates.iter().copied())
        .patterns([pattern]);
    Experiment::new(spec)
        .with_case(SweepCase::annotated(name, topology, routes, link_latencies))
        .run_parallel()
}
