//! Cycle-accurate network-on-chip simulator.
//!
//! A from-scratch replacement for the BookSim2 simulator used by the
//! Sparse Hamming Graph paper (see `DESIGN.md`, substitution #1). It
//! models:
//!
//! * input-queued routers with virtual channels (default: 8 VCs × 32-flit
//!   buffers, matching the paper's evaluation),
//! * credit-based flow control,
//! * multi-cycle pipelined links whose latencies come from the floorplan
//!   model,
//! * separable round-robin VC and switch allocation, request-driven
//!   (only live requests are visited),
//! * deterministic table routing with VC classes (from
//!   [`shg_topology::routing`]),
//! * synthetic traffic patterns with per-tile RNG streams and
//!   event-driven (calendar) Bernoulli injection,
//! * warm-up / measurement / drain methodology with zero-load-latency and
//!   saturation-throughput extraction, as in BookSim.
//!
//! Each cycle phase has one implementation: the injection calendar,
//! the active-set sweep over routers and channels, and the
//! request-driven allocator. Their oracle is the pinned outcomes in
//! `tests/golden_outcomes.txt` (with the `fig6`, `table3_mempool` and
//! two-die journal goldens of the bench crate), plus the per-cycle
//! invariants [`Network::run_validated`] asserts.
//!
//! # Examples
//!
//! ```
//! use shg_sim::{
//!     saturation_throughput, zero_load_latency, SaturationSearch, SimConfig, TrafficPattern,
//! };
//! use shg_topology::{generators, routing, Grid};
//! use shg_units::Cycles;
//!
//! let mesh = generators::mesh(Grid::new(4, 4));
//! let routes = routing::default_routes(&mesh).expect("mesh routes");
//! let latencies = vec![Cycles::one(); mesh.num_links()];
//! let config = SimConfig::fast_test();
//! let zll = zero_load_latency(&mesh, &routes, &latencies, &config);
//! let saturation = saturation_throughput(
//!     &mesh,
//!     &routes,
//!     &latencies,
//!     &config,
//!     TrafficPattern::UniformRandom,
//!     SaturationSearch::default(),
//! );
//! assert!(zll > 0.0);
//! assert!(saturation > 0.05);
//! ```

mod config;
mod fault;
mod flit;
mod injection;
mod network;
mod router;
mod runner;
mod stats;
pub mod sweep;
mod traffic;

pub use config::SimConfig;
pub use fault::{FaultEvent, FaultKind, FaultPlan, InFlightPolicy};
pub use flit::Flit;
pub use injection::{geometric_gap, tile_stream_seed, Injector};
pub use network::{Network, PhaseProfile};
pub use runner::{
    saturation_search, saturation_throughput, zero_load_latency, zero_load_latency_from_loads,
    SaturationSearch,
};
pub use stats::{percentile, FaultStats, SimOutcome};
pub use sweep::{
    CacheStats, CellCache, CellId, CoordSummary, ExecBackend, ExecStats, Experiment, ShardResult,
    ShardSpec, SustainedRow, SweepCase, SweepPlan, SweepPoint, SweepResult, SweepSpec, WorkerLink,
};
pub use traffic::TrafficPattern;
