//! Shared helpers for the experiment harness binaries and benches.
//!
//! The binaries in `src/bin/` regenerate the paper's tables and figures
//! (see `DESIGN.md` §3 for the experiment index); the Criterion benches
//! in `benches/` measure the speed claims (the toolchain must run "at the
//! speed of high-level models"). All simulation-grid work goes through
//! the shared sweep engine ([`shg_sim::sweep`] plus the scenario layer
//! in [`sweep`]) instead of per-binary measurement loops.

pub mod sweep;

use rayon::prelude::*;

use shg_core::{Evaluation, Scenario, Toolchain};
use shg_sim::{Network, SimConfig, TrafficPattern};
use shg_topology::db::TopologyDb;
use shg_topology::generators::GeneratorSpec;
use shg_topology::{routing, Topology};
use shg_units::Cycles;

/// One alternating measurement of per-cell setup cost: fresh
/// [`Network`] construction vs. [`Network::reset`] of a dirtied reused
/// instance (see [`profile_setup_phase`]).
#[derive(Debug, Clone, Copy)]
pub struct SetupSample {
    /// Wall seconds to build a fresh `Network` for one cell.
    pub fresh: f64,
    /// Wall seconds to `reset` a reused (previously run, therefore
    /// dirty) `Network` for the same cell.
    pub reset: f64,
}

impl SetupSample {
    /// The fresh-construction / reset-reuse speedup ratio of this
    /// sample — what a sweep's cell group saves per cell before the
    /// simulation itself starts.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.fresh / self.reset
    }
}

/// Runs `samples` alternating per-cell setups: each round constructs a
/// fresh `Network` and runs one short cell on it, then `reset`s a
/// persistent network (left dirty by the previous round's run) and
/// runs the same cell — asserting bit-identical outcomes — timing only
/// the construction and the reset. The one measurement protocol shared
/// by the `setup_phase` Criterion headline and the CI perf-smoke
/// `network_reset_vs_rebuild` gate.
///
/// # Panics
///
/// Panics if the topology has no default routes or a reused run ever
/// disagrees with its fresh-construction twin.
#[must_use]
pub fn profile_setup_phase(
    topology: &Topology,
    config: &SimConfig,
    rate: f64,
    samples: usize,
) -> Vec<SetupSample> {
    let routes = routing::default_routes(topology).expect("routes");
    let latencies = vec![Cycles::one(); topology.num_links()];
    let cell_config = |seed: u64| SimConfig {
        seed,
        ..config.clone()
    };
    // Dirty the reused instance before the first sample so every reset
    // measured cleans a realistically touched network.
    let mut reused = Network::new(topology, &routes, &latencies, cell_config(0));
    let _ = reused.run(rate, TrafficPattern::UniformRandom);
    (0..samples as u64)
        .map(|i| {
            let seed = config.seed.wrapping_add(i + 1);
            let start = std::time::Instant::now();
            let mut fresh_net = Network::new(topology, &routes, &latencies, cell_config(seed));
            let fresh = start.elapsed().as_secs_f64();
            let fresh_outcome = fresh_net.run(rate, TrafficPattern::UniformRandom);
            let start = std::time::Instant::now();
            reused.reset(seed);
            let reset = start.elapsed().as_secs_f64();
            let reused_outcome = reused.run(rate, TrafficPattern::UniformRandom);
            assert_eq!(
                fresh_outcome, reused_outcome,
                "reset-reuse must match fresh construction"
            );
            SetupSample { fresh, reset }
        })
        .collect()
}

/// The median of a sample set (odd-length sets return the true
/// median). Used by the bench headlines and the perf-smoke gate.
///
/// # Panics
///
/// Panics on an empty set.
#[must_use]
pub fn median(mut samples: Vec<f64>) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample set");
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// All topologies applicable to a scenario's grid, in Fig. 6's order:
/// ring, mesh, torus, folded torus, hypercube (power-of-two grids),
/// SlimNoC (2q² tiles), flattened butterfly, and the scenario's customized
/// sparse Hamming graph. The fixed topologies come from
/// [`GeneratorSpec::fixed`]; specs the grid does not admit (hypercube,
/// SlimNoC) are skipped.
#[must_use]
pub fn applicable_topologies(scenario: &Scenario) -> Vec<Topology> {
    let grid = scenario.params.grid;
    let mut topologies: Vec<Topology> = GeneratorSpec::fixed()
        .iter()
        .filter_map(|spec| spec.build(grid).ok())
        .collect();
    topologies.push(scenario.shg.build());
    topologies
}

/// The topology selected by `--topology <spec>` (default `shg`), named
/// the way the sweep engine's cases are — the one `--topology` parser
/// every harness binary shares instead of per-binary name matching:
///
/// * `shg` — the scenario's customized sparse Hamming graph;
/// * any [`GeneratorSpec`] (`mesh`, `torus`, `fb`, `ruche:3`,
///   `shg:sr=4:sc=2,5`, …), built on the scenario grid;
/// * `db:<spec>` — a topology database in its one-token wire form
///   (fields `/`-separated, statements `;`-separated), instantiated
///   through the expanded grid.
///
/// The case is named by the raw `--topology` value unless `--case
/// <name>` overrides it (e.g. to byte-compare a DB-built topology
/// against its legacy twin under the same case name).
///
/// Unknown specs and grid mismatches are usage errors: reported via
/// [`cli_error`] (exit code 2), never a panic.
#[must_use]
pub fn topology_from_args(scenario: &Scenario) -> (String, Topology) {
    let raw = arg_value("--topology").unwrap_or_else(|| "shg".to_owned());
    let grid = scenario.params.grid;
    let topology = if raw == "shg" {
        scenario.shg.build()
    } else if let Some(spec) = raw.strip_prefix("db:") {
        TopologyDb::parse(spec)
            .map_err(|e| e.to_string())
            .and_then(|db| db.instantiate().map_err(|e| e.to_string()))
            .unwrap_or_else(|e| cli_error(format!("--topology {raw}: {e}")))
    } else {
        raw.parse::<GeneratorSpec>()
            .map_err(|e| e.to_string())
            .and_then(|spec| spec.build(grid).map_err(|e| e.to_string()))
            .unwrap_or_else(|e| cli_error(format!("--topology {raw}: {e}")))
    };
    let name = arg_value("--case").unwrap_or(raw);
    (name, topology)
}

/// Like [`applicable_topologies`], labelled with their display names
/// (the form the sweep engine's cases take).
#[must_use]
pub fn named_topologies(scenario: &Scenario) -> Vec<(String, Topology)> {
    applicable_topologies(scenario)
        .into_iter()
        .map(|t| (t.kind().to_string(), t))
        .collect()
}

/// Evaluates all applicable topologies, fanned out on the rayon pool.
///
/// # Panics
///
/// Panics if any evaluation fails (all built-in topologies route).
#[must_use]
pub fn evaluate_all(scenario: &Scenario, toolchain: &Toolchain) -> Vec<Evaluation> {
    let topologies = applicable_topologies(scenario);
    topologies
        .par_iter()
        .map(|topology| {
            toolchain
                .evaluate(&scenario.params, topology)
                .unwrap_or_else(|e| panic!("evaluating {topology}: {e}"))
        })
        .collect()
}

/// Reports a user-input error the way a CLI should — a one-line
/// message plus a pointer at `--help` on stderr, exit code 2 (the
/// conventional usage-error code, distinct from runtime failures' 1) —
/// instead of a panic with a backtrace. Every harness binary funnels
/// its flag-validation failures through here.
pub fn cli_error(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    eprintln!("run with --help for usage");
    std::process::exit(2);
}

/// The scenario named by `--scenario` (`default` without the flag); an
/// unknown name is a usage error via [`cli_error`].
#[must_use]
pub fn scenario_from_args(default: &str) -> Scenario {
    let which = arg_value("--scenario").unwrap_or_else(|| default.to_owned());
    Scenario::by_name(&which)
        .unwrap_or_else(|| cli_error(format!("unknown scenario '{which}' (use a|b|c|d)")))
}

/// Parses `--scenario <name>` style flags out of `std::env::args`.
#[must_use]
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// `true` if a bare flag (e.g. `--fast`) is present.
#[must_use]
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Flags that were removed: the execution backend, its batch width and
/// the routing-table form are no longer choices.
const RETIRED_FLAGS: [&str; 3] = ["--backend", "--lanes", "--routes"];

/// The usage-error message for a removed flag or request param.
#[must_use]
pub fn retired_flag_message(what: &str) -> String {
    format!("{what} was removed: every sweep runs one simulator engine on next-hop routing tables")
}

/// Rejects the removed flags `--backend`, `--lanes` and `--routes`
/// through [`cli_error`] (exit code 2), so a script that still passes
/// one learns so instead of having it silently ignored. Every harness
/// binary calls this before any other work.
pub fn reject_retired_flags() {
    if let Some(flag) = RETIRED_FLAGS.into_iter().find(|flag| has_flag(flag)) {
        cli_error(retired_flag_message(flag));
    }
}

/// The fault-injection plan selected by `--faults <plan>` (default:
/// the empty plan — no faults, bit-identical to a fault-free build).
/// The wire form is [`shg_sim::FaultPlan::parse`]'s: an optional
/// `drop`/`drain` in-flight policy token followed by comma-separated
/// `CYCLE:link:A-B` / `CYCLE:router:R` kills, e.g.
/// `drain,2000:link:3-4,2500:router:9`.
///
/// Only the syntax is checked here; range checks against the concrete
/// swept topologies happen when cases are annotated
/// ([`sweep::annotated_experiment`]) or, for single-topology binaries,
/// via [`shg_sim::FaultPlan::validate`] at the call site.
///
/// A malformed plan is a usage error: reported via [`cli_error`] (exit
/// code 2), never a panic.
#[must_use]
pub fn fault_plan_from_args() -> shg_sim::FaultPlan {
    arg_value("--faults").map_or_else(shg_sim::FaultPlan::default, |spec| {
        shg_sim::FaultPlan::parse(&spec)
            .unwrap_or_else(|e| cli_error(format!("--faults '{spec}': {e}")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_a_has_seven_topologies() {
        // 64 tiles: no SlimNoC.
        let topologies = applicable_topologies(&Scenario::knc_a());
        assert_eq!(topologies.len(), 7);
    }

    #[test]
    fn scenario_c_has_eight_topologies() {
        // 128 tiles: SlimNoC applies.
        let topologies = applicable_topologies(&Scenario::knc_c());
        assert_eq!(topologies.len(), 8);
    }

    #[test]
    fn named_topologies_have_unique_names() {
        let named = named_topologies(&Scenario::knc_a());
        let unique: std::collections::HashSet<&String> = named.iter().map(|(n, _)| n).collect();
        assert_eq!(unique.len(), named.len());
    }
}
