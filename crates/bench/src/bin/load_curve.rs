//! Latency-vs-offered-load curves — the raw simulator data underlying the
//! saturation-throughput points of Fig. 6, for every traffic pattern.
//!
//! Run with:
//! `cargo run --release -p shg-bench --bin load_curve -- [--scenario a]
//!  [--topology <spec>] [--case <name>]
//!  [--pattern all|uniform|transpose|...]
//!  [--faults <plan>] [--json]
//!  [--shard i/N] [--resume journal.jsonl] [--cache <dir>]
//!  [--backend per-cell|reuse|batched|auto] [--lanes K] [--progress]`
//!
//! `--topology` takes the shared spec grammar
//! ([`shg_bench::topology_from_args`]): `shg` (default, the scenario's
//! customized graph), any generator spec (`mesh`, `torus`, `fb`,
//! `ring`, `ruche:3`, `shg:sr=4:sc=2,5`, …) on the scenario grid, or
//! `db:<wire spec>` for an expanded-grid topology instantiated from a
//! topology database. `--case` renames the sweep case (e.g. to
//! byte-compare a DB-built mesh against the legacy `mesh` case).
//!
//! `--json` prints the full `SweepResult` as JSON instead of tables —
//! the machine-readable output downstream plotting consumes. The
//! sharding flags are the standard set
//! ([`shg_bench::sweep::run_experiment`]).

use shg_bench::{arg_value, has_flag};
use shg_core::{AnnotatedTopology, Scenario};
use shg_floorplan::ModelOptions;
use shg_sim::sweep::ALL_PATTERNS;
use shg_sim::{Experiment, SimConfig, SweepCase, SweepSpec, TrafficPattern};
use shg_topology::routing;

fn pattern_by_name(name: &str) -> Option<TrafficPattern> {
    match name {
        "uniform" | "uniform-random" => Some(TrafficPattern::UniformRandom),
        "transpose" => Some(TrafficPattern::Transpose),
        "bit-complement" | "bitcomp" => Some(TrafficPattern::BitComplement),
        "reverse" => Some(TrafficPattern::Reverse),
        "tornado" => Some(TrafficPattern::Tornado),
        "neighbor" => Some(TrafficPattern::Neighbor),
        "hotspot" => Some(TrafficPattern::Hotspot(20)),
        _ => None,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let which = arg_value("--scenario").unwrap_or_else(|| "a".to_owned());
    let scenario =
        Scenario::by_name(&which).ok_or_else(|| format!("unknown scenario '{which}'"))?;
    let (topology_name, topology) = shg_bench::topology_from_args(&scenario);
    // An expanded-grid topology replaces the scenario grid; the
    // floorplan model asserts its parameter grid matches the topology.
    let mut params = scenario.params.clone();
    params.grid = topology.grid();
    let patterns: Vec<TrafficPattern> = match arg_value("--pattern").as_deref() {
        None | Some("all") => ALL_PATTERNS.to_vec(),
        Some(name) => {
            vec![pattern_by_name(name).ok_or_else(|| format!("unknown pattern '{name}'"))?]
        }
    };
    let annotated = AnnotatedTopology::annotate(
        &params,
        topology,
        &ModelOptions {
            cell_scale: 2.0,
            ..ModelOptions::default()
        },
    );
    let routes = routing::default_routes(&annotated.topology)?;
    let faults = shg_bench::fault_plan_from_args();
    faults
        .validate(&annotated.topology)
        .unwrap_or_else(|e| shg_bench::cli_error(format!("--faults: {e}")));
    let config = SimConfig {
        warmup: 3_000,
        measure: 6_000,
        drain_limit: 20_000,
        faults,
        ..SimConfig::default()
    };
    let spec = SweepSpec::new(config)
        .rates((1..=19).map(|i| f64::from(i) * 0.05))
        .patterns(patterns)
        // Hot-spot curves saturate below 0.05 on the KNC grids; give
        // them a log-spaced low end so the curve has a stable segment.
        .hotspot_low_rates(4, 0.005);
    let mut experiment = Experiment::new(spec).with_case(SweepCase::annotated(
        topology_name.clone(),
        &annotated.topology,
        routes,
        annotated.link_latencies.clone(),
    ));
    let result = shg_bench::sweep::run_experiment(&mut experiment);
    if has_flag("--json") {
        println!("{}", result.to_json());
        return Ok(());
    }
    println!(
        "Load sweep: {} on scenario ({}), {} pattern(s), {} points",
        annotated.topology,
        scenario.name,
        experiment.spec().patterns.len(),
        result.points.len()
    );
    println!("\n{}", result.table());
    for &pattern in &experiment.spec().patterns {
        match result.saturation_estimate(&topology_name, pattern, 0.05) {
            Some(sat) => println!(
                "{pattern}: sustains {:.0}% of injection capacity",
                sat * 100.0
            ),
            None => println!("{pattern}: saturates below the lowest swept rate"),
        }
    }
    Ok(())
}
