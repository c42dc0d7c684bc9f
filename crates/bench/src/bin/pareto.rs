//! Exhaustive design-space exploration: evaluates *every* sparse Hamming
//! configuration of a small grid and prints the cost/performance Pareto
//! frontier — the quantitative version of the paper's claim that the
//! topology's trade-off is customizable (Section III).
//!
//! The space has `2^(R+C−4)` points, so this is feasible for small grids;
//! the default 6×6 grid has 256 configurations. Ranking uses the fast
//! analytic toolchain fanned out on the rayon pool; the frontier is then
//! re-checked in simulation across all seven traffic patterns on the
//! shared sweep engine.
//!
//! Run with: `cargo run --release -p shg-bench --bin pareto --
//! [--rows 6] [--cols 6] [--shard i/N] [--cache <dir>]`
//!
//! The frontier validation sweeps at 10% rate resolution (tightened
//! from 16.7% once request-driven allocation made Phase C cheap). Its
//! table bisects each (configuration, pattern) row over its rates and
//! asks each cell it probes only whether it keeps up
//! ([`shg_bench::sweep::saturation_table`]), so `--cache` is read-only
//! and the journal and progress flags are rejected. The
//! default 6×6 grid probes 146 of its 444 cells. Measured runtime
//! ≈ 2.3 s on one core of a shared 2-core host for the default grid.

use rayon::prelude::*;

use shg_bench::sweep::{
    annotated_experiment, reject_full_outcome_flags, saturation_table, TopologyCache,
};
use shg_bench::{arg_value, cli_error};
use shg_core::{Evaluation, PerformanceMode, Scenario, SparseHammingConfig, Toolchain};
use shg_floorplan::ModelOptions;
use shg_sim::{SimConfig, SweepSpec};
use shg_topology::Topology;

/// Enumerates every subset pair (SR, SC) for the grid.
fn all_configs(rows: u16, cols: u16) -> Vec<SparseHammingConfig> {
    let sr_values: Vec<u16> = (2..cols).collect();
    let sc_values: Vec<u16> = (2..rows).collect();
    let mut configs = Vec::new();
    for sr_mask in 0u32..(1 << sr_values.len()) {
        for sc_mask in 0u32..(1 << sc_values.len()) {
            let sr: Vec<u16> = sr_values
                .iter()
                .enumerate()
                .filter(|(i, _)| sr_mask & (1 << i) != 0)
                .map(|(_, &x)| x)
                .collect();
            let sc: Vec<u16> = sc_values
                .iter()
                .enumerate()
                .filter(|(i, _)| sc_mask & (1 << i) != 0)
                .map(|(_, &x)| x)
                .collect();
            configs
                .push(SparseHammingConfig::new(rows, cols, sr, sc).expect("enumerated in range"));
        }
    }
    configs
}

/// `true` if `a` dominates `b`: no worse in area, throughput and latency,
/// strictly better in at least one.
fn dominates(a: &Evaluation, b: &Evaluation) -> bool {
    let no_worse = a.area_overhead <= b.area_overhead
        && a.saturation_throughput >= b.saturation_throughput
        && a.zero_load_latency <= b.zero_load_latency;
    let strictly = a.area_overhead < b.area_overhead
        || a.saturation_throughput > b.saturation_throughput
        || a.zero_load_latency < b.zero_load_latency;
    no_worse && strictly
}

fn main() {
    shg_bench::reject_retired_flags();
    reject_full_outcome_flags();
    let dimension = |flag: &str| -> u16 {
        arg_value(flag).map_or(6, |v| {
            v.parse()
                .unwrap_or_else(|e| cli_error(format!("{flag} {v}: {e}")))
        })
    };
    let (rows, cols) = (dimension("--rows"), dimension("--cols"));
    // Scenario (a)'s architecture, shrunk to the requested grid.
    let mut scenario = Scenario::knc_a();
    scenario.params.grid = shg_topology::Grid::new(rows, cols);
    let toolchain = Toolchain {
        model_options: ModelOptions {
            cell_scale: 6.0,
            ..ModelOptions::default()
        },
        mode: PerformanceMode::Analytic,
        ..Toolchain::default()
    };
    let configs = all_configs(rows, cols);
    println!(
        "=== Design-space exploration: {rows}x{cols}, {} configurations ===\n",
        configs.len()
    );
    // Rank every configuration on the rayon pool (analytic toolchain).
    let evaluated: Vec<(SparseHammingConfig, Evaluation)> = configs
        .par_iter()
        .map(|config| {
            let eval = toolchain
                .evaluate(&scenario.params, &config.build())
                .expect("SHG evaluates");
            (config.clone(), eval)
        })
        .collect();
    // Pareto frontier.
    let mut frontier: Vec<&(SparseHammingConfig, Evaluation)> = evaluated
        .iter()
        .filter(|(_, e)| !evaluated.iter().any(|(_, other)| dominates(other, e)))
        .collect();
    frontier.sort_by(|a, b| {
        a.1.area_overhead
            .partial_cmp(&b.1.area_overhead)
            .expect("finite")
    });
    println!(
        "{:<34} {:>11} {:>12} {:>11}",
        "Pareto-optimal configuration", "AreaOvh[%]", "ZLL[cycles]", "SatThr[%]"
    );
    println!("{}", "-".repeat(72));
    for (config, eval) in &frontier {
        println!(
            "{:<34} {:>11.1} {:>12.1} {:>11.1}",
            config.to_string(),
            eval.area_overhead * 100.0,
            eval.zero_load_latency,
            eval.saturation_throughput * 100.0,
        );
    }
    println!(
        "\n{} of {} configurations are Pareto-optimal — the dial the\n\
         customization strategy turns.",
        frontier.len(),
        evaluated.len()
    );
    // Simulated cross-pattern validation of the frontier on the shared
    // sweep engine (fast simulator windows; the analytic ranking above
    // is uniform-random only).
    const MAX_VALIDATED: usize = 8;
    if frontier.len() > MAX_VALIDATED {
        println!(
            "\nValidating the {MAX_VALIDATED} highest-throughput frontier points \
             (of {}) across all seven patterns:",
            frontier.len()
        );
    } else {
        println!("\nValidating the frontier across all seven patterns:");
    }
    let mut validated: Vec<&(SparseHammingConfig, Evaluation)> = frontier.clone();
    validated.sort_by(|a, b| {
        b.1.saturation_throughput
            .partial_cmp(&a.1.saturation_throughput)
            .expect("finite")
    });
    validated.truncate(MAX_VALIDATED);
    let topologies: Vec<(String, Topology)> = validated
        .iter()
        .map(|(config, _)| (config.to_string(), config.build()))
        .collect();
    let spec = SweepSpec::new(SimConfig::fast_test())
        .linear_rates(10, 1.0)
        .all_patterns()
        .default_hotspot_low_rates();
    let mut cache = TopologyCache::new();
    let mut experiment = annotated_experiment(
        &scenario.params,
        &toolchain.model_options,
        &mut cache,
        &topologies,
        spec,
        shg_topology::routing::RouteForm::NextHop,
    )
    .unwrap_or_else(|e| shg_bench::cli_error(e));
    println!("\n{}", saturation_table(&mut experiment, 0.05));
}
