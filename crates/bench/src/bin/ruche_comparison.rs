//! Related-work experiment (Section VI): sparse Hamming graphs are a
//! superset of Ruche networks and offer a more fine-grained adjustment of
//! the cost-performance trade-off.
//!
//! This harness enumerates *every* Ruche configuration (one skip factor
//! per grid), compares the best one within the area budget against the
//! customized sparse Hamming graph, and then puts both head-to-head
//! across all seven traffic patterns on the shared sweep engine.
//!
//! Run with: `cargo run --release -p shg-bench --bin ruche_comparison --
//! [--scenario a] [--shard i/N] [--cache <dir>] [--routes dense|next-hop]`
//!
//! The head-to-head sweep runs at 6.25% rate resolution (tightened
//! from 12.5% once request-driven allocation made Phase C cheap). Its
//! table bisects each (topology, pattern) row over its rates and asks
//! each cell it probes only whether it keeps up
//! ([`shg_bench::sweep::saturation_table`]), so `--cache` is read-only
//! and the journal, backend and progress flags are rejected. It probes
//! 56 of its 232 cells. Measured runtime ≈ 2.4 s on one core of a
//! shared 2-core host (scales with cores via rayon).

use shg_bench::arg_value;
use shg_bench::sweep::{
    annotated_experiment, reject_full_outcome_flags, saturation_table, TopologyCache,
};
use shg_core::{customize, DesignGoals, PerformanceMode, Scenario, Toolchain};
use shg_floorplan::ModelOptions;
use shg_sim::{SimConfig, SweepSpec};
use shg_topology::{generators, Topology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    reject_full_outcome_flags();
    let which = arg_value("--scenario").unwrap_or_else(|| "a".to_owned());
    let scenario =
        Scenario::by_name(&which).ok_or_else(|| format!("unknown scenario '{which}'"))?;
    let toolchain = Toolchain {
        model_options: ModelOptions {
            cell_scale: 4.0,
            ..ModelOptions::default()
        },
        mode: PerformanceMode::Analytic,
        ..Toolchain::default()
    };
    let grid = scenario.params.grid;
    let budget = scenario.area_budget;
    println!(
        "=== Ruche vs. sparse Hamming, scenario ({}) — budget {:.0}% ===\n",
        scenario.name,
        budget * 100.0
    );
    println!(
        "{:<30} {:>11} {:>12} {:>11}",
        "Configuration", "AreaOvh[%]", "ZLL[cycles]", "SatThr[%]"
    );
    println!("{}", "-".repeat(68));
    // Every Ruche configuration: a single factor 2 ≤ ℓ < min(R, C).
    let max_factor = grid.rows().min(grid.cols());
    let mut best_ruche: Option<(u16, shg_core::Evaluation)> = None;
    for factor in 2..max_factor {
        let ruche = generators::ruche(grid, factor)?;
        let eval = toolchain.evaluate(&scenario.params, &ruche)?;
        println!(
            "{:<30} {:>11.1} {:>12.1} {:>11.1}",
            format!("Ruche factor {factor}"),
            eval.area_overhead * 100.0,
            eval.zero_load_latency,
            eval.saturation_throughput * 100.0,
        );
        if eval.area_overhead <= budget
            && best_ruche
                .as_ref()
                .map(|(_, b)| eval.saturation_throughput > b.saturation_throughput)
                .unwrap_or(true)
        {
            best_ruche = Some((factor, eval));
        }
    }
    // The customized SHG.
    let trace = customize(
        &toolchain,
        &scenario.params,
        DesignGoals {
            area_budget: budget,
        },
    )?;
    let best_shg = trace.best();
    println!(
        "{:<30} {:>11.1} {:>12.1} {:>11.1}",
        best_shg.config.to_string(),
        best_shg.evaluation.area_overhead * 100.0,
        best_shg.evaluation.zero_load_latency,
        best_shg.evaluation.saturation_throughput * 100.0,
    );
    println!();
    let Some((factor, ruche)) = best_ruche else {
        println!("No Ruche configuration fits the budget.");
        return Ok(());
    };
    println!(
        "Best Ruche within budget: factor {factor} at {:.1}% throughput.",
        ruche.saturation_throughput * 100.0
    );
    println!(
        "Customized SHG: {:.1}% throughput — the superset's extra degrees\n\
         of freedom ({} Ruche configs vs 2^(R+C-4) = {} SHG configs) let it\n\
         exploit the budget more precisely.",
        best_shg.evaluation.saturation_throughput * 100.0,
        max_factor.saturating_sub(2),
        shg_core::SparseHammingConfig::design_space_size(grid.rows(), grid.cols()),
    );
    // Head-to-head across all seven patterns on the shared sweep engine
    // (the analytic ranking above is uniform-random only).
    let contenders: Vec<(String, Topology)> = vec![
        (
            format!("Ruche factor {factor}"),
            generators::ruche(grid, factor)?,
        ),
        (best_shg.config.to_string(), best_shg.config.build()),
    ];
    let spec = SweepSpec::new(SimConfig::fast_test())
        .linear_rates(16, 1.0)
        .all_patterns()
        .default_hotspot_low_rates();
    let mut cache = TopologyCache::new();
    let mut experiment = annotated_experiment(
        &scenario.params,
        &toolchain.model_options,
        &mut cache,
        &contenders,
        spec,
        shg_bench::sweep::route_form_from_args(),
    )
    .unwrap_or_else(|e| shg_bench::cli_error(e));
    println!(
        "\nSeven-pattern head-to-head (simulated, resolution 6.25%):\n\n{}",
        saturation_table(&mut experiment, 0.05)
    );
    Ok(())
}
