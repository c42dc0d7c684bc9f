//! A3 — ablation: the cost/performance trade-off curve swept across the
//! sparse Hamming design space, from the mesh to the flattened butterfly.
//!
//! This regenerates the paper's central narrative (Section III: "the
//! sparse Hamming graph spans the design space between a mesh topology
//! (low cost) and a flattened butterfly topology (high performance)") as
//! a frontier table, then validates the final configuration across all
//! seven traffic patterns on the shared sweep engine.
//!
//! Run with: `cargo run --release -p shg-bench --bin sparsity_sweep --
//! [--scenario a]
//! [--shard i/N] [--resume journal.jsonl] [--cache <dir>]
//!  [--backend per-cell|reuse|batched|auto] [--lanes K] [--progress]`
//!
//! The seven-pattern validation runs at 6.25% rate resolution
//! (tightened from 12.5% once request-driven allocation made Phase C
//! cheap); measured runtime ≈ 7 s on one core.

use shg_bench::arg_value;
use shg_core::{customize, DesignGoals, Scenario, Toolchain};
use shg_sim::SimConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let which = arg_value("--scenario").unwrap_or_else(|| "a".to_owned());
    let scenario =
        Scenario::by_name(&which).ok_or_else(|| format!("unknown scenario '{which}'"))?;
    println!(
        "=== Sparsity sweep, scenario ({}) — mesh → flattened butterfly ===\n",
        scenario.name
    );
    // Run the customization loop with an unbounded budget: it walks the
    // greedy frontier all the way to the densest profitable configuration.
    let toolchain = Toolchain::fast();
    let trace = customize(
        &toolchain,
        &scenario.params,
        DesignGoals { area_budget: 1.0 },
    )?;
    println!(
        "{:<34} {:>8} {:>11} {:>11} {:>12} {:>11}",
        "Configuration", "Radix", "AreaOvh[%]", "Power[W]", "ZLL[cycles]", "SatThr[%]"
    );
    println!("{}", "-".repeat(92));
    for step in &trace.steps {
        let e = &step.evaluation;
        println!(
            "{:<34} {:>8} {:>11.1} {:>11.2} {:>12.1} {:>11.1}",
            step.config.to_string(),
            e.router_radix,
            e.area_overhead * 100.0,
            e.noc_power.value(),
            e.zero_load_latency,
            e.saturation_throughput * 100.0,
        );
    }
    println!(
        "\n{} greedy steps through a design space of {} configurations.",
        trace.steps.len(),
        shg_core::SparseHammingConfig::design_space_size(
            scenario.params.grid.rows(),
            scenario.params.grid.cols()
        )
    );
    println!(
        "Reading the frontier: every row buys throughput/latency with area —\n\
         the knob the paper's customization strategy turns until the budget\n\
         (40% in Fig. 6) is met."
    );
    // Validate the densest accepted configuration across all seven
    // patterns (the greedy loop ranked with uniform-random analytics).
    let best = trace.best();
    let topology = best.config.build();
    let sweep_toolchain = Toolchain {
        sim: SimConfig::fast_test(),
        ..toolchain
    };
    let mut experiment = sweep_toolchain.pattern_experiment(&scenario.params, &topology, 16)?;
    let result = shg_bench::sweep::run_experiment(&mut experiment);
    let per_pattern = sweep_toolchain.pattern_performance(&result, &topology.kind().to_string());
    println!(
        "\nSeven-pattern validation of {} (simulated, resolution 6.25%,\n\
         hot-spot grid log-extended down to 1%):",
        best.config
    );
    println!(
        "{:<16} {:>14} {:>18}",
        "Pattern", "SatThr[%]", "LowLoadLat[cyc]"
    );
    println!("{}", "-".repeat(50));
    for p in per_pattern {
        println!(
            "{:<16} {:>14.1} {:>18.1}",
            p.pattern.to_string(),
            p.saturation_throughput * 100.0,
            p.low_load_latency,
        );
    }
    Ok(())
}
