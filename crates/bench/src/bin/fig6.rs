//! E3–E6 — regenerates Fig. 6: cost and performance comparison of all
//! topologies for the four KNC-like scenarios, widened from the paper's
//! uniform-random-only evaluation to all seven traffic patterns via the
//! shared sweep engine.
//!
//! Run with:
//! `cargo run --release -p shg-bench --bin fig6 -- [--scenario a|b|c|d|all]
//!  [--fast] [--customize]
//!  [--shard i/N] [--resume journal.jsonl] [--cache <dir>]
//!  [--backend per-cell|reuse|batched|auto] [--lanes K] [--progress]`
//!
//! The pattern sweeps run through the standard shard-/journal-aware
//! executor ([`shg_bench::sweep::run_experiment`]), which also reads
//! the incremental flags: `--cache <dir>` re-simulates only cells no
//! earlier run cached (re-running a scenario after a model or grid
//! widening touches just the delta) and `--backend reuse` batches
//! cells per topology onto one reset-reused `Network`; `sweep_worker`
//! and `sweep_merge` are the purpose-built pair for cross-machine
//! runs.
//!
//! `--fast` replaces the cycle-accurate saturation search with the
//! analytic channel-load bound, coarsens the detailed-routing grid and
//! shrinks the pattern sweep's simulator windows (seconds instead of
//! minutes; same orderings).
//!
//! `--customize` additionally re-runs the paper's Section V-a
//! customization loop against *this* model and appends the resulting
//! configuration as an extra row. The paper's published SR/SC values were
//! customized against the authors' calibrated model; re-customizing is
//! the faithful way to reproduce the methodology on a different substrate.
//!
//! Default pattern-sweep resolution: 10% (`--fast`) / 5% (full) of
//! injection capacity — tightened from 20%/10% once request-driven
//! allocation made Phase C cheap. Measured runtime (a shared 2-core
//! host; the sweeps scale with cores via rayon): `--scenario a --fast`
//! ≈ 20 s wall / ≈ 39 s CPU on both cores (33 s pinned to one), peak
//! RSS ≈ 14 MB; `--scenario all --fast` ≈ 1.9 min wall / 3.8 min CPU,
//! 14 MB — all of it the pattern sweep's simulator phases (the repo
//! benchmark's ledger: 99.5 % of `--scenario a --fast`, most cells
//! running past the knee to the drain limit; the floorplan model is
//! milliseconds). Full fidelity `--scenario a` was last measured at
//! ≈ 14 min on one core, before the kernel's saturated-cell rework.

use shg_bench::sweep::{pattern_saturation_table, scenario_sweep};
use shg_bench::{arg_value, evaluate_all, has_flag, named_topologies};
use shg_core::{customize, report, DesignGoals, PerformanceMode, Scenario, Toolchain};
use shg_floorplan::ModelOptions;
use shg_sim::SimConfig;

fn main() {
    let which = arg_value("--scenario").unwrap_or_else(|| "all".to_owned());
    let fast = has_flag("--fast");
    let scenarios: Vec<Scenario> = if which == "all" {
        Scenario::all_knc()
    } else {
        vec![Scenario::by_name(&which)
            .unwrap_or_else(|| panic!("unknown scenario '{which}' (use a|b|c|d|all)"))]
    };
    let toolchain = if fast {
        Toolchain {
            model_options: ModelOptions {
                cell_scale: 4.0,
                ..ModelOptions::default()
            },
            mode: PerformanceMode::Analytic,
            ..Toolchain::default()
        }
    } else {
        Toolchain {
            model_options: ModelOptions {
                cell_scale: 2.0,
                ..ModelOptions::default()
            },
            ..Toolchain::default()
        }
    };
    for mut scenario in scenarios {
        println!(
            "=== Fig. 6{} — {} (SHG: {}) ===",
            scenario.name, scenario.description, scenario.shg
        );
        println!(
            "Hop-minimal routing, {} throughput\n",
            if fast { "analytic" } else { "simulated" }
        );
        let mut evaluations = evaluate_all(&scenario, &toolchain);
        if has_flag("--customize") {
            // Rank candidates with the fast analytic toolchain, then
            // re-evaluate the winner with the full one.
            let trace = customize(
                &Toolchain {
                    model_options: ModelOptions {
                        cell_scale: 6.0,
                        ..ModelOptions::default()
                    },
                    mode: PerformanceMode::Analytic,
                    ..Toolchain::default()
                },
                &scenario.params,
                DesignGoals {
                    area_budget: scenario.area_budget,
                },
            )
            .expect("customization runs");
            let best = trace.best();
            let mut eval = toolchain
                .evaluate(&scenario.params, &best.config.build())
                .expect("customized config evaluates");
            eval.name = format!("SHG re-customized {}", best.config);
            println!(
                "Re-customized against this model: {} ({} steps)\n",
                best.config,
                trace.steps.len()
            );
            evaluations.push(eval);
        }
        println!("{}", report::evaluation_table(&evaluations));
        // The paper's headline claim per scenario.
        let within: Vec<_> = evaluations
            .iter()
            .filter(|e| e.area_overhead <= scenario.area_budget)
            .collect();
        if let Some(best) = within.iter().max_by(|a, b| {
            a.saturation_throughput
                .partial_cmp(&b.saturation_throughput)
                .expect("finite")
        }) {
            let latency_rank = within
                .iter()
                .filter(|e| e.zero_load_latency < best.zero_load_latency)
                .count()
                + 1;
            println!(
                "Within the {:.0}% area budget: highest throughput = {} \
                 ({:.1}%), latency rank {} of {}\n",
                scenario.area_budget * 100.0,
                best.name,
                best.saturation_throughput * 100.0,
                latency_rank,
                within.len()
            );
        }
        // The widened evaluation: every topology × all seven traffic
        // patterns on the shared sweep engine.
        let rate_points = if fast { 10 } else { 20 };
        if fast {
            scenario.sim = SimConfig::fast_test();
        }
        scenario.sim.faults = shg_bench::fault_plan_from_args();
        let topologies = named_topologies(&scenario);
        let result = scenario_sweep(
            &scenario,
            &toolchain.model_options,
            &topologies,
            rate_points,
            shg_bench::sweep::route_form_from_args(),
        );
        println!(
            "Seven-pattern simulated sweep ({} points, resolution {:.0}%, \
             hot-spot grid log-extended down to 1%):\n",
            result.points.len(),
            100.0 / rate_points as f64
        );
        println!("{}", pattern_saturation_table(&result, 0.05));
    }
}
