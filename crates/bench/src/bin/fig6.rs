//! E3–E6 — regenerates Fig. 6: cost and performance comparison of all
//! topologies for the four KNC-like scenarios, widened from the paper's
//! uniform-random-only evaluation to all seven traffic patterns via the
//! shared sweep engine.
//!
//! Run with:
//! `cargo run --release -p shg-bench --bin fig6 -- [--scenario a|b|c|d|all]
//!  [--fast] [--customize]
//!  [--shard i/N] [--cache <dir>] [--faults <plan>] [--routes dense|next-hop]`
//!
//! The pattern-sweep table reads one number of each (topology, pattern)
//! row — the highest swept rate that keeps up with its offered load — so
//! the sweep bisects each row over its rates and asks each cell it
//! probes for only that verdict ([`shg_bench::sweep::saturation_table`]):
//! a cell that can no longer catch up stops inside its measurement
//! window instead of running on, every source backlogged, to the drain
//! limit. Where a row's cells that keep up are a prefix of its rates
//! (all 49 rows of fault-free `--scenario a --fast`, checked on
//! completed outcomes), the table is byte-identical to one built from
//! completed outcomes. A fault plan can break that: under
//! `--faults drain,600:router:9` the SHG's uniform-random row keeps up
//! at 40 % but not at 30 %, and reads 20.0 where the completed outcomes
//! read 40.0 (see [`shg_sim::Experiment::highest_sustained`]).
//! `--shard i/N` builds it from one strided shard of the cells;
//! `--cache <dir>` answers cells from a cell cache that
//! `sweep_worker --cache <dir>` warmed with full outcomes, and stores
//! nothing. The journal, backend and progress flags of the
//! full-outcome binaries are rejected: `sweep_worker` is the one that
//! journals full outcomes, and `sweep_merge` the one that merges them.
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
//! ≈ 3.2 s wall / ≈ 6.1 s CPU on both cores (≈ 5.8 s pinned to one),
//! peak RSS ≈ 7 MB; `--scenario all --fast` ≈ 23 s wall / 44 s CPU —
//! nearly all of it the pattern sweep's simulator phases (the
//! floorplan model is milliseconds). `--scenario a --fast` probes 173
//! of its 518 cells and simulates 345,468 cycles, where completing
//! every cell would take 2,721,677 (a drain to as late as cycle 8,000).
//! Full fidelity `--scenario a` probes 225 of its 1,008 sweep cells and
//! takes ≈ 40–45 s wall / 75–85 s CPU on both cores, ≈ 8 s of it the
//! simulated headline column's 56 saturation probes.

use shg_bench::sweep::{
    annotated_experiment, reject_full_outcome_flags, saturation_table, scenario_sweep_spec,
    TopologyCache,
};
use shg_bench::{arg_value, evaluate_all, has_flag, named_topologies};
use shg_core::{customize, report, DesignGoals, PerformanceMode, Scenario, Toolchain};
use shg_floorplan::ModelOptions;
use shg_sim::SimConfig;

fn main() {
    reject_full_outcome_flags();
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
        let mut experiment = annotated_experiment(
            &scenario.params,
            &toolchain.model_options,
            &mut TopologyCache::new(),
            &topologies,
            scenario_sweep_spec(&scenario, rate_points),
            shg_bench::sweep::route_form_from_args(),
        )
        .unwrap_or_else(|e| shg_bench::cli_error(e));
        let table = saturation_table(&mut experiment, 0.05);
        println!(
            "Seven-pattern simulated sweep ({} points, resolution {:.0}%, \
             hot-spot grid log-extended down to 1%):\n",
            table.cells,
            100.0 / rate_points as f64
        );
        println!("{table}");
    }
}
