//! The NoC topology customization strategy of Section V-a.
//!
//! Starting from the simplest sparse Hamming graph (the mesh), the loop
//! repeatedly: estimates cost and performance with the prediction
//! toolchain, compares them to the design goals, and grows the skip sets
//! `SR`/`SC` to eliminate the identified insufficiency — until the area
//! budget (40% in the paper) is exhausted.
//!
//! A step ranks its candidates by `(area ≤ budget, throughput, −zero-load
//! latency)`. Only the last key needs floorplan step 5 (the detailed link
//! routing, most of a candidate's cost), so every candidate is first
//! [screened](Toolchain::screen) — routes, channel loads, floorplan steps
//! 1–4 — and only the candidates that can still win are
//! [finished](Toolchain::finish): those within the budget and, in
//! [analytic mode](crate::PerformanceMode::Analytic), tied at the best
//! throughput among them. The screen fixes both keys bit for bit, so the
//! ranking, and the trace, are those of evaluating every candidate in
//! full.

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};

use shg_floorplan::ArchParams;

use crate::sparse_hamming::SparseHammingConfig;
use crate::toolchain::{EvaluateError, Evaluation, Toolchain};

/// The optimization goal, mirroring the paper's evaluation: maximize
/// saturation throughput (priority 1) and minimize zero-load latency
/// (priority 2) without exceeding the area budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignGoals {
    /// Maximum acceptable NoC area overhead (fraction of chip area).
    pub area_budget: f64,
}

impl Default for DesignGoals {
    fn default() -> Self {
        Self { area_budget: 0.4 }
    }
}

/// One accepted step of the customization loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CustomizationStep {
    /// The configuration after this step.
    pub config: SparseHammingConfig,
    /// Its toolchain evaluation.
    pub evaluation: Evaluation,
}

/// The full trace of a customization run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CustomizationTrace {
    /// Every accepted configuration, starting with the mesh.
    pub steps: Vec<CustomizationStep>,
}

impl CustomizationTrace {
    /// The final (best) step.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty, which `customize` never produces.
    #[must_use]
    pub fn best(&self) -> &CustomizationStep {
        self.steps.last().expect("trace contains at least the mesh")
    }
}

/// Ranks an evaluation against the goals: feasible first, then higher
/// throughput, then lower latency — the paper's priority order.
fn score(eval: &Evaluation, goals: &DesignGoals) -> (bool, f64, f64) {
    (
        eval.area_overhead <= goals.area_budget,
        eval.saturation_throughput,
        -eval.zero_load_latency,
    )
}

/// Maps `candidates` through `evaluate` on `workers` threads; results
/// come back in candidate order.
///
/// Workers drain a shared index, so which thread evaluates which
/// candidate varies from run to run — but `evaluate` is a pure function
/// of the candidate ([`Toolchain::screen`] and [`Toolchain::finish`]
/// are) and every result is
/// filed under its candidate's index, so the returned vector and, on
/// failure, *which* error (the earliest failing candidate's) depend on
/// neither `workers` nor scheduling.
///
/// # Panics
///
/// Resumes a worker's panic with its own payload: the floorplan model's
/// "no route between cells" message is the only diagnostic of an
/// inconsistent floorplan and must reach the caller intact.
fn evaluate_candidates<C: Sync, T: Send, E: Send>(
    candidates: &[C],
    workers: usize,
    evaluate: impl Fn(&C) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E> {
    let workers = workers.min(candidates.len());
    if workers <= 1 {
        return candidates.iter().map(evaluate).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<T, E>>> = candidates.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices; the
                        // join below publishes the results.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(candidate) = candidates.get(i) else {
                            return done;
                        };
                        done.push((i, evaluate(candidate)));
                    }
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (i, result) in done {
                        slots[i] = Some(result);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("workers stop only past the last index"))
        .collect()
}

/// One step's ranking: the best candidate within the budget, if any,
/// and how many candidates it [finished](Toolchain::finish).
struct Ranking {
    best: Option<(SparseHammingConfig, Evaluation)>,
    finished: usize,
}

/// Screens every candidate on `workers` threads, finishes those that can
/// still win, and ranks them in candidate order.
///
/// A candidate over the budget never wins, and one below the best
/// throughput within the budget loses to the candidate that has it, so
/// only the rest are finished. Throughputs are compared bit for bit; in
/// [simulate mode](crate::PerformanceMode::Simulate) the screen has none,
/// and every candidate within the budget is finished.
fn rank(
    toolchain: &Toolchain,
    params: &ArchParams,
    goals: &DesignGoals,
    candidates: Vec<SparseHammingConfig>,
    workers: usize,
) -> Result<Ranking, EvaluateError> {
    let screened = evaluate_candidates(&candidates, workers, |candidate| {
        let topology = candidate.build();
        let screening = toolchain.screen(params, &topology)?;
        Ok::<_, EvaluateError>((topology, screening))
    })?;
    let within = |area_overhead: f64| area_overhead <= goals.area_budget;
    let best_throughput = screened
        .iter()
        .filter(|(_, screening)| within(screening.area_overhead()))
        .filter_map(|(_, screening)| screening.saturation_throughput())
        .fold(f64::NEG_INFINITY, f64::max);
    let contenders: Vec<_> = candidates
        .into_iter()
        .zip(screened)
        .filter(|(_, (_, screening))| {
            within(screening.area_overhead())
                && screening
                    .saturation_throughput()
                    .is_none_or(|throughput| throughput.to_bits() == best_throughput.to_bits())
        })
        .collect();
    let Ok(evaluations) =
        evaluate_candidates(&contenders, workers, |(_, (topology, screening))| {
            Ok::<_, Infallible>(toolchain.finish(params, topology, screening))
        });
    let finished = evaluations.len();
    let mut best: Option<(SparseHammingConfig, Evaluation)> = None;
    for ((candidate, _), eval) in contenders.into_iter().zip(evaluations) {
        let better_than_best = best
            .as_ref()
            .is_none_or(|(_, b)| score(&eval, goals) > score(b, goals));
        if better_than_best {
            best = Some((candidate, eval));
        }
    }
    Ok(Ranking { best, finished })
}

/// Runs the customization strategy.
///
/// Greedy hill climbing over the `2^(R+C−4)` design space: each iteration
/// evaluates every single-skip extension of the current configuration
/// (step 4 of the paper's strategy) with the (typically fast/analytic)
/// toolchain, and accepts the best one that stays within the area budget
/// and improves the goal score. Every extension is
/// [screened](Toolchain::screen); only those that can still be the best
/// — within the budget and, in analytic mode, tied at the best
/// throughput within it — are [finished](Toolchain::finish), so the
/// trace is that of evaluating every extension in full, and a step-5
/// panic surfaces only for a finished candidate.
///
/// A step's candidates are independent, so they are screened, and then
/// finished, concurrently on [`std::thread::available_parallelism`]
/// threads and ranked sequentially in candidate order; the trace is the
/// same on any number of cores.
///
/// # Errors
///
/// Returns [`EvaluateError`] if the toolchain fails on a candidate, which
/// indicates a routing problem.
pub fn customize(
    toolchain: &Toolchain,
    params: &ArchParams,
    goals: DesignGoals,
) -> Result<CustomizationTrace, EvaluateError> {
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    customize_counted(toolchain, params, goals, workers).map(|(trace, _)| trace)
}

/// [`customize`] on `workers` threads, returning with the trace how many
/// candidates each step's ranking finished.
fn customize_counted(
    toolchain: &Toolchain,
    params: &ArchParams,
    goals: DesignGoals,
    workers: usize,
) -> Result<(CustomizationTrace, Vec<usize>), EvaluateError> {
    let grid = params.grid;
    let mut current = SparseHammingConfig::mesh(grid.rows(), grid.cols());
    let mut current_eval = toolchain.evaluate(params, &current.build())?;
    let mut steps = vec![CustomizationStep {
        config: current.clone(),
        evaluation: current_eval.clone(),
    }];
    let mut finished = Vec::new();
    loop {
        let ranking = rank(toolchain, params, &goals, current.grow_moves(), workers)?;
        finished.push(ranking.finished);
        match ranking.best {
            Some((config, eval)) if score(&eval, &goals) > score(&current_eval, &goals) => {
                current = config;
                current_eval = eval;
                steps.push(CustomizationStep {
                    config: current.clone(),
                    evaluation: current_eval.clone(),
                });
            }
            _ => break,
        }
    }
    Ok((CustomizationTrace { steps }, finished))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::toolchain::PerformanceMode;
    use shg_floorplan::{predict, ModelOptions};
    use shg_sim::SimConfig;
    use shg_topology::{routing, Grid};

    fn fast_toolchain() -> Toolchain {
        Toolchain {
            model_options: ModelOptions {
                cell_scale: 6.0,
                ..ModelOptions::default()
            },
            sim: SimConfig::fast_test(),
            mode: PerformanceMode::Analytic,
            ..Toolchain::default()
        }
    }

    /// Scenario (a)'s architecture on another grid.
    fn params_on(rows: u16, cols: u16) -> ArchParams {
        let mut params = Scenario::knc_a().params;
        params.grid = Grid::new(rows, cols);
        params
    }

    /// The loop before screening, kept as the oracle: every candidate is
    /// evaluated in full, then ranked.
    fn customize_by_full_evaluation(
        toolchain: &Toolchain,
        params: &ArchParams,
        goals: DesignGoals,
    ) -> Result<CustomizationTrace, EvaluateError> {
        let grid = params.grid;
        let mut current = SparseHammingConfig::mesh(grid.rows(), grid.cols());
        let mut current_eval = toolchain.evaluate(params, &current.build())?;
        let mut steps = vec![CustomizationStep {
            config: current.clone(),
            evaluation: current_eval.clone(),
        }];
        let workers = std::thread::available_parallelism().map_or(1, usize::from);
        loop {
            let candidates = current.grow_moves();
            let evaluations = evaluate_candidates(&candidates, workers, |candidate| {
                toolchain.evaluate(params, &candidate.build())
            })?;
            let mut best: Option<(SparseHammingConfig, Evaluation)> = None;
            for (candidate, eval) in candidates.into_iter().zip(evaluations) {
                if eval.area_overhead > goals.area_budget {
                    continue;
                }
                let better_than_best = best
                    .as_ref()
                    .map(|(_, b)| score(&eval, &goals) > score(b, &goals))
                    .unwrap_or(true);
                if better_than_best {
                    best = Some((candidate, eval));
                }
            }
            match best {
                Some((config, eval)) if score(&eval, &goals) > score(&current_eval, &goals) => {
                    current = config;
                    current_eval = eval;
                    steps.push(CustomizationStep {
                        config: current.clone(),
                        evaluation: current_eval.clone(),
                    });
                }
                _ => break,
            }
        }
        Ok(CustomizationTrace { steps })
    }

    /// `customize` and the oracle give the same trace, compared as
    /// serialized bytes (every `f64` in shortest round-trip form, so
    /// bit for bit). Returns the trace and how many candidates each
    /// step finished.
    fn assert_matches_the_oracle(
        toolchain: &Toolchain,
        params: &ArchParams,
        goals: DesignGoals,
    ) -> (CustomizationTrace, Vec<usize>) {
        let workers = std::thread::available_parallelism().map_or(1, usize::from);
        let (trace, finished) =
            customize_counted(toolchain, params, goals, workers).expect("customization runs");
        let oracle = customize_by_full_evaluation(toolchain, params, goals).expect("oracle runs");
        assert_eq!(
            serde_json::to_string(&trace).expect("trace serializes"),
            serde_json::to_string(&oracle).expect("trace serializes"),
            "{} at budget {}",
            params.grid,
            goals.area_budget
        );
        (trace, finished)
    }

    #[test]
    fn screened_traces_equal_the_full_evaluation_oracle() {
        let toolchain = fast_toolchain();
        let scenario = Scenario::knc_a();
        let scenario_goals = DesignGoals {
            area_budget: scenario.area_budget,
        };
        assert!(
            assert_matches_the_oracle(&toolchain, &scenario.params, scenario_goals)
                .0
                .steps
                .len()
                > 2
        );
        for (rows, cols) in [(12, 12), (6, 10)] {
            let (trace, _) =
                assert_matches_the_oracle(&toolchain, &params_on(rows, cols), scenario_goals);
            assert!(trace.steps.len() > 1, "{rows}x{cols} grows");
        }
        let mesh_overhead = toolchain
            .evaluate(&scenario.params, &SparseHammingConfig::mesh(8, 8).build())
            .expect("mesh evaluates")
            .area_overhead;
        // Few skips fit 0.02 above the mesh; none fit below it, so the
        // trace is the mesh alone.
        assert_matches_the_oracle(
            &toolchain,
            &scenario.params,
            DesignGoals {
                area_budget: mesh_overhead + 0.02,
            },
        );
        let (below, _) = assert_matches_the_oracle(
            &toolchain,
            &scenario.params,
            DesignGoals {
                area_budget: mesh_overhead - 0.01,
            },
        );
        assert_eq!(below.steps.len(), 1);
        assert!(below.steps[0].config.is_mesh());
    }

    #[test]
    fn simulated_traces_equal_the_full_evaluation_oracle() {
        // Simulate mode has no screened throughput: every candidate
        // within the budget is finished (and simulated), no other.
        let toolchain = Toolchain {
            mode: PerformanceMode::Simulate,
            ..fast_toolchain()
        };
        let params = params_on(4, 4);
        let goals = DesignGoals { area_budget: 0.4 };
        let (trace, finished) = assert_matches_the_oracle(&toolchain, &params, goals);
        assert!(trace.steps.len() > 1, "the 4x4 mesh grows");
        for (step, &count) in trace.steps.iter().zip(&finished) {
            let within = step
                .config
                .grow_moves()
                .iter()
                .filter(|candidate| {
                    let screening = toolchain
                        .screen(&params, &candidate.build())
                        .expect("screens");
                    screening.area_overhead() <= goals.area_budget
                })
                .count();
            assert_eq!(count, within, "after {}", step.config);
        }
    }

    #[test]
    fn finishing_a_screen_is_evaluating() {
        // Every candidate of scenario (a)'s first step: the two stages
        // give `evaluate`'s bits, the screen's keys are the finished
        // ones, and both equal the dense-table evaluation of the whole
        // prediction.
        let scenario = Scenario::knc_a();
        let toolchain = fast_toolchain();
        let json = |eval: &Evaluation| serde_json::to_string(eval).expect("serializes");
        for candidate in SparseHammingConfig::mesh(8, 8).grow_moves() {
            let topology = candidate.build();
            let screening = toolchain
                .screen(&scenario.params, &topology)
                .expect("screens");
            let finished = toolchain.finish(&scenario.params, &topology, &screening);
            let evaluated = toolchain
                .evaluate(&scenario.params, &topology)
                .expect("evaluates");
            assert_eq!(json(&finished), json(&evaluated), "{candidate}");
            let dense = routing::default_routes_with(&topology, routing::RouteForm::Dense)
                .expect("dense routes");
            assert_eq!(dense.form(), routing::RouteForm::Dense);
            let prediction = predict(&scenario.params, &topology, &toolchain.model_options);
            assert_eq!(
                json(&finished),
                json(&toolchain.evaluate_with(&scenario.params, &topology, &dense, &prediction)),
                "{candidate}"
            );
            assert_eq!(
                screening.area_overhead().to_bits(),
                finished.area_overhead.to_bits()
            );
            assert_eq!(
                screening.saturation_throughput().map(f64::to_bits),
                Some(finished.saturation_throughput.to_bits())
            );
        }
    }

    #[test]
    fn rankings_finish_only_the_candidates_that_can_win() {
        // Counted on the full evaluations before screening: candidates
        // within the budget and tied at the step's best throughput.
        let scenario = Scenario::knc_a();
        let goals = DesignGoals {
            area_budget: scenario.area_budget,
        };
        let (trace, finished) =
            customize_counted(&fast_toolchain(), &scenario.params, goals, 2).expect("runs");
        assert_eq!(finished, [12, 2, 10, 7, 3, 1]);
        let candidates: usize = trace
            .steps
            .iter()
            .map(|s| s.config.grow_moves().len())
            .sum();
        assert_eq!((finished.iter().sum::<usize>(), candidates), (35, 57));
        // The `customize_20x20` benchmark workload's inputs.
        let toolchain = Toolchain {
            model_options: ModelOptions {
                cell_scale: 6.0,
                ..ModelOptions::default()
            },
            mode: PerformanceMode::Analytic,
            ..Toolchain::default()
        };
        let goals = DesignGoals { area_budget: 0.4 };
        let (trace, finished) =
            customize_counted(&toolchain, &params_on(20, 20), goals, 2).expect("runs");
        assert_eq!(finished, [31, 3, 4, 1, 1, 1]);
        let candidates: usize = trace
            .steps
            .iter()
            .map(|s| s.config.grow_moves().len())
            .sum();
        assert_eq!(candidates, 201);
    }

    #[test]
    fn candidate_evaluations_do_not_depend_on_the_worker_count() {
        let scenario = Scenario::knc_a();
        let toolchain = fast_toolchain();
        let candidates = scenario.shg.grow_moves();
        let evaluations = |workers: usize| {
            evaluate_candidates(&candidates, workers, |candidate| {
                toolchain.evaluate(&scenario.params, &candidate.build())
            })
            .expect("every candidate evaluates")
        };
        let serial = evaluations(1);
        assert_eq!(serial.len(), candidates.len());
        assert_eq!(evaluations(2), serial);
        assert_eq!(evaluations(5), serial);
        // More workers than candidates; no candidates at all.
        assert_eq!(evaluations(candidates.len() + 7), serial);
        for workers in [0, 1, 4] {
            let none = evaluate_candidates(&[] as &[u32], workers, |&c| Ok::<u32, ()>(c));
            assert_eq!(none, Ok(Vec::new()));
        }
    }

    #[test]
    fn earliest_failing_candidate_wins_even_when_it_fails_last() {
        let candidates: Vec<usize> = (0..9).collect();
        let fails = |&c: &usize| if c == 3 || c == 6 { Err(c) } else { Ok(c) };
        assert_eq!(evaluate_candidates(&candidates, 1, fails), Err(3));
        for workers in [2, 5] {
            // Candidate 3 may not finish before candidate 6 has started:
            // the worker holding 3 waits while another drains up to 6.
            let both_failing = std::sync::Barrier::new(2);
            let got = evaluate_candidates(&candidates, workers, |c| {
                if *c == 3 || *c == 6 {
                    both_failing.wait();
                }
                fails(c)
            });
            assert_eq!(got, Err(3), "{workers} workers");
        }
    }

    #[test]
    fn worker_panic_resurfaces_with_its_own_message() {
        let candidates: Vec<usize> = (0..9).collect();
        let unwound = std::panic::catch_unwind(|| {
            evaluate_candidates(&candidates, 2, |&c| {
                assert!(
                    c != 4,
                    "no route between cells {:?} and {:?}",
                    (1, 2),
                    (3, c)
                );
                Ok::<usize, ()>(c)
            })
        })
        .expect_err("the worker's panic crosses the join");
        let message = unwound
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert_eq!(message, "no route between cells (1, 2) and (3, 4)");
    }

    #[test]
    fn customization_starts_at_mesh_and_improves() {
        let scenario = Scenario::knc_a();
        let trace = customize(
            &fast_toolchain(),
            &scenario.params,
            DesignGoals { area_budget: 0.4 },
        )
        .expect("customization runs");
        assert!(trace.steps[0].config.is_mesh());
        assert!(trace.steps.len() > 1, "should add at least one skip set");
        let first = &trace.steps[0].evaluation;
        let last = trace.best();
        assert!(
            last.evaluation.saturation_throughput > first.saturation_throughput,
            "throughput should improve: {} → {}",
            first.saturation_throughput,
            last.evaluation.saturation_throughput
        );
        assert!(last.evaluation.area_overhead <= 0.4);
    }

    #[test]
    fn tight_budget_stays_near_mesh() {
        let scenario = Scenario::knc_a();
        let toolchain = fast_toolchain();
        let mesh_eval = toolchain
            .evaluate(&scenario.params, &SparseHammingConfig::mesh(8, 8).build())
            .expect("mesh evaluates");
        // Budget barely above the mesh's own overhead: few or no skips fit.
        let budget = mesh_eval.area_overhead + 0.02;
        let trace = customize(
            &toolchain,
            &scenario.params,
            DesignGoals {
                area_budget: budget,
            },
        )
        .expect("customization runs");
        let last = trace.best();
        assert!(last.evaluation.area_overhead <= budget);
        assert!(last.config.sr().len() + last.config.sc().len() <= 2);
    }

    #[test]
    fn steps_monotonically_improve_score() {
        let scenario = Scenario::knc_a();
        let goals = DesignGoals { area_budget: 0.4 };
        let trace = customize(&fast_toolchain(), &scenario.params, goals).expect("runs");
        for pair in trace.steps.windows(2) {
            assert!(
                score(&pair[1].evaluation, &goals) > score(&pair[0].evaluation, &goals),
                "non-improving step"
            );
        }
    }
}
