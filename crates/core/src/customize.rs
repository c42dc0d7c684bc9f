//! The NoC topology customization strategy of Section V-a.
//!
//! Starting from the simplest sparse Hamming graph (the mesh), the loop
//! repeatedly: estimates cost and performance with the prediction
//! toolchain, compares them to the design goals, and grows the skip sets
//! `SR`/`SC` to eliminate the identified insufficiency — until the area
//! budget (40% in the paper) is exhausted.

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
/// of the candidate ([`Toolchain::evaluate`] is) and every result is
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

/// Runs the customization strategy.
///
/// Greedy hill climbing over the `2^(R+C−4)` design space: each iteration
/// evaluates every single-skip extension of the current configuration
/// (step 4 of the paper's strategy) with the (typically fast/analytic)
/// toolchain, and accepts the best one that stays within the area budget
/// and improves the goal score.
///
/// A step's candidates are independent, so they are evaluated
/// concurrently on [`std::thread::available_parallelism`] threads and
/// then ranked sequentially in candidate order; the trace is the same on
/// any number of cores.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::toolchain::PerformanceMode;
    use shg_floorplan::ModelOptions;
    use shg_sim::SimConfig;

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
