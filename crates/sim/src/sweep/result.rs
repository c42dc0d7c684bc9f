//! The result and merge layer: measured points, the deterministic
//! serialized form, and [`SweepResult::merge`] — recombining shard
//! results into the exact bytes a single-shot run would have produced.

use serde::Serialize;

use super::plan::CellId;
use super::shard::ShardSpec;
use crate::stats::SimOutcome;
use crate::traffic::TrafficPattern;

/// One measured grid cell of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepPoint {
    /// Case (topology) name.
    pub case: String,
    /// Traffic pattern of this cell.
    pub pattern: TrafficPattern,
    /// Offered injection rate (flits per node per cycle).
    pub rate: f64,
    /// The derived per-point RNG seed (recorded for reproduction).
    pub seed: u64,
    /// The simulator's measurements.
    pub outcome: SimOutcome,
}

/// All points of a sweep, in deterministic grid order
/// (case-major, then pattern, then rate).
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct SweepResult {
    /// The measured points.
    pub points: Vec<SweepPoint>,
}

/// One shard's worth of measured cells, tagged with what
/// [`SweepResult::merge`] validates: the plan fingerprint, the shard
/// assignment, and the plan's total cell count. Loaded by
/// [`super::journal::read_journal`] from the journal a
/// [`run_sweep`](super::run_sweep) of the shard wrote.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResult {
    /// Fingerprint of the plan this shard was computed under.
    pub fingerprint: u64,
    /// Which shard of the plan this is.
    pub shard: ShardSpec,
    /// Total cells in the plan (across all shards).
    pub plan_cells: u64,
    /// The measured cells, in canonical order.
    pub entries: Vec<(CellId, SweepPoint)>,
}

/// Why shard results refused to merge.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// No shards given.
    Empty,
    /// A shard was computed under a different plan (spec, case set or
    /// topology changed between runs).
    FingerprintMismatch {
        /// The first shard's fingerprint.
        expected: u64,
        /// The disagreeing shard's fingerprint.
        found: u64,
        /// Which disagreeing shard (its CLI form).
        shard: ShardSpec,
    },
    /// Shards disagree on the plan's total cell count.
    PlanSizeMismatch {
        /// The first shard's total.
        expected: u64,
        /// The disagreeing shard's total.
        found: u64,
    },
    /// The same cell appears in more than one shard (overlapping or
    /// repeated shards).
    DuplicateCell(CellId),
    /// The union of shards does not cover the plan (a shard is missing
    /// or was interrupted before finishing).
    IncompleteCoverage {
        /// Cells present across all shards.
        have: u64,
        /// Cells the plan requires.
        need: u64,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Empty => write!(f, "no shard results to merge"),
            Self::FingerprintMismatch {
                expected,
                found,
                shard,
            } => write!(
                f,
                "shard {shard} has plan fingerprint {found:#018x}, expected {expected:#018x} — \
                 the sweep spec, case set or topology changed between shard runs"
            ),
            Self::PlanSizeMismatch { expected, found } => write!(
                f,
                "shards disagree on the plan's cell count ({found} vs {expected})"
            ),
            Self::DuplicateCell(cell) => write!(
                f,
                "cell {cell} appears in more than one shard — overlapping shard specs?"
            ),
            Self::IncompleteCoverage { have, need } => write!(
                f,
                "shards cover {have} of {need} cells — a shard is missing or unfinished"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

impl SweepResult {
    /// Serializes to pretty JSON (byte-identical for identical sweeps,
    /// regardless of thread count).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("sweep JSON serializes")
    }

    /// Recombines shard results into the full sweep, re-ordered into
    /// the canonical grid order — [`SweepResult::to_json`] on the
    /// merged result is byte-identical to a single-shot
    /// [`crate::Experiment::run_parallel`] of the same plan.
    ///
    /// # Errors
    ///
    /// Rejects shards whose fingerprints or plan sizes disagree,
    /// overlapping shards (duplicate cells) and incomplete coverage.
    pub fn merge(shards: Vec<ShardResult>) -> Result<Self, MergeError> {
        let first = shards.first().ok_or(MergeError::Empty)?;
        let fingerprint = first.fingerprint;
        let plan_cells = first.plan_cells;
        for shard in &shards {
            if shard.fingerprint != fingerprint {
                return Err(MergeError::FingerprintMismatch {
                    expected: fingerprint,
                    found: shard.fingerprint,
                    shard: shard.shard,
                });
            }
            if shard.plan_cells != plan_cells {
                return Err(MergeError::PlanSizeMismatch {
                    expected: plan_cells,
                    found: shard.plan_cells,
                });
            }
        }
        let mut entries: Vec<(CellId, SweepPoint)> =
            shards.into_iter().flat_map(|s| s.entries).collect();
        entries.sort_by_key(|(cell, _)| *cell);
        for pair in entries.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(MergeError::DuplicateCell(pair[0].0));
            }
        }
        if entries.len() as u64 != plan_cells {
            return Err(MergeError::IncompleteCoverage {
                have: entries.len() as u64,
                need: plan_cells,
            });
        }
        Ok(Self {
            points: entries.into_iter().map(|(_, point)| point).collect(),
        })
    }

    /// The points of one case, in grid order.
    pub fn points_for(&self, case: &str) -> impl Iterator<Item = &SweepPoint> {
        let case = case.to_owned();
        self.points.iter().filter(move |p| p.case == case)
    }

    /// The highest swept rate at which `case` under `pattern` still
    /// keeps up with the offered load (within `slack`), or `None` if it
    /// saturates below every swept rate.
    #[must_use]
    pub fn saturation_estimate(
        &self,
        case: &str,
        pattern: TrafficPattern,
        slack: f64,
    ) -> Option<f64> {
        self.points_for(case)
            .filter(|p| p.pattern == pattern && p.outcome.keeps_up(slack))
            .map(|p| p.rate)
            .fold(None, |best, rate| {
                Some(best.map_or(rate, |b: f64| b.max(rate)))
            })
    }

    /// A plain-text table of all points (binaries print this).
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<26} {:>16} {:>8} {:>9} {:>12} {:>12} {:>7}\n",
            "Case", "Pattern", "Offered", "Accepted", "AvgLat[cyc]", "p99Lat[cyc]", "Stable"
        ));
        out.push_str(&"-".repeat(96));
        out.push('\n');
        for p in &self.points {
            out.push_str(&format!(
                "{:<26} {:>16} {:>8.3} {:>9.3} {:>12.1} {:>12.1} {:>7}\n",
                p.case,
                p.pattern.to_string(),
                p.rate,
                p.outcome.accepted_rate,
                p.outcome.avg_packet_latency,
                p.outcome.p99_packet_latency,
                p.outcome.stable
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::experiment::Experiment;
    use super::super::journal::journaled_shard;
    use super::super::spec::SweepSpec;
    use super::*;
    use crate::config::SimConfig;
    use shg_topology::{generators, Grid};

    fn experiment(topology: &shg_topology::Topology) -> Experiment<'_> {
        let spec = SweepSpec::new(SimConfig::fast_test())
            .rates([0.02, 0.1])
            .patterns([TrafficPattern::UniformRandom, TrafficPattern::Transpose]);
        Experiment::new(spec)
            .with_unit_latency_case("mesh", topology)
            .expect("mesh routes")
    }

    #[test]
    fn merged_shards_reproduce_the_single_shot_bytes() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let experiment = experiment(&mesh);
        let single = experiment.run_parallel().to_json();
        let shards: Vec<ShardResult> = (0..3)
            .map(|i| journaled_shard(&experiment, ShardSpec::new(i, 3)))
            .collect();
        let merged = SweepResult::merge(shards).expect("shards merge");
        assert_eq!(merged.to_json(), single);
    }

    #[test]
    fn merge_rejects_fingerprint_mismatch() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let torus = generators::torus(Grid::new(4, 4));
        let a = journaled_shard(&experiment(&mesh), ShardSpec::new(0, 2));
        let b = journaled_shard(&experiment(&torus), ShardSpec::new(1, 2));
        let err = SweepResult::merge(vec![a, b]).expect_err("different plans");
        assert!(
            matches!(err, MergeError::FingerprintMismatch { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }

    #[test]
    fn merge_rejects_overlap_missing_shards_and_empty_input() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let experiment = experiment(&mesh);
        let a = journaled_shard(&experiment, ShardSpec::new(0, 2));
        let b = journaled_shard(&experiment, ShardSpec::new(1, 2));
        let err =
            SweepResult::merge(vec![a.clone(), b.clone(), b.clone()]).expect_err("duplicate shard");
        assert!(matches!(err, MergeError::DuplicateCell(_)), "{err}");
        let err = SweepResult::merge(vec![a]).expect_err("half the cells missing");
        assert!(
            matches!(err, MergeError::IncompleteCoverage { have: 2, need: 4 }),
            "{err}"
        );
        assert_eq!(SweepResult::merge(Vec::new()), Err(MergeError::Empty));
    }
}
