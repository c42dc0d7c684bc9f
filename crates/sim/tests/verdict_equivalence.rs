//! `Experiment::highest_sustained` is exact on the rows it is given:
//! every (case, pattern) row of these grids keeps up on a prefix of its
//! rates (checked on the completed outcomes `run_cells` computes, so a
//! non-monotone row fails by name), and on each row the bisection's
//! answer equals `SweepResult::saturation_estimate` over those
//! outcomes, with and without faults, in a pinned number of probes and
//! at most ⌈log₂(n + 1)⌉ per row of n cells; and a cache warmed by full
//! runs answers rows without simulating or writing anything.

use std::path::{Path, PathBuf};

use shg_sim::{
    CellCache, CellId, Experiment, FaultPlan, FaultStats, SimConfig, SustainedRow, SweepPoint,
    SweepResult, SweepSpec, TrafficPattern,
};
use shg_topology::{generators, Grid, Topology};

/// The 4×4 mesh, torus and sparse Hamming graph.
fn topologies() -> Vec<(&'static str, Topology)> {
    let grid = Grid::new(4, 4);
    let sr = [2].into_iter().collect();
    let sc = [3].into_iter().collect();
    vec![
        ("mesh", generators::mesh(grid)),
        ("torus", generators::torus(grid)),
        (
            "shg",
            generators::row_column_skip(grid, &sr, &sc).expect("4x4 sparse Hamming graph"),
        ),
    ]
}

/// All seven patterns on a 4-point linear grid plus the hot-spot low
/// rates, under the fast-test windows and the given fault plan.
fn experiment<'a>(topologies: &'a [(&'static str, Topology)], faults: &str) -> Experiment<'a> {
    let config = SimConfig {
        faults: FaultPlan::parse(faults).expect("plan parses"),
        ..SimConfig::fast_test()
    };
    let spec = SweepSpec::new(config)
        .linear_rates(4, 1.0)
        .all_patterns()
        .default_hotspot_low_rates();
    topologies
        .iter()
        .try_fold(Experiment::new(spec), |experiment, (name, topology)| {
            experiment.with_unit_latency_case(*name, topology)
        })
        .expect("4x4 cases route")
}

/// Asserts each row's answer against the saturation estimate of the
/// full outcomes `points`; returns how many rows sustain a rate below
/// their highest one but not that one.
fn assert_rows(
    experiment: &Experiment<'_>,
    rows: &[SustainedRow],
    points: &[SweepPoint],
    slack: f64,
    label: &str,
) -> usize {
    let result = SweepResult {
        points: points.to_vec(),
    };
    let mut below_top = 0;
    for row in rows {
        let case = &experiment.cases()[row.case as usize].name;
        let pattern = experiment.spec().patterns[row.pattern as usize];
        assert_eq!(
            row.rate,
            result.saturation_estimate(case, pattern, slack),
            "{label}, slack {slack}: {case} {pattern}"
        );
        let top = points
            .iter()
            .filter(|p| &p.case == case && p.pattern == pattern)
            .map(|p| p.rate)
            .fold(f64::MIN, f64::max);
        below_top += usize::from(row.rate.is_some_and(|rate| rate < top));
    }
    below_top
}

/// Asserts that each (case, pattern) row of `points` keeps up within
/// `slack` on a prefix of its rates, the assumption the bisection in
/// `highest_sustained` rests on.
fn assert_prefixes(points: &[SweepPoint], slack: f64, label: &str) {
    let mut rows: Vec<(&str, TrafficPattern, Vec<&SweepPoint>)> = Vec::new();
    for point in points {
        match rows
            .iter_mut()
            .find(|(case, pattern, _)| *case == point.case && *pattern == point.pattern)
        {
            Some((_, _, row)) => row.push(point),
            None => rows.push((&point.case, point.pattern, vec![point])),
        }
    }
    for (case, pattern, mut row) in rows {
        row.sort_by(|a, b| a.rate.total_cmp(&b.rate));
        let prefix = row.iter().take_while(|p| p.outcome.keeps_up(slack)).count();
        if let Some(p) = row[prefix..].iter().find(|p| p.outcome.keeps_up(slack)) {
            panic!(
                "{label}, slack {slack}: {case} {pattern} is not monotone: rate {} keeps up \
                 above rate {}, which does not",
                p.rate, row[prefix].rate
            );
        }
    }
}

/// The rows `highest_sustained` answers for `cells`, and how many
/// cells it probed for them.
fn probes(experiment: &Experiment<'_>, cells: &[CellId], slack: f64) -> (Vec<SustainedRow>, u64) {
    let before = experiment.exec_stats().per_cell_cells;
    let rows = experiment.highest_sustained(cells, slack);
    (rows, experiment.exec_stats().per_cell_cells - before)
}

/// Asserts `highest_sustained` over the whole grid against the full
/// outcomes, row by row: every row keeps up on a prefix of its rates
/// and is answered, some rows sustain a rate only below their highest
/// one, the grid takes exactly `expected_probes` probes, and each row
/// of n cells, asked alone, takes at most ⌈log₂(n + 1)⌉ of them.
/// Returns the full outcomes' points.
fn assert_exact(
    experiment: &Experiment<'_>,
    slack: f64,
    label: &str,
    expected_probes: u64,
) -> Vec<SweepPoint> {
    let cells: Vec<CellId> = experiment.plan().cells().collect();
    let points = experiment.run_cells(&cells);
    assert_prefixes(&points, slack, label);
    let (rows, probed) = probes(experiment, &cells, slack);
    let patterns = experiment.spec().patterns.len();
    assert_eq!(rows.len(), experiment.cases().len() * patterns, "{label}");
    let below_top = assert_rows(experiment, &rows, &points, slack, label);
    assert!(below_top > 0, "{label}: every row sustains its top rate");
    assert_eq!(
        probed,
        expected_probes,
        "{label}, slack {slack}: cells probed of {}",
        cells.len()
    );
    for row in &rows {
        let row_cells: Vec<CellId> = cells
            .iter()
            .copied()
            .filter(|c| (c.case, c.pattern) == (row.case, row.pattern))
            .collect();
        let (alone, probed) = probes(experiment, &row_cells, slack);
        assert_eq!(alone, [*row], "{label}: a row changed when asked alone");
        let bound = u64::from(usize::BITS - row_cells.len().leading_zeros()); // ⌈log₂(n + 1)⌉
        assert!(
            probed <= bound,
            "{label}, slack {slack}: row {row:?} took {probed} probes for {} cells",
            row_cells.len()
        );
    }
    points
}

/// Asserts that a fault plan touched some cell's packets.
fn assert_faulted(points: &[SweepPoint], label: &str) {
    assert!(
        points
            .iter()
            .any(|p| p.outcome.faults != FaultStats::default()),
        "{label}: no cell lost a packet to the fault plan"
    );
}

#[test]
fn verdicts_equal_keeps_up_of_full_runs() {
    let topologies = topologies();
    let experiment = experiment(&topologies, "");
    for (slack, probes) in [(0.05, 49), (0.25, 48)] {
        assert_exact(&experiment, slack, "fault-free", probes);
    }
}

#[test]
fn verdicts_equal_keeps_up_under_a_drop_fault_plan() {
    let topologies = topologies();
    let points = assert_exact(
        &experiment(&topologies, "drop,700:link:5-6,1200:router:10"),
        0.05,
        "drop",
        56,
    );
    assert_faulted(&points, "drop");
}

#[test]
fn verdicts_equal_keeps_up_under_a_drain_fault_plan() {
    let topologies = topologies();
    let points = assert_exact(
        &experiment(&topologies, "drain,600:router:9"),
        0.05,
        "drain",
        50,
    );
    assert_faulted(&points, "drain");
}

#[test]
#[should_panic(expected = "mesh uniform-random is not monotone: rate 1 keeps up above rate 0.75")]
fn a_non_monotone_row_fails_by_name() {
    let topologies = topologies();
    let experiment = experiment(&topologies[..1], "");
    let cells: Vec<CellId> = experiment.plan().cells().collect();
    let mut points = experiment.run_cells(&cells);
    let mut row: Vec<&mut SweepPoint> = points
        .iter_mut()
        .filter(|p| p.pattern == TrafficPattern::UniformRandom)
        .collect();
    row.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    let [.., below, top] = &mut row[..] else {
        panic!("the row has fewer than two rates");
    };
    assert!(!below.outcome.keeps_up(0.05) && !top.outcome.keeps_up(0.05));
    // The top rate keeps up; the rate below it still does not.
    top.outcome.stable = true;
    top.outcome.accepted_rate = top.outcome.offered_rate;
    assert_prefixes(&points, 0.05, "patched");
}

/// A scratch directory unique to this test process and name; removed
/// on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "shg_verdict_equivalence_{}_{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every file under `dir` with its bytes, in path order.
fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("cache dir lists")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let bytes = std::fs::read(&path).expect("entry reads");
            (path, bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn a_warm_cache_answers_every_verdict_and_a_miss_writes_nothing() {
    let topologies = topologies();
    let dir = ScratchDir::new("warm");
    let cells: Vec<CellId> = experiment(&topologies, "").plan().cells().collect();
    let open = || CellCache::open(&dir.0).expect("cache dir opens");
    // Warm the cache with full outcomes for the first half of the grid.
    let (warm, cold) = cells.split_at(cells.len() / 2);
    let points = experiment(&topologies, "")
        .with_cache(open())
        .run_cells(warm);
    let warmed = snapshot(&dir.0);
    assert_eq!(warmed.len(), warm.len());

    let reader = experiment(&topologies, "").with_cache(open());
    let rows = reader.highest_sustained(warm, 0.05);
    assert_rows(&reader, &rows, &points, 0.05, "warm");
    let stats = reader.cache().expect("cache attached").stats();
    assert_eq!(stats.simulated, 0);
    assert!(stats.cached > 0 && stats.cached <= warm.len() as u64);
    assert_eq!(reader.exec_stats().per_cell_cells, 0);

    // Misses are probed and counted as simulated, never stored.
    let rows = reader.highest_sustained(cold, 0.05);
    let stats = reader.cache().expect("cache attached").stats();
    assert!(stats.simulated > 0);
    assert_eq!(snapshot(&dir.0), warmed, "a verdict probe wrote the cache");
    assert_eq!(
        rows,
        experiment(&topologies, "").highest_sustained(cold, 0.05),
        "the cache changed a probed row"
    );
}
