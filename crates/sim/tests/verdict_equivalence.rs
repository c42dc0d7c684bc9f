//! `Experiment::highest_sustained` is exact: for every (case, pattern)
//! row, its answer equals `SweepResult::saturation_estimate` over the
//! completed outcomes `run_cells` computes for the same cells, with and
//! without faults, while probing fewer cells than the grid holds; and a
//! cache warmed by full runs answers rows without simulating or writing
//! anything.

use std::path::{Path, PathBuf};

use shg_sim::{
    CellCache, CellId, Experiment, FaultPlan, FaultStats, SimConfig, SustainedRow, SweepPoint,
    SweepResult, SweepSpec,
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
/// their highest one, i.e. how many rows the scan had to walk down.
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
    let mut walked_down = 0;
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
        walked_down += usize::from(row.rate.is_some_and(|rate| rate < top));
    }
    walked_down
}

/// Asserts `highest_sustained` over the whole grid against the full
/// outcomes, row by row: every row of the grid is answered, some rows
/// sustain a rate only below their highest one, and fewer cells are
/// probed than the grid holds. Returns the full outcomes' points.
fn assert_exact(experiment: &Experiment<'_>, slack: f64, label: &str) -> Vec<SweepPoint> {
    let cells: Vec<CellId> = experiment.plan().cells().collect();
    let points = experiment.run_cells(&cells);
    let simulated = experiment.exec_stats().per_cell_cells;
    let rows = experiment.highest_sustained(&cells, slack);
    let probed = experiment.exec_stats().per_cell_cells - simulated;
    let patterns = experiment.spec().patterns.len();
    assert_eq!(rows.len(), experiment.cases().len() * patterns, "{label}");
    let walked_down = assert_rows(experiment, &rows, &points, slack, label);
    assert!(walked_down > 0, "{label}: every row sustains its top rate");
    assert!(
        probed < cells.len() as u64,
        "{label}: {probed} of {} cells probed",
        cells.len()
    );
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
    for slack in [0.05, 0.25] {
        assert_exact(&experiment, slack, "fault-free");
    }
}

#[test]
fn verdicts_equal_keeps_up_under_a_drop_fault_plan() {
    let topologies = topologies();
    let points = assert_exact(
        &experiment(&topologies, "drop,700:link:5-6,1200:router:10"),
        0.05,
        "drop",
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
    );
    assert_faulted(&points, "drain");
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
