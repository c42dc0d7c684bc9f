//! `Experiment::sustained` is exact: for every cell, its verdict equals
//! `keeps_up` of the completed outcome `run_cells` computes for the same
//! cell, with and without faults, and a cache warmed by full runs
//! answers every verdict without simulating or writing anything.

use std::path::{Path, PathBuf};

use shg_sim::{
    CellCache, CellId, Experiment, FaultPlan, FaultStats, SimConfig, SweepPoint, SweepSpec,
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

/// Asserts `sustained` against `keeps_up` of the full outcomes, cell by
/// cell, and that the grid has cells on both sides of the verdict;
/// returns the full outcomes' points.
fn assert_exact(experiment: &Experiment<'_>, slack: f64, label: &str) -> Vec<SweepPoint> {
    let cells: Vec<CellId> = experiment.plan().cells().collect();
    let points = experiment.run_cells(&cells);
    let verdicts = experiment.sustained(&cells, slack);
    assert_eq!(verdicts.len(), cells.len());
    for ((cell, point), verdict) in cells.iter().zip(&points).zip(&verdicts) {
        assert_eq!(
            *verdict,
            point.outcome.keeps_up(slack),
            "{label}, slack {slack}: cell {cell} ({} {} at {}): {:?}",
            point.case,
            point.pattern,
            point.rate,
            point.outcome
        );
    }
    assert!(verdicts.iter().any(|&v| v), "{label}: no cell keeps up");
    assert!(!verdicts.iter().all(|&v| v), "{label}: every cell keeps up");
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
    let verdicts = reader.sustained(warm, 0.05);
    let expected: Vec<bool> = points.iter().map(|p| p.outcome.keeps_up(0.05)).collect();
    assert_eq!(verdicts, expected);
    let stats = reader.cache().expect("cache attached").stats();
    assert_eq!((stats.cached, stats.simulated), (warm.len() as u64, 0));

    // Misses are probed and counted as simulated, never stored.
    let verdicts = reader.sustained(cold, 0.05);
    let stats = reader.cache().expect("cache attached").stats();
    assert_eq!(stats.simulated, cold.len() as u64);
    assert_eq!(snapshot(&dir.0), warmed, "a verdict probe wrote the cache");
    assert_eq!(
        verdicts,
        experiment(&topologies, "").sustained(cold, 0.05),
        "the cache changed a probed verdict"
    );
}
