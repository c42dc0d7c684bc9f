//! Pins where a local full-outcome sweep cuts its cells into chunks.
//!
//! A journaled sweep and a sweep with a progress callback run their
//! cells chunk by chunk, each chunk one [`Experiment::run_cells`] call,
//! so the chunk boundaries decide which same-case cells share a
//! `Network`. The `(done, total)` progress sequence shows the
//! boundaries and [`ExecStats`] counts the constructions they cause.
//! Without an observer the whole cell list is one `run_cells` call.
//! Only [`observed`] names a sweep driver.

use std::path::Path;

use shg_sim::sweep::{run_sweep, CoordProgress, Executors, JournalSink, ProgressFn};
use shg_sim::{
    CellId, ExecStats, Experiment, ShardSpec, SimConfig, SweepPoint, SweepSpec, TrafficPattern,
};
use shg_topology::{generators, Grid};

/// What one sweep did: its points, its progress reports and its
/// `(per-cell, reuse)` cell counts.
type Observed = (Vec<SweepPoint>, Vec<(usize, usize)>, (u64, u64));

/// Three 4×4 cases × two patterns × five rates: 30 cells, ten per case.
fn with_experiment<R>(run: impl FnOnce(&Experiment<'_>) -> R) -> R {
    let grid = Grid::new(4, 4);
    let (mesh, torus, ring) = (
        generators::mesh(grid),
        generators::torus(grid),
        generators::ring(grid),
    );
    let spec = SweepSpec::new(SimConfig::fast_test())
        .rates([0.02, 0.04, 0.06, 0.08, 0.1])
        .patterns([TrafficPattern::UniformRandom, TrafficPattern::Transpose]);
    let experiment = Experiment::new(spec)
        .with_unit_latency_case("mesh", &mesh)
        .and_then(|e| e.with_unit_latency_case("torus", &torus))
        .and_then(|e| e.with_unit_latency_case("ring", &ring))
        .expect("4x4 cases route");
    run(&experiment)
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds")
}

fn constructions(experiment: &Experiment<'_>) -> (u64, u64) {
    let ExecStats {
        per_cell_cells,
        reuse_cells,
        ..
    } = experiment.exec_stats();
    (per_cell_cells, reuse_cells)
}

/// Runs `shard` on a pool of `threads` with a progress callback, into
/// the journal `(path, resume)` when given.
fn observed(threads: usize, shard: ShardSpec, journal: Option<(&Path, bool)>) -> Observed {
    with_experiment(|experiment| {
        let mut seen = Vec::new();
        let mut report = |p: CoordProgress| seen.push((p.cells_done, p.cells_total));
        let progress = Some(&mut report as ProgressFn<'_>);
        let journal = journal.map(|(path, resume)| JournalSink {
            path,
            resume,
            durable: false,
        });
        let run = || run_sweep(experiment, shard, Executors::Local, journal, progress);
        let points = pool(threads).install(run).expect("local run").0.points;
        (points, seen, constructions(experiment))
    })
}

#[test]
fn observed_local_sweeps_keep_their_chunk_layout() {
    let (all, strided) = with_experiment(|e| {
        let cells: Vec<CellId> = e.plan().shard_cells(ShardSpec::new(1, 3));
        (e.run_parallel().points, e.run_cells_fresh(&cells))
    });
    let dir = std::env::temp_dir().join(format!("shg_chunk_layout_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (full, partial) = (dir.join("full.jsonl"), dir.join("partial.jsonl"));
    let solo = ShardSpec::SOLO;
    let progress = |steps: &[usize], total| steps.iter().map(|&d| (d, total)).collect::<Vec<_>>();

    // Chunks of eight cells per pool thread, journaled or not.
    let journaled = observed(1, solo, Some((&full, false)));
    let expected = (all.clone(), progress(&[0, 8, 16, 24, 30], 30), (7, 23));
    assert_eq!(journaled, expected);
    let journaled = observed(2, solo, Some((&full, false)));
    assert_eq!(
        journaled,
        (all.clone(), progress(&[0, 16, 30], 30), (8, 22))
    );
    assert_eq!(observed(2, solo, None), journaled);
    // A shard is a plan filter: ten strided cells, one chunk.
    let shard = observed(2, ShardSpec::new(1, 3), None);
    assert_eq!(shard, (strided, progress(&[0, 10], 10), (7, 3)));

    // Resumed after five cells: only the other 25 are chunked.
    let text = std::fs::read_to_string(&full).expect("journal");
    let prefix: String = text.lines().take(6).flat_map(|l| [l, "\n"]).collect();
    std::fs::write(&partial, prefix).expect("write prefix");
    let resumed = observed(2, solo, Some((&partial, true)));
    assert_eq!(resumed, (all.clone(), progress(&[5, 21, 30], 30), (7, 18)));
    assert_eq!(std::fs::read_to_string(&partial).expect("journal"), text);
    let _ = std::fs::remove_dir_all(&dir);

    // No observer: one `run_cells` call over the whole list.
    let silent = with_experiment(|e| {
        (
            pool(2).install(|| e.run_parallel()).points,
            constructions(e),
        )
    });
    assert_eq!(silent, (all, (9, 21)));
}
