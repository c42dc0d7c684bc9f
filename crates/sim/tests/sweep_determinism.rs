//! Determinism regression for the sweep engine: the same `SweepSpec`
//! run with 1 thread and with N threads must produce byte-identical
//! JSON output — the contract every future scaling PR (sharding,
//! batching, remote backends) builds on. The per-tile injection
//! streams must preserve it: every tile seed derives from the
//! per-point seed, which derives from grid coordinates alone.
//!
//! The sharding consequence is pinned here too: any N-way shard split
//! of a sweep, each shard journaled and read back, merged, serializes
//! to the single-shot bytes — across shard counts and root seeds
//! (proptest).

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use rayon::ThreadPool;
use shg_sim::sweep::{read_journal, run_sweep, Executors, JournalSink, ShardResult, ALL_PATTERNS};
use shg_sim::{
    CellId, ExecStats, Experiment, ShardSpec, SimConfig, SweepResult, SweepSpec, TrafficPattern,
};
use shg_topology::db::TopologyDb;
use shg_topology::{generators, Grid};

/// `shard` of `experiment` as production produces it: run by
/// `run_sweep` into a journal, then read back.
fn journaled_shard(experiment: &Experiment<'_>, shard: ShardSpec) -> ShardResult {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "shg_sweep_determinism_{}_{}.jsonl",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let journal = JournalSink {
        path: &path,
        resume: false,
        durable: false,
    };
    run_sweep(experiment, shard, Executors::Local, Some(journal), None).expect("shard runs");
    let result = read_journal(&path).expect("journal reads back");
    let _ = std::fs::remove_file(&path);
    result
}

/// A pool pinning the thread count of the sweeps installed on it.
fn pool(threads: usize) -> ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool builds")
}

#[test]
fn one_thread_and_many_threads_produce_identical_json() {
    let grid = Grid::new(4, 4);
    let mesh = generators::mesh(grid);
    let torus = generators::torus(grid);
    let single_pool = pool(1);
    let pools: Vec<ThreadPool> = [2, 4, 8].into_iter().map(pool).collect();
    let spec = SweepSpec::new(SimConfig::fast_test())
        .rates([0.02, 0.1, 0.3])
        .all_patterns();
    let experiment = Experiment::new(spec)
        .with_unit_latency_case("mesh", &mesh)
        .expect("mesh routes")
        .with_unit_latency_case("torus", &torus)
        .expect("torus routes");
    let single = single_pool.install(|| experiment.run_parallel());
    for parallel_pool in &pools {
        let parallel = parallel_pool.install(|| experiment.run_parallel());
        assert_eq!(single, parallel, "outcomes differ between 1 and N threads");
        assert_eq!(
            single.to_json(),
            parallel.to_json(),
            "JSON bytes differ between 1 and N threads"
        );
    }
    // Re-running the whole experiment reproduces the bytes too.
    assert_eq!(single.to_json(), experiment.run_parallel().to_json());
    assert_eq!(single.points.len(), 2 * ALL_PATTERNS.len() * 3);
}

/// The cell groups under the same contract, against a reference that
/// shares nothing: at 1 thread and at N threads — different group
/// splits, different fan-out — a sweep serializes to the bytes of every
/// cell run on its own fresh network.
#[test]
fn grouped_sweeps_serialize_identically_at_one_and_many_threads() {
    let grid = Grid::new(4, 4);
    let mesh = generators::mesh(grid);
    let torus = generators::torus(grid);
    let spec = SweepSpec::new(SimConfig::fast_test())
        .rates([0.02, 0.1, 0.3])
        .patterns([TrafficPattern::UniformRandom, TrafficPattern::Hotspot(20)]);
    let experiment = Experiment::new(spec)
        .with_unit_latency_case("mesh", &mesh)
        .expect("mesh routes")
        .with_unit_latency_case("torus", &torus)
        .expect("torus routes");
    let cells: Vec<CellId> = experiment.plan().cells().collect();
    let reference = SweepResult {
        points: experiment.run_cells_fresh(&cells),
    }
    .to_json();
    for threads in [1, 2, 8] {
        assert_eq!(
            reference,
            pool(threads)
                .install(|| experiment.run_parallel())
                .to_json(),
            "grouped bytes differ from fresh networks at {threads} threads"
        );
    }
}

/// A network large enough to split its routers across the pool (1,024
/// tiles: a shard per thread from two threads on) sweeps to the same
/// bytes, on the same number of networks, whatever the pool's size —
/// one thread per network or every thread on each in turn.
#[test]
fn a_sharded_network_sweeps_identically_on_every_pool() {
    let two_die = TopologyDb::parse(
        "die left 16x32 mesh; die right 16x32 shg:sc=2,5; boundary every=4 latency=3",
    )
    .expect("db parses")
    .instantiate()
    .expect("db instantiates");
    assert_eq!(two_die.num_tiles(), 1_024);
    let config = SimConfig {
        warmup: 50,
        measure: 100,
        drain_limit: 300,
        ..SimConfig::fast_test()
    };
    let spec = SweepSpec::new(config)
        .rates([0.05, 0.9])
        .patterns([TrafficPattern::UniformRandom, TrafficPattern::Reverse]);
    let runs: Vec<(String, ExecStats)> = [1, 2, 3]
        .into_iter()
        .map(|threads| {
            let experiment = Experiment::new(spec.clone())
                .with_unit_latency_case("two-die", &two_die)
                .expect("hierarchical routes");
            let json = pool(threads)
                .install(|| experiment.run_parallel())
                .to_json();
            (json, experiment.exec_stats())
        })
        .collect();
    for (threads, run) in [2, 3].into_iter().zip(&runs[1..]) {
        assert_eq!(&runs[0], run, "1 thread and {threads} threads differ");
    }
    // One network, reset between the four cells.
    assert_eq!(
        runs[0].1,
        ExecStats {
            per_cell_cells: 1,
            reuse_cells: 3,
            ..ExecStats::default()
        }
    );
}

#[test]
fn distinct_seeds_change_results_but_stay_deterministic() {
    let grid = Grid::new(4, 4);
    let mesh = generators::mesh(grid);
    let spec = |seed: u64| {
        SweepSpec::new(SimConfig {
            seed,
            ..SimConfig::fast_test()
        })
        .rates([0.1])
        .patterns([TrafficPattern::UniformRandom])
    };
    let run = |seed: u64| {
        Experiment::new(spec(seed))
            .with_unit_latency_case("mesh", &mesh)
            .expect("routes")
            .run_parallel()
    };
    let a1 = run(1);
    let a2 = run(1);
    let b = run(2);
    assert_eq!(a1, a2, "same root seed reproduces");
    assert_ne!(
        a1.points[0].outcome.measured_packets, b.points[0].outcome.measured_packets,
        "different root seeds should measure different packet counts"
    );
}

const SHARD_COUNTS: [u32; 5] = [1, 2, 3, 5, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Shard-union byte-identity: for any shard count and root seed,
    /// merging the N shard runs serializes to exactly the bytes of the
    /// single-shot `run_parallel` JSON.
    #[test]
    fn sharded_runs_merge_to_the_single_shot_bytes(
        count_idx in 0..SHARD_COUNTS.len(),
        seed in 0u64..1_000,
    ) {
        let count = SHARD_COUNTS[count_idx];
        let mesh = generators::mesh(Grid::new(4, 4));
        let spec = SweepSpec::new(SimConfig {
            seed,
            ..SimConfig::fast_test()
        })
        .rates([0.05, 0.3])
        .patterns([TrafficPattern::UniformRandom, TrafficPattern::Hotspot(20)])
        .hotspot_low_rates(2, 0.01);
        let experiment = Experiment::new(spec)
            .with_unit_latency_case("mesh", &mesh)
            .expect("mesh routes");
        let single = experiment.run_parallel().to_json();
        // Merge in a scrambled order: canonical re-ordering is merge's job.
        let mut shards: Vec<_> = (0..count)
            .map(|i| journaled_shard(&experiment, ShardSpec::new(i, count)))
            .collect();
        shards.rotate_left(count as usize / 2);
        let merged = SweepResult::merge(shards).expect("disjoint, complete shards merge");
        prop_assert_eq!(merged.to_json(), single);
    }
}
