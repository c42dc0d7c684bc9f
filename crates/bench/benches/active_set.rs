//! Criterion bench: per-cell setup and sweep backends.
//!
//! * **Setup phase** — `Network::reset` of a dirtied network vs. fresh
//!   `Network::new`, and whole short cells either way, at 64/256/1024
//!   tiles; acceptance bar ≥2× on pure setup.
//! * **Batched lanes** — whole short-cell sweeps through the
//!   struct-of-arrays lane-parallel core (`ExecBackend::Batched`) at
//!   K = 1/4/8 lanes vs. the per-cell reference, single-threaded
//!   (cells-per-core throughput). Short, construction-dominated cells
//!   are the batched core's target regime — the one the auto probe
//!   routes to it; acceptance bar ≥2× at K = 8 on the high-radix
//!   flattened butterfly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use shg_bench::{median, profile_setup_phase, SetupSample};
use shg_sim::{ExecBackend, Experiment, Network, SimConfig, SweepSpec, TrafficPattern};
use shg_topology::{generators, routing, Grid, Topology};
use shg_units::Cycles;

/// Per-cell setup: `Network::new` re-allocates every router's buffers,
/// masks and pipelines for each sweep cell, while `Network::reset`
/// clears only the state the previous cell touched — the lever behind
/// `ExecBackend::Reuse`. Measured at 64/256/1024 tiles on the radix-4
/// mesh and the high-radix flattened butterfly: `construct` is the
/// raw `Network::new`, and `fresh_cell` vs `reuse_cell` are whole
/// short cells (setup + run) so the end-to-end saving is visible too.
fn bench_setup_phase(c: &mut Criterion) {
    let grids = [
        (64usize, Grid::new(8, 8)),
        (256, Grid::new(16, 16)),
        (1024, Grid::new(32, 32)),
    ];
    let config = SimConfig {
        warmup: 100,
        measure: 400,
        drain_limit: 2_000,
        ..SimConfig::default()
    };
    let rate = 0.01f64;
    // Topologies built once and shared by the criterion benches and the
    // headline measurement below (the 32×32 route builds cost seconds).
    let sized_cases: Vec<(usize, Vec<(&str, Topology)>)> = grids
        .into_iter()
        .map(|(tiles, grid)| {
            (
                tiles,
                vec![
                    ("mesh", generators::mesh(grid)),
                    ("fb", generators::flattened_butterfly(grid)),
                ],
            )
        })
        .collect();
    let mut group = c.benchmark_group("setup_phase");
    group.sample_size(10);
    for (tiles, cases) in &sized_cases {
        let tiles = *tiles;
        for (case, topology) in cases {
            let routes = routing::default_routes(topology).expect("routes");
            let latencies = vec![Cycles::one(); topology.num_links()];
            group.bench_function(BenchmarkId::new(format!("{case}/construct"), tiles), |b| {
                b.iter(|| Network::new(topology, &routes, &latencies, config.clone()));
            });
            group.bench_function(BenchmarkId::new(format!("{case}/fresh_cell"), tiles), |b| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let cell = SimConfig {
                        seed,
                        ..config.clone()
                    };
                    Network::new(topology, &routes, &latencies, cell)
                        .run(rate, TrafficPattern::UniformRandom)
                });
            });
            group.bench_function(BenchmarkId::new(format!("{case}/reuse_cell"), tiles), |b| {
                let mut network = Network::new(topology, &routes, &latencies, config.clone());
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    network.reset(seed);
                    network.run(rate, TrafficPattern::UniformRandom)
                });
            });
        }
    }
    group.finish();

    // Headline ratio for the acceptance criterion: pure setup cost —
    // fresh construction vs. reset of a dirtied network — via the
    // protocol shared with the CI perf-smoke `network_reset_vs_rebuild`
    // gate (which rebuilds its own routes; self-containment is the
    // protocol's point).
    for (tiles, cases) in &sized_cases {
        for (case, topology) in cases {
            let samples = profile_setup_phase(topology, &config, rate, 9);
            let ratio = median(samples.iter().map(SetupSample::ratio).collect());
            println!(
                "\nsetup phase, {tiles}-tile {case}: \
                 Network::new / Network::reset = {ratio:.1}x (target >= 2x)"
            );
        }
    }
}

/// Lane-parallel batched core: whole short-cell sweep grids through
/// `ExecBackend::Batched` at K = 1/4/8 lanes vs. the per-cell
/// reference, on a single thread — cells-per-core throughput, the
/// quantity a sharded sweep fleet scales by. The grid uses short,
/// construction-dominated cells: that is the regime the auto probe
/// routes to the batched core (one struct-of-arrays build plus cheap
/// per-lane resets instead of a fresh `Network::new` per cell); long
/// simulation-dominated cells go to the reuse backend instead. Every
/// backend/width is bit-identical — the equivalence suite pins that —
/// so this group is purely about throughput.
fn bench_batched_lanes(c: &mut Criterion) {
    let grids = [(64usize, Grid::new(8, 8)), (256, Grid::new(16, 16))];
    let config = SimConfig {
        warmup: 10,
        measure: 30,
        drain_limit: 120,
        ..SimConfig::default()
    };
    let spec = || {
        SweepSpec::new(config.clone())
            .rates([0.002, 0.004, 0.006, 0.008, 0.01, 0.012])
            .patterns([TrafficPattern::UniformRandom, TrafficPattern::Transpose])
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("thread pool builds");
    let mut group = c.benchmark_group("batched_lanes");
    group.sample_size(10);
    for (tiles, grid) in grids {
        let cases = [
            ("mesh", generators::mesh(grid)),
            ("fb", generators::flattened_butterfly(grid)),
        ];
        for (case, topology) in &cases {
            let experiment = |backend: ExecBackend, lanes: usize| {
                Experiment::new(spec())
                    .with_backend(backend)
                    .with_lanes(lanes)
                    .with_unit_latency_case(*case, topology)
                    .expect("routes build")
            };
            let per_cell = experiment(ExecBackend::PerCell, 1);
            group.bench_function(BenchmarkId::new(format!("{case}/per_cell"), tiles), |b| {
                b.iter(|| per_cell.run_in_pool(&pool));
            });
            for lanes in [1usize, 4, 8] {
                let batched = experiment(ExecBackend::Batched, lanes);
                group.bench_function(
                    BenchmarkId::new(format!("{case}/batched_k{lanes}"), tiles),
                    |b| {
                        b.iter(|| batched.run_in_pool(&pool));
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_setup_phase, bench_batched_lanes);
criterion_main!(benches);
