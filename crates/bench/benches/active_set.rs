//! Criterion bench: the sparse schedulers vs. their exhaustive
//! references.
//!
//! * **Scan policy** — the active-set simulator core vs. the seed's
//!   full scan; acceptance bar ≥1.5× at low load on a 16×16 mesh (in
//!   practice much larger: almost every router is idle almost every
//!   cycle).
//! * **Injection policy** — the event-driven injection calendar vs.
//!   the per-cycle countdown scan on the same per-tile streams;
//!   acceptance bar ≥3× on the injection phase at rate ≤ 0.02 with a
//!   16×16 mesh's tile count (whole runs at these rates are dominated
//!   by Phases B/C, identical under both policies — the full-run group
//!   below shows the calendar never loses there either).
//! * **Allocation policy** — request-driven VA/SA vs. the exhaustive
//!   port × VC scan; acceptance bar ≥3× on the allocation phase in the
//!   Phase B/C-bound regime (256 tiles, rate 0.01). The win scales
//!   with router radix: the 16×16 flattened butterfly (the high-radix
//!   shape SlimNoC-style topologies concentrate traffic on) is an
//!   order of magnitude beyond the bar, whole-run.
//! * **Batched lanes** — whole short-cell sweeps through the
//!   struct-of-arrays lane-parallel core (`ExecBackend::Batched`) at
//!   K = 1/4/8 lanes vs. the per-cell reference, single-threaded
//!   (cells-per-core throughput). Short, construction-dominated cells
//!   are the batched core's target regime — the one the auto probe
//!   routes to it; acceptance bar ≥2× at K = 8 on the high-radix
//!   flattened butterfly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use shg_bench::{
    drive_injection_phase, median, profile_allocation_phase, profile_setup_phase, AllocationSample,
    SetupSample,
};
use shg_sim::{
    AllocPolicy, ExecBackend, Experiment, InjectionPolicy, Network, ScanPolicy, SimConfig,
    SweepSpec, TrafficPattern,
};
use shg_topology::{generators, routing, Grid, Topology};
use shg_units::Cycles;

fn bench_active_set(c: &mut Criterion) {
    let mesh = generators::mesh(Grid::new(16, 16));
    let routes = routing::default_routes(&mesh).expect("mesh routes");
    let latencies = vec![Cycles::one(); mesh.num_links()];
    let config = SimConfig {
        warmup: 500,
        measure: 2_000,
        drain_limit: 6_000,
        ..SimConfig::default()
    };
    let mut group = c.benchmark_group("scan_policy_mesh_16x16");
    group.sample_size(10);
    // Zero-load regime (rate 0.005) and a moderate-load point (0.10):
    // the active set wins big at low load and must not lose at load.
    for rate in [0.005f64, 0.10] {
        for (name, policy) in [
            ("active_set", ScanPolicy::ActiveSet),
            ("full_scan", ScanPolicy::FullScan),
        ] {
            group.bench_with_input(
                BenchmarkId::new(name, rate),
                &(rate, policy),
                |b, &(rate, policy)| {
                    b.iter(|| {
                        let mut network = Network::new(&mesh, &routes, &latencies, config.clone());
                        network.run_with_policy(rate, TrafficPattern::UniformRandom, policy)
                    });
                },
            );
        }
    }
    group.finish();

    // Print the headline ratio directly so the acceptance criterion is
    // visible without comparing groups by hand.
    let measure = |policy: ScanPolicy| {
        let mut network = Network::new(&mesh, &routes, &latencies, config.clone());
        let start = std::time::Instant::now();
        let outcome = network.run_with_policy(0.005, TrafficPattern::UniformRandom, policy);
        (start.elapsed().as_secs_f64(), outcome)
    };
    let (_, _) = measure(ScanPolicy::ActiveSet); // warm up
    let (active, active_outcome) = measure(ScanPolicy::ActiveSet);
    let (full, full_outcome) = measure(ScanPolicy::FullScan);
    assert_eq!(active_outcome, full_outcome, "policies must agree");
    println!(
        "\nzero-load 16x16 mesh: full scan / active set = {:.2}x (target >= 1.5x)",
        full / active
    );
}

/// Low-rate injection: with the active-set core already skipping idle
/// routers and channels, Phase A's exhaustive per-tile scan is the
/// remaining O(N)-per-cycle cost. The event-driven calendar must beat
/// the scan ≥3× on the injection phase of a 16×16 mesh at rate ≤ 0.02
/// — and stay bit-identical end to end.
fn bench_injection(c: &mut Criterion) {
    let mesh = generators::mesh(Grid::new(16, 16));
    let routes = routing::default_routes(&mesh).expect("mesh routes");
    let latencies = vec![Cycles::one(); mesh.num_links()];
    let grid = mesh.grid();
    let config = |injection: InjectionPolicy| SimConfig {
        warmup: 500,
        measure: 2_000,
        drain_limit: 6_000,
        injection,
        ..SimConfig::default()
    };
    let rate = 0.01f64;
    let packet_prob = rate / f64::from(config(InjectionPolicy::EventDriven).packet_len);
    let cycles = 3_000u64;

    // Phase A in isolation, via the shared driver the A4 ablation and
    // the headline ratio also use. This is the subsystem the
    // acceptance criterion targets — whole-run wall-clock at these
    // rates is dominated by Phases B/C, which are identical (and
    // already active-set-scheduled) under both policies. The
    // bit-identity of whole-run outcomes is enforced by the test
    // suite (`crates/sim/tests/injection_equivalence.rs`).
    let mut group = c.benchmark_group("injection_phase_mesh_16x16");
    group.sample_size(20);
    for (name, injection) in [
        ("event_driven", InjectionPolicy::EventDriven),
        ("per_cycle_scan", InjectionPolicy::PerCycleScan),
    ] {
        group.bench_with_input(BenchmarkId::new(name, rate), &injection, |b, &injection| {
            b.iter(|| drive_injection_phase(injection, 42, grid, packet_prob, cycles).1);
        });
    }
    group.finish();

    // Whole runs must never lose from the calendar either.
    let mut runs = c.benchmark_group("injection_policy_full_run_mesh_16x16");
    runs.sample_size(10);
    for (name, injection) in [
        ("event_driven", InjectionPolicy::EventDriven),
        ("per_cycle_scan", InjectionPolicy::PerCycleScan),
    ] {
        runs.bench_with_input(BenchmarkId::new(name, rate), &injection, |b, &injection| {
            b.iter(|| {
                let mut network = Network::new(&mesh, &routes, &latencies, config(injection));
                network.run(rate, TrafficPattern::UniformRandom)
            });
        });
    }
    runs.finish();

    // Headline ratio for the acceptance criterion (median of a few
    // alternating runs, so one scheduling hiccup can't skew it).
    let phase_a = |injection: InjectionPolicy| {
        let (elapsed, arrivals) = drive_injection_phase(injection, 42, grid, packet_prob, cycles);
        (elapsed.as_secs_f64(), arrivals)
    };
    let _ = phase_a(InjectionPolicy::EventDriven); // warm up
    let mut ratios = Vec::new();
    for _ in 0..9 {
        let (event, event_arrivals) = phase_a(InjectionPolicy::EventDriven);
        let (scan, scan_arrivals) = phase_a(InjectionPolicy::PerCycleScan);
        assert_eq!(event_arrivals, scan_arrivals, "same streams, same arrivals");
        ratios.push(scan / event);
    }
    ratios.sort_by(f64::total_cmp);
    println!(
        "\nlow-rate injection phase (rate {rate}, 16x16-mesh tiles): \
         per-cycle scan / event-driven = {:.1}x (target >= 3x)",
        ratios[ratios.len() / 2]
    );
}

/// Request-driven allocation: with injection event-driven and the
/// active set already skipping idle routers, Phases B/C dominate every
/// run at rate ≥ ~0.002 — and within Phase C the exhaustive allocator
/// scanned every port × VC of every visited router. The request queue
/// must beat that scan ≥3× on the allocation phase at the profiled
/// regime (256 tiles, rate 0.01) while staying bit-identical.
fn bench_allocation(c: &mut Criterion) {
    let grid = Grid::new(16, 16);
    let cases: Vec<(&str, Topology)> = vec![
        ("mesh", generators::mesh(grid)),
        ("fb", generators::flattened_butterfly(grid)),
    ];
    let config = |alloc: AllocPolicy| SimConfig {
        warmup: 500,
        measure: 2_000,
        drain_limit: 6_000,
        alloc,
        ..SimConfig::default()
    };
    let rate = 0.01f64;

    // Whole runs: the radix-4 mesh gains ~2.5×; the radix-31 flattened
    // butterfly (the concentrated-traffic shape) gains ~15×.
    let mut group = c.benchmark_group("allocation_policy_full_run_256_tiles");
    group.sample_size(10);
    for (case, topology) in &cases {
        let routes = routing::default_routes(topology).expect("routes");
        let latencies = vec![Cycles::one(); topology.num_links()];
        for (name, alloc) in [
            ("request_queue", AllocPolicy::RequestQueue),
            ("full_scan", AllocPolicy::FullScan),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("{case}/{name}"), rate),
                &alloc,
                |b, &alloc| {
                    b.iter(|| {
                        let mut network =
                            Network::new(topology, &routes, &latencies, config(alloc));
                        network.run(rate, TrafficPattern::UniformRandom)
                    });
                },
            );
        }
    }
    group.finish();

    // Headline ratios for the acceptance criterion: the allocation
    // phase in isolation (`Network::run_profiled` decomposes per-phase
    // wall time), medians of alternating runs, via the measurement
    // protocol shared with the A5 ablation and the CI perf-smoke gate.
    for (case, topology) in &cases {
        let samples =
            profile_allocation_phase(topology, &config(AllocPolicy::RequestQueue), rate, 9);
        let ratio = median(samples.iter().map(AllocationSample::ratio).collect());
        println!(
            "\nallocation phase, 16x16 {case} (256 tiles, rate {rate}): \
             full scan / request queue = {ratio:.1}x (target >= 3x)"
        );
    }
}

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

criterion_group!(
    benches,
    bench_active_set,
    bench_injection,
    bench_allocation,
    bench_setup_phase,
    bench_batched_lanes
);
criterion_main!(benches);
