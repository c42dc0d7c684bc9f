//! Criterion bench: cycle-accurate simulator speed — one short
//! measurement run (warm-up + measure + drain) per iteration, plus the
//! analytic zero-load latency used inside the customization loop.
//!
//! The `saturated` group is the regime a load sweep spends its time
//! in (the repo benchmark's ledger: most `fig6` cells run past the
//! knee to the drain limit): `shg_bench::sweep::saturated_cells`, one
//! full cell per iteration.
//!
//! `saturation_search/mempool` is what `table3_mempool` spends its time
//! in: the eight-probe bisection on the MemPool stand-in at the
//! publication-size default windows, one whole search per iteration
//! (probes that cannot pass stop when their measurement window closes).

use criterion::{criterion_group, criterion_main, Criterion};

use shg_bench::sweep::saturated_cells;
use shg_core::MempoolReference;
use shg_floorplan::{predict, ModelOptions};
use shg_sim::{
    saturation_throughput, zero_load_latency, Network, SaturationSearch, SimConfig, TrafficPattern,
};
use shg_topology::{generators, routing, Grid};
use shg_units::Cycles;

fn bench_simulator(c: &mut Criterion) {
    let grid = Grid::new(8, 8);
    let mesh = generators::mesh(grid);
    let routes = routing::default_routes(&mesh).expect("routes");
    let latencies = vec![Cycles::one(); mesh.num_links()];
    let config = SimConfig {
        warmup: 500,
        measure: 1_000,
        drain_limit: 3_000,
        ..SimConfig::default()
    };
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.bench_function("mesh_8x8_run_0.1", |b| {
        b.iter(|| {
            let mut network = Network::new(&mesh, &routes, &latencies, config.clone());
            network.run(0.1, TrafficPattern::UniformRandom)
        });
    });
    group.bench_function("mesh_8x8_analytic_zll", |b| {
        b.iter(|| zero_load_latency(&mesh, &routes, &latencies, &config));
    });
    group.finish();
}

fn bench_saturated(c: &mut Criterion) {
    let mut group = c.benchmark_group("saturated");
    // A 2,560-tile cell takes seconds; a few samples resolve the
    // tens-of-percent effects this group exists to show.
    group.sample_size(3);
    for cell in saturated_cells() {
        group.bench_function(cell.name, |b| {
            b.iter(|| cell.network().run(cell.rate, TrafficPattern::UniformRandom));
        });
    }
    group.finish();
}

fn bench_saturation_search(c: &mut Criterion) {
    let reference = MempoolReference::new();
    let topology = reference.topology();
    let routes = routing::default_routes(&topology).expect("routes");
    let prediction = predict(&reference.params, &topology, &ModelOptions::default());
    let latencies = &prediction.estimates.link_latencies;
    let mut group = c.benchmark_group("saturation_search");
    group.sample_size(3);
    group.bench_function("mempool", |b| {
        b.iter(|| {
            saturation_throughput(
                &topology,
                &routes,
                latencies,
                &reference.sim,
                TrafficPattern::UniformRandom,
                SaturationSearch::default(),
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simulator,
    bench_saturated,
    bench_saturation_search
);
criterion_main!(benches);
