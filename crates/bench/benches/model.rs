//! Criterion bench: floorplan model speed (the paper's claim that the
//! toolchain "works at the speed of high-level models" while estimating
//! low-level details). One full five-step prediction per iteration.
//!
//! The `analytic_evaluate_400t` group times what `customize` pays per
//! candidate on a 20×20 grid, stage by stage: route build per table
//! form, the all-pairs accumulation pass per form, `predict` and its
//! step 5 alone (`detailed_route`, the A* over unit cells), the two
//! stages of `Toolchain::evaluate` — `screen` (routes, channel loads,
//! floorplan steps 1–4: what every candidate pays) and `finish` (step 5
//! and the zero-load latency: what only a candidate that can still win
//! pays) — and `evaluate` whole, next to the evaluation over the dense
//! test oracle it replaced (`evaluate_with` over a
//! `default_routes_with(.., RouteForm::Dense)` table), which is also
//! what the repo benchmark's traced pass keeps replaying under
//! `topology.routing.build_s`. `customize_20x20` is the whole loop on
//! the same inputs: 202 candidates (41 of them finished), each step's
//! neighbourhood fanned out over `available_parallelism()` threads.
//!
//! `hier_routes_2560` is the one route build of the `bigtopo_2560`
//! workload: the hierarchical table of the 2 × 32×40 two-die part (112
//! lines, a handful of distinct line banks).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use shg_bench::sweep::BIGTOPO_2560_DB;
use shg_core::{customize, DesignGoals, PerformanceMode, Scenario, SparseHammingConfig, Toolchain};
use shg_floorplan::{predict, DetailedRoutes, ModelOptions};
use shg_topology::db::TopologyDb;
use shg_topology::routing::{self, RouteForm};
use shg_topology::{generators, Grid};

fn bench_model(c: &mut Criterion) {
    let scenario = Scenario::knc_a();
    let grid = scenario.params.grid;
    let options = ModelOptions {
        cell_scale: 4.0,
        ..ModelOptions::default()
    };
    let topologies = vec![
        ("mesh", generators::mesh(grid)),
        ("sparse_hamming_a", scenario.shg.build()),
        ("torus", generators::torus(grid)),
        ("flattened_butterfly", generators::flattened_butterfly(grid)),
    ];
    let mut group = c.benchmark_group("floorplan_predict_64t");
    group.sample_size(10);
    for (name, topology) in &topologies {
        group.bench_with_input(BenchmarkId::from_parameter(name), topology, |b, t| {
            b.iter(|| predict(&scenario.params, t, &options));
        });
    }
    group.finish();
}

fn bench_analytic_evaluate(c: &mut Criterion) {
    // The `customize_20x20` benchmark workload's inputs, on the
    // configuration its trace ends at.
    let mut params = Scenario::knc_a().params;
    params.grid = Grid::new(20, 20);
    let toolchain = Toolchain {
        model_options: ModelOptions {
            cell_scale: 6.0,
            ..ModelOptions::default()
        },
        mode: PerformanceMode::Analytic,
        ..Toolchain::default()
    };
    let topology = SparseHammingConfig::new(20, 20, [2, 5, 19], [4, 18])
        .expect("valid skips")
        .build();
    let mut group = c.benchmark_group("analytic_evaluate_400t");
    group.sample_size(10);
    for form in [RouteForm::Dense, RouteForm::NextHop] {
        group.bench_function(BenchmarkId::new("route_build", form), |b| {
            b.iter(|| routing::default_routes_with(&topology, form).expect("routes"));
        });
        let routes = routing::default_routes_with(&topology, form).expect("routes");
        group.bench_function(BenchmarkId::new("channel_loads", form), |b| {
            b.iter(|| routes.channel_loads(&topology));
        });
    }
    group.bench_function("predict", |b| {
        b.iter(|| predict(&params, &topology, &toolchain.model_options));
    });
    group.bench_function("detailed_route", |b| {
        let options = &toolchain.model_options;
        let steps = predict(&params, &topology, options);
        b.iter(|| DetailedRoutes::route(&topology, &steps.unit_grid, &steps.global, options));
    });
    group.bench_function("screen", |b| {
        b.iter(|| toolchain.screen(&params, &topology).expect("screens"));
    });
    group.bench_function("finish", |b| {
        let screening = toolchain.screen(&params, &topology).expect("screens");
        b.iter(|| toolchain.finish(&params, &topology, &screening));
    });
    group.bench_function("evaluate", |b| {
        b.iter(|| toolchain.evaluate(&params, &topology).expect("evaluates"));
    });
    group.bench_function("evaluate_dense_reference", |b| {
        b.iter(|| {
            let routes = routing::default_routes_with(&topology, RouteForm::Dense).expect("routes");
            let prediction = predict(&params, &topology, &toolchain.model_options);
            toolchain.evaluate_with(&params, &topology, &routes, &prediction)
        });
    });
    group.finish();

    let mut group = c.benchmark_group("customize_20x20");
    group.sample_size(10);
    group.bench_function("loop", |b| {
        let goals = DesignGoals { area_budget: 0.4 };
        b.iter(|| customize(&toolchain, &params, goals).expect("customization runs"));
    });
    group.finish();
}

fn bench_hier_routes(c: &mut Criterion) {
    let topology = TopologyDb::parse(BIGTOPO_2560_DB)
        .expect("db parses")
        .instantiate()
        .expect("db instantiates");
    let mut group = c.benchmark_group("hier_routes_2560");
    group.sample_size(10);
    group.bench_function("route_build", |b| {
        b.iter(|| routing::default_routes(&topology).expect("routes"));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_model,
    bench_analytic_evaluate,
    bench_hier_routes
);
criterion_main!(benches);
