//! Criterion bench: routing-table construction per algorithm family,
//! plus the `route_tables` group comparing the dense all-pairs path
//! store (the test oracle) against the production next-hop /
//! hierarchical forms at the
//! sizes where the difference decides feasibility (1k, 4k and 10k
//! tiles). Table sizes are printed to stderr alongside the timings —
//! the dense 4k-tile table is multiple gigabytes, which is why only
//! the compact forms are built above 1k tiles.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use shg_topology::routing::RouteForm;
use shg_topology::{generators, routing, Grid, TileId};

fn bench_routing(c: &mut Criterion) {
    let grid = Grid::new(8, 8);
    let cases = vec![
        ("mesh_row_column", generators::mesh(grid)),
        (
            "shg_row_column",
            generators::row_column_skip(
                grid,
                &[4].into_iter().collect(),
                &[2, 5].into_iter().collect(),
            )
            .expect("scenario a"),
        ),
        ("torus_dateline", generators::torus(grid)),
        ("ring_dateline", generators::ring(grid)),
        ("hypercube_ecube", generators::hypercube(grid).expect("8x8")),
    ];
    let mut group = c.benchmark_group("routing_tables_64t");
    group.sample_size(20);
    for (name, topology) in &cases {
        group.bench_with_input(BenchmarkId::from_parameter(name), topology, |b, t| {
            b.iter(|| routing::default_routes(t).expect("routes"));
        });
    }
    // SlimNoC needs a 128-tile grid.
    let slim = generators::slim_noc(Grid::new(16, 8)).expect("128 tiles");
    group.bench_function("slimnoc_hop_escalation_128t", |b| {
        b.iter(|| routing::default_routes(&slim).expect("routes"));
    });
    group.finish();
}

/// The README's 10,240-tile two-die database (64×80 compute die with
/// sparse-Hamming skips next to a 64×80 HBM die, seams every 4 rows).
fn readme_two_die() -> shg_topology::Topology {
    shg_topology::db::TopologyDb::parse(
        "die/compute/64x80/shg:sr=4:sc=2,5;die/hbm/64x80/mesh;\
         region/hbm/r0..64/c0..80/memory/sc=2;boundary/every=4/latency=5",
    )
    .expect("readme db parses")
    .instantiate()
    .expect("readme db instantiates")
}

fn bench_route_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("route_tables");
    group.sample_size(10);
    // 1k tiles: the oracle and the production table both build.
    let mesh_1k = generators::mesh(Grid::new(32, 32));
    for form in [RouteForm::Dense, RouteForm::NextHop] {
        let routes = routing::default_routes_with(&mesh_1k, form).expect("routes");
        eprintln!(
            "[route_tables] mesh 1k {form}: {} table bytes",
            routes.table_bytes()
        );
        group.bench_with_input(BenchmarkId::new("build_mesh_1k", form), &mesh_1k, |b, t| {
            b.iter(|| routing::default_routes_with(t, form).expect("routes"))
        });
    }
    // 4k tiles: compact only — the dense table would be gigabytes.
    let mesh_4k = generators::mesh(Grid::new(64, 64));
    let routes = routing::default_routes(&mesh_4k).expect("routes");
    eprintln!(
        "[route_tables] mesh 4k {}: {} table bytes",
        routes.form(),
        routes.table_bytes()
    );
    group.bench_with_input(
        BenchmarkId::new("build_mesh_4k", routes.form()),
        &mesh_4k,
        |b, t| b.iter(|| routing::default_routes(t).expect("routes")),
    );
    // 10k tiles: the hierarchical table `default_routes` picks for the
    // README's multi-die database — build time, then per-hop lookup
    // throughput over a strided all-pairs sample.
    let big = readme_two_die();
    let routes = routing::default_routes(&big).expect("routes");
    eprintln!(
        "[route_tables] readme 10k {}: {} table bytes",
        routes.form(),
        routes.table_bytes()
    );
    group.bench_with_input(
        BenchmarkId::new("build_readme_10k", routes.form()),
        &big,
        |b, t| b.iter(|| routing::default_routes(t).expect("routes")),
    );
    let n = big.num_tiles();
    group.bench_function("lookup_walk_readme_10k", |b| {
        b.iter(|| {
            let mut hops = 0u64;
            for src in (0..n).step_by(997) {
                for dst in (0..n).step_by(613) {
                    if src == dst {
                        continue;
                    }
                    routes.for_each_hop(TileId::new(src as u32), TileId::new(dst as u32), |_| {
                        hops += 1;
                    });
                }
            }
            hops
        })
    });
    group.finish();
}

criterion_group!(benches, bench_routing, bench_route_tables);
criterion_main!(benches);
