//! Route-form equivalence suite.
//!
//! The dense table is the test oracle; the compact next-hop form that
//! production code routes on must reconstruct **bit-identical** paths
//! for every legacy generator, and at every hop its `(out port, VC
//! class)` answer must equal both the dense table's own answer and the
//! port derived from the dense hop's link. The hierarchical multi-die form is
//! checked against the structural invariants it promises instead:
//! valid paths, deadlock freedom, bounded VC classes, and O(1) hop
//! counts that agree with the walked paths. On every form, the all-pairs
//! accumulation primitive (`Routes::for_each_channel_use`, line-wise on
//! the row-column kernel) must sum to what a pair-by-pair walk of the
//! reference paths gives.

use proptest::prelude::*;

use shg_topology::db::{BoundaryRule, DieSpec, RegionRule, TopologyDb};
use shg_topology::generators::{self, GeneratorSpec};
use shg_topology::routing::{
    build_routes, build_routes_with, default_routes, default_routes_with, RouteForm, Routes,
    RoutingAlgorithm,
};
use shg_topology::{Grid, Link, TileClass, TileCoord, Topology, TopologyKind};

/// Every routed pair of `compact` reconstructs the dense path exactly,
/// and at every hop the port/class query answers what the dense table
/// answers and what the simulator derives from the dense hop (the
/// channel's position in the sorted neighbor list).
fn assert_forms_identical(topology: &Topology, dense: &Routes, compact: &Routes) {
    assert_eq!(dense.form(), RouteForm::Dense);
    assert_eq!(compact.form(), RouteForm::NextHop);
    assert_eq!(dense.algorithm(), compact.algorithm());
    assert_eq!(dense.num_vc_classes(), compact.num_vc_classes());
    assert_eq!(dense.semantic_digest(), compact.semantic_digest());
    for src in topology.grid().tiles() {
        for dst in topology.grid().tiles() {
            let reference = dense.path_vec(src, dst);
            assert_eq!(
                compact.path_vec(src, dst),
                reference,
                "{topology}: path {src} → {dst} differs"
            );
            assert_eq!(compact.hop_count(src, dst), reference.len());
            assert_eq!(dense.hop_count(src, dst), reference.len());
            let mut at = src;
            for (i, hop) in reference.iter().enumerate() {
                let port = topology
                    .neighbors(at)
                    .iter()
                    .position(|&(n, _)| n == hop.to)
                    .expect("dense hop follows a real link");
                let expected = (u8::try_from(port).expect("radix fits u8"), hop.vc_class);
                assert_eq!(
                    dense.port_and_class(at, src, dst, i),
                    expected,
                    "{topology}: dense port/class at {at} on {src} → {dst} hop {i}"
                );
                assert_eq!(
                    compact.port_and_class(at, src, dst, i),
                    expected,
                    "{topology}: port/class at {at} on {src} → {dst} hop {i}"
                );
                at = hop.to;
            }
        }
    }
}

/// `routes`' accumulation primitive sums to what walking `reference`
/// pair by pair gives, for three linear functionals of the all-pairs
/// traffic: per-channel path counts, the total hop count, and a path
/// cost under pseudo-random per-link weights drawn from `seed` (the
/// shape of the zero-load latency sum).
fn assert_accumulation_matches_pair_walk(
    topology: &Topology,
    reference: &Routes,
    routes: &Routes,
    seed: u64,
) {
    let mut state = seed;
    let weights: Vec<u64> = (0..topology.num_links())
        .map(|_| {
            // splitmix64 step; weights in 1..=16 like floorplan latencies.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            1 + ((z ^ (z >> 31)) & 15)
        })
        .collect();
    let mut loads = vec![0u32; topology.num_channels()];
    let (mut hops, mut cost) = (0u64, 0u64);
    for src in topology.grid().tiles() {
        for dst in topology.grid().tiles() {
            reference.for_each_hop(src, dst, |hop| {
                loads[hop.channel.index()] += 1;
                hops += 1;
                cost += weights[hop.channel.link().index()];
            });
        }
    }
    let mut got_loads = vec![0u32; topology.num_channels()];
    let (mut got_hops, mut got_cost) = (0u64, 0u64);
    routes.for_each_channel_use(|channel, uses| {
        got_loads[channel.index()] += uses;
        got_hops += u64::from(uses);
        got_cost += u64::from(uses) * weights[channel.link().index()];
    });
    assert_eq!(got_loads, loads, "{topology}: channel loads differ");
    assert_eq!(got_hops, hops, "{topology}: total hop count differs");
    assert_eq!(got_cost, cost, "{topology}: weighted path cost differs");
    assert_eq!(routes.channel_loads(topology), loads);
    let n = topology.num_tiles();
    assert_eq!(
        routes.average_hops().to_bits(),
        (hops as f64 / (n * (n - 1)) as f64).to_bits(),
        "{topology}: average hops differ"
    );
    let longest = topology
        .grid()
        .tiles()
        .flat_map(|src| topology.grid().tiles().map(move |dst| (src, dst)))
        .map(|(src, dst)| reference.path_vec(src, dst).len())
        .max();
    assert_eq!(Some(routes.max_hops()), longest);
}

fn check_generator(topology: &Topology, algorithm: RoutingAlgorithm) {
    let dense = build_routes_with(topology, algorithm, RouteForm::Dense).expect("dense builds");
    let compact = build_routes(topology, algorithm).expect("compact builds");
    assert_forms_identical(topology, &dense, &compact);
    assert_accumulation_matches_pair_walk(topology, &dense, &compact, 0x5eed);
    assert_accumulation_matches_pair_walk(topology, &dense, &dense, 0x5eed);
}

#[test]
fn next_hop_matches_dense_on_every_generator() {
    let g8 = Grid::new(8, 8);
    check_generator(&generators::mesh(g8), RoutingAlgorithm::RowColumn);
    check_generator(
        &generators::flattened_butterfly(g8),
        RoutingAlgorithm::RowColumn,
    );
    check_generator(
        &generators::ruche(g8, 2).expect("ruche factor 2"),
        RoutingAlgorithm::RowColumn,
    );
    let sr = [4].into_iter().collect();
    let sc = [2, 5].into_iter().collect();
    check_generator(
        &generators::row_column_skip(g8, &sr, &sc).expect("scenario a"),
        RoutingAlgorithm::RowColumn,
    );
    check_generator(&generators::ring(g8), RoutingAlgorithm::RingDateline);
    check_generator(&generators::torus(g8), RoutingAlgorithm::TorusDateline);
    check_generator(
        &generators::folded_torus(g8),
        RoutingAlgorithm::TorusDateline,
    );
    check_generator(
        &generators::hypercube(g8).expect("64 = 2^6"),
        RoutingAlgorithm::ECube,
    );
    check_generator(
        &generators::slim_noc(Grid::new(16, 8)).expect("128 = 2·8²"),
        RoutingAlgorithm::HopEscalation,
    );
}

#[test]
fn next_hop_matches_dense_on_odd_and_flat_grids() {
    // Odd extents exercise the cycle shorter-way tie-breaks; 1×n and
    // n×1 grids exercise degenerate dimensions.
    for grid in [Grid::new(5, 7), Grid::new(1, 9), Grid::new(6, 1)] {
        check_generator(&generators::mesh(grid), RoutingAlgorithm::RowColumn);
    }
    for grid in [Grid::new(5, 5), Grid::new(3, 8)] {
        check_generator(&generators::torus(grid), RoutingAlgorithm::TorusDateline);
        check_generator(&generators::ring(grid), RoutingAlgorithm::RingDateline);
    }
    check_generator(
        &generators::folded_torus(Grid::new(6, 4)),
        RoutingAlgorithm::TorusDateline,
    );
}

#[test]
fn line_wise_accumulation_matches_on_rows_and_columns_with_different_banks() {
    // No generator's rows differ from each other, so the row-column
    // kernel's bank sharing is exercised on a hand-built link set: a
    // 6×7 mesh plus skips that give each family three distinct line
    // banks, one of them shared by non-adjacent lines (rows 0 and 3,
    // columns 1 and 5).
    let grid = Grid::new(6, 7);
    let mut links = generators::mesh(grid).links().to_vec();
    let tile = |row: u16, col: u16| grid.id(TileCoord::new(row, col));
    for row in [0, 3] {
        links.push(Link::new(tile(row, 0), tile(row, 3)));
        links.push(Link::new(tile(row, 2), tile(row, 6)));
    }
    links.push(Link::new(tile(5, 1), tile(5, 4)));
    for col in [1, 5] {
        links.push(Link::new(tile(0, col), tile(3, col)));
    }
    links.push(Link::new(tile(1, 6), tile(5, 6)));
    let topology = Topology::new(grid, TopologyKind::Custom, links);
    check_generator(&topology, RoutingAlgorithm::RowColumn);
}

/// Structural checks every hierarchical table must satisfy.
fn assert_hier_invariants(topology: &Topology, routes: &Routes, class_bound: u8) {
    assert_eq!(routes.form(), RouteForm::Hierarchical);
    assert_eq!(routes.algorithm(), RoutingAlgorithm::Hierarchical);
    assert!(
        routes.num_vc_classes() <= class_bound,
        "{} classes exceed the bound {class_bound}",
        routes.num_vc_classes()
    );
    assert!(routes.validate(topology), "invalid hierarchical paths");
    assert!(
        routes.is_deadlock_free(topology),
        "hierarchical channel dependency cycle"
    );
    // O(1) hop counts agree with the walked paths, and no path beats
    // the BFS distance.
    for src in topology.grid().tiles() {
        let dist = topology.bfs_distances(src);
        for dst in topology.grid().tiles() {
            let hops = routes.hop_count(src, dst);
            assert_eq!(hops, routes.path_vec(src, dst).len());
            assert!(hops as u32 >= dist[dst.index()], "{src} → {dst} beats BFS");
        }
    }
    // No dense hierarchical form exists: the reference is the table's
    // own pair-by-pair walk.
    assert_accumulation_matches_pair_walk(topology, routes, routes, 0x5eed);
}

/// A two-die database with `base` dies stitched every `every` rows.
fn two_die_db(rows: u16, cols: (u16, u16), base: (&str, &str), every: u16) -> TopologyDb {
    TopologyDb {
        dies: vec![
            DieSpec {
                name: "left".to_owned(),
                rows,
                cols: cols.0,
                base: base.0.parse::<GeneratorSpec>().expect(base.0),
                regions: Vec::new(),
            },
            DieSpec {
                name: "right".to_owned(),
                rows,
                cols: cols.1,
                base: base.1.parse::<GeneratorSpec>().expect(base.1),
                regions: Vec::new(),
            },
        ],
        boundary: BoundaryRule { every, latency: 2 },
    }
}

#[test]
fn hierarchical_routes_a_stitched_mesh_pair_minimally() {
    // With a seam on every row, every row is a through row: routing is
    // pure row-then-column, hop-minimal, and needs only two classes
    // (one per phase, no reversals on mesh lines).
    let db = two_die_db(4, (4, 5), ("mesh", "mesh"), 1);
    let topology = db.instantiate().expect("instantiates");
    let routes = default_routes(&topology).expect("routes");
    assert_hier_invariants(&topology, &routes, 8);
    assert_eq!(routes.num_vc_classes(), 2);
    assert!(routes.is_hop_minimal(&topology));
}

#[test]
fn hierarchical_detours_through_seam_rows() {
    // Seams only on rows 0 and 2: the other rows cannot cross the die
    // boundary themselves, so cross-die pairs detour through a through
    // row; within-die pairs stay minimal.
    let db = two_die_db(4, (3, 3), ("mesh", "mesh"), 2);
    let topology = db.instantiate().expect("instantiates");
    let routes = default_routes(&topology).expect("routes");
    assert_hier_invariants(&topology, &routes, 8);
    assert!(!routes.is_hop_minimal(&topology), "detours must cost hops");
}

#[test]
fn hierarchical_handles_the_ci_smoke_database() {
    let db = TopologyDb::parse(
        "die/l/4x3/mesh;die/r/4x3/shg:sc=2;region/r/r0..2/c0..3/memory;boundary/every=1/latency=3",
    )
    .expect("parses");
    let topology = db.instantiate().expect("instantiates");
    let routes = default_routes(&topology).expect("routes");
    assert_hier_invariants(&topology, &routes, 8);
}

#[test]
fn hierarchical_scales_to_the_readme_two_die_database() {
    // The README's 10,240-tile two-die package. Full-pair validation
    // would walk 10⁸ paths, so this test checks the class budget, the
    // table footprint, and a deterministic sample of paths against BFS.
    let db = TopologyDb::parse(
        "die/compute/64x80/shg:sr=4:sc=2,5;die/hbm/64x80/mesh;\
         region/hbm/r0..64/c0..80/memory/sc=2;boundary/every=4/latency=5",
    )
    .expect("parses");
    let topology = db.instantiate().expect("instantiates");
    let routes = default_routes(&topology).expect("routes");
    assert_eq!(routes.form(), RouteForm::Hierarchical);
    assert!(
        routes.num_vc_classes() <= 8,
        "{} classes exceed the simulator's default 8 VCs",
        routes.num_vc_classes()
    );
    // The compact table must stay far below the dense form's multi-GB
    // footprint (n² path vectors alone are 10240² · 24 B ≈ 2.5 GB).
    assert!(
        routes.table_bytes() < 256 << 20,
        "table is {} bytes",
        routes.table_bytes()
    );
    let n = topology.num_tiles();
    for src in (0..n).step_by(997) {
        let src = shg_topology::TileId::new(src as u32);
        let dist = topology.bfs_distances(src);
        for dst in (0..n).step_by(613) {
            let dst = shg_topology::TileId::new(dst as u32);
            if src == dst {
                continue;
            }
            let path = routes.path_vec(src, dst);
            assert_eq!(path.len(), routes.hop_count(src, dst));
            assert!(path.len() as u32 >= dist[dst.index()]);
            let mut at = src;
            for hop in &path {
                let channel = topology.channel(hop.channel);
                assert_eq!(channel.from, at);
                assert_eq!(channel.to, hop.to);
                assert!(hop.vc_class < routes.num_vc_classes());
                at = hop.to;
            }
            assert_eq!(at, dst);
        }
    }
}

#[test]
fn hierarchical_benchmark_part_shares_its_line_banks() {
    // The 2 × 32×40 part of the `bigtopo_2560` workload: 32 rows and 80
    // columns but only a handful of distinct line adjacencies. One bank
    // per line was 9.5 MB; one per distinct adjacency is under 1 MB.
    let db = TopologyDb::parse(
        "die/compute/32x40/shg:sr=4:sc=2,5;die/hbm/32x40/mesh;\
         region/hbm/r0..32/c0..40/memory/sc=2;boundary/every=4/latency=5",
    )
    .expect("parses");
    let topology = db.instantiate().expect("instantiates");
    let routes = default_routes(&topology).expect("routes");
    assert_eq!(routes.form(), RouteForm::Hierarchical);
    assert!(
        routes.table_bytes() < 1 << 20,
        "table is {} bytes",
        routes.table_bytes()
    );
}

#[test]
fn next_hop_default_falls_back_when_hierarchy_does_not_apply() {
    // SlimNoC links are not row/column aligned, so the default stays on
    // compact hop escalation rather than the hierarchical form.
    let slim = generators::slim_noc(Grid::new(16, 8)).expect("128 tiles");
    let routes = default_routes(&slim).expect("routes");
    assert_eq!(routes.form(), RouteForm::NextHop);
    assert_eq!(routes.algorithm(), RoutingAlgorithm::HopEscalation);
    let dense = default_routes_with(&slim, RouteForm::Dense).expect("dense routes");
    assert_forms_identical(&slim, &dense, &routes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random sparse Hamming graphs: the dense and next-hop tables hold
    /// identical paths (both are materialized from the same line banks,
    /// shared between lines of equal adjacency), and the line-wise
    /// accumulation pass equals the dense pair-by-pair walk.
    #[test]
    fn line_wise_accumulation_matches_the_dense_pair_walk_on_random_shgs(
        (rows, cols) in (2u16..=12, 2u16..=12),
        (sr_mask, sc_mask) in (0u16..4096, 0u16..4096),
        seed in 0u64..u64::MAX,
    ) {
        let skips = |mask: u16, extent: u16| -> std::collections::BTreeSet<u16> {
            (2..extent).filter(|d| mask & (1 << d) != 0).collect()
        };
        let topology = generators::row_column_skip(
            Grid::new(rows, cols),
            &skips(sr_mask, cols),
            &skips(sc_mask, rows),
        )
        .expect("skips are in range");
        let dense = default_routes_with(&topology, RouteForm::Dense).expect("dense builds");
        let compact = default_routes(&topology).expect("compact builds");
        prop_assert_eq!(compact.algorithm(), RoutingAlgorithm::RowColumn);
        assert_forms_identical(&topology, &dense, &compact);
        assert_accumulation_matches_pair_walk(&topology, &dense, &compact, seed);
    }

    /// Random two-die stitched databases: the hierarchical table always
    /// builds, stays within the simulator's VC budget, and satisfies
    /// the structural invariants.
    #[test]
    fn hierarchical_survives_random_two_die_databases(
        (rows, left_cols, right_cols) in (2u16..=6, 2u16..=6, 2u16..=6),
        every in 1u16..=4,
        base_left in 0u8..=1,
        base_right in 0u8..=1,
        (r0, r_len) in (0u16..=4, 1u16..=4),
        class_memory in 0u8..=1,
    ) {
        let every = every.min(rows);
        // Column skips span rows, so the distance must fit the die height.
        let base = |pick: u8| if pick == 1 && rows > 2 { "shg:sc=2" } else { "mesh" };
        let mut db = two_die_db(
            rows,
            (left_cols, right_cols),
            (base(base_left), base(base_right)),
            every,
        );
        let r0 = r0.min(rows - 1);
        let r1 = (r0 + r_len).min(rows);
        let class = if class_memory == 1 { TileClass::Memory } else { TileClass::Io };
        db.dies[1].regions.push(RegionRule::class(r0..r1, 0..right_cols, class));
        let topology = db.instantiate().expect("multi-die products stay connected");
        let routes = default_routes(&topology).expect("routes");
        prop_assert_eq!(routes.form(), RouteForm::Hierarchical);
        assert_hier_invariants(&topology, &routes, 8);
    }
}
