//! Property-based tests on the core data structures and invariants,
//! spanning the topology, routing and core crates.

use proptest::prelude::*;

use sparse_hamming_graph::core::SparseHammingConfig;
use sparse_hamming_graph::topology::{generators, metrics, routing, Grid, TileId};

/// Strategy for a small grid (both dimensions ≥ 2 so skip sets can exist).
fn grid_dims() -> impl Strategy<Value = (u16, u16)> {
    (2u16..=8, 2u16..=8)
}

/// Strategy for a sparse Hamming configuration over the given dims.
fn shg_config() -> impl Strategy<Value = SparseHammingConfig> {
    grid_dims().prop_flat_map(|(r, c)| {
        let sr =
            proptest::collection::btree_set(2u16..c.max(3), 0..=(c.saturating_sub(2)) as usize);
        let sc =
            proptest::collection::btree_set(2u16..r.max(3), 0..=(r.saturating_sub(2)) as usize);
        (sr, sc).prop_map(move |(sr, sc)| {
            let sr = sr.into_iter().filter(|&x| x < c).collect::<Vec<_>>();
            let sc = sc.into_iter().filter(|&x| x < r).collect::<Vec<_>>();
            SparseHammingConfig::new(r, c, sr, sc).expect("filtered to valid range")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every sparse Hamming graph contains its mesh base and therefore
    /// provides physically minimal paths (Table I, "present" = ✓).
    #[test]
    fn shg_contains_mesh_and_minimal_paths(config in shg_config()) {
        let topology = config.build();
        let mesh = generators::mesh(config.grid());
        for link in mesh.links() {
            prop_assert!(topology.has_link(link.a, link.b));
        }
        prop_assert!(metrics::minimal_paths_present(&topology));
    }

    /// All SHG links are row- or column-aligned (subgraph of the 2D
    /// Hamming graph).
    #[test]
    fn shg_links_are_aligned(config in shg_config()) {
        let topology = config.build();
        let stats = metrics::link_stats(&topology);
        prop_assert_eq!(stats.aligned_fraction, 1.0);
    }

    /// Adding skip links never increases the diameter, and the diameter
    /// stays within Table I's interval [2, R+C−2].
    #[test]
    fn shg_diameter_bounds(config in shg_config()) {
        let topology = config.build();
        let d = metrics::diameter(&topology);
        let mesh_d = u32::from(config.rows() + config.cols()) - 2;
        prop_assert!(d <= mesh_d);
        if config.rows() > 1 && config.cols() > 1 {
            prop_assert!(d >= 2 || mesh_d < 2);
        }
    }

    /// Row-column routing on any SHG is hop-minimal, structurally valid
    /// and deadlock-free.
    #[test]
    fn shg_routing_invariants(config in shg_config()) {
        let topology = config.build();
        let routes = routing::build_routes(&topology, routing::RoutingAlgorithm::RowColumn)
            .expect("row-column applies to every SHG");
        prop_assert!(routes.validate(&topology));
        prop_assert!(routes.is_hop_minimal(&topology));
        prop_assert!(routes.is_deadlock_free(&topology));
    }

    /// The number of links matches the closed-form count.
    #[test]
    fn shg_link_count_formula(config in shg_config()) {
        let topology = config.build();
        let (r, c) = (config.rows() as usize, config.cols() as usize);
        let mesh_links = r * (c - 1) + c * (r - 1);
        prop_assert_eq!(topology.num_links(), mesh_links + config.num_extra_links());
    }

    /// Routed paths never revisit a tile (simple paths).
    #[test]
    fn routed_paths_are_simple(config in shg_config()) {
        let topology = config.build();
        let routes = routing::default_routes(&topology).expect("routes");
        let grid = topology.grid();
        for src in grid.tiles() {
            for dst in grid.tiles() {
                let path = routes.path_vec(src, dst);
                let mut seen = std::collections::HashSet::new();
                seen.insert(src);
                for hop in path {
                    prop_assert!(seen.insert(hop.to), "revisit in {src}→{dst}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// BFS distances are a metric: symmetric and triangle-inequal, for
    /// arbitrary generated topologies (mesh ∪ random extra aligned links).
    #[test]
    fn hop_distance_is_a_metric(
        (r, c) in (2u16..=6, 2u16..=6),
        seed in 0u64..1000,
    ) {
        let grid = Grid::new(r, c);
        let topology = generators::mesh(grid);
        let dist = metrics::DistanceMatrix::hops(&topology);
        let n = grid.num_tiles();
        let t = |i: usize| TileId::new(i as u32);
        let _ = seed;
        for a in 0..n {
            prop_assert_eq!(dist.distance(t(a), t(a)), 0);
            for b in 0..n {
                prop_assert_eq!(dist.distance(t(a), t(b)), dist.distance(t(b), t(a)));
                for d in 0..n {
                    prop_assert!(
                        dist.distance(t(a), t(d))
                            <= dist.distance(t(a), t(b)) + dist.distance(t(b), t(d))
                    );
                }
            }
        }
    }

    /// Ring cycles visit every tile exactly once for any grid shape.
    #[test]
    fn ring_is_hamiltonian((r, c) in (2u16..=8, 2u16..=8)) {
        let grid = Grid::new(r, c);
        let ring = generators::ring(grid);
        let order = generators::cycle_order_of(&ring).expect("ring is a cycle");
        prop_assert_eq!(order.len(), grid.num_tiles());
        let unique: std::collections::HashSet<_> = order.iter().collect();
        prop_assert_eq!(unique.len(), grid.num_tiles());
    }

    /// Torus and folded torus are isomorphic: same degree sequence and
    /// same diameter.
    #[test]
    fn folded_torus_isomorphic_to_torus((r, c) in (3u16..=8, 3u16..=8)) {
        let grid = Grid::new(r, c);
        let torus = generators::torus(grid);
        let folded = generators::folded_torus(grid);
        prop_assert_eq!(torus.num_links(), folded.num_links());
        prop_assert_eq!(
            metrics::diameter(&torus),
            metrics::diameter(&folded)
        );
    }
}
