//! Property-based invariants of the topology crate.

use std::collections::BTreeSet;

use proptest::collection;
use proptest::prelude::*;

use shg_topology::{generators, metrics, routing, Grid, Link, TileId, Topology};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every generator produces a connected graph whose BFS distances are
    /// consistent with the routing tables.
    #[test]
    fn generators_produce_consistent_graphs((r, c) in (2u16..=8, 2u16..=8)) {
        let grid = Grid::new(r, c);
        let mut topologies = vec![
            generators::ring(grid),
            generators::mesh(grid),
            generators::torus(grid),
            generators::folded_torus(grid),
            generators::flattened_butterfly(grid),
        ];
        if let Ok(hc) = generators::hypercube(grid) {
            topologies.push(hc);
        }
        for topology in &topologies {
            // Degree sum = 2 × links.
            let degree_sum: usize = grid.tiles().map(|t| topology.degree(t)).sum();
            prop_assert_eq!(degree_sum, 2 * topology.num_links());
            // Channels pair up.
            prop_assert_eq!(topology.num_channels(), 2 * topology.num_links());
            // Routing tables agree with BFS distances.
            let routes = routing::default_routes(topology).expect("routes");
            prop_assert!(routes.is_hop_minimal(topology), "{}", topology);
            prop_assert!(routes.is_deadlock_free(topology), "{}", topology);
        }
    }

    /// `Topology::try_new` canonicalizes its link list: shuffled links,
    /// links with swapped endpoints and duplicated links give the
    /// topology built from the canonical list.
    #[test]
    fn try_new_canonicalizes_its_links(
        (r, c) in (2u16..=7, 2u16..=7),
        skips in 0u32..8192,
        keys in collection::vec(0u32..u32::MAX, 64),
    ) {
        let grid = Grid::new(r, c);
        let sr: BTreeSet<u16> = (2..c).filter(|&x| skips >> x & 1 == 1).collect();
        let sc: BTreeSet<u16> = (2..r).filter(|&x| skips >> (x + 6) & 1 == 1).collect();
        let canonical = generators::row_column_skip(grid, &sr, &sc).expect("valid skips");
        // Odd keys swap the endpoints, keys divisible by 3 repeat the link;
        // sorting by key shuffles the list.
        let mut scrambled = Vec::new();
        for (i, &link) in canonical.links().iter().enumerate() {
            let key = keys[i % keys.len()] ^ i as u32;
            let given = if key & 1 == 1 { Link { a: link.b, b: link.a } } else { link };
            scrambled.push((key, given));
            if key.is_multiple_of(3) {
                scrambled.push((key.rotate_left(7), link));
            }
        }
        scrambled.sort_by_key(|&(key, _)| key);
        let rebuilt = Topology::try_new(grid, canonical.kind(), scrambled.into_iter().map(|(_, l)| l))
            .expect("the canonical list builds");
        prop_assert_eq!(rebuilt, canonical);
    }

    /// Diameters match the closed forms of Table I.
    #[test]
    fn diameters_match_closed_forms((r, c) in (2u16..=8, 2u16..=8)) {
        let grid = Grid::new(r, c);
        prop_assert_eq!(
            metrics::diameter(&generators::mesh(grid)),
            u32::from(r + c) - 2
        );
        prop_assert_eq!(
            metrics::diameter(&generators::torus(grid)),
            u32::from(r / 2 + c / 2)
        );
        if r * c >= 3 {
            prop_assert_eq!(
                metrics::diameter(&generators::ring(grid)),
                u32::from(r) * u32::from(c) / 2
            );
        }
        if r.is_power_of_two() && c.is_power_of_two() && r * c >= 2 {
            let hc = generators::hypercube(grid).expect("powers of two");
            prop_assert_eq!(
                metrics::diameter(&hc),
                (u32::from(r) * u32::from(c)).trailing_zeros()
            );
        }
    }

    /// Physical distance never beats Manhattan distance, and hop distance
    /// never beats physical distance divided by the longest link.
    #[test]
    fn distance_relations((r, c) in (2u16..=7, 2u16..=7), seed in 0u64..100) {
        let grid = Grid::new(r, c);
        let topology = generators::torus(grid);
        let _ = seed;
        let physical = metrics::DistanceMatrix::physical(&topology);
        for a in grid.tiles() {
            for b in grid.tiles() {
                prop_assert!(physical.distance(a, b) >= grid.manhattan(a, b));
            }
        }
    }

    /// Channel loads under minimal routing are positive on every used
    /// channel and conserve total path hops.
    #[test]
    fn channel_load_conservation((r, c) in (2u16..=7, 2u16..=7)) {
        let grid = Grid::new(r, c);
        let topology = generators::mesh(grid);
        let routes = routing::default_routes(&topology).expect("routes");
        let loads = routes.channel_loads(&topology);
        let total: u64 = loads.iter().map(|&l| u64::from(l)).sum();
        let hops: u64 = grid
            .tiles()
            .flat_map(|a| grid.tiles().map(move |b| (a, b)))
            .map(|(a, b)| routes.hop_count(a, b) as u64)
            .sum();
        prop_assert_eq!(total, hops);
    }
}

#[test]
fn gf_field_tables_are_latin_squares() {
    // Addition and multiplication (on nonzero elements) of GF(q) form
    // Latin squares — a complete structural check of the field tables.
    for q in [4usize, 5, 7, 8, 9] {
        let f = shg_topology::gf::Field::new(q).expect("prime power");
        for x in 0..q {
            let row: std::collections::HashSet<_> = (0..q).map(|y| f.add(x, y)).collect();
            assert_eq!(row.len(), q, "GF({q}) addition row {x}");
        }
        for x in 1..q {
            let row: std::collections::HashSet<_> = (1..q).map(|y| f.mul(x, y)).collect();
            assert_eq!(row.len(), q - 1, "GF({q}) multiplication row {x}");
        }
    }
}

#[test]
fn mms_graph_is_vertex_symmetric_in_degree() {
    for q in [5usize, 8] {
        let g = shg_topology::mms::MmsGraph::new(q).expect("prime power");
        let degrees = g.degrees();
        let first = degrees[0];
        assert!(degrees.iter().all(|&d| d == first), "q={q}");
    }
}

#[test]
fn routed_path_endpoints_are_correct_for_all_generators() {
    let grid = Grid::new(4, 4);
    for topology in [
        generators::ring(grid),
        generators::mesh(grid),
        generators::torus(grid),
        generators::folded_torus(grid),
        generators::hypercube(grid).expect("4x4"),
        generators::flattened_butterfly(grid),
    ] {
        let routes = routing::default_routes(&topology).expect("routes");
        assert!(routes.validate(&topology), "{topology}");
        // Spot-check a diagonal pair.
        let a = TileId::new(0);
        let b = TileId::new(15);
        let path = routes.path_vec(a, b);
        assert!(!path.is_empty());
        assert_eq!(path.last().expect("nonempty").to, b);
    }
}
