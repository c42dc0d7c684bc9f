//! Equivalence suite for the lane-parallel batched core
//! (`ExecBackend::Batched`): every lane of every batch shape must be
//! bit-identical to the per-cell reference — a fresh `Network` per
//! cell — across every traffic pattern and both in-flight fault
//! policies, with mixed-rate lanes, saturated lanes exiting early, lane
//! refill from the group's remaining cells, and arbitrary cell
//! orderings (proptest).
//!
//! The deepest check pins every batched point against
//! `Network::run_validated`, which re-asserts the router's
//! cross-structure invariants every cycle on the reference side while
//! producing the outcome the batched lane must reproduce exactly.

use proptest::prelude::*;
use shg_sim::{
    CellCache, CellId, ExecBackend, Experiment, FaultPlan, Network, SimConfig, SweepSpec,
    TrafficPattern,
};
use shg_topology::{generators, routing, Grid, Topology};
use shg_units::Cycles;

const LANES: [usize; 4] = [1, 2, 4, 8];

fn experiment<'a>(
    spec: SweepSpec,
    cases: &[(&str, &'a Topology)],
    backend: ExecBackend,
    lanes: usize,
) -> Experiment<'a> {
    let mut experiment = Experiment::new(spec)
        .with_backend(backend)
        .with_lanes(lanes);
    for &(name, topology) in cases {
        experiment = experiment
            .with_unit_latency_case(name, topology)
            .expect("routes build");
    }
    experiment
}

/// The headline matrix: fault-free and under a link-and-router kill of
/// each in-flight policy, at every batch width K ∈ {1, 2, 4, 8}, a
/// batched sweep over all seven traffic patterns serializes
/// byte-identically to the per-cell reference.
#[test]
fn batched_matches_per_cell_across_policy_matrix() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let cases = [("mesh", &mesh)];
    for plan in [
        "",
        "700:link:0-1,900:router:5",
        "drain,700:link:0-1,900:router:5",
    ] {
        let spec = || {
            SweepSpec::new(SimConfig {
                faults: FaultPlan::parse(plan).expect("plan parses"),
                ..SimConfig::fast_test()
            })
            .rates([0.05, 0.3])
            .all_patterns()
            .hotspot_low_rates(2, 0.01)
        };
        let reference = experiment(spec(), &cases, ExecBackend::PerCell, 1)
            .run_parallel()
            .to_json();
        for lanes in LANES {
            let batched = experiment(spec(), &cases, ExecBackend::Batched, lanes)
                .run_parallel()
                .to_json();
            assert_eq!(
                reference, batched,
                "'{plan}': K={lanes} batch changed the sweep bytes"
            );
        }
    }
}

/// Every batched point must reproduce `Network::run_validated` — the
/// reference engine with its cross-structure invariants asserted every
/// cycle — on a high-radix topology too.
#[test]
fn batched_lanes_match_validated_reference() {
    let grid = Grid::new(4, 4);
    let mesh = generators::mesh(grid);
    let fb = generators::flattened_butterfly(grid);
    for (name, topology) in [("mesh", &mesh), ("fb", &fb)] {
        let spec = SweepSpec::new(SimConfig::fast_test())
            .rates([0.05, 0.3])
            .patterns([TrafficPattern::UniformRandom, TrafficPattern::Hotspot(20)]);
        let base = spec.config.clone();
        let result = experiment(spec, &[(name, topology)], ExecBackend::Batched, 4).run_parallel();
        let routes = routing::default_routes(topology).expect("routes");
        let latencies = vec![Cycles::one(); topology.num_links()];
        for point in &result.points {
            let config = SimConfig {
                seed: point.seed,
                ..base.clone()
            };
            let reference = Network::new(topology, &routes, &latencies, config)
                .run_validated(point.rate, point.pattern);
            assert_eq!(
                reference, point.outcome,
                "{name}: batched lane diverged from the validated reference at rate {} {:?}",
                point.rate, point.pattern
            );
        }
    }
}

/// Mixed-rate lanes: a saturated cell (rate 0.9 on a ring hits the
/// drain limit with the network full) batches alongside near-idle
/// cells. The short lanes must exit early and refill without
/// disturbing the saturated sibling, and vice versa.
#[test]
fn saturated_and_idle_lanes_coexist_and_refill() {
    let ring = generators::ring(Grid::new(4, 4));
    let cases = [("ring", &ring)];
    let spec = || {
        SweepSpec::new(SimConfig::fast_test())
            .rates([0.02, 0.1, 0.9])
            .patterns([TrafficPattern::UniformRandom, TrafficPattern::Transpose])
    };
    let reference = experiment(spec(), &cases, ExecBackend::PerCell, 1).run_parallel();
    assert!(
        reference.points.iter().any(|p| !p.outcome.stable),
        "rate 0.9 on a ring must saturate for this test to bite"
    );
    assert!(
        reference.points.iter().any(|p| p.outcome.stable),
        "low rates must stay stable for this test to bite"
    );
    for lanes in [2, 4] {
        let batched = experiment(spec(), &cases, ExecBackend::Batched, lanes).run_parallel();
        assert_eq!(
            reference.to_json(),
            batched.to_json(),
            "K={lanes}: mixed stable/saturated lanes changed the sweep bytes"
        );
    }
}

/// Lane refill: far more cells than lanes, so every lane cycles
/// through several cells of the group (each refill resets exactly the
/// state the finished cell touched).
#[test]
fn lanes_refill_through_long_groups() {
    let torus = generators::torus(Grid::new(4, 4));
    let cases = [("torus", &torus)];
    let spec = || {
        SweepSpec::new(SimConfig::fast_test())
            .rates([0.02, 0.05, 0.1, 0.2, 0.3, 0.4])
            .patterns([TrafficPattern::UniformRandom, TrafficPattern::Reverse])
    };
    let reference = experiment(spec(), &cases, ExecBackend::PerCell, 1)
        .run_parallel()
        .to_json();
    let batched = experiment(spec(), &cases, ExecBackend::Batched, 2)
        .run_parallel()
        .to_json();
    assert_eq!(reference, batched, "refilled lanes changed the sweep bytes");
}

/// The auto backend (per-group backend choice, timed probe) is just as
/// transparent as the backends it delegates to.
#[test]
fn auto_backend_serializes_identically_to_per_cell() {
    let grid = Grid::new(4, 4);
    let mesh = generators::mesh(grid);
    let fb = generators::flattened_butterfly(grid);
    let cases = [("mesh", &mesh), ("fb", &fb)];
    let spec = || {
        SweepSpec::new(SimConfig::fast_test())
            .rates([0.02, 0.1, 0.3])
            .patterns([TrafficPattern::UniformRandom, TrafficPattern::Hotspot(20)])
    };
    let reference = experiment(spec(), &cases, ExecBackend::PerCell, 1)
        .run_parallel()
        .to_json();
    let auto = experiment(spec(), &cases, ExecBackend::Auto, 8);
    assert_eq!(
        reference,
        auto.run_parallel().to_json(),
        "auto backend changed the sweep bytes"
    );
    assert_eq!(
        reference,
        auto.run_with_threads(1).to_json(),
        "auto backend is thread-count-dependent"
    );
}

/// Cached cells must not occupy lanes: with a fully warm cache the
/// batched backend simulates nothing at all, and a half-warm cache
/// batches exactly the misses — both byte-identical to the cold run.
#[test]
fn cached_cells_do_not_occupy_lanes() {
    let dir = std::env::temp_dir().join(format!("shg_batched_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mesh = generators::mesh(Grid::new(4, 4));
    let cases = [("mesh", &mesh)];
    let spec = || {
        SweepSpec::new(SimConfig::fast_test())
            .rates([0.02, 0.1])
            .patterns([TrafficPattern::UniformRandom, TrafficPattern::Transpose])
    };
    let cache = || CellCache::open(&dir).expect("cache dir opens");
    let cold = experiment(spec(), &cases, ExecBackend::Batched, 4).with_cache(cache());
    let cold_json = cold.run_parallel().to_json();
    assert_eq!(
        cold.exec_stats().batched_cells,
        4,
        "cold run batches all cells"
    );
    // Half-warm: drop two entries, re-run — only the misses batch.
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir lists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for entry in entries.iter().take(2) {
        std::fs::remove_file(entry).expect("entry removes");
    }
    let half = experiment(spec(), &cases, ExecBackend::Batched, 4).with_cache(cache());
    assert_eq!(half.run_parallel().to_json(), cold_json);
    assert_eq!(
        half.exec_stats().batched_cells,
        2,
        "only misses occupy lanes"
    );
    // Fully warm: nothing simulates, bytes unchanged.
    let warm = experiment(spec(), &cases, ExecBackend::Batched, 4).with_cache(cache());
    assert_eq!(warm.run_parallel().to_json(), cold_json);
    assert_eq!(
        warm.exec_stats().batched_cells,
        0,
        "warm run batches nothing"
    );
    assert_eq!(warm.exec_stats().lanes_in_flight, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// SplitMix64 step for the deterministic shuffles below.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher–Yates with a splitmix stream: deterministic per seed.
fn shuffle(cells: &mut [CellId], seed: u64) {
    let mut state = seed;
    for i in (1..cells.len()).rev() {
        let j = (mix(&mut state) % (i as u64 + 1)) as usize;
        cells.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random groupings: an arbitrary ordering and truncation of the
    /// cell list — fragmenting same-case runs into groups of every
    /// size, interleaving cases — batched at an arbitrary width, must
    /// match the per-cell reference point for point.
    #[test]
    fn random_cell_orderings_match_per_cell(
        seed in 0u64..100_000,
        lanes_idx in 0..LANES.len(),
    ) {
        let grid = Grid::new(4, 4);
        let mesh = generators::mesh(grid);
        let torus = generators::torus(grid);
        let cases = [("mesh", &mesh), ("torus", &torus)];
        let spec = || {
            SweepSpec::new(SimConfig::fast_test())
                .rates([0.05, 0.3])
                .patterns([TrafficPattern::UniformRandom, TrafficPattern::Tornado])
        };
        let reference = experiment(spec(), &cases, ExecBackend::PerCell, 1);
        let batched = experiment(spec(), &cases, ExecBackend::Batched, LANES[lanes_idx]);
        let mut cells: Vec<CellId> = reference.plan().cells().collect();
        shuffle(&mut cells, seed);
        let mut keep_stream = seed ^ 0x5eed;
        let keep = 1 + (mix(&mut keep_stream) % cells.len() as u64) as usize;
        cells.truncate(keep);
        prop_assert_eq!(
            reference.run_cells(&cells),
            batched.run_cells(&cells),
            "K={} over {} shuffled cells diverged", LANES[lanes_idx], keep
        );
    }
}
