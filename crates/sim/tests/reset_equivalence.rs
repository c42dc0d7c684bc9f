//! Equivalence suite for `Network::reset` and the sweep engine's cell
//! groups built on it: a reset-reused network must be bit-identical to
//! fresh construction for every cell, with and without fault epochs of
//! either in-flight policy — including after *unstable* cells that
//! leave maximal residual state (occupied buffers, in-flight flits and
//! credits, rotated arbiters, sinking VCs) for the reset to clean.
//!
//! The validated runs go through `Network::run_validated`, which
//! asserts the router's cross-structure invariants every cycle — stale
//! request or active-set state surviving a reset trips an assertion
//! long before it could skew a statistic.

use proptest::prelude::*;
use shg_sim::{
    CellId, Experiment, FaultPlan, Network, SimConfig, SweepResult, SweepSpec, TrafficPattern,
};
use shg_topology::{generators, routing, Grid, Topology};
use shg_units::Cycles;

fn unit_latencies(t: &Topology) -> Vec<Cycles> {
    vec![Cycles::one(); t.num_links()]
}

/// A cell sequence that exercises the reset from every kind of residue:
/// low load (sparse touched set), saturation (buffers, pipes and
/// arbiters all dirty at the hard stop), then low load again (the run
/// that would expose any leftover state).
fn cell_sequence() -> Vec<(f64, TrafficPattern, u64)> {
    vec![
        (0.05, TrafficPattern::UniformRandom, 11),
        (0.9, TrafficPattern::Transpose, 12),
        (0.02, TrafficPattern::Hotspot(30), 13),
        (0.1, TrafficPattern::Tornado, 14),
    ]
}

/// Runs the sequence twice — fresh `Network::new` per cell vs. one
/// reused network with `reset` between cells — under `run_validated`,
/// asserting identical outcomes cell by cell.
fn assert_reuse_matches_fresh(
    topology: &Topology,
    latencies: &[Cycles],
    base: &SimConfig,
    label: &str,
) {
    let routes = routing::default_routes(topology).expect("routes");
    let mut reused: Option<Network<'_>> = None;
    for (rate, pattern, seed) in cell_sequence() {
        let config = SimConfig {
            seed,
            ..base.clone()
        };
        let fresh =
            Network::new(topology, &routes, latencies, config.clone()).run_validated(rate, pattern);
        let net = match reused {
            Some(ref mut net) => {
                net.reset(seed);
                net
            }
            None => reused.insert(Network::new(topology, &routes, latencies, config)),
        };
        let reuse = net.run_validated(rate, pattern);
        assert_eq!(
            fresh, reuse,
            "{label}: reused network diverged at rate {rate} {pattern:?} seed {seed}"
        );
    }
}

/// Fault-free, then a link and a router kill under each in-flight
/// policy: `Drop` wipes the fabric at each epoch, `Drain` leaves sinking
/// VCs and degraded-table state that a reset must clear as well.
#[test]
fn reset_matches_fresh_construction_across_all_policy_combos() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let latencies = unit_latencies(&mesh);
    for plan in [
        "",
        "700:link:0-1,900:router:5",
        "drain,700:link:0-1,900:router:5",
    ] {
        let base = SimConfig {
            faults: FaultPlan::parse(plan).expect("plan parses"),
            ..SimConfig::fast_test()
        };
        assert_reuse_matches_fresh(&mesh, &latencies, &base, &format!("mesh/'{plan}'"));
    }
}

#[test]
fn reset_matches_fresh_on_high_radix_topology() {
    // The flattened butterfly concentrates state on high-radix routers
    // (31 ports × 8 VCs of masks and credits per router).
    let fb = generators::flattened_butterfly(Grid::new(4, 4));
    let latencies = unit_latencies(&fb);
    assert_reuse_matches_fresh(&fb, &latencies, &SimConfig::fast_test(), "fb");
}

#[test]
fn reset_matches_fresh_with_multicycle_links_and_long_packets() {
    // Multi-cycle links keep flits and credits in the pipelines at the
    // hard stop; 8-flit packets hold VC reservations across many
    // cycles — both must vanish on reset.
    let mesh = generators::mesh(Grid::new(4, 4));
    let latencies = vec![Cycles::new(3); mesh.num_links()];
    let base = SimConfig {
        packet_len: 8,
        ..SimConfig::fast_test()
    };
    assert_reuse_matches_fresh(&mesh, &latencies, &base, "mesh/multicycle/len8");
}

#[test]
fn reset_after_unstable_run_leaves_no_trace() {
    // A ring at rate 0.9 hits the drain limit with the network full of
    // flits — the worst case for residual state. The cell after the
    // reset must match a fresh network exactly.
    let ring = generators::ring(Grid::new(4, 4));
    let routes = routing::default_routes(&ring).expect("routes");
    let latencies = unit_latencies(&ring);
    let config = |seed: u64| SimConfig {
        seed,
        ..SimConfig::fast_test()
    };
    let mut net = Network::new(&ring, &routes, &latencies, config(1));
    let saturated = net.run_validated(0.9, TrafficPattern::UniformRandom);
    assert!(
        !saturated.stable,
        "ring at 0.9 must saturate: {saturated:?}"
    );
    net.reset(2);
    let after = net.run_validated(0.05, TrafficPattern::UniformRandom);
    let fresh = Network::new(&ring, &routes, &latencies, config(2))
        .run_validated(0.05, TrafficPattern::UniformRandom);
    assert_eq!(after, fresh);
}

#[test]
fn repeated_resets_with_the_same_seed_reproduce() {
    let torus = generators::torus(Grid::new(4, 4));
    let routes = routing::default_routes(&torus).expect("routes");
    let latencies = unit_latencies(&torus);
    let mut net = Network::new(&torus, &routes, &latencies, SimConfig::fast_test());
    let first = net.run(0.1, TrafficPattern::UniformRandom);
    let mut again = Vec::new();
    for _ in 0..3 {
        net.reset(SimConfig::fast_test().seed);
        again.push(net.run(0.1, TrafficPattern::UniformRandom));
    }
    for outcome in again {
        assert_eq!(first, outcome, "reset must be idempotent state-wise");
    }
}

/// Experiment-level consequence: grouped cells serialize the same bytes
/// as every cell on its own fresh network, regardless of thread count.
#[test]
fn reuse_backend_serializes_identically_to_per_cell() {
    let grid = Grid::new(4, 4);
    let mesh = generators::mesh(grid);
    let fb = generators::flattened_butterfly(grid);
    let spec = SweepSpec::new(SimConfig::fast_test())
        .rates([0.02, 0.1, 0.6])
        .patterns([TrafficPattern::UniformRandom, TrafficPattern::Hotspot(20)]);
    let grouped = Experiment::new(spec)
        .with_unit_latency_case("mesh", &mesh)
        .expect("mesh routes")
        .with_unit_latency_case("fb", &fb)
        .expect("fb routes");
    let cells: Vec<CellId> = grouped.plan().cells().collect();
    let reference = SweepResult {
        points: grouped.run_cells_fresh(&cells),
    }
    .to_json();
    assert_eq!(
        reference,
        grouped.run_parallel().to_json(),
        "grouped cells changed the sweep bytes"
    );
    assert_eq!(
        reference,
        rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool builds")
            .install(|| grouped.run_parallel())
            .to_json(),
        "grouped cells are thread-count-dependent"
    );
}

/// SplitMix64 step for the deterministic shuffles below.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random groupings: an arbitrary ordering and truncation of the
    /// cell list — fragmenting same-case runs into groups of every
    /// size, interleaving cases — on an arbitrary pool size must match
    /// fresh networks per cell, point for point.
    #[test]
    fn random_cell_orderings_match_per_cell(seed in 0u64..100_000, threads in 1usize..4) {
        let grid = Grid::new(4, 4);
        let mesh = generators::mesh(grid);
        let torus = generators::torus(grid);
        let spec = SweepSpec::new(SimConfig::fast_test())
            .rates([0.05, 0.3])
            .patterns([TrafficPattern::UniformRandom, TrafficPattern::Tornado]);
        let experiment = Experiment::new(spec)
            .with_unit_latency_case("mesh", &mesh)
            .expect("mesh routes")
            .with_unit_latency_case("torus", &torus)
            .expect("torus routes");
        let mut cells: Vec<CellId> = experiment.plan().cells().collect();
        // Fisher–Yates with a splitmix stream: deterministic per seed.
        let mut state = seed;
        for i in (1..cells.len()).rev() {
            let j = (mix(&mut state) % (i as u64 + 1)) as usize;
            cells.swap(i, j);
        }
        let keep = 1 + (mix(&mut state) % cells.len() as u64) as usize;
        cells.truncate(keep);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool builds");
        prop_assert_eq!(
            experiment.run_cells_fresh(&cells),
            pool.install(|| experiment.run_cells(&cells)),
            "{} shuffled cells on {} threads diverged", keep, threads
        );
    }
}
