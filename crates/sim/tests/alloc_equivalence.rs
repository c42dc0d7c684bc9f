//! Allocator invariant suite: runs under [`Network::run_validated`],
//! which asserts the router's cross-structure invariants after each
//! cycle, must keep them all and produce exactly the outcome of a plain
//! [`Network::run`]:
//!
//! * the occupancy counter matches the buffer contents,
//! * credits never exceed `buffer_depth`,
//! * `out_owner` reservations agree with the input-VC states (and the
//!   occupied-output-VC bitmask mirrors `out_owner`),
//! * the request bitmasks (`va_mask`, `sa_mask`, `sa_ports`) contain
//!   exactly the live requests — no stale and, crucially, no *lost*
//!   requests.
//!
//! The arbitration order itself is pinned by `golden_outcomes.txt`.

use proptest::prelude::*;

use shg_sim::sweep::ALL_PATTERNS;
use shg_sim::{Network, SimConfig, SimOutcome, TrafficPattern};
use shg_topology::{generators, routing, Grid, Topology};
use shg_units::Cycles;

fn unit_latencies(t: &Topology) -> Vec<Cycles> {
    vec![Cycles::one(); t.num_links()]
}

/// Runs one cell validated and plain, asserting both agree; returns
/// the outcome.
fn validated(
    topology: &Topology,
    lats: &[Cycles],
    config: &SimConfig,
    rate: f64,
    pattern: TrafficPattern,
) -> SimOutcome {
    let routes = routing::default_routes(topology).expect("routes");
    let network = || Network::new(topology, &routes, lats, config.clone());
    let checked = network().run_validated(rate, pattern);
    assert_eq!(
        checked,
        network().run(rate, pattern),
        "{topology} {pattern} rate {rate}: validation changed the outcome"
    );
    checked
}

/// High-radix routers are where the request bitmasks have the most
/// room to go stale; pin the flattened butterfly and SlimNoC explicitly.
#[test]
fn validated_runs_match_plain_runs_on_high_radix_topologies() {
    let topologies = vec![
        generators::flattened_butterfly(Grid::new(4, 4)),
        generators::slim_noc(Grid::new(10, 5)).expect("50 tiles"),
    ];
    for topology in &topologies {
        let lats = unit_latencies(topology);
        for rate in [0.05, 0.3] {
            let config = SimConfig::fast_test();
            let _ = validated(
                topology,
                &lats,
                &config,
                rate,
                TrafficPattern::UniformRandom,
            );
        }
    }
}

/// Multi-cycle links shift every arrival and credit-return cycle;
/// single-flit and long packets exercise the head==tail and
/// body-follows-head bookkeeping.
#[test]
fn validated_runs_match_plain_runs_with_long_links_and_packet_lengths() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let lats = vec![Cycles::new(3); mesh.num_links()];
    for packet_len in [1u16, 2, 8] {
        let config = SimConfig {
            packet_len,
            ..SimConfig::fast_test()
        };
        let _ = validated(&mesh, &lats, &config, 0.1, TrafficPattern::UniformRandom);
    }
}

/// Saturation keeps every request structure full (zero-credit stalls,
/// VA starvation, back-pressure) — the regime where a stale or lost
/// request bit would surface.
#[test]
fn invariants_hold_under_saturation() {
    let ring = generators::ring(Grid::new(4, 4));
    let lats = unit_latencies(&ring);
    let out = validated(
        &ring,
        &lats,
        &SimConfig::fast_test(),
        0.8,
        TrafficPattern::UniformRandom,
    );
    // The run is overloaded by design; the point is that the
    // validated invariants held through congestion.
    assert!(out.cycles > 0, "ran to completion");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized sweep: topology, pattern, rate and buffer depth are
    /// all drawn; every invariant must hold each cycle, and validation
    /// must not move the outcome.
    #[test]
    fn validated_and_plain_runs_agree_on_random_configurations(
        topology_idx in 0usize..4,
        pattern_idx in 0usize..ALL_PATTERNS.len(),
        rate in 0.005f64..0.5,
        buffer_depth in 2u16..10,
    ) {
        let grid = Grid::new(4, 4);
        let topology = match topology_idx {
            0 => generators::mesh(grid),
            1 => generators::torus(grid),
            2 => generators::ring(grid),
            _ => generators::flattened_butterfly(grid),
        };
        let pattern = ALL_PATTERNS[pattern_idx];
        let routes = routing::default_routes(&topology).expect("routes");
        let lats = unit_latencies(&topology);
        let config = SimConfig {
            buffer_depth,
            ..SimConfig::fast_test()
        };
        let network = || Network::new(&topology, &routes, &lats, config.clone());
        prop_assert_eq!(
            network().run_validated(rate, pattern),
            network().run(rate, pattern),
            "{} {} rate {} depth {}",
            topology,
            pattern,
            rate,
            buffer_depth
        );
    }
}
