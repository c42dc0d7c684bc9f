//! The injection-policy equivalence suite: the event-driven calendar
//! and the per-cycle scan consume the same per-tile streams, so every
//! statistic must match exactly, under both scan policies, across
//! patterns, rates and topologies (the injection analogue of the
//! active-set/full-scan invariant).

use shg_sim::sweep::ALL_PATTERNS;
use shg_sim::{InjectionPolicy, Network, ScanPolicy, SimConfig, TrafficPattern};
use shg_topology::{generators, routing, Grid, Topology};
use shg_units::Cycles;

fn unit_latencies(t: &Topology) -> Vec<Cycles> {
    vec![Cycles::one(); t.num_links()]
}

fn config_with(injection: InjectionPolicy) -> SimConfig {
    SimConfig {
        injection,
        ..SimConfig::fast_test()
    }
}

#[test]
fn event_driven_matches_per_cycle_scan_bit_for_bit() {
    let grid = Grid::new(4, 4);
    let topologies = vec![
        generators::mesh(grid),
        generators::torus(grid),
        generators::flattened_butterfly(grid),
    ];
    for topology in &topologies {
        let routes = routing::default_routes(topology).expect("routes");
        let lats = unit_latencies(topology);
        for pattern in ALL_PATTERNS {
            for rate in [0.01, 0.1, 0.4] {
                for scan in [ScanPolicy::ActiveSet, ScanPolicy::FullScan] {
                    let event = Network::new(
                        topology,
                        &routes,
                        &lats,
                        config_with(InjectionPolicy::EventDriven),
                    )
                    .run_with_policy(rate, pattern, scan);
                    let scan_ref = Network::new(
                        topology,
                        &routes,
                        &lats,
                        config_with(InjectionPolicy::PerCycleScan),
                    )
                    .run_with_policy(rate, pattern, scan);
                    assert_eq!(
                        event, scan_ref,
                        "{topology} {pattern} rate {rate} {scan:?}: \
                         event-driven and per-cycle scan diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn bit_identity_survives_multicycle_links_and_long_packets() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let routes = routing::default_routes(&mesh).expect("routes");
    let lats = vec![Cycles::new(3); mesh.num_links()];
    for packet_len in [1u16, 8] {
        let config = |injection| SimConfig {
            packet_len,
            ..config_with(injection)
        };
        let event = Network::new(&mesh, &routes, &lats, config(InjectionPolicy::EventDriven))
            .run(0.15, TrafficPattern::UniformRandom);
        let scan = Network::new(&mesh, &routes, &lats, config(InjectionPolicy::PerCycleScan))
            .run(0.15, TrafficPattern::UniformRandom);
        assert_eq!(event, scan, "packet_len {packet_len}");
    }
}

/// `rate == 0` (no tile ever fires — the calendar stays empty) and
/// `packet_prob >= 1` (every tile fires every cycle — the calendar is
/// saturated) are the two degenerate schedules; both must still match
/// the per-cycle scan exactly.
#[test]
fn bit_identity_at_rate_edge_cases() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let routes = routing::default_routes(&mesh).expect("routes");
    let lats = unit_latencies(&mesh);
    // packet_len 2 at rate 2.0 ⇒ packet_prob = 1.
    for rate in [0.0, 2.0] {
        let event = Network::new(
            &mesh,
            &routes,
            &lats,
            config_with(InjectionPolicy::EventDriven),
        )
        .run(rate, TrafficPattern::UniformRandom);
        let scan = Network::new(
            &mesh,
            &routes,
            &lats,
            config_with(InjectionPolicy::PerCycleScan),
        )
        .run(rate, TrafficPattern::UniformRandom);
        assert_eq!(event, scan, "rate {rate}");
        if rate == 0.0 {
            assert_eq!(event.measured_packets, 0, "rate 0 injects nothing");
            assert!(event.stable);
        } else {
            assert!(
                event.offered_rate > 1.0,
                "packet_prob >= 1 fires every tile every cycle: {event:?}"
            );
        }
    }
}

/// The per-tile streams really are distinct streams: runs with the same
/// seed reproduce, runs with different seeds differ.
#[test]
fn event_driven_is_deterministic_per_seed() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let routes = routing::default_routes(&mesh).expect("routes");
    let lats = unit_latencies(&mesh);
    let a = Network::new(
        &mesh,
        &routes,
        &lats,
        config_with(InjectionPolicy::EventDriven),
    )
    .run(0.1, TrafficPattern::UniformRandom);
    let b = Network::new(
        &mesh,
        &routes,
        &lats,
        config_with(InjectionPolicy::EventDriven),
    )
    .run(0.1, TrafficPattern::UniformRandom);
    assert_eq!(a, b);
    let other_seed = SimConfig {
        seed: 777,
        ..config_with(InjectionPolicy::EventDriven)
    };
    let c = Network::new(&mesh, &routes, &lats, other_seed).run(0.1, TrafficPattern::UniformRandom);
    assert_ne!(
        a.measured_packets, c.measured_packets,
        "different seeds should sample different arrival processes"
    );
}
