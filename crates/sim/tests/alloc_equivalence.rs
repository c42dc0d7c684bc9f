//! Allocator equivalence and invariant suite: the request-driven
//! allocation path (`AllocPolicy::RequestQueue`) must be bit-identical
//! to the exhaustive port × VC scan (`AllocPolicy::FullScan`) — same
//! round-robin arbitration decisions, same statistics — across traffic
//! patterns, rates, injection policies, scan policies, packet lengths
//! and link latencies.
//!
//! Every run here goes through [`Network::run_validated`], which
//! asserts the router's cross-structure invariants after each cycle:
//!
//! * the occupancy counter matches the buffer contents,
//! * credits never exceed `buffer_depth`,
//! * `out_owner` reservations agree with the input-VC states (and the
//!   occupied-output-VC bitmask mirrors `out_owner`),
//! * the request bitmasks (`va_mask`, `sa_mask`, `sa_ports`) contain
//!   exactly the live requests — no stale and, crucially, no *lost*
//!   requests.

use proptest::prelude::*;

use shg_sim::sweep::ALL_PATTERNS;
use shg_sim::{AllocPolicy, InjectionPolicy, Network, ScanPolicy, SimConfig, TrafficPattern};
use shg_topology::{generators, routing, Grid, Topology};
use shg_units::Cycles;

fn unit_latencies(t: &Topology) -> Vec<Cycles> {
    vec![Cycles::one(); t.num_links()]
}

fn config_with(alloc: AllocPolicy, injection: InjectionPolicy) -> SimConfig {
    SimConfig {
        alloc,
        injection,
        ..SimConfig::fast_test()
    }
}

/// Runs one validated simulation under the given allocation policy.
fn run(
    topology: &Topology,
    lats: &[Cycles],
    alloc: AllocPolicy,
    injection: InjectionPolicy,
    scan: ScanPolicy,
    rate: f64,
    pattern: TrafficPattern,
) -> shg_sim::SimOutcome {
    let routes = routing::default_routes(topology).expect("routes");
    let mut net = Network::new(topology, &routes, lats, config_with(alloc, injection));
    net.run_validated(rate, pattern, scan)
}

/// The headline contract: across every pattern, a spread of rates and
/// every injection policy, the request queue and the full scan agree on
/// every statistic.
#[test]
fn request_queue_matches_full_scan_across_patterns_rates_and_injection() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let lats = unit_latencies(&mesh);
    for pattern in ALL_PATTERNS {
        for rate in [0.01, 0.1, 0.4] {
            for injection in [InjectionPolicy::EventDriven, InjectionPolicy::PerCycleScan] {
                let sparse = run(
                    &mesh,
                    &lats,
                    AllocPolicy::RequestQueue,
                    injection,
                    ScanPolicy::ActiveSet,
                    rate,
                    pattern,
                );
                let scan = run(
                    &mesh,
                    &lats,
                    AllocPolicy::FullScan,
                    injection,
                    ScanPolicy::ActiveSet,
                    rate,
                    pattern,
                );
                assert_eq!(sparse, scan, "{pattern} rate {rate} {injection}");
            }
        }
    }
}

/// The allocation policy composes with the scan policy: all four
/// combinations agree (the active set and the full router scan were
/// already equivalent; the request queue must not break that).
#[test]
fn alloc_and_scan_policies_compose() {
    let torus = generators::torus(Grid::new(4, 4));
    let lats = unit_latencies(&torus);
    let outcomes: Vec<_> = [
        (AllocPolicy::RequestQueue, ScanPolicy::ActiveSet),
        (AllocPolicy::RequestQueue, ScanPolicy::FullScan),
        (AllocPolicy::FullScan, ScanPolicy::ActiveSet),
        (AllocPolicy::FullScan, ScanPolicy::FullScan),
    ]
    .into_iter()
    .map(|(alloc, scan)| {
        run(
            &torus,
            &lats,
            alloc,
            InjectionPolicy::EventDriven,
            scan,
            0.15,
            TrafficPattern::UniformRandom,
        )
    })
    .collect();
    for outcome in &outcomes[1..] {
        assert_eq!(outcome, &outcomes[0]);
    }
}

/// High-radix routers are where the scan hurts most and where the
/// rotated-bitmask arbitration has the most room to diverge; pin the
/// flattened butterfly and SlimNoC explicitly.
#[test]
fn request_queue_matches_full_scan_on_high_radix_topologies() {
    let topologies = vec![
        generators::flattened_butterfly(Grid::new(4, 4)),
        generators::slim_noc(Grid::new(10, 5)).expect("50 tiles"),
    ];
    for topology in &topologies {
        let lats = unit_latencies(topology);
        for rate in [0.05, 0.3] {
            let sparse = run(
                topology,
                &lats,
                AllocPolicy::RequestQueue,
                InjectionPolicy::EventDriven,
                ScanPolicy::ActiveSet,
                rate,
                TrafficPattern::UniformRandom,
            );
            let scan = run(
                topology,
                &lats,
                AllocPolicy::FullScan,
                InjectionPolicy::EventDriven,
                ScanPolicy::ActiveSet,
                rate,
                TrafficPattern::UniformRandom,
            );
            assert_eq!(sparse, scan, "{topology} rate {rate}");
        }
    }
}

/// Multi-cycle links shift every arrival and credit-return cycle;
/// single-flit and long packets exercise the head==tail and
/// body-follows-head bookkeeping.
#[test]
fn request_queue_matches_full_scan_with_long_links_and_packet_lengths() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let routes = routing::default_routes(&mesh).expect("routes");
    let lats = vec![Cycles::new(3); mesh.num_links()];
    for packet_len in [1u16, 2, 8] {
        let outcome = |alloc: AllocPolicy| {
            let config = SimConfig {
                packet_len,
                alloc,
                ..SimConfig::fast_test()
            };
            Network::new(&mesh, &routes, &lats, config).run_validated(
                0.1,
                TrafficPattern::UniformRandom,
                ScanPolicy::ActiveSet,
            )
        };
        assert_eq!(
            outcome(AllocPolicy::RequestQueue),
            outcome(AllocPolicy::FullScan),
            "packet_len {packet_len}"
        );
    }
}

/// Saturation keeps every request structure full (zero-credit stalls,
/// VA starvation, back-pressure) — the regime where a stale or lost
/// request bit would surface. `run_validated` checks the invariants
/// each cycle along the way.
#[test]
fn invariants_hold_under_saturation() {
    let ring = generators::ring(Grid::new(4, 4));
    let lats = unit_latencies(&ring);
    for alloc in [AllocPolicy::RequestQueue, AllocPolicy::FullScan] {
        let out = run(
            &ring,
            &lats,
            alloc,
            InjectionPolicy::EventDriven,
            ScanPolicy::ActiveSet,
            0.8,
            TrafficPattern::UniformRandom,
        );
        // The run is overloaded by design; the point is that the
        // validated invariants held through congestion.
        assert!(out.cycles > 0, "{alloc}: ran to completion");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized sweep of the equivalence: topology, pattern, rate,
    /// injection policy and buffer depth are all drawn; the two
    /// allocation policies must agree bit-for-bit and keep every
    /// invariant (validated per cycle on both runs).
    #[test]
    fn request_queue_and_full_scan_agree_on_random_configurations(
        topology_idx in 0usize..4,
        pattern_idx in 0usize..ALL_PATTERNS.len(),
        rate in 0.005f64..0.5,
        injection_idx in 0usize..2,
        buffer_depth in 2u16..10,
    ) {
        let grid = Grid::new(4, 4);
        let topology = match topology_idx {
            0 => generators::mesh(grid),
            1 => generators::torus(grid),
            2 => generators::ring(grid),
            _ => generators::flattened_butterfly(grid),
        };
        let injection = [InjectionPolicy::EventDriven, InjectionPolicy::PerCycleScan][injection_idx];
        let pattern = ALL_PATTERNS[pattern_idx];
        let routes = routing::default_routes(&topology).expect("routes");
        let lats = unit_latencies(&topology);
        let outcome = |alloc: AllocPolicy| {
            let config = SimConfig {
                buffer_depth,
                alloc,
                injection,
                ..SimConfig::fast_test()
            };
            Network::new(&topology, &routes, &lats, config).run_validated(
                rate,
                pattern,
                ScanPolicy::ActiveSet,
            )
        };
        prop_assert_eq!(
            outcome(AllocPolicy::RequestQueue),
            outcome(AllocPolicy::FullScan),
            "{} {} rate {} {} depth {}",
            topology,
            pattern,
            rate,
            injection,
            buffer_depth
        );
    }
}
