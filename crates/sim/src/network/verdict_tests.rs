//! `Network::sustains` against the predicate on a completed run: the
//! early stop may never change the answer, only how soon it is known.

use shg_topology::db::TopologyDb;
use shg_topology::routing::{default_routes_with, RouteForm};
use shg_topology::{generators, Grid};

use super::*;
use crate::runner::zero_load_latency;
use crate::FaultPlan;

const PATTERNS: [TrafficPattern; 3] = [
    TrafficPattern::UniformRandom,
    TrafficPattern::Transpose,
    TrafficPattern::Hotspot(30),
];
const RATES: [f64; 10] = [0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.55, 0.75, 1.0];
const SLACK: f64 = 0.05;
/// Latency limits as multiples of the zero-load latency: one that
/// queueing exceeds well below the throughput knee, and the search's
/// default, which mostly leaves the decision to throughput.
const LIMIT_FACTORS: [f64; 2] = [1.3, 4.0];

/// How the probes of one grid ended.
#[derive(Debug, Default)]
struct Decided {
    /// Stopped inside the measurement window: accepted throughput could
    /// no longer catch up with the window's offered load (clause 1).
    in_window_by_throughput: u32,
    /// Stopped inside the window while throughput could still catch
    /// up: the latency floor (clause 2).
    in_window_by_latency: u32,
    /// Stopped after the window, accepted throughput outside the slack
    /// (clause 1).
    by_throughput: u32,
    /// Stopped after the window with throughput within the slack
    /// (clause 2).
    by_latency: u32,
    /// Ran to completion: the full run.
    by_neither: u32,
    /// Cycles simulated by all the grid's verdict-mode runs — the work
    /// the early stops leave, pinned per grid so a weaker stop fails.
    cycles: u64,
}

/// Windows for everything but the 4×4 mesh: debug-profile runs of
/// saturated cells to `fast_test`'s 8,000-cycle hard stop would add
/// minutes to the suite.
fn short_windows() -> SimConfig {
    SimConfig {
        warmup: 200,
        measure: 600,
        drain_limit: 800,
        ..SimConfig::fast_test()
    }
}

/// Every pattern × rate × packet length × limit of one topology: the
/// verdict-mode run agrees with the full run's predicate, is a prefix
/// of it, and is the full run whenever it did not stop early; the
/// window's offered load counted before the run is the full run's. The
/// verdict-mode runs share one network, `reset` between probes as a
/// sweep's cell group does. The 60- and 64-tile parts run each
/// pattern × rate at one of the two lengths, alternating
/// (`every_length` off).
fn check_grid(topology: &Topology, base: &SimConfig, faults: &str, every_length: bool) -> Decided {
    let routes = default_routes_with(topology, RouteForm::NextHop).expect("routes");
    let latencies = vec![Cycles::one(); topology.num_links()];
    let mut decided = Decided::default();
    for (l, packet_len) in [1, 4].into_iter().enumerate() {
        let config = SimConfig {
            packet_len,
            faults: FaultPlan::parse(faults).expect("fault plan parses"),
            ..base.clone()
        };
        let fresh = || Network::new(topology, &routes, &latencies, config.clone());
        let zll = zero_load_latency(topology, &routes, &latencies, &config);
        let tiles = topology.num_tiles();
        // Flits per unit of window rate.
        let window_flits = config.measure as f64 * tiles as f64;
        let mut reused = fresh();
        for (p, pattern) in PATTERNS.into_iter().enumerate() {
            for (r, rate) in RATES.into_iter().enumerate() {
                if !every_length && (l + p + r) % 2 == 1 {
                    continue;
                }
                let full = fresh().run(rate, pattern);
                let offer = window_offer(topology, &routes, &config, rate, pattern);
                let offered_rate = offer as f64 / window_flits;
                assert_eq!(
                    offered_rate.to_bits(),
                    full.offered_rate.to_bits(),
                    "{topology} {pattern} len {packet_len} rate {rate}: {offer} flits offered"
                );
                for factor in LIMIT_FACTORS {
                    let verdict = Verdict {
                        slack: SLACK,
                        latency_limit: zll * factor,
                    };
                    let cell =
                        format!("{topology} {pattern} len {packet_len} rate {rate} × {factor}");
                    reused.reset(config.seed);
                    let end = reused.run_inner(rate, pattern, false, None, Some(verdict));
                    assert_eq!(end.holds(&verdict), verdict.holds(&full), "{cell}");
                    let stopped = end.outcome;
                    decided.cycles += stopped.cycles;
                    assert!(stopped.cycles <= full.cycles, "{cell}");
                    if !end.ruled_out {
                        assert_eq!(stopped, full, "{cell}");
                        decided.by_neither += 1;
                        continue;
                    }
                    assert!(stopped.cycles >= config.warmup, "{cell}");
                    let window_end = config.warmup + config.measure;
                    if stopped.cycles < window_end {
                        // Clause 1 is checked first: a stop it would not
                        // have made is the latency floor's.
                        let flits = |rate: f64| (rate * window_flits).round() as u64;
                        let best = flits(stopped.accepted_rate)
                            + tiles as u64 * (window_end - stopped.cycles);
                        let reachable = SimOutcome {
                            offered_rate: full.offered_rate,
                            accepted_rate: best as f64 / window_flits,
                            stable: true,
                            ..stopped
                        }
                        .keeps_up(SLACK);
                        if reachable {
                            decided.in_window_by_latency += 1;
                        } else {
                            decided.in_window_by_throughput += 1;
                        }
                        continue;
                    }
                    let within_slack = SimOutcome {
                        stable: true,
                        ..stopped
                    }
                    .keeps_up(SLACK);
                    if within_slack {
                        decided.by_latency += 1;
                    } else {
                        decided.by_throughput += 1;
                    }
                }
            }
        }
    }
    decided
}

/// The window's offered flit count as verdict mode counts it before the
/// run: on a fresh injector's streams, under the run's fault schedule.
fn window_offer(
    topology: &Topology,
    routes: &Routes,
    config: &SimConfig,
    rate: f64,
    pattern: TrafficPattern,
) -> u64 {
    let tiles = topology.num_tiles();
    let measure_end = config.warmup + config.measure;
    let fresh = Injector::new(
        config.seed,
        tiles,
        rate / f64::from(config.packet_len),
        measure_end + config.drain_limit,
    );
    let schedule = FaultSchedule::build(&config.faults, topology, routes.num_vc_classes());
    let arrivals = Arrivals {
        pattern,
        grid: topology.grid(),
        packet_len: config.packet_len,
        schedule: schedule.as_ref(),
        measure_end,
    };
    arrivals.window_offer(&fresh, tiles, config, None)
}

/// Fault-free grids must stop inside the window on throughput and on
/// latency, and run to completion, and simulate exactly `cycles` in
/// verdict mode. A run that falls behind or whose latency runs away
/// mostly stops inside its window, so a stop after it need not occur:
/// on throughput a miss by less than one cycle of every router
/// ejecting, on latency a floor that crosses the limit only while the
/// run drains.
fn check_fault_free(topology: &Topology, base: &SimConfig, cycles: u64) {
    let decided = check_grid(topology, base, "", topology.num_tiles() <= 16);
    assert!(
        decided.in_window_by_throughput > 0
            && decided.in_window_by_latency > 0
            && decided.by_neither > 0,
        "{topology}: {decided:?}"
    );
    assert_eq!(decided.cycles, cycles, "{topology}: {decided:?}");
}

#[test]
fn verdict_equals_full_run_on_mesh_4x4() {
    check_fault_free(
        &generators::mesh(Grid::new(4, 4)),
        &SimConfig::fast_test(),
        178_956,
    );
}

#[test]
fn verdict_equals_full_run_on_mesh_8x8() {
    check_fault_free(&generators::mesh(Grid::new(8, 8)), &short_windows(), 34_886);
}

#[test]
fn verdict_equals_full_run_on_ring() {
    check_fault_free(&generators::ring(Grid::new(4, 4)), &short_windows(), 73_116);
}

#[test]
fn verdict_equals_full_run_on_flattened_butterfly() {
    check_fault_free(
        &generators::flattened_butterfly(Grid::new(4, 4)),
        &short_windows(),
        82_101,
    );
}

#[test]
fn verdict_equals_full_run_on_scenario_a_shg() {
    let sr = [4].into_iter().collect();
    let sc = [2, 5].into_iter().collect();
    let shg = generators::row_column_skip(Grid::new(8, 8), &sr, &sc).expect("scenario a");
    check_fault_free(&shg, &short_windows(), 35_382);
}

#[test]
fn verdict_equals_full_run_on_two_die_part() {
    let two_die =
        TopologyDb::parse("die left 6x5 mesh; die right 6x5 shg:sc=2; boundary every=2 latency=3")
            .expect("db parses")
            .instantiate()
            .expect("db instantiates");
    check_fault_free(&two_die, &short_windows(), 31_407);
}

#[test]
fn faulty_runs_are_never_decided_by_the_latency_floor() {
    // A link and a router die inside the measurement window (200..800).
    // Dropped packets leave the mean's denominator, so only clause 1 may
    // stop a run, inside the window or after it — the fault-free mesh
    // above stops on clause 2, mostly inside the window, for the same
    // limits — and the verdict still equals the full predicate.
    let mesh = generators::mesh(Grid::new(4, 4));
    for (plan, cycles) in [
        ("300:link:5-6,500:router:10", 85_912),
        ("drain,300:link:5-6,500:router:10", 93_452),
    ] {
        let decided = check_grid(&mesh, &short_windows(), plan, true);
        assert_eq!(
            (decided.in_window_by_latency, decided.by_latency),
            (0, 0),
            "{plan}: {decided:?}"
        );
        assert!(
            decided.in_window_by_throughput > 0
                && decided.by_throughput > 0
                && decided.by_neither > 0,
            "{plan}: {decided:?}"
        );
        assert_eq!(decided.cycles, cycles, "{plan}: {decided:?}");
    }
}
