//! Equivalence and conservation suite for fault injection
//! (`SimConfig::faults`): a faulted sweep must be byte-identical to
//! every cell run on a fresh network, at any thread count — faults are
//! one more sweep axis, not a second simulator —
//! while the empty plan stays bit-identical to a build that never
//! heard of faults. The conservation law under faults: every packet
//! injected in the measurement window is delivered, dropped by a fault,
//! or still in flight (and only unstable runs keep any in flight).

use proptest::prelude::*;
use shg_sim::{
    CellId, Experiment, FaultPlan, Network, SimConfig, SimOutcome, SweepResult, SweepSpec,
    TrafficPattern,
};
use shg_topology::db::TopologyDb;
use shg_topology::{generators, routing, Grid, Topology};
use shg_units::Cycles;

/// A drain-policy plan that exercises every fault path on a 4x4 grid:
/// tile 0 loses both its links (unroutable injections + in-flight
/// packets sunk mid-route), then a router dies (buffered flits lost,
/// incident channels discard arrivals).
const DRAIN_PLAN: &str = "drain,600:link:0-1,600:link:0-4,900:router:5";
/// The same kills under the pessimistic drop policy (whole-fabric
/// state discard at each epoch).
const DROP_PLAN: &str = "600:link:0-1,600:link:0-4,900:router:5";

fn faulted_config(plan: &str) -> SimConfig {
    SimConfig {
        faults: FaultPlan::parse(plan).expect("plan parses"),
        ..SimConfig::fast_test()
    }
}

fn experiment<'a>(spec: SweepSpec, cases: &[(&str, &'a Topology)]) -> Experiment<'a> {
    let mut experiment = Experiment::new(spec);
    for &(name, topology) in cases {
        experiment = experiment
            .with_unit_latency_case(name, topology)
            .expect("routes build");
    }
    experiment
}

/// The whole grid, every cell on its own fresh network.
fn fresh(experiment: &Experiment<'_>) -> SweepResult {
    let cells: Vec<CellId> = experiment.plan().cells().collect();
    SweepResult {
        points: experiment.run_cells_fresh(&cells),
    }
}

/// The headline matrix: under both in-flight policies, a faulted sweep
/// serializes byte-identically to fresh networks per cell, on 1 and on
/// N threads.
#[test]
fn faulted_sweeps_match_across_backends_and_threads() {
    let grid = Grid::new(4, 4);
    let mesh = generators::mesh(grid);
    let fb = generators::flattened_butterfly(grid);
    let cases = [("mesh", &mesh), ("fb", &fb)];
    for plan in [DROP_PLAN, DRAIN_PLAN] {
        let spec = || {
            SweepSpec::new(faulted_config(plan))
                .rates([0.05, 0.25])
                .patterns([TrafficPattern::UniformRandom, TrafficPattern::Transpose])
        };
        let grouped = experiment(spec(), &cases);
        let reference_json = fresh(&grouped).to_json();
        assert_eq!(
            reference_json,
            grouped.run_parallel().to_json(),
            "{plan}: grouped cells changed the sweep bytes"
        );
        assert_eq!(
            reference_json,
            rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .expect("pool builds")
                .install(|| grouped.run_parallel())
                .to_json(),
            "{plan}: thread count changed the sweep bytes"
        );
    }
}

/// Every faulted point must reproduce `Network::run_validated`
/// — the reference engine with its cross-structure invariants (buffer
/// accounting, credit conservation, the sinking-VC invariant) asserted
/// every cycle.
#[test]
fn faulted_points_match_validated_reference() {
    let mesh = generators::mesh(Grid::new(4, 4));
    for plan in [DROP_PLAN, DRAIN_PLAN] {
        let config = faulted_config(plan);
        let spec = SweepSpec::new(config.clone())
            .rates([0.05, 0.3])
            .patterns([TrafficPattern::UniformRandom, TrafficPattern::Hotspot(20)]);
        let result = experiment(spec, &[("mesh", &mesh)]).run_parallel();
        let routes = routing::default_routes(&mesh).expect("routes");
        let latencies = vec![Cycles::one(); mesh.num_links()];
        for point in &result.points {
            let config = SimConfig {
                seed: point.seed,
                ..config.clone()
            };
            let reference = Network::new(&mesh, &routes, &latencies, config)
                .run_validated(point.rate, point.pattern);
            assert_eq!(
                reference, point.outcome,
                "{plan}: point diverged from the validated reference at rate {} {:?}",
                point.rate, point.pattern
            );
        }
        // The kills isolate tile 0 mid-run: the plan must actually have
        // touched traffic for this test to bite.
        assert!(
            result.points.iter().any(|p| !p.outcome.faults.is_zero()),
            "{plan}: no point recorded any fault effect"
        );
    }
}

/// An explicitly-empty fault plan is the default: same sweep bytes,
/// same plan fingerprint — so `--faults ''` and no flag share cache
/// entries and coordinator handshakes.
#[test]
fn empty_plan_is_bit_identical_to_no_flag() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let cases = [("mesh", &mesh)];
    let no_flag = || {
        SweepSpec::new(SimConfig::fast_test())
            .rates([0.05, 0.3])
            .patterns([TrafficPattern::UniformRandom])
    };
    let empty = || {
        SweepSpec::new(SimConfig {
            faults: FaultPlan::parse("").expect("empty plan parses"),
            ..SimConfig::fast_test()
        })
        .rates([0.05, 0.3])
        .patterns([TrafficPattern::UniformRandom])
    };
    let reference = experiment(no_flag(), &cases);
    let with_empty = experiment(empty(), &cases);
    assert_eq!(
        reference.plan().fingerprint(),
        with_empty.plan().fingerprint(),
        "an empty fault plan changed the plan fingerprint"
    );
    let json = reference.run_parallel().to_json();
    assert_eq!(
        json,
        with_empty.run_parallel().to_json(),
        "an empty fault plan changed the sweep bytes"
    );
    assert!(
        !json.contains("faults"),
        "fault-free sweep output must not mention faults"
    );
}

/// A non-empty plan changes the plan fingerprint (faulty and
/// fault-free cells must never collide in caches or shard merges), and
/// its effects serialize into the sweep output.
#[test]
fn faulted_plans_fingerprint_and_serialize_distinctly() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let cases = [("mesh", &mesh)];
    let spec = |plan: &str| {
        SweepSpec::new(faulted_config(plan))
            .rates([0.25])
            .patterns([TrafficPattern::UniformRandom])
    };
    let clean = experiment(spec(""), &cases);
    let faulted = experiment(spec(DRAIN_PLAN), &cases);
    assert_ne!(
        clean.plan().fingerprint(),
        faulted.plan().fingerprint(),
        "a fault plan must change the plan fingerprint"
    );
    let json = faulted.run_parallel().to_json();
    assert!(
        json.contains("dropped_packets") || json.contains("unroutable_packets"),
        "faulted sweep output must carry the fault accounting: {json}"
    );
}

/// Packets injected in the measurement window, recovered from the
/// outcome's offered rate (exact: the product round-trips the integer
/// flit count).
fn injected_packets(outcome: &SimOutcome, config: &SimConfig, nodes: f64) -> u64 {
    let flits = (outcome.offered_rate * config.measure as f64 * nodes).round() as u64;
    assert_eq!(flits % u64::from(config.packet_len), 0, "whole packets");
    flits / u64::from(config.packet_len)
}

/// Conservation on a fixed topology: injected = delivered + dropped
/// (+ in-flight, which stable runs reduce to zero).
#[test]
fn faulted_runs_conserve_packets() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let routes = routing::default_routes(&mesh).expect("routes");
    let latencies = vec![Cycles::one(); mesh.num_links()];
    for plan in [DROP_PLAN, DRAIN_PLAN] {
        let config = faulted_config(plan);
        let outcome = Network::new(&mesh, &routes, &latencies, config.clone())
            .run(0.1, TrafficPattern::UniformRandom);
        let injected = injected_packets(&outcome, &config, mesh.num_tiles() as f64);
        let accounted = outcome.measured_packets + outcome.faults.dropped_packets;
        assert!(
            accounted <= injected,
            "{plan}: delivered+dropped {accounted} exceeds injected {injected}"
        );
        assert_eq!(
            accounted == injected,
            outcome.stable,
            "{plan}: in-flight packets and stability disagree ({outcome:?})"
        );
        assert!(
            outcome.faults.dropped_packets > 0,
            "{plan}: the kills must actually drop traffic for this test to bite"
        );
    }
}

/// A deterministic splitmix stream for the proptest's derived choices.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random kill sets on random 2-die databases: whatever dies —
    /// seam links, SHG skips, whole routers, possibly partitioning the
    /// network — conservation holds, and the grouped sweep agrees with
    /// fresh networks per cell bit for bit.
    #[test]
    fn random_kill_sets_on_two_die_dbs_conserve_packets(
        seed in 0u64..100_000,
        drain_bit in 0u8..2,
        kills in 1usize..4,
    ) {
        let drain = drain_bit == 1;
        let mut stream = seed;
        let bases = ["mesh", "torus", "fb"];
        let left = bases[(mix(&mut stream) % 3) as usize];
        let right = bases[(mix(&mut stream) % 3) as usize];
        let rows = 3 + (mix(&mut stream) % 2) as u16; // 3 or 4
        let cols = 3 + (mix(&mut stream) % 2) as u16;
        let every = 1 + (mix(&mut stream) % 2) as u16;
        let db = TopologyDb::parse(&format!(
            "die a {rows}x{cols} {left}; die b {rows}x{cols} {right}; \
             boundary every={every} latency=2"
        ))
        .expect("db parses");
        let topology = db.instantiate().expect("db instantiates");
        let n = topology.num_tiles() as u32;
        // Random kill set: links drawn from the instantiated link list
        // (so they exist), routers from the tile range; duplicates are
        // skipped rather than re-drawn to keep the plan valid.
        let mut spec_events = Vec::new();
        for _ in 0..kills {
            let cycle = 300 + mix(&mut stream) % 1200;
            if mix(&mut stream).is_multiple_of(2) {
                let link = topology.links()[(mix(&mut stream) as usize) % topology.num_links()];
                spec_events.push(format!("{cycle}:link:{}-{}", link.a.index(), link.b.index()));
            } else {
                spec_events.push(format!("{cycle}:router:{}", mix(&mut stream) % u64::from(n)));
            }
        }
        let mut spec_text = if drain { String::from("drain,") } else { String::new() };
        spec_text.push_str(&spec_events.join(","));
        let mut parsed = FaultPlan::parse(&spec_text).expect("spec parses");
        // Drop duplicate kills (the validator rejects them by design).
        let mut seen = std::collections::BTreeSet::new();
        parsed.events.retain(|e| seen.insert(format!("{:?}", e.kill.canonical())));
        let plan = parsed;
        prop_assert!(plan.validate(&topology).is_ok(), "constructed plan validates");
        let config = SimConfig {
            faults: plan,
            ..SimConfig::fast_test()
        };
        let spec = SweepSpec::new(config.clone())
            .rates([0.08])
            .patterns([TrafficPattern::UniformRandom]);
        let cases = [("db", &topology)];
        let grouped = experiment(spec, &cases);
        let reference = fresh(&grouped);
        prop_assert_eq!(
            reference.to_json(),
            grouped.run_parallel().to_json(),
            "grouped cells diverged from fresh networks on a random faulted 2-die db"
        );
        for point in &reference.points {
            let injected = injected_packets(&point.outcome, &config, topology.num_tiles() as f64);
            let accounted = point.outcome.measured_packets + point.outcome.faults.dropped_packets;
            prop_assert!(accounted <= injected, "delivered+dropped exceeds injected");
            prop_assert_eq!(
                accounted == injected,
                point.outcome.stable,
                "in-flight packets and stability disagree: {:?}",
                point.outcome
            );
        }
    }
}
