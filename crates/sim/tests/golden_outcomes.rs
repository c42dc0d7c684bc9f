//! Golden `SimOutcome`s: every statistic of a fixed cell list, pinned
//! bit for bit in `golden_outcomes.txt`.
//!
//! The simulator has one implementation of each cycle phase, so this
//! file is its oracle: the committed outcomes were generated once and
//! any kernel change must reproduce them exactly. The cell list spans
//! topology families (mesh, torus, ring, hypercube, flattened
//! butterfly, SlimNoC, the scenario-a sparse Hamming graph, a two-die
//! database part) × all seven traffic patterns × load levels from idle
//! to packet probability 1 × packet lengths from 1 to 8 flits, with 1-
//! and 3-cycle links, links of mixed latencies within one cell and
//! zero-latency channels, dense and next-hop route tables, VC counts whose
//! class ranges are not powers of two, both in-flight fault policies
//! and reset-reused networks — plus saturated cells whose sources stay
//! backlogged across fault epochs, the window's end and resets, so the
//! lazily drawn sources are pinned where they differ most from an eager
//! packet queue — and cells whose allocation requests are mostly
//! blocked (one- and two-flit buffers, one VC per routing class, router
//! kills under saturation), where parked requests decide the schedule.
//!
//! Regenerate (only when an outcome change is intended and understood):
//!
//! ```text
//! cargo test -p shg-sim --test golden_outcomes -- --ignored
//! ```

use std::fmt::Write as _;

use shg_sim::{FaultPlan, Network, SimConfig, SimOutcome, TrafficPattern};
use shg_topology::db::TopologyDb;
use shg_topology::routing::{default_routes_with, RouteForm, Routes};
use shg_topology::{generators, Grid, Topology};
use shg_units::Cycles;

const GOLDEN: &str = include_str!("golden_outcomes.txt");

const PATTERNS: [(&str, TrafficPattern); 3] = [
    ("uniform", TrafficPattern::UniformRandom),
    ("transpose", TrafficPattern::Transpose),
    ("hotspot30", TrafficPattern::Hotspot(30)),
];
const PACKET_LENS: [u16; 3] = [1, 2, 4];

/// Windows short enough for a debug-profile test run, long enough
/// that a saturated cell reaches the hard stop with every buffer,
/// pipe and arbiter dirty.
fn base_config() -> SimConfig {
    SimConfig {
        warmup: 200,
        measure: 600,
        drain_limit: 800,
        ..SimConfig::fast_test()
    }
}

/// `(name, topology, knee rate, forms)`: the knee is a rate near the
/// uniform-random saturation point; custom multi-die parts only route
/// within the VC budget in the next-hop (hierarchical) form.
fn topologies() -> Vec<(&'static str, Topology, f64, &'static [RouteForm])> {
    const BOTH: &[RouteForm] = &[RouteForm::Dense, RouteForm::NextHop];
    const NEXT_HOP: &[RouteForm] = &[RouteForm::NextHop];
    let small = Grid::new(4, 4);
    let sr = [4].into_iter().collect();
    let sc = [2, 5].into_iter().collect();
    let two_die =
        TopologyDb::parse("die left 6x5 mesh; die right 6x5 shg:sc=2; boundary every=2 latency=3")
            .expect("db parses")
            .instantiate()
            .expect("db instantiates");
    vec![
        ("mesh4x4", generators::mesh(small), 0.35, BOTH),
        ("torus4x4", generators::torus(small), 0.5, BOTH),
        ("ring4x4", generators::ring(small), 0.15, BOTH),
        ("fb4x4", generators::flattened_butterfly(small), 0.8, BOTH),
        (
            "slimnoc10x5",
            generators::slim_noc(Grid::new(10, 5)).expect("50 tiles"),
            0.4,
            BOTH,
        ),
        (
            "shg8x8",
            generators::row_column_skip(Grid::new(8, 8), &sr, &sc).expect("scenario a"),
            0.3,
            BOTH,
        ),
        ("twodie2x6x5", two_die, 0.15, NEXT_HOP),
    ]
}

/// A network split into `shards` shards, one thread each (`None`: the
/// default, one shard at these sizes).
fn new_network<'a>(
    topology: &'a Topology,
    routes: &'a Routes,
    latencies: &[Cycles],
    config: SimConfig,
    shards: Option<usize>,
) -> Network<'a> {
    let network = Network::new(topology, routes, latencies, config);
    match shards {
        Some(shards) => network.with_shards(shards),
        None => network,
    }
}

fn latencies(topology: &Topology, cycles: u64) -> Vec<Cycles> {
    vec![Cycles::new(cycles); topology.num_links()]
}

fn line(label: &str, o: &SimOutcome) -> String {
    format!(
        "{label} offered={:016x} accepted={:016x} avg={:016x} p50={:016x} p99={:016x} \
         max={:016x} measured={} stable={} cycles={} dropped={} unroutable={}\n",
        o.offered_rate.to_bits(),
        o.accepted_rate.to_bits(),
        o.avg_packet_latency.to_bits(),
        o.p50_packet_latency.to_bits(),
        o.p99_packet_latency.to_bits(),
        o.max_packet_latency.to_bits(),
        o.measured_packets,
        o.stable,
        o.cycles,
        o.faults.dropped_packets,
        o.faults.unroutable_packets,
    )
}

/// Runs the whole cell list and renders it in the golden file's form.
fn render(shards: Option<usize>) -> String {
    let mut text = String::new();
    for (t, (name, topology, knee, forms)) in topologies().into_iter().enumerate() {
        let routes: Vec<_> = forms
            .iter()
            .map(|&form| default_routes_with(&topology, form).expect("routes build"))
            .collect();
        // The grid: pattern × load level, with packet length, link
        // latency and route form rotating so every combination of the
        // three appears somewhere in the file.
        for (p, (pattern_name, pattern)) in PATTERNS.into_iter().enumerate() {
            for (r, (level, rate)) in [("low", 0.05), ("knee", knee), ("full", 1.0)]
                .into_iter()
                .enumerate()
            {
                let packet_len = PACKET_LENS[(t + p + r) % 3];
                let link_cycles = if (t + p) % 2 == 0 { 1 } else { 3 };
                let routes = &routes[(t + r) % routes.len()];
                let config = SimConfig {
                    packet_len,
                    seed: 1000 + (t * 9 + p * 3 + r) as u64,
                    ..base_config()
                };
                let outcome = new_network(
                    &topology,
                    routes,
                    &latencies(&topology, link_cycles),
                    config,
                    shards,
                )
                .run(rate, pattern);
                let label = format!(
                    "{name}/{pattern_name}/{level}/len{packet_len}/lat{link_cycles}/{:?}",
                    routes.form()
                );
                text.push_str(&line(&label, &outcome));
            }
        }
        // A second cell on a reset-reused network, straight after a
        // full-rate one that leaves every structure dirty.
        let routes = routes.last().expect("at least one form");
        let lats = latencies(&topology, 1);
        let mut network = new_network(&topology, routes, &lats, base_config(), shards);
        let _ = network.run(1.0, TrafficPattern::UniformRandom);
        network.reset(77);
        let second = network.run(knee, TrafficPattern::Transpose);
        text.push_str(&line(
            &format!("{name}/after-reset/transpose/knee"),
            &second,
        ));
        // A link kill and a router kill in mid-measurement, under both
        // in-flight policies.
        if name == "shg8x8" {
            for (policy, plan) in [
                ("drop", "350:link:0-1,500:router:27"),
                ("drain", "drain,350:link:0-1,500:router:27"),
            ] {
                let config = SimConfig {
                    packet_len: 4,
                    faults: FaultPlan::parse(plan).expect("plan parses"),
                    ..base_config()
                };
                let outcome =
                    new_network(&topology, routes, &latencies(&topology, 3), config, shards)
                        .run(knee, TrafficPattern::UniformRandom);
                assert!(
                    outcome.faults.dropped_packets > 0,
                    "{policy}: the kills must cost packets"
                );
                text.push_str(&line(
                    &format!("{name}/faults-{policy}/uniform/knee"),
                    &outcome,
                ));
            }
        }
    }
    render_backlogged(&mut text, shards);
    render_widened(&mut text, shards);
    render_mixed_latencies(&mut text, shards);
    render_blocked(&mut text, shards);
    text
}

/// Cells where blocked allocation requests decide the schedule:
/// saturated networks with one- and two-flit buffers, so most switch
/// requests find their output VC out of credits; one VC per routing
/// class, so heads wait at VC allocation nearly every cycle; the two-die
/// hierarchical part at full load; and drain-policy router kills in
/// saturation, while heads wait on outputs toward the dead router.
fn render_blocked(text: &mut String, shards: Option<usize>) {
    let tables = topologies();
    let find = |wanted: &str| {
        let (_, topology, knee, _) = tables
            .iter()
            .find(|(name, ..)| *name == wanted)
            .expect("named topology");
        (topology, *knee)
    };
    let mut seed = 9000u64;
    let mut cell = |label: String, topology: &Topology, config: SimConfig, rate, pattern| {
        let routes = default_routes_with(topology, RouteForm::NextHop).expect("routes build");
        let config = SimConfig {
            seed,
            num_vcs: if config.num_vcs == 0 {
                routes.num_vc_classes().max(1)
            } else {
                config.num_vcs
            },
            ..config
        };
        seed += 1;
        let outcome = new_network(
            topology,
            &routes,
            &latencies(topology, 1),
            config.clone(),
            shards,
        )
        .run(rate, pattern);
        text.push_str(&line(
            &format!(
                "blocked/{label}/vcs{}/depth{}/len{}",
                config.num_vcs, config.buffer_depth, config.packet_len
            ),
            &outcome,
        ));
        outcome
    };
    // Shallow buffers at full load.
    for name in ["mesh4x4", "torus4x4", "shg8x8"] {
        let (topology, _) = find(name);
        for buffer_depth in [1u16, 2] {
            let config = SimConfig {
                buffer_depth,
                packet_len: 4,
                ..base_config()
            };
            cell(
                format!("{name}/uniform/full"),
                topology,
                config,
                1.0,
                TrafficPattern::UniformRandom,
            );
        }
    }
    // One VC per routing class (`num_vcs: 0` asks for the class count),
    // at the knee and at full load.
    for name in ["mesh4x4", "torus4x4", "ring4x4", "shg8x8", "twodie2x6x5"] {
        let (topology, knee) = find(name);
        for (level, rate, pattern_name, pattern) in [
            ("knee", knee, "uniform", TrafficPattern::UniformRandom),
            ("full", 1.0, "transpose", TrafficPattern::Transpose),
        ] {
            let config = SimConfig {
                num_vcs: 0,
                ..base_config()
            };
            cell(
                format!("{name}/{pattern_name}/{level}"),
                topology,
                config,
                rate,
                pattern,
            );
        }
    }
    // The two-die hierarchical part at full load, with its default VCs
    // and with two-flit buffers.
    let (two_die, _) = find("twodie2x6x5");
    for buffer_depth in [8u16, 2] {
        let config = SimConfig {
            buffer_depth,
            packet_len: 4,
            ..base_config()
        };
        cell(
            "twodie2x6x5/uniform/full".to_owned(),
            two_die,
            config,
            1.0,
            TrafficPattern::UniformRandom,
        );
    }
    // Drain-policy router kills in saturation: the dead routers'
    // neighbours hold heads routed toward them, waiting on output VCs.
    for (name, plan, num_vcs, buffer_depth) in [
        ("mesh4x4", "drain,500:router:5", 0u8, 2u16),
        ("shg8x8", "drain,500:router:27,900:router:36", 0, 8),
        ("shg8x8", "drain,500:router:27", 8, 1),
        ("twodie2x6x5", "drain,400:router:14,700:router:40", 0, 2),
    ] {
        let (topology, _) = find(name);
        let config = SimConfig {
            num_vcs,
            buffer_depth,
            faults: FaultPlan::parse(plan).expect("plan parses"),
            ..base_config()
        };
        let outcome = cell(
            format!("{name}/drain-kill/uniform/full"),
            topology,
            config,
            1.0,
            TrafficPattern::UniformRandom,
        );
        assert!(
            outcome.faults.dropped_packets > 0,
            "{name} {plan}: the kills must cost packets"
        );
    }
}

/// Link `i` takes `1 + (5·i mod 6)` cycles, so neighbouring channels
/// differ and in-flight traffic is due on every offset of the link
/// pipelines at once.
fn mixed_latencies(topology: &Topology) -> Vec<Cycles> {
    (0..topology.num_links() as u64)
        .map(|i| Cycles::new(1 + i * 5 % 6))
        .collect()
}

/// Cells whose channels do not share one latency: low, knee and full
/// load on an 8×8 mesh (a one-cycle router overhead, so channels take
/// 2–7 cycles) and the scenario-a sparse Hamming graph (no overhead,
/// 1–6 cycles); both in-flight fault policies on those latencies; and
/// zero-latency channels, delivered the cycle after they are sent, with
/// and without a drain-policy kill whose sunk flits return their credits
/// within the cycle they arrive.
fn render_mixed_latencies(text: &mut String, shards: Option<usize>) {
    let mesh = generators::mesh(Grid::new(8, 8));
    let sr = [4].into_iter().collect();
    let sc = [2, 5].into_iter().collect();
    let shg = generators::row_column_skip(Grid::new(8, 8), &sr, &sc).expect("scenario a");
    let mut seed = 8000u64;
    let mut cell = |label: &str, topology: &Topology, lats: &[Cycles], config, rate| {
        let routes = default_routes_with(topology, RouteForm::NextHop).expect("routes build");
        let config = SimConfig { seed, ..config };
        seed += 1;
        let outcome = new_network(topology, &routes, lats, config, shards)
            .run(rate, TrafficPattern::UniformRandom);
        text.push_str(&line(label, &outcome));
        outcome
    };
    for (t, (name, topology, knee, router_overhead)) in
        [("mesh8x8", &mesh, 0.3, 1u32), ("shg8x8", &shg, 0.3, 0)]
            .into_iter()
            .enumerate()
    {
        let lats = mixed_latencies(topology);
        for (r, (level, rate)) in [("low", 0.05), ("knee", knee), ("full", 1.0)]
            .into_iter()
            .enumerate()
        {
            let packet_len = PACKET_LENS[(t + r) % 3];
            let config = SimConfig {
                packet_len,
                router_overhead,
                ..base_config()
            };
            let label =
                format!("{name}/mixed-lat/overhead{router_overhead}/{level}/len{packet_len}");
            cell(&label, topology, &lats, config, rate);
        }
        let (policy, plan) = if t == 0 {
            ("drop", "350:link:0-1,500:router:27")
        } else {
            ("drain", "drain,350:link:0-1,500:router:27")
        };
        let config = SimConfig {
            packet_len: 4,
            router_overhead,
            faults: FaultPlan::parse(plan).expect("plan parses"),
            ..base_config()
        };
        let outcome = cell(
            &format!("{name}/mixed-lat/faults-{policy}/knee"),
            topology,
            &lats,
            config,
            knee,
        );
        assert!(
            outcome.faults.dropped_packets > 0,
            "{policy}: the kills must cost packets"
        );
    }
    let small = generators::mesh(Grid::new(4, 4));
    let zero = latencies(&small, 0);
    for (label, plan, rate) in [
        ("mesh4x4/zero-lat/knee", "", 0.35),
        (
            "mesh4x4/zero-lat/faults-drain/full",
            "drain,500:router:5",
            1.0,
        ),
    ] {
        let config = SimConfig {
            router_overhead: 0,
            faults: FaultPlan::parse(plan).expect("plan parses"),
            ..base_config()
        };
        cell(label, &small, &zero, config, rate);
    }
}

/// Cells the grid above leaves out: the four patterns it does not
/// sweep, on a high-radix and a wrap-around topology, 8-flit packets on high-radix routers, the
/// degenerate injection rates (no packet at all, a packet every cycle)
/// and VC counts whose class ranges are not powers of two.
fn render_widened(text: &mut String, shards: Option<usize>) {
    let tables = topologies();
    let find = |wanted: &str| {
        let (_, topology, knee, _) = tables
            .iter()
            .find(|(name, ..)| *name == wanted)
            .expect("named topology");
        (topology, *knee)
    };
    let mut seed = 7000u64;
    let mut cell =
        |label: String, topology: &Topology, form, link_cycles, config, rate, pattern| {
            let routes = default_routes_with(topology, form).expect("routes build");
            let config = SimConfig { seed, ..config };
            seed += 1;
            let outcome = new_network(
                topology,
                &routes,
                &latencies(topology, link_cycles),
                config,
                shards,
            )
            .run(rate, pattern);
            text.push_str(&line(
                &format!("{label}/lat{link_cycles}/{form:?}"),
                &outcome,
            ));
            outcome
        };
    let patterns = [
        ("bitcomplement", TrafficPattern::BitComplement),
        ("reverse", TrafficPattern::Reverse),
        ("tornado", TrafficPattern::Tornado),
        ("neighbor", TrafficPattern::Neighbor),
    ];
    for (t, name) in ["shg8x8", "torus4x4"].into_iter().enumerate() {
        let (topology, knee) = find(name);
        for (p, (pattern_name, pattern)) in patterns.into_iter().enumerate() {
            for (r, (level, rate)) in [("low", 0.05), ("knee", knee), ("full", 1.0)]
                .into_iter()
                .enumerate()
            {
                let packet_len = PACKET_LENS[(t + p + r) % 3];
                let form = [RouteForm::NextHop, RouteForm::Dense][(p + r) % 2];
                let config = SimConfig {
                    packet_len,
                    ..base_config()
                };
                let label = format!("{name}/{pattern_name}/{level}/len{packet_len}");
                cell(
                    label,
                    topology,
                    form,
                    1 + 2 * ((t + p) % 2) as u64,
                    config,
                    rate,
                    pattern,
                );
            }
        }
    }
    for (name, link_cycles) in [("fb4x4", 3), ("slimnoc10x5", 1)] {
        let (topology, knee) = find(name);
        for (level, rate) in [("knee", knee), ("full", 1.0)] {
            let config = SimConfig {
                packet_len: 8,
                ..base_config()
            };
            let label = format!("{name}/uniform/{level}/len8");
            cell(
                label,
                topology,
                RouteForm::NextHop,
                link_cycles,
                config,
                rate,
                TrafficPattern::UniformRandom,
            );
        }
    }
    let (mesh, _) = find("mesh4x4");
    let idle = cell(
        "mesh4x4/uniform/zero/len2".to_owned(),
        mesh,
        RouteForm::NextHop,
        1,
        base_config(),
        0.0,
        TrafficPattern::UniformRandom,
    );
    assert!(
        idle.stable && idle.measured_packets == 0,
        "rate 0 injects nothing"
    );
    // Packet probability 1: one flit per cycle, then two per cycle.
    for (packet_len, rate) in [(1u16, 1.0), (2, 2.0)] {
        let config = SimConfig {
            packet_len,
            ..base_config()
        };
        let label = format!("mesh4x4/uniform/prob1-rate{rate}/len{packet_len}");
        cell(
            label,
            mesh,
            RouteForm::Dense,
            1,
            config,
            rate,
            TrafficPattern::UniformRandom,
        );
    }
    // Class ranges of three VCs take the round-robin `%` branch: the
    // hypercube's one class over 3 VCs, the ring's second of 2 over 5.
    let hypercube = generators::hypercube(Grid::new(4, 4)).expect("16 tiles");
    let (ring, ring_knee) = find("ring4x4");
    for (name, topology, knee, num_vcs) in [
        ("hypercube4x4", &hypercube, 0.4, 3u8),
        ("ring4x4", ring, ring_knee, 5),
    ] {
        let config = SimConfig {
            num_vcs,
            ..base_config()
        };
        let label = format!("{name}/vcs{num_vcs}/uniform/knee/len2");
        cell(
            label,
            topology,
            RouteForm::NextHop,
            1,
            config,
            knee,
            TrafficPattern::UniformRandom,
        );
    }
}

/// Fully saturated cells, so every source is backlogged — packets
/// created but still waiting for the injection buffer — across each
/// event that touches a backlog: fault epochs of both policies inside
/// and after the measurement window (with a drain kill that cuts a tile
/// off while survivors still hold packets for it), a reset-reused
/// network and a hotspot source whose draws often name itself. (The
/// `scan*` cells were pinned under a per-cycle injection scan the
/// calendar reproduces exactly.)
fn render_backlogged(text: &mut String, shards: Option<usize>) {
    let mesh = generators::mesh(Grid::new(4, 4));
    let sr = [4].into_iter().collect();
    let sc = [2, 5].into_iter().collect();
    let shg = generators::row_column_skip(Grid::new(8, 8), &sr, &sc).expect("scenario a");
    let cells: [(&str, &Topology, TrafficPattern, u16, &str); 10] = [
        (
            "mesh4x4/drop-in-window",
            &mesh,
            TrafficPattern::UniformRandom,
            2,
            "500:router:5",
        ),
        (
            "mesh4x4/drop-after-window",
            &mesh,
            TrafficPattern::UniformRandom,
            1,
            "1000:link:0-1",
        ),
        (
            "mesh4x4/drain-cut-in-window",
            &mesh,
            TrafficPattern::UniformRandom,
            2,
            "drain,500:router:1,500:router:4",
        ),
        (
            "mesh4x4/drain-cut-after-window",
            &mesh,
            TrafficPattern::Hotspot(30),
            4,
            "drain,900:router:1,900:router:4",
        ),
        ("mesh4x4/scan", &mesh, TrafficPattern::Hotspot(30), 2, ""),
        (
            "mesh4x4/scan-drop",
            &mesh,
            TrafficPattern::UniformRandom,
            1,
            "400:router:6,1000:router:9",
        ),
        (
            "mesh4x4/scan-drain-cut",
            &mesh,
            TrafficPattern::UniformRandom,
            4,
            "drain,500:router:1,500:router:4",
        ),
        (
            "mesh4x4/hotspot-self",
            &mesh,
            TrafficPattern::Hotspot(50),
            1,
            "",
        ),
        (
            "shg8x8/drop-three-epochs",
            &shg,
            TrafficPattern::UniformRandom,
            4,
            "300:link:0-1,500:router:27,1000:router:9",
        ),
        (
            "shg8x8/drain-three-epochs",
            &shg,
            TrafficPattern::Hotspot(50),
            2,
            "drain,300:link:0-1,500:router:27,1000:router:9",
        ),
    ];
    for (i, (label, topology, pattern, packet_len, plan)) in cells.into_iter().enumerate() {
        let routes = default_routes_with(topology, RouteForm::NextHop).expect("routes build");
        let config = SimConfig {
            packet_len,
            seed: 5000 + i as u64,
            faults: FaultPlan::parse(plan).expect("plan parses"),
            ..base_config()
        };
        let outcome = new_network(topology, &routes, &latencies(topology, 1), config, shards)
            .run(1.0, pattern);
        text.push_str(&line(&format!("backlog/{label}/full"), &outcome));
    }
    // Two saturated cells back to back on one network: the second
    // starts from a reset taken mid-backlog.
    let routes = default_routes_with(&mesh, RouteForm::NextHop).expect("routes build");
    let lats = latencies(&mesh, 3);
    let mut network = new_network(&mesh, &routes, &lats, base_config(), shards);
    let _ = network.run(1.0, TrafficPattern::Hotspot(30));
    network.reset(78);
    let second = network.run(1.0, TrafficPattern::UniformRandom);
    text.push_str(&line("backlog/mesh4x4/after-reset/uniform/full", &second));
}

#[test]
fn outcomes_match_the_committed_golden_file() {
    assert_matches_golden(&render(None), "");
}

/// The same cells with each network's routers split into two and into
/// three shards, each on its own thread — down to a handful of routers
/// per shard, so every cell moves flits and credits between shards.
#[test]
fn sharded_outcomes_match_the_committed_golden_file() {
    for shards in [2, 3] {
        assert_matches_golden(&render(Some(shards)), &format!(" at {shards} shards"));
    }
}

/// The zero-latency cells of `render_mixed_latencies` at three shards
/// under `run_validated`, which checks every router, the active sets and
/// (fault-free) every channel's flow control after each cycle. Sends on
/// a zero-latency channel are due the very next cycle, and a discard
/// under the drain policy returns its credit within the cycle it
/// arrives, across shards.
#[test]
fn sharded_zero_latency_cells_keep_every_invariant() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let routes = default_routes_with(&mesh, RouteForm::NextHop).expect("routes build");
    let zero = latencies(&mesh, 0);
    // The cells' seeds follow the eight mixed-latency cells before them.
    for (label, plan, rate, seed) in [
        ("mesh4x4/zero-lat/knee", "", 0.35, 8008),
        (
            "mesh4x4/zero-lat/faults-drain/full",
            "drain,500:router:5",
            1.0,
            8009,
        ),
    ] {
        let config = SimConfig {
            router_overhead: 0,
            seed,
            faults: FaultPlan::parse(plan).expect("plan parses"),
            ..base_config()
        };
        let outcome = new_network(&mesh, &routes, &zero, config, Some(3))
            .run_validated(rate, TrafficPattern::UniformRandom);
        let actual = line(label, &outcome);
        assert!(
            GOLDEN.lines().any(|golden| golden == actual.trim_end()),
            "{label} at 3 shards: {actual}"
        );
    }
}

fn assert_matches_golden(actual: &str, what: &str) {
    if actual == GOLDEN {
        return;
    }
    let mut report = String::new();
    let (mut actual_lines, mut golden_lines) = (actual.lines(), GOLDEN.lines());
    loop {
        match (actual_lines.next(), golden_lines.next()) {
            (None, None) => break,
            (a, g) if a == g => {}
            (a, g) => {
                let _ = writeln!(
                    report,
                    "golden: {}\nactual: {}",
                    g.unwrap_or("<missing>"),
                    a.unwrap_or("<missing>")
                );
            }
        }
    }
    panic!("simulation outcomes{what} drifted from golden_outcomes.txt:\n{report}");
}

/// Writer for the golden file — ignored so a plain `cargo test` can
/// never overwrite the pin.
#[test]
#[ignore = "regenerates tests/golden_outcomes.txt"]
fn regenerate_golden_outcomes() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_outcomes.txt");
    std::fs::write(path, render(None)).expect("golden file is writable");
}
