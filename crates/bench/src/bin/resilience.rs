//! Degraded-mode resilience sweep: kill a growing fraction of the
//! fabric mid-run and measure what saturation throughput survives.
//!
//! Run with:
//! `cargo run --release -p shg-bench --bin resilience --
//!  [--fractions 0,0.02,0.05,0.1] [--kill links|routers]
//!  [--policy drop|drain] [--seed N] [--kill-cycle C]
//!  [--rate-points N] [--full] [--shg <spec>] [--json]
//!  [--backend per-cell|reuse|batched|auto]
//!  [--lanes K] [--cache <dir>] [--progress]`
//!
//! Compares mesh, flattened butterfly and an SHG (default
//! `shg:sr=4:sc=4`, override with `--shg`) on a 16x16 grid under
//! uniform-random traffic. For each kill fraction a deterministic
//! kill set — links (default) or routers, sampled by a splitmix64
//! stream from `--seed` so re-runs and re-plots see the same degraded
//! fabric — strikes at `--kill-cycle`. The default lands a quarter of
//! the way into the measurement window, so each run both drops
//! tracked in-flight packets (the accounting columns are live) and
//! spends most of the window on the surviving subgraph; pass
//! `--kill-cycle` at or below the warmup length to measure the purely
//! degraded fabric instead. Routes are recomputed over the surviving
//! subgraph at the fault epoch by the simulator; packets whose source
//! and destination end up in different surviving components are
//! counted as unroutable rather than offered.
//!
//! Each row of the report carries the fault accounting and checks the
//! conservation law the simulator guarantees: packets injected in the
//! measurement window = delivered + dropped (+ in flight, only on
//! unstable points). A violated row aborts the run — the table is
//! only worth reading if the accounting adds up.
//!
//! Windows default to the fast-test config (seconds); `--full` runs
//! the load-curve windows (warmup 3000 / measure 6000) for
//! publication-grade curves.

use shg_bench::{arg_value, cli_error, has_flag};
use shg_sim::{
    Experiment, FaultEvent, FaultKind, FaultPlan, InFlightPolicy, SimConfig, SweepResult,
    SweepSpec, TrafficPattern,
};
use shg_topology::{generators::GeneratorSpec, Grid, Topology};

/// splitmix64 step — the same generator the sweep engine uses for
/// traffic, reused here so kill sets are stable across platforms.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The first `count` entries of a seeded Fisher-Yates shuffle of
/// `0..n` — a uniform sample without replacement, deterministic in
/// `seed`.
fn sample_indices(count: usize, n: usize, seed: u64) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in 0..count.min(n) {
        let j = i + (splitmix64(&mut state) as usize) % (n - i);
        pool.swap(i, j);
    }
    pool.truncate(count.min(n));
    pool
}

/// The deterministic kill set for one topology at one fraction.
fn kill_plan(
    topology: &Topology,
    fraction: f64,
    kill_routers: bool,
    cycle: u64,
    policy: InFlightPolicy,
    seed: u64,
) -> FaultPlan {
    let population = if kill_routers {
        topology.num_tiles()
    } else {
        topology.num_links()
    };
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let count = (fraction * population as f64).round() as usize;
    let events = sample_indices(count, population, seed)
        .into_iter()
        .map(|i| FaultEvent {
            cycle,
            kill: if kill_routers {
                FaultKind::Router(i as u32)
            } else {
                let link = topology.links()[i];
                FaultKind::Link(link.a.index() as u32, link.b.index() as u32)
            },
        })
        .collect();
    FaultPlan { events, policy }
}

/// One (topology, fraction) row: degraded saturation plus the summed
/// fault accounting over every swept point.
struct Row {
    topology: String,
    fraction: f64,
    kills: usize,
    saturation: Option<f64>,
    injected: u64,
    delivered: u64,
    dropped: u64,
    unroutable: u64,
    in_flight: u64,
}

/// Sums the accounting over a single-case sweep and enforces the
/// conservation law per point.
fn account(result: &SweepResult, config: &SimConfig, nodes: f64, row: &mut Row) {
    for point in &result.points {
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let offered_flits =
            (point.outcome.offered_rate * config.measure as f64 * nodes).round() as u64;
        assert_eq!(
            offered_flits % u64::from(config.packet_len),
            0,
            "offered flits round-trip to whole packets"
        );
        let injected = offered_flits / u64::from(config.packet_len);
        let delivered = point.outcome.measured_packets;
        let dropped = point.outcome.faults.dropped_packets;
        let accounted = delivered + dropped;
        assert!(
            accounted <= injected && (accounted == injected) == point.outcome.stable,
            "{} @ rate {:.2}: accounting broken — injected {injected}, \
             delivered {delivered}, dropped {dropped}, stable {}",
            point.case,
            point.rate,
            point.outcome.stable
        );
        row.injected += injected;
        row.delivered += delivered;
        row.dropped += dropped;
        row.unroutable += point.outcome.faults.unroutable_packets;
        row.in_flight += injected - accounted;
    }
}

fn parse_fractions(spec: &str) -> Result<Vec<f64>, String> {
    spec.split(',')
        .map(|item| {
            let f: f64 = item
                .trim()
                .parse()
                .map_err(|e| format!("kill fraction '{item}': {e}"))?;
            if !(0.0..1.0).contains(&f) {
                return Err(format!("kill fraction '{item}': must be in [0, 1)"));
            }
            Ok(f)
        })
        .collect()
}

fn main() {
    let grid = Grid::new(16, 16);
    let fractions = arg_value("--fractions").map_or_else(
        || vec![0.0, 0.02, 0.05, 0.1],
        |spec| parse_fractions(&spec).unwrap_or_else(|e| cli_error(format!("--fractions: {e}"))),
    );
    let kill_routers = match arg_value("--kill").as_deref() {
        None | Some("links") => false,
        Some("routers") => true,
        Some(other) => cli_error(format!("--kill '{other}': use links|routers")),
    };
    let policy = match arg_value("--policy").as_deref() {
        None | Some("drop") => InFlightPolicy::Drop,
        Some("drain") => InFlightPolicy::Drain,
        Some(other) => cli_error(format!("--policy '{other}': use drop|drain")),
    };
    let seed = arg_value("--seed").map_or(42, |text| {
        text.parse()
            .unwrap_or_else(|e| cli_error(format!("--seed {text}: {e}")))
    });
    let config = if has_flag("--full") {
        SimConfig {
            warmup: 3_000,
            measure: 6_000,
            drain_limit: 20_000,
            ..SimConfig::default()
        }
    } else {
        SimConfig::fast_test()
    };
    let kill_cycle = arg_value("--kill-cycle").map_or(config.warmup + config.measure / 4, |text| {
        text.parse()
            .unwrap_or_else(|e| cli_error(format!("--kill-cycle {text}: {e}")))
    });
    let rate_points = arg_value("--rate-points").map_or(10, |text| {
        text.parse::<usize>()
            .unwrap_or_else(|e| cli_error(format!("--rate-points {text}: {e}")))
    });
    let shg_spec = arg_value("--shg").unwrap_or_else(|| "shg:sr=4:sc=4".to_owned());
    let specs = [
        ("mesh".to_owned(), "mesh".to_owned()),
        ("fb".to_owned(), "fb".to_owned()),
        (shg_spec.clone(), shg_spec),
    ];
    let topologies: Vec<(String, Topology)> = specs
        .into_iter()
        .map(|(name, spec)| {
            let generator: GeneratorSpec = spec
                .parse()
                .unwrap_or_else(|e| cli_error(format!("--shg '{spec}': {e}")));
            let topology = generator
                .build(grid)
                .unwrap_or_else(|e| cli_error(format!("--shg '{spec}' on {grid}: {e}")));
            (name, topology)
        })
        .collect();

    let mut rows: Vec<Row> = Vec::new();
    for (name, topology) in &topologies {
        for &fraction in &fractions {
            let plan = kill_plan(topology, fraction, kill_routers, kill_cycle, policy, seed);
            plan.validate(topology)
                .unwrap_or_else(|e| cli_error(format!("kill set for {name}: {e}")));
            let kills = plan.events.len();
            let mut cell = config.clone();
            cell.faults = plan;
            // Low-rate extension below the linear grid: the mesh
            // saturates near 12% of injection capacity, under the
            // first linear step at the default resolution.
            #[allow(clippy::cast_precision_loss)]
            let step = 1.0 / rate_points as f64;
            let mut rates: Vec<f64> = [0.0125, 0.025, 0.05, 0.075]
                .into_iter()
                .filter(|&r| r < step)
                .collect();
            #[allow(clippy::cast_precision_loss)]
            rates.extend((1..=rate_points).map(|i| i as f64 * step));
            let spec = SweepSpec::new(cell.clone()).rates(rates);
            let mut experiment = Experiment::new(spec)
                .with_unit_latency_case(name.clone(), topology)
                .unwrap_or_else(|e| cli_error(format!("routing {name}: {e}")));
            let result = shg_bench::sweep::run_experiment(&mut experiment);
            let mut row = Row {
                topology: name.clone(),
                fraction,
                kills,
                saturation: result.saturation_estimate(name, TrafficPattern::UniformRandom, 0.05),
                injected: 0,
                delivered: 0,
                dropped: 0,
                unroutable: 0,
                in_flight: 0,
            };
            #[allow(clippy::cast_precision_loss)]
            account(&result, &cell, topology.num_tiles() as f64, &mut row);
            rows.push(row);
        }
    }

    if has_flag("--json") {
        let entries: Vec<String> = rows
            .iter()
            .map(|row| {
                format!(
                    "{{\"topology\":\"{}\",\"fraction\":{},\"kills\":{},\
                     \"saturation\":{},\"injected\":{},\"delivered\":{},\
                     \"dropped\":{},\"unroutable\":{},\"in_flight\":{}}}",
                    row.topology,
                    row.fraction,
                    row.kills,
                    row.saturation
                        .map_or_else(|| "null".to_owned(), |s| format!("{s}")),
                    row.injected,
                    row.delivered,
                    row.dropped,
                    row.unroutable,
                    row.in_flight
                )
            })
            .collect();
        println!("[{}]", entries.join(","));
        return;
    }

    println!(
        "Resilience sweep on {grid}: {} kills at cycle {kill_cycle} ({:?} policy, seed {seed})",
        if kill_routers { "router" } else { "link" },
        policy
    );
    println!(
        "{:<14} {:>9} {:>6} {:>11} {:>10} {:>10} {:>9} {:>11} {:>10}",
        "topology",
        "killed%",
        "kills",
        "saturation",
        "injected",
        "delivered",
        "dropped",
        "unroutable",
        "in-flight"
    );
    for row in &rows {
        println!(
            "{:<14} {:>8.1}% {:>6} {:>11} {:>10} {:>10} {:>9} {:>11} {:>10}",
            row.topology,
            row.fraction * 100.0,
            row.kills,
            row.saturation
                .map_or_else(|| "< grid".to_owned(), |s| format!("{:.1}%", s * 100.0)),
            row.injected,
            row.delivered,
            row.dropped,
            row.unroutable,
            row.in_flight
        );
    }
    println!(
        "\nEvery row satisfies injected = delivered + dropped (+ in-flight \
         on unstable points); unroutable injections were never offered."
    );
}
