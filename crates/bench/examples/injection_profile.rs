//! Phase-level cost decomposition of simulation: how much of a cycle
//! goes to injection (Phase A), delivery (Phase B) and
//! allocation/traversal (Phase C), measured directly with
//! [`Network::run_profiled`] — first across low rates on a 16×16 mesh,
//! where Phases B/C dominate at every useful rate (≥ ~0.002).
//!
//! The closing table is the other end of the load axis: the three
//! saturated reference cells of the `simulator` bench
//! ([`shg_bench::sweep::saturated_cells`]), where a load sweep pushed
//! past the knee spends most of its time — total seconds per phase, so
//! a kernel change has a one-command before/after.
//!
//! Run with:
//! `cargo run --release -p shg-bench --example injection_profile`

use shg_bench::sweep::saturated_cells;
use shg_sim::{Network, SimConfig, TrafficPattern};
use shg_topology::{generators, routing, Grid};
use shg_units::Cycles;

fn main() {
    let mesh = generators::mesh(Grid::new(16, 16));
    let routes = routing::default_routes(&mesh).expect("mesh routes");
    let latencies = vec![Cycles::one(); mesh.num_links()];
    let config = SimConfig {
        warmup: 500,
        measure: 2_000,
        drain_limit: 6_000,
        ..SimConfig::default()
    };
    println!(
        "{:>7} {:>9} {:>9} {:>9} {:>10} {:>8}",
        "Rate", "A[us/cy]", "B[us/cy]", "C[us/cy]", "Wall[ms]", "Cycles"
    );
    for rate in [0.0f64, 0.002, 0.005, 0.02] {
        let mut network = Network::new(&mesh, &routes, &latencies, config.clone());
        let start = std::time::Instant::now();
        let (outcome, profile) = network.run_profiled(rate, TrafficPattern::UniformRandom);
        let wall = start.elapsed().as_secs_f64();
        let per_cycle = |d: std::time::Duration| d.as_secs_f64() * 1e6 / outcome.cycles as f64;
        println!(
            "{:>7} {:>9.3} {:>9.3} {:>9.3} {:>10.2} {:>8}",
            rate,
            per_cycle(profile.injection),
            per_cycle(profile.delivery),
            per_cycle(profile.allocation),
            wall * 1e3,
            outcome.cycles,
        );
    }
    println!();
    println!(
        "{:<22} {:>6} {:>8} {:>8} {:>8} {:>9} {:>7}",
        "Saturated cell", "Rate", "A[s]", "B[s]", "C[s]", "Wall[s]", "Cycles"
    );
    for cell in saturated_cells() {
        let mut network = cell.network();
        let start = std::time::Instant::now();
        let (outcome, profile) = network.run_profiled(cell.rate, TrafficPattern::UniformRandom);
        let wall = start.elapsed().as_secs_f64();
        println!(
            "{:<22} {:>6} {:>8.3} {:>8.3} {:>8.3} {:>9.3} {:>7}",
            cell.name,
            cell.rate,
            profile.injection.as_secs_f64(),
            profile.delivery.as_secs_f64(),
            profile.allocation.as_secs_f64(),
            wall,
            outcome.cycles,
        );
    }
}
