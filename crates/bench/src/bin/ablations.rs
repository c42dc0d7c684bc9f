//! A1/A2 — ablations of the floorplan model's design choices:
//!
//! * **A1 — port placement** (design principle ❷, OPP): optimized
//!   one-port-per-face placement vs. all ports crowding the north face.
//! * **A2 — detailed routing** (model step 5): collision-aware A* vs.
//!   congestion-blind shortest paths.
//!
//! Run with: `cargo run --release -p shg-bench --bin ablations`

use shg_core::Scenario;
use shg_floorplan::{predict, DetailedRouting, ModelOptions, PortPlacement};

fn main() {
    shg_bench::reject_retired_flags();
    let scenario = Scenario::knc_a();
    let shg = scenario.shg.build();
    println!(
        "Ablations on scenario (a), topology {} ({} links)\n",
        scenario.shg,
        shg.num_links()
    );

    println!("--- A1: port placement (❷ OPP) ---");
    println!(
        "{:<14} {:>12} {:>14} {:>12} {:>12}",
        "Placement", "AreaOvh[%]", "MeanLink[cyc]", "MaxLink", "Collisions"
    );
    for (name, placement) in [
        ("optimized", PortPlacement::Optimized),
        ("north-only", PortPlacement::NorthOnly),
    ] {
        let options = ModelOptions {
            port_placement: placement,
            ..ModelOptions::default()
        };
        let p = predict(&scenario.params, &shg, &options);
        println!(
            "{:<14} {:>12.1} {:>14.2} {:>12} {:>12}",
            name,
            p.estimates.area_overhead * 100.0,
            p.estimates.mean_link_latency(),
            p.estimates.max_link_latency().value(),
            p.estimates.collisions,
        );
    }
    println!(
        "Expected: the north-only anti-pattern (ring-style placement the\n\
         paper calls out) inflates wire lengths and channel congestion.\n"
    );

    println!("--- A2: detailed routing (model step 5) ---");
    println!(
        "{:<18} {:>12} {:>14} {:>12}",
        "Router", "Collisions", "MeanLink[cyc]", "MaxLink"
    );
    for (name, mode) in [
        ("collision-aware", DetailedRouting::CollisionAware),
        ("congestion-blind", DetailedRouting::CongestionBlind),
    ] {
        let options = ModelOptions {
            detailed_routing: mode,
            ..ModelOptions::default()
        };
        let p = predict(&scenario.params, &shg, &options);
        println!(
            "{:<18} {:>12} {:>14.2} {:>12}",
            name,
            p.estimates.collisions,
            p.estimates.mean_link_latency(),
            p.estimates.max_link_latency().value(),
        );
    }
    println!(
        "Expected: the collision-aware heuristic trades slightly longer\n\
         detours for fewer over-capacity cells — the paper's step-5 goal\n\
         (\"reduce the number of collisions and the link lengths\").\n"
    );
}
