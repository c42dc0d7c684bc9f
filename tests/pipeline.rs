//! Integration tests spanning all crates: topology → floorplan → routing
//! → simulation → toolchain.

use sparse_hamming_graph::core::{
    analytic_saturation, MempoolReference, PerformanceMode, Scenario, SparseHammingConfig,
    Toolchain,
};
use sparse_hamming_graph::floorplan::{predict, ModelOptions};
use sparse_hamming_graph::sim::{Network, SimConfig, TrafficPattern};
use sparse_hamming_graph::topology::{generators, metrics, routing};

fn fast_toolchain() -> Toolchain {
    Toolchain {
        model_options: ModelOptions {
            cell_scale: 4.0,
            ..ModelOptions::default()
        },
        sim: SimConfig::fast_test(),
        mode: PerformanceMode::Analytic,
        ..Toolchain::default()
    }
}

#[test]
fn full_pipeline_on_scenario_a() {
    let scenario = Scenario::knc_a();
    let shg = scenario.shg.build();
    let eval = fast_toolchain()
        .evaluate(&scenario.params, &shg)
        .expect("pipeline runs");
    assert!(eval.area_overhead > 0.0 && eval.area_overhead < 1.0);
    assert!(eval.zero_load_latency > 0.0);
    assert!(eval.saturation_throughput > 0.0 && eval.saturation_throughput <= 1.0);
    assert!(eval.noc_power.value() > 0.0);
}

#[test]
fn floorplan_latencies_feed_the_simulator() {
    // The floorplan model's per-link latencies must slot directly into
    // the simulator — the core interface of the paper's toolchain (Fig. 3).
    let scenario = Scenario::knc_a();
    let shg = scenario.shg.build();
    let prediction = predict(
        &scenario.params,
        &shg,
        &ModelOptions {
            cell_scale: 4.0,
            ..ModelOptions::default()
        },
    );
    let routes = routing::default_routes(&shg).expect("routes");
    let mut network = Network::new(
        &shg,
        &routes,
        &prediction.estimates.link_latencies,
        SimConfig::fast_test(),
    );
    let outcome = network.run(0.02, TrafficPattern::UniformRandom);
    assert!(outcome.stable, "{outcome:?}");
    assert!(outcome.avg_packet_latency > 0.0);
}

#[test]
fn paper_configs_stay_within_budget_ordering() {
    // For each scenario, the paper's SHG config must be cheaper than the
    // flattened butterfly and more performant than the mesh.
    for scenario in [Scenario::knc_a(), Scenario::knc_b()] {
        let toolchain = fast_toolchain();
        let grid = scenario.params.grid;
        let mesh = toolchain
            .evaluate(&scenario.params, &generators::mesh(grid))
            .expect("mesh");
        let shg = toolchain
            .evaluate(&scenario.params, &scenario.shg.build())
            .expect("shg");
        let fb = toolchain
            .evaluate(&scenario.params, &generators::flattened_butterfly(grid))
            .expect("fb");
        assert!(
            shg.area_overhead < fb.area_overhead,
            "scenario {}: shg {} < fb {}",
            scenario.name,
            shg.area_overhead,
            fb.area_overhead
        );
        assert!(
            shg.saturation_throughput > mesh.saturation_throughput,
            "scenario {}",
            scenario.name
        );
        assert!(
            shg.zero_load_latency < mesh.zero_load_latency,
            "scenario {}",
            scenario.name
        );
    }
}

#[test]
fn slimnoc_applicable_only_for_128_tiles() {
    // Fig. 6 footnote: SlimNoC requires N = 2p² for a prime power p.
    assert!(generators::slim_noc(Scenario::knc_a().params.grid).is_err());
    assert!(generators::slim_noc(Scenario::knc_c().params.grid).is_ok());
}

#[test]
fn scenario_c_evaluates_slimnoc_end_to_end() {
    let scenario = Scenario::knc_c();
    let slim = generators::slim_noc(scenario.params.grid).expect("128 tiles");
    let eval = fast_toolchain()
        .evaluate(&scenario.params, &slim)
        .expect("slimnoc evaluates");
    assert_eq!(eval.router_radix, 12);
    let mesh_eval = fast_toolchain()
        .evaluate(&scenario.params, &generators::mesh(scenario.params.grid))
        .expect("mesh");
    // Diameter 2 buys SlimNoC much higher saturation throughput than the
    // mesh. Its zero-load latency stays comparable (not dramatically
    // lower): the few hops ride physically long, multi-cycle wires —
    // exactly the effect the paper's floorplan-aware model exists to
    // capture (design principle ❹).
    assert!(
        eval.saturation_throughput > 1.5 * mesh_eval.saturation_throughput,
        "slim {} vs mesh {}",
        eval.saturation_throughput,
        mesh_eval.saturation_throughput
    );
    assert!(
        eval.zero_load_latency < 2.0 * mesh_eval.zero_load_latency,
        "slim {} vs mesh {}",
        eval.zero_load_latency,
        mesh_eval.zero_load_latency
    );
    // And it pays for it in cost (Fig. 6c: SlimNoC is expensive).
    assert!(eval.area_overhead > mesh_eval.area_overhead);
}

#[test]
fn mempool_validation_reproduces_table3_shape() {
    // `table3_mempool`'s own options; area, power and zero-load latency
    // do not depend on the performance mode, so the analytic one spares
    // the saturation search (whose 30.469 % / 19.82 point row CI pins by
    // comparing the binary's stdout with its golden file).
    let reference = MempoolReference::new();
    let toolchain = Toolchain {
        sim: reference.sim.clone(),
        mode: PerformanceMode::Analytic,
        ..Toolchain::default()
    };
    let eval = toolchain
        .evaluate(&reference.params, &reference.topology())
        .expect("mempool evaluates");
    // |predicted − published| ÷ published, percent, to 0.1 point (the
    // paper's own toolchain: 15 / 7 / 100). The latency over-estimate is
    // the paper's key observation (Section IV-C).
    for (metric, predicted, published, pinned) in [
        (
            "area",
            eval.total_area.value(),
            reference.correct_area_mm2,
            4.83,
        ),
        (
            "power",
            eval.total_power.value(),
            reference.correct_power_w,
            9.03,
        ),
        (
            "latency",
            eval.zero_load_latency,
            reference.correct_latency_cycles,
            113.34,
        ),
    ] {
        let error = (predicted - published).abs() / published * 100.0;
        assert!(
            (error - pinned).abs() <= 0.1,
            "{metric}: predicted {predicted} vs published {published} is {error:.2} % off, pinned {pinned}"
        );
    }
    assert!(eval.zero_load_latency > reference.correct_latency_cycles);
}

#[test]
fn sparse_hamming_family_interpolates_diameter() {
    // Mesh → paper config → flattened butterfly: the diameter must fall
    // monotonically, spanning [2, R+C−2] (Table I).
    let mesh = SparseHammingConfig::mesh(8, 8).build();
    let paper = SparseHammingConfig::new(8, 8, [4], [2, 5])
        .expect("valid")
        .build();
    let fb = SparseHammingConfig::flattened_butterfly(8, 8).build();
    let (d_mesh, d_paper, d_fb) = (
        metrics::diameter(&mesh),
        metrics::diameter(&paper),
        metrics::diameter(&fb),
    );
    assert_eq!(d_mesh, 14);
    assert_eq!(d_fb, 2);
    assert!(d_paper > d_fb && d_paper < d_mesh);
}

#[test]
fn analytic_saturation_brackets_simulated() {
    // The analytic channel-load bound should upper-bound (roughly) the
    // simulated saturation point for the mesh.
    let mesh = generators::mesh(sparse_hamming_graph::topology::Grid::new(4, 4));
    let routes = routing::default_routes(&mesh).expect("routes");
    let analytic = analytic_saturation(&mesh, &routes);
    let latencies = vec![sparse_hamming_graph::units::Cycles::one(); mesh.num_links()];
    let simulated = sparse_hamming_graph::sim::saturation_throughput(
        &mesh,
        &routes,
        &latencies,
        &SimConfig::fast_test(),
        TrafficPattern::UniformRandom,
        sparse_hamming_graph::sim::SaturationSearch {
            resolution: 0.02,
            ..Default::default()
        },
    );
    assert!(
        simulated <= analytic * 1.15,
        "simulated {simulated} should not exceed analytic bound {analytic} by much"
    );
    assert!(
        simulated >= analytic * 0.3,
        "simulated {simulated} should be within a small factor of {analytic}"
    );
}
