//! Integration tests of the customization strategy and toolchain at the
//! core-crate level.

use shg_core::{
    analytic_saturation, customize, DesignGoals, PerformanceMode, Scenario, SparseHammingConfig,
    Toolchain,
};
use shg_floorplan::{predict, ModelOptions};
use shg_sim::SimConfig;
use shg_topology::routing::{self, RouteForm};

fn fast_toolchain() -> Toolchain {
    Toolchain {
        model_options: ModelOptions {
            cell_scale: 6.0,
            ..ModelOptions::default()
        },
        sim: SimConfig::fast_test(),
        mode: PerformanceMode::Analytic,
        ..Toolchain::default()
    }
}

#[test]
fn customized_topology_beats_established_within_budget() {
    // The paper's headline, at test scale: after customization, the SHG
    // has at least the throughput of every established topology that fits
    // the budget.
    let scenario = Scenario::knc_a();
    let toolchain = fast_toolchain();
    let goals = DesignGoals {
        area_budget: scenario.area_budget,
    };
    let trace = customize(&toolchain, &scenario.params, goals).expect("customization");
    let best = trace.best();
    assert!(best.evaluation.area_overhead <= goals.area_budget);
    let grid = scenario.params.grid;
    for topology in [
        shg_topology::generators::ring(grid),
        shg_topology::generators::mesh(grid),
        shg_topology::generators::torus(grid),
        shg_topology::generators::folded_torus(grid),
        shg_topology::generators::hypercube(grid).expect("8x8"),
    ] {
        let eval = toolchain
            .evaluate(&scenario.params, &topology)
            .expect("evaluates");
        if eval.area_overhead <= goals.area_budget {
            assert!(
                best.evaluation.saturation_throughput >= eval.saturation_throughput - 1e-9,
                "{}: {} beats customized SHG {}",
                topology,
                eval.saturation_throughput,
                best.evaluation.saturation_throughput
            );
        }
    }
}

#[test]
fn denser_configs_have_higher_analytic_saturation() {
    let configs = [
        SparseHammingConfig::mesh(8, 8),
        SparseHammingConfig::new(8, 8, [4], []).expect("valid"),
        SparseHammingConfig::new(8, 8, [2, 4], [2, 4]).expect("valid"),
        SparseHammingConfig::flattened_butterfly(8, 8),
    ];
    let mut last = 0.0;
    for config in configs {
        let topology = config.build();
        let routes = routing::default_routes(&topology).expect("routes");
        let sat = analytic_saturation(&topology, &routes);
        assert!(
            sat >= last - 1e-9,
            "{config}: saturation {sat} dropped below {last}"
        );
        last = sat;
    }
}

#[test]
fn scenario_shg_configs_dominate_mesh_on_both_axes() {
    // For all four scenarios, the paper's SR/SC choice improves *both*
    // latency and throughput over the mesh at higher cost.
    for scenario in Scenario::all_knc() {
        let toolchain = fast_toolchain();
        let mesh = toolchain
            .evaluate(
                &scenario.params,
                &SparseHammingConfig::mesh(
                    scenario.params.grid.rows(),
                    scenario.params.grid.cols(),
                )
                .build(),
            )
            .expect("mesh");
        let shg = toolchain
            .evaluate(&scenario.params, &scenario.shg.build())
            .expect("shg");
        assert!(shg.saturation_throughput > mesh.saturation_throughput);
        assert!(shg.zero_load_latency < mesh.zero_load_latency);
        assert!(shg.area_overhead > mesh.area_overhead);
        assert!(
            shg.area_overhead <= scenario.area_budget + 0.05,
            "scenario {}: paper config at {:.1}% (budget {:.0}%)",
            scenario.name,
            shg.area_overhead * 100.0,
            scenario.area_budget * 100.0
        );
    }
}

#[test]
fn toolchain_modes_agree_on_ordering() {
    // Analytic and simulated throughput must rank mesh vs SHG identically.
    let scenario = Scenario::knc_a();
    let shg = scenario.shg.build();
    let mesh = SparseHammingConfig::mesh(8, 8).build();
    let analytic = fast_toolchain();
    let simulated = Toolchain {
        sim: SimConfig::fast_test(),
        mode: PerformanceMode::Simulate,
        ..fast_toolchain()
    };
    let a_mesh = analytic.evaluate(&scenario.params, &mesh).expect("mesh");
    let a_shg = analytic.evaluate(&scenario.params, &shg).expect("shg");
    let s_mesh = simulated.evaluate(&scenario.params, &mesh).expect("mesh");
    let s_shg = simulated.evaluate(&scenario.params, &shg).expect("shg");
    assert_eq!(
        a_shg.saturation_throughput > a_mesh.saturation_throughput,
        s_shg.saturation_throughput > s_mesh.saturation_throughput,
        "mode disagreement: analytic ({} vs {}), simulated ({} vs {})",
        a_shg.saturation_throughput,
        a_mesh.saturation_throughput,
        s_shg.saturation_throughput,
        s_mesh.saturation_throughput
    );
}

#[test]
fn evaluate_equals_the_dense_reference_field_for_field() {
    // `evaluate` routes on the compact table and accumulates line by
    // line; `evaluate_with` over the dense table walks every
    // materialized path. Every field must agree exactly, in both modes.
    let simulated = Toolchain {
        mode: PerformanceMode::Simulate,
        ..fast_toolchain()
    };
    for scenario in Scenario::all_knc() {
        let topology = scenario.shg.build();
        let dense =
            routing::default_routes_with(&topology, RouteForm::Dense).expect("dense routes");
        assert_eq!(dense.form(), RouteForm::Dense);
        let toolchains = [fast_toolchain(), simulated.clone()];
        // One simulated scenario covers the mode; the rest stay analytic.
        let modes = if scenario.name == "a" { 2 } else { 1 };
        for toolchain in &toolchains[..modes] {
            let prediction = predict(&scenario.params, &topology, &toolchain.model_options);
            assert_eq!(
                toolchain
                    .evaluate(&scenario.params, &topology)
                    .expect("evaluates"),
                toolchain.evaluate_with(&scenario.params, &topology, &dense, &prediction),
                "scenario {} in {:?} mode",
                scenario.name,
                toolchain.mode
            );
        }
    }
}

/// The scenario-a customization trace, pinned: `SR`/`SC` of every accepted
/// step with the `Debug` rendering of its [`shg_core::Evaluation`] (which
/// prints every `f64` in its shortest round-trip form, so a one-ulp
/// drift in any analytic number shows).
const SCENARIO_A_TRACE: &[(&[u16], &[u16], &str)] = &[
    (
        &[],
        &[],
        "Evaluation { name: \"2D Mesh\", kind: Mesh, router_radix: 4, area_overhead: 0.10682912913452225, total_area: Mm2(752.3756337338181), noc_power: Watts(25.7202027948218), total_power: Watts(240.7602027948218), zero_load_latency: 11.666666666666666, saturation_throughput: 0.4921875, mean_link_latency: 1.0, max_link_latency: 1, collisions: 0 }",
    ),
    (
        &[3],
        &[],
        "Evaluation { name: \"Sparse Hamming Graph\", kind: SparseHamming, router_radix: 6, area_overhead: 0.2304989420235884, total_area: Mm2(873.2931462981817), noc_power: Watts(26.82861332666181), total_power: Watts(241.8686133266618), zero_load_latency: 9.952380952380953, saturation_throughput: 0.4921875, mean_link_latency: 1.263157894736842, max_link_latency: 2, collisions: 0 }",
    ),
    (
        &[3],
        &[4],
        "Evaluation { name: \"Sparse Hamming Graph\", kind: SparseHamming, router_radix: 7, area_overhead: 0.3994138084086543, total_area: Mm2(1118.9068436945452), noc_power: Watts(29.34772817175272), total_power: Watts(244.3877281717527), zero_load_latency: 9.253968253968255, saturation_throughput: 1.0, mean_link_latency: 1.7826086956521738, max_link_latency: 3, collisions: 0 }",
    ),
    (
        &[3, 4],
        &[4],
        "Evaluation { name: \"Sparse Hamming Graph\", kind: SparseHamming, router_radix: 8, area_overhead: 0.3994138084086543, total_area: Mm2(1118.9068436945452), noc_power: Watts(30.67026346542545), total_power: Watts(245.71026346542544), zero_load_latency: 8.746031746031745, saturation_throughput: 1.0, mean_link_latency: 1.962962962962963, max_link_latency: 3, collisions: 15 }",
    ),
    (
        &[3, 4],
        &[2, 4],
        "Evaluation { name: \"Sparse Hamming Graph\", kind: SparseHamming, router_radix: 10, area_overhead: 0.3994138084086543, total_area: Mm2(1118.9068436945452), noc_power: Watts(32.08096777867635), total_power: Watts(247.12096777867635), zero_load_latency: 8.301587301587302, saturation_throughput: 1.0, mean_link_latency: 1.9696969696969697, max_link_latency: 3, collisions: 15 }",
    ),
    (
        &[3, 4],
        &[2, 4, 6],
        "Evaluation { name: \"Sparse Hamming Graph\", kind: SparseHamming, router_radix: 10, area_overhead: 0.3994138084086543, total_area: Mm2(1118.9068436945452), noc_power: Watts(33.70579685375998), total_power: Watts(248.74579685375997), zero_load_latency: 8.182539682539682, saturation_throughput: 1.0, mean_link_latency: 2.1285714285714286, max_link_latency: 5, collisions: 105 }",
    ),
];

#[test]
fn scenario_a_customization_trace_is_pinned() {
    let scenario = Scenario::knc_a();
    let goals = DesignGoals {
        area_budget: scenario.area_budget,
    };
    let trace = customize(&fast_toolchain(), &scenario.params, goals).expect("customization");
    let got: Vec<(Vec<u16>, Vec<u16>, String)> = trace
        .steps
        .iter()
        .map(|step| {
            (
                step.config.sr().iter().copied().collect(),
                step.config.sc().iter().copied().collect(),
                format!("{:?}", step.evaluation),
            )
        })
        .collect();
    let pinned: Vec<(Vec<u16>, Vec<u16>, String)> = SCENARIO_A_TRACE
        .iter()
        .map(|&(sr, sc, eval)| (sr.to_vec(), sc.to_vec(), eval.to_owned()))
        .collect();
    assert_eq!(got, pinned, "got {got:#?}");
}

/// The same trace as a golden file captured before candidates were
/// screened: one line per accepted step, its evaluation as JSON (every
/// `f64` in shortest round-trip form, so the comparison is bit for bit).
#[test]
fn scenario_a_customization_trace_matches_the_golden_file() {
    let scenario = Scenario::knc_a();
    let goals = DesignGoals {
        area_budget: scenario.area_budget,
    };
    let trace = customize(&fast_toolchain(), &scenario.params, goals).expect("customization");
    let list = |set: &std::collections::BTreeSet<u16>| {
        let items: Vec<String> = set.iter().map(u16::to_string).collect();
        items.join(",")
    };
    let got: String = trace
        .steps
        .iter()
        .enumerate()
        .map(|(i, step)| {
            format!(
                "step {i} sr={} sc={} eval={}\n",
                list(step.config.sr()),
                list(step.config.sc()),
                serde_json::to_string(&step.evaluation).expect("evaluation serializes")
            )
        })
        .collect();
    assert_eq!(got, include_str!("golden/customize_scenario_a.txt"));
}
