//! Dense vs next-hop simulation byte-identity.
//!
//! The compact next-hop routing table must be invisible to the
//! simulator: every sweep over a case annotated with next-hop routes
//! serializes **byte-identically** to the same sweep over dense routes,
//! across topologies, fault epochs of both in-flight policies and every
//! execution backend. This is what lets `--routes next-hop` default on
//! without perturbing a single published number.

use shg_sim::{ExecBackend, Experiment, FaultPlan, SimConfig, SweepSpec, TrafficPattern};
use shg_topology::routing::{default_routes, default_routes_with, RouteForm};
use shg_topology::{generators, Grid, Topology};
use shg_units::Cycles;

fn spec(config: SimConfig) -> SweepSpec {
    SweepSpec::new(config)
        .rates([0.02, 0.08])
        .patterns([TrafficPattern::UniformRandom, TrafficPattern::Transpose])
}

/// Runs one sweep over `topology` with routes in `form` on `backend`.
fn sweep_json(
    topology: &Topology,
    form: RouteForm,
    config: SimConfig,
    backend: ExecBackend,
) -> String {
    let routes = default_routes_with(topology, form).expect("routes build");
    let latencies = vec![Cycles::one(); topology.num_links()];
    let experiment = Experiment::new(spec(config))
        .with_backend(backend)
        .with_case(shg_sim::SweepCase::annotated(
            "case", topology, routes, latencies,
        ));
    experiment.run_parallel().to_json()
}

#[test]
fn next_hop_sweeps_serialize_identically_to_dense() {
    let topologies: Vec<(&str, Topology)> = {
        let sr = [4].into_iter().collect();
        let sc = [2, 5].into_iter().collect();
        vec![
            ("mesh", generators::mesh(Grid::new(4, 4))),
            ("torus", generators::torus(Grid::new(4, 4))),
            (
                "shg",
                generators::row_column_skip(Grid::new(8, 8), &sr, &sc).expect("scenario a"),
            ),
            ("ring", generators::ring(Grid::new(4, 4))),
        ]
    };
    for (name, topology) in &topologies {
        let reference = sweep_json(
            topology,
            RouteForm::Dense,
            SimConfig::fast_test(),
            ExecBackend::PerCell,
        );
        for backend in [
            ExecBackend::PerCell,
            ExecBackend::Reuse,
            ExecBackend::Batched,
            ExecBackend::Auto,
        ] {
            let compact = sweep_json(
                topology,
                RouteForm::NextHop,
                SimConfig::fast_test(),
                backend,
            );
            assert_eq!(
                compact, reference,
                "{name} on {backend} diverged from dense"
            );
        }
    }
}

/// A link and a router kill under each in-flight policy: heads routed
/// on the base table before the epoch, degraded tables after it.
#[test]
fn next_hop_is_byte_identical_across_policies() {
    let mesh = generators::mesh(Grid::new(4, 4));
    for plan in [
        "700:link:0-1,900:router:5",
        "drain,700:link:0-1,900:router:5",
    ] {
        let config = SimConfig {
            faults: FaultPlan::parse(plan).expect("plan parses"),
            ..SimConfig::fast_test()
        };
        let dense = sweep_json(
            &mesh,
            RouteForm::Dense,
            config.clone(),
            ExecBackend::PerCell,
        );
        let compact = sweep_json(&mesh, RouteForm::NextHop, config, ExecBackend::PerCell);
        assert_eq!(compact, dense, "'{plan}' diverged across route forms");
    }
}

#[test]
fn default_routes_form_is_unchanged_for_dense_consumers() {
    // `default_routes` stays the dense reference; sweep cases opt into
    // the compact form explicitly (or via `unit_latency`'s default).
    let mesh = generators::mesh(Grid::new(4, 4));
    assert_eq!(
        default_routes(&mesh).expect("routes").form(),
        RouteForm::Dense
    );
}
