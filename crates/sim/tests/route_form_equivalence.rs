//! Dense vs next-hop simulation byte-identity.
//!
//! The compact next-hop routing table must be invisible to the
//! simulator: every sweep over a case annotated with next-hop routes
//! serializes **byte-identically** to the same sweep over the dense
//! test oracle, across topologies and fault epochs of both in-flight
//! policies, with the oracle run on a fresh network per cell and the
//! next-hop sweep through the engine's grouped cells. This is what lets
//! every consumer route on next-hop tables without perturbing a single
//! published number.

use shg_sim::{CellId, Experiment, FaultPlan, SimConfig, SweepResult, SweepSpec, TrafficPattern};
use shg_topology::db::TopologyDb;
use shg_topology::routing::{default_routes, default_routes_with, RouteForm, RoutingAlgorithm};
use shg_topology::{generators, Grid, Topology};
use shg_units::Cycles;

fn spec(config: SimConfig) -> SweepSpec {
    SweepSpec::new(config)
        .rates([0.02, 0.08])
        .patterns([TrafficPattern::UniformRandom, TrafficPattern::Transpose])
}

/// The bytes of one sweep over `topology` with routes in `form`: every
/// cell on its own fresh network when `fresh`, else through
/// [`Experiment::run_parallel`].
fn sweep_json(topology: &Topology, form: RouteForm, config: SimConfig, fresh: bool) -> String {
    let routes = default_routes_with(topology, form).expect("routes build");
    assert_eq!(routes.form(), form);
    let latencies = vec![Cycles::one(); topology.num_links()];
    let experiment = Experiment::new(spec(config)).with_case(shg_sim::SweepCase::annotated(
        "case", topology, routes, latencies,
    ));
    if fresh {
        let cells: Vec<CellId> = experiment.plan().cells().collect();
        SweepResult {
            points: experiment.run_cells_fresh(&cells),
        }
        .to_json()
    } else {
        experiment.run_parallel().to_json()
    }
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
        let reference = sweep_json(topology, RouteForm::Dense, SimConfig::fast_test(), true);
        let compact = sweep_json(topology, RouteForm::NextHop, SimConfig::fast_test(), false);
        assert_eq!(compact, reference, "{name} diverged from dense");
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
        let dense = sweep_json(&mesh, RouteForm::Dense, config.clone(), true);
        let compact = sweep_json(&mesh, RouteForm::NextHop, config, false);
        assert_eq!(compact, dense, "'{plan}' diverged across route forms");
    }
}

#[test]
fn default_routes_form_is_compact_for_every_consumer() {
    // `default_routes` is the one production table: next-hop on a
    // generator, hierarchical on a stitched multi-die part. Only a
    // request by name builds the dense oracle.
    let mesh = generators::mesh(Grid::new(4, 4));
    assert_eq!(
        default_routes(&mesh).expect("routes").form(),
        RouteForm::NextHop
    );
    assert_eq!(
        default_routes_with(&mesh, RouteForm::Dense)
            .expect("routes")
            .form(),
        RouteForm::Dense
    );
    let two_die = TopologyDb::parse("die/l/4x3/mesh;die/r/4x3/shg:sc=2;boundary/every=1/latency=3")
        .expect("parses")
        .instantiate()
        .expect("instantiates");
    let routes = default_routes(&two_die).expect("routes");
    assert_eq!(routes.form(), RouteForm::Hierarchical);
    assert_eq!(routes.algorithm(), RoutingAlgorithm::Hierarchical);
}
