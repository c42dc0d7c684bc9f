//! The six workloads' inputs, and the set-up chain from a workload's
//! parameters to an executable plan — through the same public calls the
//! binaries make (timed whole for `setup_s`), and again with every step
//! called on its own inside a span for the traced pass.

use shg_bench::named_topologies;
use shg_bench::sweep::{annotated_experiment, request_setup, RequestSetup, TopologyCache};
use shg_core::{DesignGoals, MempoolReference, PerformanceMode, Scenario, Toolchain};
use shg_floorplan::{
    ArchParams, DetailedRoutes, GlobalRouting, ModelOptions, NocEstimates, Prediction, Spacings,
    TilePlacement, UnitGrid,
};
use shg_sim::{Experiment, SweepCase};
use shg_topology::routing::{self, RouteForm, Routes};
use shg_topology::{Grid, Topology};
use shg_units::Cycles;

use crate::trace::Tracer;

/// A quarter-scale copy of the README's two-die part: 2 × (32×40) tiles.
pub const BIGTOPO_DB: &str = "die/compute/32x40/shg:sr=4:sc=2,5;die/hbm/32x40/mesh;\
region/hbm/r0..32/c0..40/memory/sc=2;boundary/every=4/latency=5";

/// `bigtopo_2560` runs the first of 37 strided shards: two cells.
pub const BIGTOPO_SHARD: &str = "1/37";

/// The benchmark's workloads; names are stable identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig6aFast,
    SweepCold,
    CoordFleet,
    Customize20x20,
    Table3Validate,
    Bigtopo2560,
}

impl Workload {
    pub const ALL: [Self; 6] = [
        Self::Fig6aFast,
        Self::SweepCold,
        Self::CoordFleet,
        Self::Customize20x20,
        Self::Table3Validate,
        Self::Bigtopo2560,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::Fig6aFast => "fig6a_fast",
            Self::SweepCold => "sweep_cold",
            Self::CoordFleet => "coord_fleet",
            Self::Customize20x20 => "customize_20x20",
            Self::Table3Validate => "table3_validate",
            Self::Bigtopo2560 => "bigtopo_2560",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The plan-shaping flags of a sweep workload, as the binary gets
    /// them on its command line (`--key value`, `--fast`).
    pub fn sweep_flags(self) -> Option<Vec<&'static str>> {
        match self {
            Self::Fig6aFast => Some(vec!["--scenario", "a", "--fast"]),
            Self::SweepCold | Self::CoordFleet => {
                Some(vec!["--scenario", "a", "--fast", "--rate-points", "2"])
            }
            Self::Bigtopo2560 => Some(vec!["--fast", "--rate-points", "10", "--db", BIGTOPO_DB]),
            Self::Customize20x20 | Self::Table3Validate => None,
        }
    }
}

/// The request params `request_params_from_args` would build from
/// `flags` — the same `(key, value)` list, in its order.
pub fn request_params(flags: &[&str], add_rates: Option<&str>) -> Vec<(String, String)> {
    let value_of = |key: &str| {
        flags
            .iter()
            .position(|f| f.strip_prefix("--") == Some(key))
            .map(|i| flags[i + 1].to_owned())
    };
    let mut params = Vec::new();
    for key in ["scenario", "rate-points"] {
        if let Some(value) = value_of(key) {
            params.push((key.to_owned(), value));
        }
    }
    if let Some(rates) = add_rates {
        params.push(("add-rates".to_owned(), rates.to_owned()));
    }
    if let Some(value) = value_of("db") {
        params.push(("db".to_owned(), value));
    }
    if flags.contains(&"--fast") {
        params.push(("fast".to_owned(), "1".to_owned()));
    }
    params
}

/// A sweep workload's interpreted request and its topology set.
pub struct SweepInputs {
    pub setup: RequestSetup,
    pub topologies: Vec<(String, Topology)>,
}

/// `request_setup` → topology build, as `sweep_worker`'s main does.
pub fn sweep_inputs(params: &[(String, String)]) -> SweepInputs {
    let mut setup = request_setup(params).expect("workload params are valid");
    let topologies = match setup.db_topology.take() {
        Some(pair) => vec![pair],
        None => named_topologies(&setup.scenario),
    };
    SweepInputs { setup, topologies }
}

/// `annotated_experiment` over a fresh topology cache: routes plus the
/// five-step `predict` per case.
pub fn annotate(inputs: &SweepInputs) -> Experiment<'_> {
    annotated_experiment(
        &inputs.setup.scenario.params,
        &inputs.setup.model_options,
        &mut TopologyCache::new(),
        &inputs.topologies,
        inputs.setup.spec.clone(),
        inputs.setup.route_form,
    )
    .expect("workload topologies route")
}

/// `customize_20x20`: scenario (a)'s architecture on a 20×20 grid, the
/// analytic toolchain `fig6 --customize` ranks candidates with, and the
/// paper's 40 % area budget. The endpoint area stays at the paper's
/// 35 MGE: between 30 and 40 MGE the greedy trace is 3 to 7 steps long,
/// so a seeded area would make the run time a property of the seed.
pub fn customize_inputs() -> (Toolchain, ArchParams, DesignGoals) {
    let mut params = Scenario::knc_a().params;
    params.grid = Grid::new(20, 20);
    let toolchain = Toolchain {
        model_options: ModelOptions {
            cell_scale: 6.0,
            ..ModelOptions::default()
        },
        mode: PerformanceMode::Analytic,
        ..Toolchain::default()
    };
    (toolchain, params, DesignGoals { area_budget: 0.4 })
}

/// `table3_validate`: the MemPool reference and the toolchain
/// `table3_mempool` evaluates it with.
pub fn table3_inputs() -> (Toolchain, MempoolReference) {
    let reference = MempoolReference::new();
    let toolchain = Toolchain {
        sim: reference.sim.clone(),
        ..Toolchain::default()
    };
    (toolchain, reference)
}

/// One pass of `workload`'s set-up chain, tracing off: from its
/// parameters to an executable plan. Returns a value that depends on
/// every step, for `black_box`.
pub fn setup_once(workload: Workload) -> u64 {
    let first_prediction = |toolchain: &Toolchain, params: &ArchParams, topology: &Topology| {
        let routes = routing::default_routes(topology).expect("routes");
        let prediction = shg_floorplan::predict(params, topology, &toolchain.model_options);
        routes.table_bytes() as u64 + prediction.estimates.collisions
    };
    match workload {
        Workload::Customize20x20 => {
            let (toolchain, params, _) = customize_inputs();
            let mesh = shg_core::SparseHammingConfig::mesh(20, 20).build();
            first_prediction(&toolchain, &params, &mesh)
        }
        Workload::Table3Validate => {
            let (toolchain, reference) = table3_inputs();
            first_prediction(&toolchain, &reference.params, &reference.topology())
        }
        sweep => {
            let flags = sweep.sweep_flags().expect("sweep workload");
            let inputs = sweep_inputs(&request_params(&flags, None));
            annotate(&inputs).plan().fingerprint()
        }
    }
}

/// What the simulator needs of one case: the traced replay builds its
/// `Network`s from these, exactly as the sweep engine does from its own.
pub struct Case<'a> {
    pub topology: &'a Topology,
    pub routes: Routes,
    pub link_latencies: Vec<Cycles>,
}

/// `routing::default_routes_with` inside a span, with the table's size.
pub fn traced_routes(tracer: &mut Tracer, topology: &Topology, form: RouteForm) -> Routes {
    tracer.span("topology.routing.build", |t| {
        let routes = routing::default_routes_with(topology, form).expect("routes");
        t.count("table_bytes", routes.table_bytes() as f64);
        routes
    })
}

/// `shg_floorplan::predict`, each of its steps called on its own inside
/// a span (the boundary-latency charge it adds for die-crossing links
/// included, so the result equals `predict`'s).
pub fn traced_predict(
    tracer: &mut Tracer,
    params: &ArchParams,
    topology: &Topology,
    options: &ModelOptions,
) -> Prediction {
    tracer.span("floorplan.predict", |t| {
        let placement = t.span("floorplan.placement", |_| {
            TilePlacement::compute(params, topology)
        });
        let global = t.span("floorplan.global_route", |_| {
            GlobalRouting::route(topology, options.port_placement)
        });
        let spacings = t.span("floorplan.spacing", |_| {
            Spacings::compute(params, &global.loads)
        });
        let unit_grid = t.span("floorplan.unitcell", |_| {
            UnitGrid::build(params, options, &placement, &spacings)
        });
        let detailed = t.span("floorplan.detailed_route", |_| {
            DetailedRoutes::route(topology, &unit_grid, &global, options)
        });
        let mut estimates = t.span("floorplan.estimate", |_| {
            NocEstimates::compute(params, &unit_grid, &detailed)
        });
        let boundary = topology.boundary_latency();
        if boundary > 0 {
            for (i, latency) in estimates.link_latencies.iter_mut().enumerate() {
                if topology.link_crosses_die(shg_topology::LinkId::new(i as u32)) {
                    *latency += Cycles::new(u64::from(boundary));
                }
            }
        }
        t.count("unit_cells", unit_grid.num_cells() as f64);
        t.count("collisions", estimates.collisions as f64);
        Prediction {
            placement,
            global,
            spacings,
            unit_grid,
            detailed,
            estimates,
        }
    })
}

/// The sweep set-up chain with every layer in its own span. Returns the
/// experiment (per-cell backend, no cache) and the cases it was built
/// from; the caller checks its fingerprint against [`annotate`]'s.
pub fn traced_sweep_setup<'a>(
    tracer: &mut Tracer,
    params: &[(String, String)],
    inputs: &'a SweepInputs,
) -> (Experiment<'a>, Vec<Case<'a>>) {
    // `request_setup` instantiates a `db` topology itself; the topology
    // layer is timed by building the same set again on its own.
    tracer.span("bench.sweep.request_setup", |_| {
        request_setup(params).expect("workload params are valid")
    });
    tracer.span("topology.build", |t| {
        let rebuilt = sweep_inputs(params).topologies;
        t.count(
            "tiles",
            rebuilt.iter().map(|(_, x)| x.num_tiles() as f64).sum(),
        );
        t.count(
            "links",
            rebuilt.iter().map(|(_, x)| x.num_links() as f64).sum(),
        );
    });
    let setup = &inputs.setup;
    tracer.span("bench.sweep.annotate", |t| {
        let mut experiment = Experiment::new(setup.spec.clone());
        let mut cases = Vec::new();
        for (name, topology) in &inputs.topologies {
            let routes = traced_routes(t, topology, setup.route_form);
            let prediction =
                traced_predict(t, &setup.scenario.params, topology, &setup.model_options);
            let link_latencies = prediction.estimates.link_latencies;
            experiment.push_case(SweepCase::annotated(
                name.clone(),
                topology,
                routes.clone(),
                link_latencies.clone(),
            ));
            cases.push(Case {
                topology,
                routes,
                link_latencies,
            });
        }
        (experiment, cases)
    })
}
