//! The prediction toolchain — the paper's contribution #3 (Fig. 3).
//!
//! Inputs: architectural parameters, a topology, a routing algorithm and
//! a traffic pattern. The floorplan model produces area and power
//! estimates plus per-link latencies; the annotated topology is fed to
//! the cycle-accurate simulator, which produces zero-load latency and
//! saturation throughput.
//!
//! [`Toolchain::evaluate`] runs in two stages. [`Toolchain::screen`]
//! builds the routes and their channel loads and runs floorplan steps
//! 1–4: that fixes the area overhead and, in
//! [`PerformanceMode::Analytic`], the saturation throughput.
//! [`Toolchain::finish`] runs floorplan step 5 and derives the zero-load
//! latency (and, in [`PerformanceMode::Simulate`], the simulated
//! throughput) from the screen's routes, loads and unit grid.

use serde::{Deserialize, Serialize};

use shg_floorplan::{predict, ArchParams, ModelOptions, NocEstimates, Prediction, Screen};
use shg_sim::{
    saturation_search, zero_load_latency_from_loads, Experiment, SaturationSearch, SimConfig,
    SweepCase, SweepResult, SweepSpec, TrafficPattern,
};
use shg_topology::routing::{self, BuildRoutesError, RouteForm, Routes};
use shg_topology::{Topology, TopologyKind};
use shg_units::{Cycles, Mm2, Watts};

/// How the toolchain obtains the saturation throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PerformanceMode {
    /// Cycle-accurate simulation with binary search (the paper's
    /// BookSim-based flow). Accurate but needs seconds per topology.
    Simulate,
    /// Channel-load bound: `λ_sat = (N−1) / max_c |{(s,d) : c ∈ path}|`.
    /// Instant; used inside the customization loop where thousands of
    /// candidates are ranked.
    Analytic,
}

/// Toolchain configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Toolchain {
    /// Floorplan model options.
    pub model_options: ModelOptions,
    /// Simulator configuration.
    pub sim: SimConfig,
    /// Traffic pattern (the paper uses uniform random).
    pub pattern: TrafficPattern,
    /// Saturation search options.
    pub search: SaturationSearch,
    /// Throughput estimation mode.
    pub mode: PerformanceMode,
}

impl Default for Toolchain {
    fn default() -> Self {
        Self {
            model_options: ModelOptions::default(),
            sim: SimConfig::default(),
            pattern: TrafficPattern::UniformRandom,
            search: SaturationSearch::default(),
            mode: PerformanceMode::Simulate,
        }
    }
}

/// The combined cost/performance estimate of one topology on one
/// architecture — one point in Fig. 6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Topology display name.
    pub name: String,
    /// Topology kind.
    pub kind: TopologyKind,
    /// Router radix (network ports).
    pub router_radix: usize,
    /// NoC area overhead, fraction of total chip area.
    pub area_overhead: f64,
    /// Total chip area.
    pub total_area: Mm2,
    /// NoC power consumption.
    pub noc_power: Watts,
    /// Total chip power (logic + wires).
    pub total_power: Watts,
    /// Zero-load latency in cycles.
    pub zero_load_latency: f64,
    /// Saturation throughput, fraction of injection capacity.
    pub saturation_throughput: f64,
    /// Mean floorplan link latency in cycles.
    pub mean_link_latency: f64,
    /// Maximum floorplan link latency in cycles.
    pub max_link_latency: u64,
    /// Detailed-routing collisions.
    pub collisions: u64,
}

/// One topology after [`Toolchain::screen`]: its routes, their channel
/// loads and floorplan steps 1–4. That fixes the first two keys a
/// customization step ranks candidates by — the area overhead and, in
/// [`PerformanceMode::Analytic`], the saturation throughput — without the
/// detailed link routing of step 5. [`Toolchain::finish`] completes it.
#[derive(Debug, Clone)]
pub struct Screening {
    routes: Routes,
    loads: Vec<u32>,
    floorplan: Screen,
    saturation_throughput: Option<f64>,
}

impl Screening {
    /// NoC area overhead, bit-equal to the finished
    /// [`Evaluation::area_overhead`].
    #[must_use]
    pub fn area_overhead(&self) -> f64 {
        self.floorplan.area.area_overhead
    }

    /// Saturation throughput, bit-equal to the finished
    /// [`Evaluation::saturation_throughput`], where the screen fixes it
    /// ([`PerformanceMode::Analytic`]); `None` in
    /// [`PerformanceMode::Simulate`], whose search needs step 5's link
    /// latencies.
    #[must_use]
    pub fn saturation_throughput(&self) -> Option<f64> {
        self.saturation_throughput
    }
}

/// Error returned by [`Toolchain::evaluate`].
#[derive(Debug)]
pub enum EvaluateError {
    /// No deadlock-free minimal routing could be built.
    Routing(BuildRoutesError),
}

impl std::fmt::Display for EvaluateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Routing(e) => write!(f, "routing failed: {e}"),
        }
    }
}

impl std::error::Error for EvaluateError {}

impl From<BuildRoutesError> for EvaluateError {
    fn from(e: BuildRoutesError) -> Self {
        Self::Routing(e)
    }
}

impl Toolchain {
    /// A toolchain preset for fast exploration: analytic throughput and a
    /// coarser detailed-routing grid.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            model_options: ModelOptions {
                cell_scale: 4.0,
                ..ModelOptions::default()
            },
            mode: PerformanceMode::Analytic,
            ..Self::default()
        }
    }

    /// Runs the full prediction pipeline on one topology:
    /// [`Toolchain::screen`], then [`Toolchain::finish`].
    ///
    /// Routes are built in the compact form the sweep engine uses, never
    /// as an all-pairs path table. In [`PerformanceMode::Analytic`] the
    /// performance half is then one accumulation pass over that table
    /// ([`Routes::channel_loads`]): for the row-column families (mesh,
    /// sparse Hamming, flattened butterfly, Ruche) one all-pairs walk of
    /// each distinct row and column line bank, replayed onto every line
    /// that shares it, and one fused pair-by-pair pass over the `N²`
    /// paths of every other family; the five-step floorplan model is the
    /// rest of a candidate's cost, most of it step 5.
    ///
    /// # Errors
    ///
    /// Returns [`EvaluateError::Routing`] if no deadlock-free hop-minimal
    /// routing applies to the topology.
    pub fn evaluate(
        &self,
        params: &ArchParams,
        topology: &Topology,
    ) -> Result<Evaluation, EvaluateError> {
        Ok(self.finish(params, topology, &self.screen(params, topology)?))
    }

    /// The first stage of [`Toolchain::evaluate`]: routes, channel loads
    /// (and from them the analytic throughput) and floorplan steps 1–4
    /// (and from them the area overhead).
    ///
    /// # Errors
    ///
    /// Returns [`EvaluateError::Routing`] if no deadlock-free hop-minimal
    /// routing applies to the topology.
    pub fn screen(
        &self,
        params: &ArchParams,
        topology: &Topology,
    ) -> Result<Screening, EvaluateError> {
        let routes = routing::default_routes_with(topology, RouteForm::NextHop)?;
        let loads = routes.channel_loads(topology);
        let floorplan = Screen::compute(params, topology, &self.model_options);
        Ok(Screening {
            saturation_throughput: self.screened_throughput(topology, &loads),
            routes,
            loads,
            floorplan,
        })
    }

    /// The second stage of [`Toolchain::evaluate`]: floorplan step 5 over
    /// the screen's unit grid, then the zero-load latency from the
    /// screen's channel loads (and, in [`PerformanceMode::Simulate`], the
    /// saturation search over its routes). `screening` must come from
    /// [`Toolchain::screen`] on the same toolchain, `params` and
    /// `topology`.
    ///
    /// # Panics
    ///
    /// Panics where step 5 does ("no route between cells" on an
    /// inconsistent floorplan).
    #[must_use]
    pub fn finish(
        &self,
        params: &ArchParams,
        topology: &Topology,
        screening: &Screening,
    ) -> Evaluation {
        let (_, estimates) = screening
            .floorplan
            .finish(params, topology, &self.model_options);
        self.complete(
            topology,
            &screening.routes,
            &screening.loads,
            &estimates,
            screening.saturation_throughput,
        )
    }

    /// Like [`Toolchain::evaluate`] but reuses precomputed routes and
    /// floorplan prediction (exposed per C-INTERMEDIATE for sweeps that
    /// vary only one stage).
    #[must_use]
    pub fn evaluate_with(
        &self,
        _params: &ArchParams,
        topology: &Topology,
        routes: &Routes,
        prediction: &Prediction,
    ) -> Evaluation {
        let loads = routes.channel_loads(topology);
        self.complete(
            topology,
            routes,
            &loads,
            &prediction.estimates,
            self.screened_throughput(topology, &loads),
        )
    }

    /// The saturation throughput the channel loads alone fix: the
    /// channel-load bound in [`PerformanceMode::Analytic`], nothing in
    /// [`PerformanceMode::Simulate`].
    fn screened_throughput(&self, topology: &Topology, loads: &[u32]) -> Option<f64> {
        match self.mode {
            PerformanceMode::Analytic => Some(channel_load_bound(topology, loads)),
            PerformanceMode::Simulate => None,
        }
    }

    /// The evaluation of `topology` from its routes, their channel loads
    /// and the finished floorplan estimates; `screened_throughput` is
    /// [`Toolchain::screened_throughput`] of the same loads.
    fn complete(
        &self,
        topology: &Topology,
        routes: &Routes,
        loads: &[u32],
        estimates: &NocEstimates,
        screened_throughput: Option<f64>,
    ) -> Evaluation {
        let latencies = &estimates.link_latencies;
        let zero_load_latency = zero_load_latency_from_loads(topology, loads, latencies, &self.sim);
        let saturation_throughput = screened_throughput.unwrap_or_else(|| {
            saturation_search(
                topology,
                routes,
                latencies,
                &self.sim,
                self.pattern,
                self.search,
                zero_load_latency,
            )
        });
        Evaluation {
            name: topology.kind().to_string(),
            kind: topology.kind(),
            router_radix: topology.max_degree(),
            area_overhead: estimates.area_overhead,
            total_area: estimates.total_area,
            noc_power: estimates.noc_power,
            total_power: estimates.total_power,
            zero_load_latency,
            saturation_throughput,
            mean_link_latency: estimates.mean_link_latency(),
            max_link_latency: estimates.max_link_latency().value(),
            collisions: estimates.collisions,
        }
    }
}

/// Per-pattern performance extracted from a sweep — the wide-traffic
/// extension of [`shg_sim::zero_load_latency`] and
/// [`shg_sim::saturation_throughput`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PatternPerformance {
    /// The traffic pattern.
    pub pattern: TrafficPattern,
    /// Mean packet latency at the lowest swept rate, in cycles.
    pub low_load_latency: f64,
    /// Highest swept rate the network sustains (fraction of injection
    /// capacity), or 0 if even the lowest swept rate saturates.
    pub saturation_throughput: f64,
}

impl Toolchain {
    /// Evaluates one topology across all seven traffic patterns on the
    /// shared sweep engine: routes and the floorplan prediction are
    /// computed once, then the (pattern × rate) grid fans out in
    /// parallel. Returns per-pattern performance plus the raw sweep.
    ///
    /// `rate_points` linear rates in `(0, 1]` bound the
    /// saturation-estimate resolution at `1/rate_points`.
    ///
    /// # Errors
    ///
    /// Returns [`EvaluateError::Routing`] if no deadlock-free hop-minimal
    /// routing applies to the topology.
    pub fn evaluate_patterns(
        &self,
        params: &ArchParams,
        topology: &Topology,
        rate_points: usize,
    ) -> Result<(Vec<PatternPerformance>, SweepResult), EvaluateError> {
        let experiment = self.pattern_experiment(params, topology, rate_points)?;
        let result = experiment.run_parallel();
        let per_pattern = self.pattern_performance(&result, &topology.kind().to_string());
        Ok((per_pattern, result))
    }

    /// The experiment behind [`Toolchain::evaluate_patterns`], not yet
    /// run: one floorplan-annotated case for `topology` over the
    /// standard wide grid (all seven patterns, `rate_points` linear
    /// rates, the default hot-spot low end). Exposed so harnesses can
    /// run it through a shard- or journal-aware executor instead of a
    /// plain [`Experiment::run_parallel`].
    ///
    /// # Errors
    ///
    /// Returns [`EvaluateError::Routing`] if no deadlock-free hop-minimal
    /// routing applies to the topology.
    pub fn pattern_experiment<'a>(
        &self,
        params: &ArchParams,
        topology: &'a Topology,
        rate_points: usize,
    ) -> Result<Experiment<'a>, EvaluateError> {
        let routes = routing::default_routes_with(topology, RouteForm::NextHop)?;
        let prediction = predict(params, topology, &self.model_options);
        let spec = SweepSpec::new(self.sim.clone())
            .linear_rates(rate_points.max(1), 1.0)
            .all_patterns()
            .default_hotspot_low_rates();
        Ok(Experiment::new(spec).with_case(SweepCase::annotated(
            topology.kind().to_string(),
            topology,
            routes,
            prediction.estimates.link_latencies,
        )))
    }

    /// Extracts per-pattern performance for case `name` from a sweep
    /// result (the summarization half of
    /// [`Toolchain::evaluate_patterns`]).
    #[must_use]
    pub fn pattern_performance(&self, result: &SweepResult, name: &str) -> Vec<PatternPerformance> {
        shg_sim::sweep::ALL_PATTERNS
            .iter()
            .map(|&pattern| {
                let low_load_latency = result
                    .points_for(name)
                    .filter(|p| p.pattern == pattern)
                    .map(|p| (p.rate, p.outcome.avg_packet_latency))
                    .fold(None::<(f64, f64)>, |best, (rate, lat)| match best {
                        Some((r, _)) if r <= rate => best,
                        _ => Some((rate, lat)),
                    })
                    .map_or(0.0, |(_, lat)| lat);
                let saturation_throughput = result
                    .saturation_estimate(name, pattern, self.search.slack)
                    .unwrap_or(0.0);
                PatternPerformance {
                    pattern,
                    low_load_latency,
                    saturation_throughput,
                }
            })
            .collect()
    }
}

/// Channel-load saturation bound under uniform traffic with deterministic
/// routing: each of the `N(N−1)` flows carries `λ/(N−1)`; the bottleneck
/// channel saturates first. Ejection bandwidth caps the result at 1.
#[must_use]
pub fn analytic_saturation(topology: &Topology, routes: &Routes) -> f64 {
    channel_load_bound(topology, &routes.channel_loads(topology))
}

/// [`analytic_saturation`] from precomputed [`Routes::channel_loads`].
fn channel_load_bound(topology: &Topology, loads: &[u32]) -> f64 {
    let n = topology.num_tiles();
    let max_load = loads.iter().copied().max().unwrap_or(0);
    if n < 2 || max_load == 0 {
        return 1.0;
    }
    ((n as f64 - 1.0) / f64::from(max_load)).min(1.0)
}

/// Annotated topology: the intermediate artifact of Fig. 3 (topology plus
/// link latency estimates) for callers that want to run their own
/// simulations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnotatedTopology {
    /// The topology.
    pub topology: Topology,
    /// Per-link latency estimates from the floorplan model.
    pub link_latencies: Vec<Cycles>,
}

impl AnnotatedTopology {
    /// Runs the floorplan model and attaches the latency estimates.
    #[must_use]
    pub fn annotate(params: &ArchParams, topology: Topology, options: &ModelOptions) -> Self {
        let prediction = predict(params, &topology, options);
        Self {
            link_latencies: prediction.estimates.link_latencies,
            topology,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{MempoolReference, Scenario};
    use shg_sim::Network;
    use shg_topology::generators;

    fn fast_toolchain() -> Toolchain {
        Toolchain {
            sim: SimConfig::fast_test(),
            ..Toolchain::fast()
        }
    }

    #[test]
    fn evaluate_mesh_scenario_a() {
        let scenario = Scenario::knc_a();
        let mesh = generators::mesh(scenario.params.grid);
        let eval = fast_toolchain()
            .evaluate(&scenario.params, &mesh)
            .expect("mesh evaluates");
        assert!(eval.area_overhead > 0.0 && eval.area_overhead < 0.2);
        assert!(eval.zero_load_latency > 5.0);
        assert!(eval.saturation_throughput > 0.0 && eval.saturation_throughput <= 1.0);
    }

    #[test]
    fn analytic_saturation_ordering() {
        let grid = shg_topology::Grid::new(8, 8);
        let sat = |t: &Topology| {
            let routes = routing::default_routes(t).expect("routes");
            analytic_saturation(t, &routes)
        };
        let ring = sat(&generators::ring(grid));
        let mesh = sat(&generators::mesh(grid));
        let fb = sat(&generators::flattened_butterfly(grid));
        assert!(fb > mesh, "fb {fb} > mesh {mesh}");
        assert!(mesh > ring, "mesh {mesh} > ring {ring}");
    }

    #[test]
    fn shg_beats_mesh_in_performance_costs_more() {
        let scenario = Scenario::knc_a();
        let toolchain = fast_toolchain();
        let mesh = generators::mesh(scenario.params.grid);
        let shg = scenario.shg.build();
        let mesh_eval = toolchain.evaluate(&scenario.params, &mesh).expect("mesh");
        let shg_eval = toolchain.evaluate(&scenario.params, &shg).expect("shg");
        assert!(shg_eval.zero_load_latency < mesh_eval.zero_load_latency);
        assert!(shg_eval.saturation_throughput > mesh_eval.saturation_throughput);
        assert!(shg_eval.area_overhead > mesh_eval.area_overhead);
    }

    #[test]
    fn annotated_topology_latencies_match_links() {
        let scenario = Scenario::knc_a();
        let shg = scenario.shg.build();
        let annotated = AnnotatedTopology::annotate(
            &scenario.params,
            shg,
            &ModelOptions {
                cell_scale: 4.0,
                ..ModelOptions::default()
            },
        );
        assert_eq!(
            annotated.link_latencies.len(),
            annotated.topology.num_links()
        );
    }

    /// Table III's saturation search over completed runs — each probe a
    /// full `Network::run` judged on its outcome, bisected as the
    /// real-valued search of `[0, 1]` that probes 1.0 first, then
    /// midpoints until the interval is no wider than the resolution —
    /// against `saturation_search`, whose probes stop the cycle their
    /// verdict is decided.
    #[test]
    #[ignore = "publication-size windows: minutes in a debug build, run it with --release"]
    fn mempool_search_equals_the_search_over_completed_runs() {
        let reference = MempoolReference::new();
        let toolchain = Toolchain {
            sim: reference.sim.clone(),
            ..Toolchain::default()
        };
        let (params, topology) = (&reference.params, reference.topology());
        let screening = toolchain.screen(params, &topology).expect("MemPool routes");
        let (_, estimates) =
            screening
                .floorplan
                .finish(params, &topology, &toolchain.model_options);
        let (routes, latencies) = (&screening.routes, &estimates.link_latencies);
        let zll =
            zero_load_latency_from_loads(&topology, &screening.loads, latencies, &toolchain.sim);
        let search = toolchain.search;
        let keeps_up = |rate: f64| {
            let outcome = Network::new(&topology, routes, latencies, toolchain.sim.clone())
                .run(rate, toolchain.pattern);
            outcome.keeps_up(search.slack)
                && outcome.avg_packet_latency <= zll * search.latency_factor
        };
        let mut completed = 1.0;
        if !keeps_up(1.0) {
            let (mut lo, mut hi) = (0.0f64, 1.0f64);
            while hi - lo > search.resolution {
                let mid = (lo + hi) / 2.0;
                if keeps_up(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            completed = lo;
        }
        let searched = saturation_search(
            &topology,
            routes,
            latencies,
            &toolchain.sim,
            toolchain.pattern,
            search,
            zll,
        );
        assert_eq!(searched.to_bits(), completed.to_bits());
        // Table III's throughput row: 30.469 %.
        assert_eq!(completed, 0.3046875);
    }
}
