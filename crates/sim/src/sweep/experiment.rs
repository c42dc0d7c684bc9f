//! The execution layer: cases (topology + routes + latencies, computed
//! once and shared by all grid cells) and the [`Experiment`] that fans
//! the grid — or any subset of its cells — out over threads, through a
//! pluggable [`ExecBackend`] and an optional [`CellCache`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use rayon::prelude::*;

use shg_topology::routing::{self, BuildRoutesError, Routes};
use shg_topology::Topology;
use shg_units::Cycles;

use super::cache::{self, CellCache};
use super::plan::{CellId, SweepPlan};
use super::result::{ShardResult, SweepPoint, SweepResult};
use super::shard::ShardSpec;
use super::spec::SweepSpec;
use crate::config::SimConfig;
use crate::core::{run_batch, LaneJob};
use crate::network::Network;
use crate::runner::bisect_prefix;
use crate::stats::SimOutcome;
use crate::traffic::TrafficPattern;

/// How [`Experiment::run_cells`] turns a cell list into simulations.
///
/// Every backend produces bit-identical points for every cell — the
/// reuse backend is built on [`Network::reset`], whose equivalence to
/// fresh construction is pinned under `Network::run_validated`, and
/// the batched
/// backend's struct-of-arrays core is pinned lane-by-lane against the
/// per-cell reference in `tests/batched_equivalence.rs` — so the
/// choice is purely a performance lever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// One fresh [`Network`] per cell (the reference): maximal
    /// parallelism, pays router/buffer allocation per cell.
    #[default]
    PerCell,
    /// Groups consecutive cells of the same case and reuses one
    /// `Network` allocation per group, [`Network::reset`]-ing between
    /// cells in O(touched) — amortizing per-cell setup cost, which
    /// dominates grids of many short cells.
    Reuse,
    /// Groups consecutive cells of the same case and steps up to
    /// [`Experiment::lanes`] of them in lockstep through one
    /// struct-of-arrays core (see `crate::core`): one topology
    /// construction and one hot working set serve K cells at once,
    /// with completed lanes refilled from the group's remaining cells.
    Batched,
    /// Picks a backend per cell group: tiny groups run per-cell; for
    /// the rest, a timed first-cell probe compares setup cost against
    /// simulation cost and picks [`ExecBackend::Batched`] when setup
    /// is worth amortizing, [`ExecBackend::Reuse`] otherwise.
    Auto,
}

impl std::fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PerCell => write!(f, "per-cell"),
            Self::Reuse => write!(f, "reuse"),
            Self::Batched => write!(f, "batched"),
            Self::Auto => write!(f, "auto"),
        }
    }
}

/// A snapshot of [`Experiment::exec_stats`]: how many cells each
/// backend actually simulated (cache hits excluded) and how many
/// batch lanes are in flight. Progress reporters poll this; it never
/// affects results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Cells simulated on fresh per-cell networks (includes the auto
    /// backend's probe cells and its small-group fallback).
    pub per_cell_cells: u64,
    /// Cells simulated on reused networks.
    pub reuse_cells: u64,
    /// Cells simulated as lanes of a batched core.
    pub batched_cells: u64,
    /// Batch lanes currently stepping (0 outside batched execution).
    pub lanes_in_flight: u64,
    /// High-water mark of `lanes_in_flight` over the experiment.
    pub peak_lanes: u64,
}

/// Interior counters behind [`ExecStats`] — relaxed atomics, bumped
/// from worker threads.
#[derive(Debug, Default)]
struct ExecCounters {
    per_cell_cells: AtomicU64,
    reuse_cells: AtomicU64,
    batched_cells: AtomicU64,
    lanes_in_flight: AtomicU64,
    peak_lanes: AtomicU64,
}

impl ExecCounters {
    fn snapshot(&self) -> ExecStats {
        ExecStats {
            per_cell_cells: self.per_cell_cells.load(Relaxed),
            reuse_cells: self.reuse_cells.load(Relaxed),
            batched_cells: self.batched_cells.load(Relaxed),
            lanes_in_flight: self.lanes_in_flight.load(Relaxed),
            peak_lanes: self.peak_lanes.load(Relaxed),
        }
    }

    fn lanes_up(&self, k: u64) {
        let now = self.lanes_in_flight.fetch_add(k, Relaxed) + k;
        self.peak_lanes.fetch_max(now, Relaxed);
    }

    fn lanes_down(&self, k: u64) {
        self.lanes_in_flight.fetch_sub(k, Relaxed);
    }
}

/// The smallest cell group [`ExecBackend::Reuse`] hands one `Network`
/// (when a case has that many consecutive cells): each construction is
/// amortized over at least this many cells even inside the short
/// chunks journaled execution runs, at the cost of proportionally
/// coarser parallelism on tiny cell lists.
const MIN_REUSE_GROUP: usize = 4;

/// Default lane count of [`ExecBackend::Batched`]: wide enough to
/// amortize setup and share sweeps across typical per-case rate grids,
/// narrow enough that lane-major arrays of a 256-tile case stay
/// cache-resident.
const DEFAULT_LANES: usize = 8;

/// One topology under sweep: its routing table and per-link latencies
/// are computed once and shared by all grid cells of the case.
#[derive(Debug)]
pub struct SweepCase<'a> {
    /// Display name of the case (topology or configuration label).
    pub name: String,
    /// The topology.
    pub topology: &'a Topology,
    /// Routing table (computed once per case).
    pub routes: Routes,
    /// Per-link latencies, e.g. from the floorplan model.
    pub link_latencies: Vec<Cycles>,
}

impl<'a> SweepCase<'a> {
    /// A case with precomputed routes and latencies (the floorplan-fed
    /// path; see `shg-bench`'s scenario sweep for the cached producer).
    ///
    /// # Panics
    ///
    /// Panics if `link_latencies` does not match the topology's links.
    #[must_use]
    pub fn annotated(
        name: impl Into<String>,
        topology: &'a Topology,
        routes: Routes,
        link_latencies: Vec<Cycles>,
    ) -> Self {
        assert_eq!(
            link_latencies.len(),
            topology.num_links(),
            "one latency per link required"
        );
        Self {
            name: name.into(),
            topology,
            routes,
            link_latencies,
        }
    }

    /// A case with default routes in the compact next-hop form and unit
    /// link latencies (the floorplan-free path used by tests and
    /// microbenchmarks). Next-hop routes simulate bit-identically to the
    /// dense reference, without the O(n² · hops) table.
    ///
    /// # Errors
    ///
    /// Returns the routing error if no deadlock-free minimal routing
    /// applies to the topology.
    pub fn unit_latency(
        name: impl Into<String>,
        topology: &'a Topology,
    ) -> Result<Self, BuildRoutesError> {
        let routes = routing::default_routes_with(topology, routing::RouteForm::NextHop)?;
        let link_latencies = vec![Cycles::one(); topology.num_links()];
        Ok(Self::annotated(name, topology, routes, link_latencies))
    }
}

/// A sweep ready to run: cases plus the grid spec.
///
/// # Examples
///
/// A full load-curve sweep in three lines (the README quickstart):
///
/// ```
/// # use shg_sim::{Experiment, SimConfig, SweepSpec};
/// # use shg_topology::{generators, Grid};
/// # let mesh = generators::mesh(Grid::new(4, 4));
/// let spec = SweepSpec::new(SimConfig::fast_test()).linear_rates(5, 0.5).all_patterns();
/// let result = Experiment::new(spec).with_unit_latency_case("mesh", &mesh)?.run_parallel();
/// println!("{}", result.table());
/// # Ok::<(), shg_topology::routing::BuildRoutesError>(())
/// ```
#[derive(Debug)]
pub struct Experiment<'a> {
    spec: SweepSpec,
    cases: Vec<SweepCase<'a>>,
    backend: ExecBackend,
    lanes: usize,
    cache: Option<CellCache>,
    counters: ExecCounters,
    /// Memoized per-case cache digests (routing tables make them
    /// O(n²) to compute); invalidated when a case is added.
    case_digests: std::sync::OnceLock<Vec<u64>>,
}

impl<'a> Experiment<'a> {
    /// An experiment over the given grid, with no cases yet, the
    /// per-cell reference backend and no cell cache.
    #[must_use]
    pub fn new(spec: SweepSpec) -> Self {
        Self {
            spec,
            cases: Vec::new(),
            backend: ExecBackend::default(),
            lanes: DEFAULT_LANES,
            cache: None,
            counters: ExecCounters::default(),
            case_digests: std::sync::OnceLock::new(),
        }
    }

    /// Selects the execution backend (builder style).
    #[must_use]
    pub fn with_backend(mut self, backend: ExecBackend) -> Self {
        self.set_backend(backend);
        self
    }

    /// Selects the execution backend in place.
    pub fn set_backend(&mut self, backend: ExecBackend) {
        self.backend = backend;
    }

    /// The selected execution backend.
    #[must_use]
    pub fn backend(&self) -> ExecBackend {
        self.backend
    }

    /// Sets the maximum lane count of [`ExecBackend::Batched`] and
    /// [`ExecBackend::Auto`] batches (builder style). Clamped to at
    /// least 1; results are identical at every lane count.
    #[must_use]
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.set_lanes(lanes);
        self
    }

    /// Sets the maximum batch lane count in place.
    pub fn set_lanes(&mut self, lanes: usize) {
        self.lanes = lanes.max(1);
    }

    /// The maximum lane count of a batched-core group.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// A snapshot of the per-backend execution counters (cells each
    /// backend simulated, batch lanes in flight). Cheap; safe to poll
    /// from a progress reporter while a run is in flight.
    #[must_use]
    pub fn exec_stats(&self) -> ExecStats {
        self.counters.snapshot()
    }

    /// Attaches a cell-result cache (builder style): every execution
    /// path consults it per cell and stores what it simulates.
    #[must_use]
    pub fn with_cache(mut self, cache: CellCache) -> Self {
        self.set_cache(cache);
        self
    }

    /// Attaches a cell-result cache in place.
    pub fn set_cache(&mut self, cache: CellCache) {
        self.cache = Some(cache);
    }

    /// The attached cell cache, if any (its
    /// [`stats`](CellCache::stats) report this execution's
    /// cached/simulated split).
    #[must_use]
    pub fn cache(&self) -> Option<&CellCache> {
        self.cache.as_ref()
    }

    /// Adds a prepared case (builder style).
    #[must_use]
    pub fn with_case(mut self, case: SweepCase<'a>) -> Self {
        self.push_case(case);
        self
    }

    /// Adds a case with default routes and unit latencies.
    ///
    /// # Errors
    ///
    /// Returns the routing error if no deadlock-free minimal routing
    /// applies to the topology.
    pub fn with_unit_latency_case(
        self,
        name: impl Into<String>,
        topology: &'a Topology,
    ) -> Result<Self, BuildRoutesError> {
        Ok(self.with_case(SweepCase::unit_latency(name, topology)?))
    }

    /// Adds a prepared case in place.
    pub fn push_case(&mut self, case: SweepCase<'a>) {
        self.cases.push(case);
        let _ = self.case_digests.take(); // memo covers the old case list
    }

    /// The grid spec.
    #[must_use]
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// The cases, indexed by [`CellId::case`].
    #[must_use]
    pub fn cases(&self) -> &[SweepCase<'a>] {
        &self.cases
    }

    /// The total number of grid cells.
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.cases.len() * self.spec.cells_per_case()
    }

    /// The cell enumeration and fingerprint of this experiment (see
    /// [`SweepPlan`]): the coordinates sharding, journaling and merging
    /// all speak.
    #[must_use]
    pub fn plan(&self) -> SweepPlan {
        SweepPlan::new(&self.spec, &self.cases)
    }

    /// Runs every grid cell, fanned out over the current thread pool.
    #[must_use]
    pub fn run_parallel(&self) -> SweepResult {
        let cells: Vec<CellId> = self.plan().cells().collect();
        SweepResult {
            points: self.run_cells(&cells),
        }
    }

    /// Runs the given cells, fanned out over the current thread pool;
    /// points come back in the order of `cells`. Each point's RNG seed
    /// derives from its grid coordinates alone, so any partition of the
    /// cell list — across threads, processes or machines — reproduces
    /// the exact points of a single-shot [`Experiment::run_parallel`].
    ///
    /// Cells found in the attached [`CellCache`] are answered from disk
    /// instead of simulated; the backend and the cache are both
    /// transparent to the result, which stays bit-identical (and
    /// byte-identical once serialized) to the cache-less per-cell
    /// reference.
    ///
    /// # Panics
    ///
    /// Panics if a cell is out of the plan's range.
    #[must_use]
    pub fn run_cells(&self, cells: &[CellId]) -> Vec<SweepPoint> {
        let digests = self.digests();
        match self.backend {
            ExecBackend::PerCell => cells
                .par_iter()
                .map(|&cell| self.run_point(cell, digests))
                .collect(),
            ExecBackend::Reuse => self.run_cells_reuse(cells, digests),
            ExecBackend::Batched => self.run_cells_batched(cells, digests),
            ExecBackend::Auto => self.run_cells_auto(cells, digests),
        }
    }

    /// The highest rate of each (case, pattern) row of `cells` whose
    /// cell keeps up with its offered load within `slack`, found by
    /// bisection over the row's rates and computed without completing
    /// any outcome. Rows come back in the order `cells` first names
    /// them.
    ///
    /// Rows fan out over the current thread pool. A row's cells are
    /// sorted by ascending rate and its answer is bisected over their
    /// indices: at most ⌈log₂(n + 1)⌉ of its n cells are probed. This
    /// assumes, as [`saturation_search`] does, that the cells that keep
    /// up form a prefix of the sorted row. On such a row the answer is
    /// exactly the maximum rate over `self.run_cells(cells)` whose
    /// `outcome.keeps_up(slack)` holds, which is all a saturation table
    /// reads of a row. On a row that breaks the assumption it is the
    /// rate of *a* probed cell that keeps up whose next-higher cell was
    /// probed and does not (or which tops the row), not necessarily the
    /// highest; and `None` only if the lowest-rate cell was probed and
    /// does not keep up. A cell found in the attached
    /// [`CellCache`] is answered from its stored outcome. A miss runs
    /// on a fresh `Network` that is asked only whether it
    /// [sustains](Network::sustains) the rate, so a cell that cannot
    /// keep up stops as soon as that is certain; it is counted as
    /// simulated but never stored, since a probe stopped early has no
    /// full outcome to store. The backend setting does not apply: every
    /// probe is its own network.
    ///
    /// [`saturation_search`]: crate::saturation_search
    ///
    /// # Panics
    ///
    /// Panics if a cell is out of the plan's range.
    #[must_use]
    pub fn highest_sustained(&self, cells: &[CellId], slack: f64) -> Vec<SustainedRow> {
        let digests = self.digests();
        let mut rows: Vec<(SustainedRow, Vec<CellId>)> = Vec::new();
        let mut row_of: HashMap<(u32, u32), usize> = HashMap::new();
        for &cell in cells {
            let r = *row_of.entry((cell.case, cell.pattern)).or_insert_with(|| {
                let row = SustainedRow {
                    case: cell.case,
                    pattern: cell.pattern,
                    rate: None,
                };
                rows.push((row, Vec::new()));
                rows.len() - 1
            });
            rows[r].1.push(cell);
        }
        rows.into_par_iter()
            .map(|(row, mut row_cells)| {
                let rates = self.spec.rates_of(self.spec.patterns[row.pattern as usize]);
                // A stable sort: equal rates keep their plan order.
                row_cells.sort_by(|a, b| rates[a.rate as usize].total_cmp(&rates[b.rate as usize]));
                let sustained = bisect_prefix(row_cells.len(), |i| {
                    self.keeps_up(self.cell_inputs(row_cells[i], digests), slack)
                });
                let rate = sustained
                    .checked_sub(1)
                    .map(|top| rates[row_cells[top].rate as usize]);
                SustainedRow { rate, ..row }
            })
            .collect()
    }

    /// Whether one cell keeps up within `slack`: from its cached
    /// outcome, or else from a verdict-only probe.
    fn keeps_up(&self, inputs: CellInputs, slack: f64) -> bool {
        if let Some(point) = self.load_cached(&inputs) {
            return point.outcome.keeps_up(slack);
        }
        self.counters.per_cell_cells.fetch_add(1, Relaxed);
        let case = &self.cases[inputs.case];
        Network::new(
            case.topology,
            &case.routes,
            &case.link_latencies,
            inputs.config,
        )
        .sustains(inputs.rate, inputs.pattern, slack, f64::INFINITY)
    }

    /// One digest per case (memoized — digesting a routing table is
    /// O(n²) paths), shared by all its cells' fingerprints. `None`
    /// without a cache: fingerprints are only needed to address it.
    fn digests(&self) -> Option<&[u64]> {
        self.cache.as_ref().map(|_| {
            self.case_digests
                .get_or_init(|| self.cases.iter().map(cache::case_digest).collect())
                .as_slice()
        })
    }

    /// `true` if `cell` is a valid coordinate of this experiment's
    /// grid (case, pattern and rate indices all in range).
    #[must_use]
    pub fn contains_cell(&self, cell: CellId) -> bool {
        (cell.case as usize) < self.cases.len()
            && (cell.pattern as usize) < self.spec.patterns.len()
            && (cell.rate as usize)
                < self
                    .spec
                    .rates_of(self.spec.patterns[cell.pattern as usize])
                    .len()
    }

    /// Probes the attached [`CellCache`] for one cell without
    /// simulating anything: `Some` on a hit (counted in the cache's
    /// stats, like any execution-path probe), `None` on a miss, an
    /// out-of-range cell, or no cache. This is the coordinator's
    /// dispatch filter — cells answered here are never shipped to a
    /// worker.
    #[must_use]
    pub fn probe_cached(&self, cell: CellId) -> Option<SweepPoint> {
        if !self.contains_cell(cell) {
            return None;
        }
        let inputs = self.cell_inputs(cell, self.digests());
        self.load_cached(&inputs)
    }

    /// `true` if `point` records exactly the cell `cell` of this
    /// experiment: same case name, pattern, rate bits and derived
    /// seed. The outcome cannot be checked without re-simulating, but
    /// the identity check rejects any result that was computed under a
    /// different plan — the validation a coordinator applies to every
    /// worker-returned entry before trusting it.
    #[must_use]
    pub fn validate_point(&self, cell: CellId, point: &SweepPoint) -> bool {
        if !self.contains_cell(cell) {
            return false;
        }
        let inputs = self.cell_inputs(cell, None);
        point.case == self.cases[inputs.case].name
            && point.pattern == inputs.pattern
            && point.rate.to_bits() == inputs.rate.to_bits()
            && point.seed == inputs.seed
    }

    /// Stores an externally computed point for `cell` into the
    /// attached cache (the pre-warm path: a coordinator ships cache
    /// entries to workers, a coordinator banks worker results).
    /// Returns `false` — storing nothing — unless a cache is attached
    /// and the point passes [`Experiment::validate_point`], so a
    /// mislabelled result can never poison the cache.
    pub fn store_cached(&self, cell: CellId, point: &SweepPoint) -> bool {
        let Some(cache) = self.cache.as_ref() else {
            return false;
        };
        if !self.validate_point(cell, point) {
            return false;
        }
        let inputs = self.cell_inputs(cell, self.digests());
        let Some(fingerprint) = inputs.fingerprint else {
            return false;
        };
        cache.store(fingerprint, point);
        true
    }

    /// Splits `cells` into runs of consecutive same-case cells, at most
    /// `target` long — the shared grouping step of every grouping
    /// backend. Long runs are split so the pool stays busy; since every
    /// cell is independent, the split cannot affect any point.
    fn split_same_case_groups(cells: &[CellId], target: usize) -> Vec<&[CellId]> {
        let mut groups: Vec<&[CellId]> = Vec::new();
        let mut rest = cells;
        while let Some(first) = rest.first() {
            let same_case = rest
                .iter()
                .take_while(|c| c.case == first.case)
                .count()
                .min(target);
            let (group, tail) = rest.split_at(same_case);
            groups.push(group);
            rest = tail;
        }
        groups
    }

    /// The reuse backend: consecutive same-case cells are grouped, each
    /// group runs sequentially on one `Network` ([`Network::reset`]
    /// between cells), and the groups fan out over the pool. Groups
    /// never drop below [`MIN_REUSE_GROUP`] cells, so the small chunks
    /// the journaled path feeds through here still amortize each
    /// construction over several resets instead of degenerating to one
    /// network per cell.
    fn run_cells_reuse(&self, cells: &[CellId], digests: Option<&[u64]>) -> Vec<SweepPoint> {
        let target = cells
            .len()
            .div_ceil(rayon::current_num_threads().max(1) * 2)
            .max(MIN_REUSE_GROUP);
        let grouped: Vec<Vec<SweepPoint>> = Self::split_same_case_groups(cells, target)
            .par_iter()
            .map(|group| self.run_group(group, digests))
            .collect();
        grouped.into_iter().flatten().collect()
    }

    /// The batched backend: consecutive same-case cells are grouped
    /// (at least [`Experiment::lanes`] per group where the case allows,
    /// so every batch can fill its lanes) and each group runs as one
    /// lane-parallel batch on the struct-of-arrays core; the groups fan
    /// out over the pool.
    fn run_cells_batched(&self, cells: &[CellId], digests: Option<&[u64]>) -> Vec<SweepPoint> {
        let target = cells
            .len()
            .div_ceil(rayon::current_num_threads().max(1) * 2)
            .max(MIN_REUSE_GROUP)
            .max(self.lanes);
        let grouped: Vec<Vec<SweepPoint>> = Self::split_same_case_groups(cells, target)
            .par_iter()
            .map(|group| self.run_group_batched(group, digests))
            .collect();
        grouped.into_iter().flatten().collect()
    }

    /// The auto backend: same grouping as batched, backend chosen per
    /// group (see [`Experiment::run_group_auto`]). A group too short to
    /// share a network runs one task per cell, so its cells run side by
    /// side (see [`Experiment::auto_tasks`]); the points are scattered
    /// back into cell order.
    fn run_cells_auto(&self, cells: &[CellId], digests: Option<&[u64]>) -> Vec<SweepPoint> {
        let target = cells
            .len()
            .div_ceil(rayon::current_num_threads().max(1) * 2)
            .max(MIN_REUSE_GROUP)
            .max(self.lanes);
        let tasks = Self::auto_tasks(cells, target);
        let done: Vec<Vec<SweepPoint>> = tasks
            .par_iter()
            .map(|&(_, group)| self.run_group_auto(group, digests))
            .collect();
        let mut placed: Vec<(usize, Vec<SweepPoint>)> =
            tasks.iter().map(|&(first, _)| first).zip(done).collect();
        placed.sort_unstable_by_key(|&(first, _)| first);
        placed.into_iter().flat_map(|(_, points)| points).collect()
    }

    /// The auto backend's pool tasks over `cells`, as `(index of the
    /// task's first cell, its cells)`: every same-case group of at least
    /// [`MIN_REUSE_GROUP`] cells in cell order, then each cell of the
    /// shorter groups on its own. Long groups come first so none starts
    /// later than it would in plain group order; the short groups' cells
    /// fill the pool behind them.
    fn auto_tasks(cells: &[CellId], target: usize) -> Vec<(usize, &[CellId])> {
        let (mut tasks, mut singles) = (Vec::new(), Vec::new());
        let mut first = 0;
        for group in Self::split_same_case_groups(cells, target) {
            if group.len() < MIN_REUSE_GROUP {
                singles.extend((first..).zip(group.chunks(1)));
            } else {
                tasks.push((first, group));
            }
            first += group.len();
        }
        tasks.extend(singles);
        tasks
    }

    /// Runs one same-case cell group on a single reused `Network`. The
    /// network is built lazily on the first cache miss, so a fully
    /// cached group allocates nothing.
    fn run_group(&self, group: &[CellId], digests: Option<&[u64]>) -> Vec<SweepPoint> {
        let mut network: Option<Network<'_>> = None;
        group
            .iter()
            .map(|&cell| {
                self.run_point_with(cell, digests, |case, config, rate, pattern| {
                    self.counters.reuse_cells.fetch_add(1, Relaxed);
                    match network {
                        Some(ref mut net) => {
                            net.reset(config.seed);
                            net.run(rate, pattern)
                        }
                        None => {
                            let net = network.insert(Network::new(
                                case.topology,
                                &case.routes,
                                &case.link_latencies,
                                config,
                            ));
                            net.run(rate, pattern)
                        }
                    }
                })
            })
            .collect()
    }

    /// Runs one same-case cell group as a lane-parallel batch: every
    /// cell is probed against the cache first (a cached cell must not
    /// occupy a lane), the misses run together through one
    /// struct-of-arrays core with up to [`Experiment::lanes`] lanes in
    /// flight, and the points come back in group order.
    fn run_group_batched(&self, group: &[CellId], digests: Option<&[u64]>) -> Vec<SweepPoint> {
        let inputs: Vec<CellInputs> = group
            .iter()
            .map(|&cell| self.cell_inputs(cell, digests))
            .collect();
        let mut points: Vec<Option<SweepPoint>> = inputs
            .iter()
            .map(|inputs| self.load_cached(inputs))
            .collect();
        let misses: Vec<usize> = points
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.is_none().then_some(i))
            .collect();
        if !misses.is_empty() {
            let case = &self.cases[inputs[misses[0]].case];
            let jobs: Vec<LaneJob> = misses
                .iter()
                .map(|&i| LaneJob {
                    seed: inputs[i].seed,
                    rate: inputs[i].rate,
                    pattern: inputs[i].pattern,
                })
                .collect();
            let k = self.lanes.min(jobs.len()) as u64;
            self.counters
                .batched_cells
                .fetch_add(jobs.len() as u64, Relaxed);
            self.counters.lanes_up(k);
            let outcomes = run_batch(
                case.topology,
                &case.routes,
                &case.link_latencies,
                &self.spec.config,
                &jobs,
                self.lanes,
            );
            self.counters.lanes_down(k);
            for (&i, outcome) in misses.iter().zip(outcomes) {
                points[i] = Some(self.finish_point(&inputs[i], outcome));
            }
        }
        points
            .into_iter()
            .map(|p| p.expect("every group cell is cached or batched"))
            .collect()
    }

    /// Runs one same-case cell group under the auto backend. Groups too
    /// small to amortize anything run per-cell (as one-cell tasks, from
    /// [`Experiment::run_cells_auto`]). Otherwise the first
    /// cache-missing cell runs per-cell with its construction and
    /// simulation separately timed, and the rest of the group goes to
    /// the batched core when construction is the dominant cost
    /// (simulation under twice construction) or to network reuse when
    /// simulation dominates — long cells gain little from lockstep
    /// lanes, and reuse keeps peak memory at one network.
    fn run_group_auto(&self, group: &[CellId], digests: Option<&[u64]>) -> Vec<SweepPoint> {
        if group.len() < MIN_REUSE_GROUP {
            return group
                .iter()
                .map(|&cell| self.run_point(cell, digests))
                .collect();
        }
        let mut points = Vec::with_capacity(group.len());
        let mut probe: Option<(std::time::Duration, std::time::Duration)> = None;
        let mut rest = group;
        while probe.is_none() {
            let Some((&cell, tail)) = rest.split_first() else {
                break; // fully cached group: nothing left to decide
            };
            points.push(
                self.run_point_with(cell, digests, |case, config, rate, pattern| {
                    self.counters.per_cell_cells.fetch_add(1, Relaxed);
                    let build_start = Instant::now();
                    let mut network =
                        Network::new(case.topology, &case.routes, &case.link_latencies, config);
                    let build = build_start.elapsed();
                    let run_start = Instant::now();
                    let outcome = network.run(rate, pattern);
                    probe = Some((build, run_start.elapsed()));
                    outcome
                }),
            );
            rest = tail;
        }
        match probe {
            Some((build, run)) if run < build * 2 => {
                points.extend(self.run_group_batched(rest, digests));
            }
            Some(_) => points.extend(self.run_group(rest, digests)),
            None => {}
        }
        points
    }

    /// Runs `cells` in order as pool-sized chunks (a few per worker —
    /// large enough to keep the pool busy, small enough to bound the
    /// work lost to a kill), invoking `after_chunk(chunk, points)` as
    /// each chunk completes, and returns all points in cell order. The
    /// chunk boundary is the one place journaled execution flushes and
    /// progress is reported, so the two cannot drift; an error from
    /// `after_chunk` aborts the run.
    ///
    /// Under the grouping backends the chunks are a few times larger:
    /// each chunk is grouped per case onto reused `Network`s or batched
    /// cores, so the chunk length bounds how much amortization one
    /// construction gets — the price is a proportionally larger
    /// recompute window after a kill. Batched chunks scale with the
    /// lane count so every batch can fill its lanes.
    ///
    /// # Errors
    ///
    /// Propagates the first error `after_chunk` returns.
    pub fn run_cells_chunked<E>(
        &self,
        cells: &[CellId],
        mut after_chunk: impl FnMut(&[CellId], &[SweepPoint]) -> Result<(), E>,
    ) -> Result<Vec<SweepPoint>, E> {
        let per_worker = match self.backend {
            ExecBackend::PerCell => 2,
            ExecBackend::Reuse | ExecBackend::Auto => 2 * MIN_REUSE_GROUP,
            ExecBackend::Batched => 2 * self.lanes,
        };
        let chunk_size = rayon::current_num_threads().max(1) * per_worker;
        let mut points = Vec::with_capacity(cells.len());
        for chunk in cells.chunks(chunk_size.max(1)) {
            let chunk_points = self.run_cells(chunk);
            after_chunk(chunk, &chunk_points)?;
            points.extend(chunk_points);
        }
        Ok(points)
    }

    /// Runs one shard of the sweep (see [`ShardSpec`]), returning its
    /// points tagged with everything [`SweepResult::merge`] validates.
    #[must_use]
    pub fn run_shard(&self, shard: ShardSpec) -> ShardResult {
        let plan = self.plan();
        let cells = plan.shard_cells(shard);
        let points = self.run_cells(&cells);
        ShardResult {
            fingerprint: plan.fingerprint(),
            shard,
            plan_cells: plan.num_cells() as u64,
            entries: cells.into_iter().zip(points).collect(),
        }
    }

    /// Runs the sweep on exactly `threads` workers. Produces the same
    /// result as [`Experiment::run_parallel`] — the determinism
    /// regression test pins 1 vs N and compares JSON bytes.
    ///
    /// Builds a fresh pool per call; callers running several sweeps at
    /// one thread count should build the pool once and use
    /// [`Experiment::run_in_pool`].
    ///
    /// # Panics
    ///
    /// Panics if the thread pool cannot be built (the vendored rayon
    /// stand-in never fails).
    #[must_use]
    pub fn run_with_threads(&self, threads: usize) -> SweepResult {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool builds");
        self.run_in_pool(&pool)
    }

    /// Runs the sweep on an existing thread pool.
    #[must_use]
    pub fn run_in_pool(&self, pool: &rayon::ThreadPool) -> SweepResult {
        pool.install(|| self.run_parallel())
    }

    /// Runs one grid cell on a fresh `Network` (the per-cell reference
    /// backend). The per-point seed depends only on the root seed and
    /// the grid coordinates, never on scheduling.
    fn run_point(&self, cell: CellId, digests: Option<&[u64]>) -> SweepPoint {
        self.run_point_with(cell, digests, |case, config, rate, pattern| {
            self.counters.per_cell_cells.fetch_add(1, Relaxed);
            Network::new(case.topology, &case.routes, &case.link_latencies, config)
                .run(rate, pattern)
        })
    }

    /// Derives everything a cell's execution needs from its grid
    /// coordinates: pattern, rate, a scheduling-independent seed, the
    /// seeded config and (when a cache is attached) the cell's
    /// fingerprint.
    fn cell_inputs(&self, cell: CellId, digests: Option<&[u64]>) -> CellInputs {
        let pattern = self.spec.patterns[cell.pattern as usize];
        let rate = self.spec.rates_of(pattern)[cell.rate as usize];
        let seed = derive_seed(
            self.spec.config.seed,
            u64::from(cell.case),
            u64::from(cell.pattern),
            u64::from(cell.rate),
        );
        let config = SimConfig {
            seed,
            ..self.spec.config.clone()
        };
        let fingerprint = digests.map(|digests| {
            cache::cell_fingerprint(digests[cell.case as usize], &config, pattern, rate)
        });
        CellInputs {
            case: cell.case as usize,
            pattern,
            rate,
            seed,
            config,
            fingerprint,
        }
    }

    /// Probes the attached cache for a cell; `None` on a miss (or with
    /// no cache attached).
    fn load_cached(&self, inputs: &CellInputs) -> Option<SweepPoint> {
        let cache = self.cache.as_ref()?;
        let fingerprint = inputs.fingerprint?;
        cache.load(
            fingerprint,
            &self.cases[inputs.case].name,
            inputs.pattern,
            inputs.rate,
            inputs.seed,
        )
    }

    /// Wraps a freshly simulated outcome into its [`SweepPoint`] and
    /// stores it in the attached cache.
    fn finish_point(&self, inputs: &CellInputs, outcome: SimOutcome) -> SweepPoint {
        let point = SweepPoint {
            case: self.cases[inputs.case].name.clone(),
            pattern: inputs.pattern,
            rate: inputs.rate,
            seed: inputs.seed,
            outcome,
        };
        if let (Some(cache), Some(fp)) = (&self.cache, inputs.fingerprint) {
            cache.store(fp, &point);
        }
        point
    }

    /// The shared per-cell skeleton: derives the cell's inputs, probes
    /// the cache, and only on a miss calls `simulate` (the backend's
    /// way of producing the outcome), storing what it computed. The
    /// case reference handed to `simulate` borrows from `self`, so a
    /// reuse backend can keep a `Network` built on it across calls.
    fn run_point_with<'s>(
        &'s self,
        cell: CellId,
        digests: Option<&[u64]>,
        simulate: impl FnOnce(&'s SweepCase<'a>, SimConfig, f64, TrafficPattern) -> SimOutcome,
    ) -> SweepPoint {
        let inputs = self.cell_inputs(cell, digests);
        if let Some(point) = self.load_cached(&inputs) {
            return point;
        }
        let case = &self.cases[inputs.case];
        let outcome = simulate(case, inputs.config.clone(), inputs.rate, inputs.pattern);
        self.finish_point(&inputs, outcome)
    }
}

/// One (case, pattern) row of a grid and the highest of its rates that
/// keeps up: an answer of [`Experiment::highest_sustained`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SustainedRow {
    /// Index into the experiment's case list.
    pub case: u32,
    /// Index into the spec's pattern list.
    pub pattern: u32,
    /// The highest rate among the row's cells that keeps up; `None` if
    /// none does. Exact when the cells that keep up are a prefix of the
    /// row's rates (see [`Experiment::highest_sustained`]).
    pub rate: Option<f64>,
}

/// The derived execution inputs of one grid cell (see
/// [`Experiment::cell_inputs`]).
#[derive(Debug)]
struct CellInputs {
    case: usize,
    pattern: TrafficPattern,
    rate: f64,
    seed: u64,
    config: SimConfig,
    fingerprint: Option<u64>,
}

/// SplitMix64-style mixing of the root seed with grid coordinates.
fn derive_seed(root: u64, case: u64, pattern: u64, rate: u64) -> u64 {
    crate::injection::splitmix64_mix(
        root.wrapping_add(case.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(pattern.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(rate.wrapping_mul(0x94d0_49bb_1331_11eb)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficPattern;
    use shg_topology::{generators, Grid};

    fn small_experiment(topology: &Topology) -> Experiment<'_> {
        let spec = SweepSpec::new(SimConfig::fast_test())
            .rates([0.02, 0.1])
            .patterns([TrafficPattern::UniformRandom, TrafficPattern::Transpose]);
        Experiment::new(spec)
            .with_unit_latency_case("mesh", topology)
            .expect("mesh routes")
    }

    #[test]
    fn grid_order_is_case_pattern_rate() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let result = small_experiment(&mesh).run_parallel();
        assert_eq!(result.points.len(), 4);
        let labels: Vec<(String, f64)> = result
            .points
            .iter()
            .map(|p| (p.pattern.to_string(), p.rate))
            .collect();
        assert_eq!(
            labels,
            vec![
                ("uniform-random".to_owned(), 0.02),
                ("uniform-random".to_owned(), 0.1),
                ("transpose".to_owned(), 0.02),
                ("transpose".to_owned(), 0.1),
            ]
        );
    }

    #[test]
    fn parallel_equals_single_threaded() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let experiment = small_experiment(&mesh);
        let serial = experiment.run_with_threads(1);
        let parallel = experiment.run_with_threads(4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_json(), parallel.to_json());
    }

    #[test]
    fn per_point_seeds_differ() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let result = small_experiment(&mesh).run_parallel();
        let seeds: std::collections::HashSet<u64> = result.points.iter().map(|p| p.seed).collect();
        assert_eq!(seeds.len(), result.points.len());
    }

    #[test]
    fn saturation_estimate_reads_stable_frontier() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let spec = SweepSpec::new(SimConfig::fast_test()).rates([0.02, 0.1, 0.9]);
        let result = Experiment::new(spec)
            .with_unit_latency_case("mesh", &mesh)
            .expect("routes")
            .run_parallel();
        let sat = result
            .saturation_estimate("mesh", TrafficPattern::UniformRandom, 0.05)
            .expect("low rates are stable");
        assert!(sat >= 0.1, "mesh sustains 0.1: {sat}");
        assert!(sat < 0.9, "mesh cannot sustain 0.9: {sat}");
    }

    #[test]
    fn json_contains_every_point() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let result = small_experiment(&mesh).run_parallel();
        let json = result.to_json();
        assert_eq!(json.matches("\"case\"").count(), result.points.len());
        assert!(json.contains("\"avg_packet_latency\""));
    }

    #[test]
    fn overridden_grid_keeps_case_pattern_rate_order() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let spec = SweepSpec::new(SimConfig::fast_test())
            .rates([0.1])
            .patterns([TrafficPattern::UniformRandom, TrafficPattern::Hotspot(20)])
            .rates_for(TrafficPattern::Hotspot(20), [0.02, 0.1]);
        let result = Experiment::new(spec)
            .with_unit_latency_case("mesh", &mesh)
            .expect("routes")
            .run_parallel();
        let labels: Vec<(String, f64)> = result
            .points
            .iter()
            .map(|p| (p.pattern.to_string(), p.rate))
            .collect();
        assert_eq!(
            labels,
            vec![
                ("uniform-random".to_owned(), 0.1),
                ("hotspot-20%".to_owned(), 0.02),
                ("hotspot-20%".to_owned(), 0.1),
            ]
        );
    }

    #[test]
    fn auto_runs_short_groups_cell_by_cell_like_per_cell() {
        let mesh = generators::mesh(Grid::new(4, 4));
        for rates in [vec![0.02, 0.1], vec![0.02, 0.1, 0.3]] {
            let spec = SweepSpec::new(SimConfig::fast_test()).rates(rates.clone());
            let experiment = |backend| {
                Experiment::new(spec.clone())
                    .with_unit_latency_case("mesh", &mesh)
                    .expect("mesh routes")
                    .with_backend(backend)
            };
            let reference = experiment(ExecBackend::PerCell).run_parallel();
            for threads in [1, 4] {
                let auto = experiment(ExecBackend::Auto);
                assert_eq!(auto.run_with_threads(threads), reference, "{rates:?}");
                assert_eq!(
                    auto.exec_stats(),
                    ExecStats {
                        per_cell_cells: rates.len() as u64,
                        ..ExecStats::default()
                    },
                    "{rates:?} on {threads} threads"
                );
            }
        }
    }

    #[test]
    fn auto_schedules_long_groups_first_and_keeps_cell_order() {
        let grid = Grid::new(4, 4);
        let (mesh, ring, torus) = (
            generators::mesh(grid),
            generators::ring(grid),
            generators::torus(grid),
        );
        let spec = SweepSpec::new(SimConfig::fast_test())
            .rates([0.02, 0.05, 0.1])
            .patterns([TrafficPattern::UniformRandom, TrafficPattern::Transpose]);
        let experiment = |backend| {
            Experiment::new(spec.clone())
                .with_unit_latency_case("mesh", &mesh)
                .and_then(|e| e.with_unit_latency_case("ring", &ring))
                .and_then(|e| e.with_unit_latency_case("torus", &torus))
                .expect("routes")
                .with_backend(backend)
        };
        let all: Vec<CellId> = experiment(ExecBackend::PerCell).plan().cells().collect();
        let of_case = |case: u32| all.iter().copied().filter(move |c| c.case == case);
        // Six mesh cells, two ring, one torus, then four mesh again.
        let cells: Vec<CellId> = of_case(0)
            .chain(of_case(1).take(2))
            .chain(of_case(2).take(1))
            .chain(of_case(0).take(4))
            .collect();
        let tasks: Vec<(usize, usize)> = Experiment::auto_tasks(&cells, 8)
            .into_iter()
            .map(|(first, group)| (first, group.len()))
            .collect();
        assert_eq!(tasks, [(0, 6), (9, 4), (6, 1), (7, 1), (8, 1)]);
        let reference = experiment(ExecBackend::PerCell).run_cells(&cells);
        for threads in [1, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool builds");
            let auto = experiment(ExecBackend::Auto);
            assert_eq!(pool.install(|| auto.run_cells(&cells)), reference);
        }
    }

    #[test]
    fn run_shard_computes_exactly_the_strided_cells() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let experiment = small_experiment(&mesh);
        let full = experiment.run_parallel();
        let shard = experiment.run_shard(ShardSpec::new(1, 3));
        assert_eq!(shard.plan_cells, 4);
        assert_eq!(shard.entries.len(), 1, "cells 0..4, stride 3, offset 1");
        let (cell, point) = &shard.entries[0];
        assert_eq!(
            *cell,
            CellId {
                case: 0,
                pattern: 0,
                rate: 1
            }
        );
        assert_eq!(*point, full.points[1], "shard points match the single shot");
    }
}
