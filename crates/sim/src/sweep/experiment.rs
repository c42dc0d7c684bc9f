//! The execution layer: cases (topology + routes + latencies, computed
//! once and shared by all grid cells) and the [`Experiment`] that fans
//! the grid — or any subset of its cells — out over threads, runs each
//! same-case group of cells on one reset-reused [`Network`], and
//! answers what it can from an optional [`CellCache`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use rayon::prelude::*;

use shg_topology::routing::{self, BuildRoutesError, Routes};
use shg_topology::Topology;
use shg_units::Cycles;

use super::cache::{self, CellCache};
use super::plan::{CellId, SweepPlan};
use super::result::{SweepPoint, SweepResult};
use super::spec::SweepSpec;
use crate::config::SimConfig;
use crate::network::{shard_count, Network};
use crate::runner::bisect_prefix;
use crate::stats::SimOutcome;
use crate::traffic::TrafficPattern;

/// Accepted and ignored; deleted by ROADMAP item 8. Every cell runs the
/// one grouped path of [`Experiment::run_cells`], whichever backend is
/// named here.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    #[default]
    PerCell,
    Reuse,
    Batched,
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

/// A snapshot of [`Experiment::exec_stats`]: how many cells were
/// simulated on a freshly built network and how many on a network reset
/// from an earlier cell (cache hits excluded). Progress reporters poll
/// this; it never affects results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Cells simulated on a freshly built `Network`: each group's first
    /// cache miss, every cell of a group too short to share a network,
    /// and every verdict probe of [`Experiment::highest_sustained`].
    pub per_cell_cells: u64,
    /// Cells simulated on a `Network` [`reset`](Network::reset) from an
    /// earlier cell of its group.
    pub reuse_cells: u64,
    /// Accepted and ignored; deleted by ROADMAP item 8. Always 0.
    #[doc(hidden)]
    pub batched_cells: u64,
}

/// Interior counters behind [`ExecStats`] — relaxed atomics, bumped
/// from worker threads.
#[derive(Debug, Default)]
struct ExecCounters {
    per_cell_cells: AtomicU64,
    reuse_cells: AtomicU64,
}

impl ExecCounters {
    fn snapshot(&self) -> ExecStats {
        ExecStats {
            per_cell_cells: self.per_cell_cells.load(Relaxed),
            reuse_cells: self.reuse_cells.load(Relaxed),
            batched_cells: 0,
        }
    }
}

/// The shortest same-case group [`Experiment::run_cells`] hands one
/// `Network`: each construction is amortized over at least this many
/// cells, even inside the short chunks an observed
/// [`run_sweep`](super::run_sweep) runs. A shorter group runs one pool
/// task per cell instead, so its cells run side by side.
pub(crate) const MIN_REUSE_GROUP: usize = 4;

/// The length below which [`Experiment::run_cells`] never splits a
/// long same-case run to spread it over the pool: a split costs one
/// more network construction.
const MIN_SPLIT: usize = 8;

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

    /// A case with default routes and unit link latencies (the
    /// floorplan-free path used by tests and microbenchmarks).
    ///
    /// # Errors
    ///
    /// Returns the routing error if no deadlock-free minimal routing
    /// applies to the topology.
    pub fn unit_latency(
        name: impl Into<String>,
        topology: &'a Topology,
    ) -> Result<Self, BuildRoutesError> {
        let routes = routing::default_routes(topology)?;
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
    cache: Option<CellCache>,
    counters: ExecCounters,
    /// Memoized per-case cache digests (routing tables make them
    /// O(n²) to compute); invalidated when a case is added.
    case_digests: std::sync::OnceLock<Vec<u64>>,
}

impl<'a> Experiment<'a> {
    /// An experiment over the given grid, with no cases yet and no cell
    /// cache.
    #[must_use]
    pub fn new(spec: SweepSpec) -> Self {
        Self {
            spec,
            cases: Vec::new(),
            cache: None,
            counters: ExecCounters::default(),
            case_digests: std::sync::OnceLock::new(),
        }
    }

    /// Accepted and ignored; deleted by ROADMAP item 8.
    #[doc(hidden)]
    pub fn set_backend(&mut self, _backend: ExecBackend) {}

    /// Accepted and ignored; deleted by ROADMAP item 8.
    #[doc(hidden)]
    pub fn set_lanes(&mut self, _lanes: usize) {}

    /// A snapshot of the execution counters (cells simulated on fresh
    /// and on reset networks). Cheap; safe to poll from a progress
    /// reporter while a run is in flight.
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
    /// Consecutive cells of one case form a group, long runs split so
    /// the pool stays busy. A group runs on one `Network`, built on its
    /// first cache miss and [`reset`](Network::reset) between cells; a
    /// group shorter than four cells runs one task per cell instead, so
    /// its cells run side by side. A task on a network large enough to
    /// split its routers across the pool (thousands of tiles) runs alone,
    /// on every thread, before the others; so only one such network is
    /// alive at a time. The layout depends on the cell list and the pool
    /// size alone. Cells found in the attached
    /// [`CellCache`] are answered from disk instead of simulated.
    /// Neither the grouping nor the cache shows in the result, which
    /// stays bit-identical (and byte-identical once serialized) to
    /// [`Experiment::run_cells_fresh`].
    ///
    /// # Panics
    ///
    /// Panics if a cell is out of the plan's range.
    #[must_use]
    pub fn run_cells(&self, cells: &[CellId]) -> Vec<SweepPoint> {
        let digests = self.digests();
        let target = cells
            .len()
            .div_ceil(rayon::current_num_threads().max(1) * 2)
            .max(MIN_SPLIT);
        // A task whose network splits across the pool runs on its own,
        // one after another on this thread; the others share the pool.
        let (sharded, pooled): (Vec<_>, Vec<_>) =
            Self::tasks(cells, target)
                .into_iter()
                .partition(|&(_, group)| {
                    shard_count(self.cases[group[0].case as usize].topology.num_tiles()) > 1
                });
        let mut placed: Vec<(usize, Vec<SweepPoint>)> = sharded
            .iter()
            .map(|&(first, group)| (first, self.run_group(group, digests)))
            .collect();
        let done: Vec<Vec<SweepPoint>> = pooled
            .par_iter()
            .map(|&(_, group)| self.run_group(group, digests))
            .collect();
        placed.extend(pooled.iter().map(|&(first, _)| first).zip(done));
        placed.sort_unstable_by_key(|&(first, _)| first);
        placed.into_iter().flat_map(|(_, points)| points).collect()
    }

    /// The reference [`Experiment::run_cells`] is tested against: every
    /// cell on its own fresh [`Network`], with no cache and no grouping.
    ///
    /// # Panics
    ///
    /// Panics if a cell is out of the plan's range.
    #[must_use]
    pub fn run_cells_fresh(&self, cells: &[CellId]) -> Vec<SweepPoint> {
        cells
            .par_iter()
            .map(|&cell| {
                let inputs = self.cell_inputs(cell, None);
                let outcome = self.fresh_network(&inputs).run(inputs.rate, inputs.pattern);
                self.finish_point(&inputs, outcome)
            })
            .collect()
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
    /// full outcome to store. Every probe is its own network.
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
        self.fresh_network(&inputs)
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
    /// `target` long. Long runs are split so the pool stays busy; since
    /// every cell is independent, the split cannot affect any point.
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

    /// The pool tasks of [`Experiment::run_cells`] over `cells`, as
    /// `(index of the task's first cell, its cells)`: every same-case
    /// group of at least [`MIN_REUSE_GROUP`] cells in cell order, then
    /// each cell of the shorter groups on its own. Long groups come
    /// first so none starts later than it would in plain group order;
    /// the short groups' cells fill the pool behind them. The layout
    /// depends on the cell list and `target` alone.
    fn tasks(cells: &[CellId], target: usize) -> Vec<(usize, &[CellId])> {
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

    /// Runs one same-case cell group on a single `Network`, built on
    /// the group's first cache miss and reset between cells, so a fully
    /// cached group allocates nothing.
    fn run_group(&self, group: &[CellId], digests: Option<&[u64]>) -> Vec<SweepPoint> {
        let mut network: Option<Network<'_>> = None;
        group
            .iter()
            .map(|&cell| {
                let inputs = self.cell_inputs(cell, digests);
                if let Some(point) = self.load_cached(&inputs) {
                    return point;
                }
                let net = match network {
                    Some(ref mut net) => {
                        self.counters.reuse_cells.fetch_add(1, Relaxed);
                        net.reset(inputs.seed);
                        net
                    }
                    None => {
                        self.counters.per_cell_cells.fetch_add(1, Relaxed);
                        network.insert(self.fresh_network(&inputs))
                    }
                };
                let outcome = net.run(inputs.rate, inputs.pattern);
                self.finish_point(&inputs, outcome)
            })
            .collect()
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

    /// A fresh `Network` for one cell of this experiment.
    fn fresh_network(&self, inputs: &CellInputs) -> Network<'_> {
        let case = &self.cases[inputs.case];
        Network::new(
            case.topology,
            &case.routes,
            &case.link_latencies,
            inputs.config.clone(),
        )
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
    use super::super::journal::journaled_shard;
    use super::super::shard::ShardSpec;
    use super::*;
    use crate::traffic::TrafficPattern;
    use shg_topology::{generators, Grid};

    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool builds")
    }

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
        let serial = pool(1).install(|| experiment.run_parallel());
        let parallel = pool(4).install(|| experiment.run_parallel());
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

    /// A case run shorter than [`MIN_REUSE_GROUP`] runs one fresh
    /// network per cell, at any thread count.
    #[test]
    fn auto_runs_short_groups_cell_by_cell_like_per_cell() {
        let mesh = generators::mesh(Grid::new(4, 4));
        for rates in [vec![0.02, 0.1], vec![0.02, 0.1, 0.3]] {
            let spec = SweepSpec::new(SimConfig::fast_test()).rates(rates.clone());
            let experiment = || {
                Experiment::new(spec.clone())
                    .with_unit_latency_case("mesh", &mesh)
                    .expect("mesh routes")
            };
            let cells: Vec<CellId> = experiment().plan().cells().collect();
            let reference = experiment().run_cells_fresh(&cells);
            for threads in [1, 4] {
                let grouped = experiment();
                let points = pool(threads).install(|| grouped.run_parallel().points);
                assert_eq!(points, reference);
                assert_eq!(
                    grouped.exec_stats(),
                    ExecStats {
                        per_cell_cells: rates.len() as u64,
                        ..ExecStats::default()
                    },
                    "{rates:?} on {threads} threads"
                );
            }
        }
    }

    /// Long case runs share a network and are scheduled first; the
    /// points still come back in cell order.
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
        let experiment = || {
            Experiment::new(spec.clone())
                .with_unit_latency_case("mesh", &mesh)
                .and_then(|e| e.with_unit_latency_case("ring", &ring))
                .and_then(|e| e.with_unit_latency_case("torus", &torus))
                .expect("routes")
        };
        let all: Vec<CellId> = experiment().plan().cells().collect();
        let of_case = |case: u32| all.iter().copied().filter(move |c| c.case == case);
        // Six mesh cells, two ring, one torus, then four mesh again.
        let cells: Vec<CellId> = of_case(0)
            .chain(of_case(1).take(2))
            .chain(of_case(2).take(1))
            .chain(of_case(0).take(4))
            .collect();
        let tasks: Vec<(usize, usize)> = Experiment::tasks(&cells, 8)
            .into_iter()
            .map(|(first, group)| (first, group.len()))
            .collect();
        assert_eq!(tasks, [(0, 6), (9, 4), (6, 1), (7, 1), (8, 1)]);
        let reference = experiment().run_cells_fresh(&cells);
        for threads in [1, 3] {
            let grouped = experiment();
            assert_eq!(
                pool(threads).install(|| grouped.run_cells(&cells)),
                reference
            );
            // One construction per long group, one per short-group cell.
            let stats = grouped.exec_stats();
            assert_eq!((stats.per_cell_cells, stats.reuse_cells), (5, 8));
        }
    }

    /// The task layout is a function of the cell list and the split
    /// target alone: mixed case runs, runs shorter than
    /// [`MIN_REUSE_GROUP`] and runs longer than the target, with no
    /// timing input. Concatenating the tasks in order of their first
    /// index gives back the cell list, which is how
    /// [`Experiment::run_cells`] returns points in cell order.
    #[test]
    fn task_layout_depends_on_the_cell_list_alone() {
        let run = |case: u32, len: u32| {
            (0..len).map(move |rate| CellId {
                case,
                pattern: 0,
                rate,
            })
        };
        let cells: Vec<CellId> = run(0, 20)
            .chain(run(1, 3))
            .chain(run(2, 5))
            .chain(run(0, 2))
            .chain(run(3, 9))
            .collect();
        let tasks = Experiment::tasks(&cells, 8);
        let layout: Vec<(usize, usize)> = tasks
            .iter()
            .map(|&(first, group)| (first, group.len()))
            .collect();
        assert_eq!(
            layout,
            [
                // Shared networks: case 0 split at the target, case 2,
                // and case 3's first eight cells.
                (0, 8),
                (8, 8),
                (16, 4),
                (23, 5),
                (30, 8),
                // One fresh network each: case 1, the second case-0
                // run and case 3's remainder.
                (20, 1),
                (21, 1),
                (22, 1),
                (28, 1),
                (29, 1),
                (38, 1),
            ]
        );
        for &(first, group) in &tasks {
            assert_eq!(group, &cells[first..first + group.len()]);
        }
        let mut ordered = tasks.clone();
        ordered.sort_unstable_by_key(|&(first, _)| first);
        let rejoined: Vec<CellId> = ordered
            .into_iter()
            .flat_map(|(_, group)| group.iter().copied())
            .collect();
        assert_eq!(rejoined, cells);
    }

    #[test]
    fn a_journaled_shard_holds_exactly_the_strided_cells() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let experiment = small_experiment(&mesh);
        let full = experiment.run_parallel();
        let shard = journaled_shard(&experiment, ShardSpec::new(1, 3));
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
