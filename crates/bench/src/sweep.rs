//! Scenario-level sweep support: floorplan-annotated sweep cases with a
//! topology-keyed cache, and the shard-/journal-aware executor every
//! harness binary funnels its sweeps through.
//!
//! The sim-level engine ([`shg_sim::sweep`]) shares route tables and
//! latencies across the (rate × pattern) cells of one case. This layer
//! adds the scenario dimension: producing those cases *from the
//! floorplan model* and caching the expensive artifacts — routing
//! tables and floorplan-predicted per-link latencies — keyed by
//! topology structure, so a topology evaluated by several experiment
//! stages (toolchain evaluation, load sweeps, frontier re-checks) pays
//! for prediction exactly once per binary.
//!
//! Two execution choke points read the standard flags, so no binary
//! needs its own plumbing:
//!
//! * [`run_experiment`] runs cells to full outcomes through the one
//!   full-outcome driver, [`run_sweep`]. It reads the
//!   sharding flags (`--shard i/N`, `--resume <journal>`, `--progress`)
//!   plus `--cache <dir>` for the cross-run cell-result cache, so every
//!   simulating binary can run one shard of its grid to a resumable
//!   journal — re-simulating only cells no earlier run has cached.
//! * [`saturation_table`] asks each cell only whether it keeps up,
//!   for the reports that print nothing but saturation estimates. It
//!   reads `--shard` and a read-only `--cache`.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use shg_core::Scenario;
use shg_floorplan::{predict, ArchParams, ModelOptions};
use shg_sim::sweep::{run_sweep, CoordProgress, Executors, JournalSink, ProgressFn};
use shg_sim::{
    CellCache, Experiment, ShardSpec, SustainedRow, SweepCase, SweepResult, SweepSpec,
    TrafficPattern,
};
use shg_topology::routing::{self, RouteForm, Routes};
use shg_topology::Topology;
use shg_units::Cycles;

use crate::{arg_value, cli_error, has_flag};

/// A structural fingerprint of a topology: grid dimensions, kind and
/// the (canonically ordered) link list, FNV-1a hashed.
#[must_use]
pub fn topology_fingerprint(topology: &Topology) -> u64 {
    fn mix(hash: &mut u64, value: u64) {
        for byte in value.to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    mix(&mut hash, u64::from(topology.rows()));
    mix(&mut hash, u64::from(topology.cols()));
    for byte in topology.kind().to_string().bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for link in topology.links() {
        mix(&mut hash, link.a.index() as u64);
        mix(&mut hash, link.b.index() as u64);
    }
    hash
}

/// Cached per-topology artifacts: the routing table and the floorplan
/// model's per-link latency estimates.
#[derive(Debug, Clone)]
pub struct PreparedCase {
    /// The production routing table ([`routing::default_routes`]).
    pub routes: Routes,
    /// Floorplan-predicted per-link latencies.
    pub link_latencies: Vec<Cycles>,
}

/// The cache. Keyed by [`topology_fingerprint`] and the prediction
/// inputs (the routing table follows from the topology alone); hit/miss
/// counters are exposed so binaries can report how much work sharing
/// saved.
#[derive(Debug, Default)]
pub struct TopologyCache {
    entries: HashMap<u64, PreparedCase>,
    hits: u64,
    misses: u64,
}

impl TopologyCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Routes ([`routing::default_routes`]) and floorplan latencies for
    /// `topology`, computed at most once per distinct (topology,
    /// architecture, model options) combination — the prediction inputs
    /// are part of the key, so one cache can serve several scenarios
    /// without stale hits.
    ///
    /// # Errors
    ///
    /// Returns a description when no deadlock-free minimal routing
    /// applies (all built-in topologies route, but a topology-database
    /// spec can describe a disconnected graph).
    pub fn prepare(
        &mut self,
        params: &ArchParams,
        options: &ModelOptions,
        topology: &Topology,
    ) -> Result<PreparedCase, String> {
        let mut key = topology_fingerprint(topology);
        for input in [
            serde_json::to_string(params).expect("params serialize"),
            serde_json::to_string(options).expect("options serialize"),
        ] {
            for byte in input.bytes() {
                key ^= u64::from(byte);
                key = key.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        if let Some(prepared) = self.entries.get(&key) {
            self.hits += 1;
            return Ok(prepared.clone());
        }
        self.misses += 1;
        let routes =
            routing::default_routes(topology).map_err(|e| format!("routing {topology}: {e}"))?;
        let prediction = predict(params, topology, options);
        let prepared = PreparedCase {
            routes,
            link_latencies: prediction.estimates.link_latencies,
        };
        self.entries.insert(key, prepared.clone());
        Ok(prepared)
    }

    /// `(hits, misses)` so far.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Builds an [`Experiment`] whose cases are the given named topologies,
/// each annotated with routes and floorplan latencies through `cache`.
/// `_form` is accepted and ignored; deleted by ROADMAP item 8.
///
/// # Errors
///
/// Returns a description naming the offending case when a topology
/// does not route ([`TopologyCache::prepare`]) or when the spec's
/// fault plan references elements a case's topology does not have
/// ([`shg_sim::FaultPlan::validate`] — a link kill must name a link
/// present in *every* swept topology).
pub fn annotated_experiment<'a>(
    params: &ArchParams,
    options: &ModelOptions,
    cache: &mut TopologyCache,
    topologies: &'a [(String, Topology)],
    spec: SweepSpec,
    _form: RouteForm,
) -> Result<Experiment<'a>, String> {
    for (name, topology) in topologies {
        spec.config
            .faults
            .validate(topology)
            .map_err(|e| format!("--faults on case '{name}': {e}"))?;
    }
    let mut experiment = Experiment::new(spec);
    for (name, topology) in topologies {
        let prepared = cache
            .prepare(params, options, topology)
            .map_err(|e| format!("case '{name}': {e}"))?;
        experiment.push_case(SweepCase::annotated(
            name.clone(),
            topology,
            prepared.routes,
            prepared.link_latencies,
        ));
    }
    Ok(experiment)
}

/// The spec of the standard wide scenario sweep: all seven traffic
/// patterns × `rate_points` linear rates with the default hot-spot low
/// end — shared by `fig6` and `sweep_worker` so a sharded worker's plan
/// fingerprint matches the single-process sweep it will be merged
/// against.
#[must_use]
pub fn scenario_sweep_spec(scenario: &Scenario, rate_points: usize) -> SweepSpec {
    SweepSpec::new(scenario.sim.clone())
        .linear_rates(rate_points, 1.0)
        .all_patterns()
        .default_hotspot_low_rates()
}

/// The plan-shaping parameters of one sweep request, as opaque
/// key-value strings — the coordinator/worker wire format of "which
/// sweep is this". The supported keys are `scenario`, `fast`,
/// `rate-points`, `add-rates`, `db` (a topology database in
/// its one-token wire form, see [`shg_topology::db::TopologyDb::wire`])
/// and `faults` (a fault plan in [`shg_sim::FaultPlan::parse`] wire
/// form, e.g. `drain,2000:link:3-4,2500:router:9`);
/// values are the user's raw flag strings, forwarded **unreformatted**
/// so every process parses the identical text (re-formatting a float on
/// one side would silently change its grid). [`request_setup`] is the
/// one interpreter, shared by `sweep_worker`'s CLI path, its `--serve`
/// mode and `shg_coord`; the sim layer's plan-fingerprint handshake
/// catches any drift.
#[must_use]
pub fn request_params_from_args() -> Vec<(String, String)> {
    let mut params = Vec::new();
    for key in ["scenario", "rate-points", "add-rates", "db", "faults"] {
        if let Some(value) = arg_value(&format!("--{key}")) {
            params.push((key.to_owned(), value));
        }
    }
    if has_flag("--fast") {
        params.push(("fast".to_owned(), "1".to_owned()));
    }
    params
}

/// Everything [`request_setup`] derives from a request's params: the
/// (possibly fast-test) scenario, the floorplan model options, and the
/// fully shaped sweep spec.
#[derive(Debug, Clone)]
pub struct RequestSetup {
    /// The scenario, with its simulator config already adjusted for
    /// `fast` and `faults`.
    pub scenario: Scenario,
    /// Floorplan model options (coarser cells under `fast`).
    pub model_options: ModelOptions,
    /// The rate × pattern grid, extra rates appended.
    pub spec: SweepSpec,
    /// When the request carries a `db` param: the instantiated
    /// expanded-grid topology (case-named `db`), replacing the
    /// scenario's built-in topology set. The scenario's `params.grid`
    /// has already been overridden to match it.
    pub db_topology: Option<(String, Topology)>,
    /// Accepted and ignored; deleted by ROADMAP item 8. Always
    /// [`RouteForm::NextHop`].
    #[doc(hidden)]
    pub route_form: RouteForm,
}

/// Interprets request params (see [`request_params_from_args`]) into a
/// scenario, model options and sweep spec — the single deterministic
/// mapping every sweep-service process applies, so identical params
/// always produce identical plan fingerprints.
///
/// # Errors
///
/// Returns a usage-style message on an unknown or removed key, an
/// unknown scenario, malformed numbers, or a `db` value that fails to
/// parse or instantiate.
pub fn request_setup(params: &[(String, String)]) -> Result<RequestSetup, String> {
    let mut which = "a".to_owned();
    let mut fast = false;
    let mut rate_points_raw: Option<String> = None;
    let mut add_rates: Option<String> = None;
    let mut db_raw: Option<String> = None;
    let mut faults_raw: Option<String> = None;
    for (key, value) in params {
        match key.as_str() {
            "scenario" => which.clone_from(value),
            "fast" => fast = value == "1",
            "rate-points" => rate_points_raw = Some(value.clone()),
            "add-rates" => add_rates = Some(value.clone()),
            "routes" => return Err(crate::retired_flag_message("request param 'routes'")),
            "db" => db_raw = Some(value.clone()),
            "faults" => faults_raw = Some(value.clone()),
            other => return Err(format!("unknown request param '{other}'")),
        }
    }
    let mut scenario =
        Scenario::by_name(&which).ok_or_else(|| format!("unknown scenario '{which}'"))?;
    let model_options = ModelOptions {
        cell_scale: if fast { 4.0 } else { 2.0 },
        ..ModelOptions::default()
    };
    if fast {
        scenario.sim = shg_sim::SimConfig::fast_test();
    }
    let db_topology = match db_raw {
        Some(raw) => {
            let topology = shg_topology::db::TopologyDb::parse(&raw)
                .map_err(|e| format!("db '{raw}': {e}"))?
                .instantiate()
                .map_err(|e| format!("db '{raw}': {e}"))?;
            // The floorplan model asserts its parameter grid matches the
            // topology grid; an expanded grid replaces the scenario's.
            scenario.params.grid = topology.grid();
            Some(("db".to_owned(), topology))
        }
        None => None,
    };
    // Installed after the `fast` override replaced the whole config;
    // range checks against the concrete topologies happen when the
    // cases are annotated ([`annotated_experiment`]).
    if let Some(spec) = faults_raw {
        scenario.sim.faults =
            shg_sim::FaultPlan::parse(&spec).map_err(|e| format!("faults '{spec}': {e}"))?;
    }
    let rate_points: usize = match rate_points_raw {
        Some(raw) => raw
            .parse()
            .map_err(|e| format!("rate-points '{raw}': {e}"))?,
        None if fast => 10,
        None => 20,
    };
    let mut spec = scenario_sweep_spec(&scenario, rate_points);
    if let Some(extra) = add_rates {
        // Appended after the hot-spot low-end override snapshotted the
        // shared grid: existing cells (including the hot-spot ones)
        // keep their coordinates, the new rates take fresh indices.
        for rate in extra.split(',') {
            let value: f64 = rate
                .trim()
                .parse()
                .map_err(|e| format!("add-rates '{rate}': {e}"))?;
            if !value.is_finite() || value <= 0.0 {
                return Err(format!(
                    "add-rates '{rate}': injection rates must be finite and positive"
                ));
            }
            spec.rates.push(value);
        }
    }
    Ok(RequestSetup {
        scenario,
        model_options,
        spec,
        db_topology,
        route_form: RouteForm::NextHop,
    })
}

/// The two-die 2 × (32×40)-tile part the repo benchmark's
/// `bigtopo_2560` workload sweeps, in `--db` wire form.
pub const BIGTOPO_2560_DB: &str = "die/compute/32x40/shg:sr=4:sc=2,5;die/hbm/32x40/mesh;\
region/hbm/r0..32/c0..40/memory/sc=2;boundary/every=4/latency=5";

/// One simulator cell past its saturation point, prepared exactly the
/// way `fig6 --fast` / `sweep_worker --fast` prepare theirs (fast-test
/// windows, floorplan-predicted latencies, next-hop routes). Most
/// cells of a load sweep pushed past the knee look like these: they
/// run to the drain limit with every source backlogged.
#[derive(Debug)]
pub struct SaturatedCell {
    /// Stable label (bench id, profile row).
    pub name: &'static str,
    /// The cell's topology.
    pub topology: Topology,
    /// Its routes and link latencies.
    pub prepared: PreparedCase,
    /// The simulator configuration.
    pub config: shg_sim::SimConfig,
    /// Uniform-random injection rate, flits per node per cycle.
    pub rate: f64,
}

impl SaturatedCell {
    /// A fresh network for the cell; run it with
    /// `TrafficPattern::UniformRandom` at [`SaturatedCell::rate`].
    #[must_use]
    pub fn network(&self) -> shg_sim::Network<'_> {
        shg_sim::Network::new(
            &self.topology,
            &self.prepared.routes,
            &self.prepared.link_latencies,
            self.config.clone(),
        )
    }
}

/// The saturated regime's three reference cells, shared by the
/// `simulator` bench's `saturated` group and the `injection_profile`
/// example: the scenario-a 8×8 mesh at 0.6, the scenario-a sparse
/// Hamming graph at 1.0, and [`BIGTOPO_2560_DB`] at 1.0.
///
/// # Panics
///
/// Panics if a cell's set-up fails — the inputs are constants.
#[must_use]
pub fn saturated_cells() -> Vec<SaturatedCell> {
    let cell = |name, db: Option<&str>, pick: fn(&RequestSetup) -> Topology, rate| {
        let mut params = vec![("fast".to_owned(), "1".to_owned())];
        params.extend(db.map(|db| ("db".to_owned(), db.to_owned())));
        let setup = request_setup(&params).expect("constant request params");
        let topology = pick(&setup);
        let prepared = TopologyCache::new()
            .prepare(&setup.scenario.params, &setup.model_options, &topology)
            .expect("reference topologies route");
        SaturatedCell {
            name,
            topology,
            prepared,
            config: setup.scenario.sim,
            rate,
        }
    };
    vec![
        cell(
            "mesh_8x8_uniform_0.6",
            None,
            |setup| shg_topology::generators::mesh(setup.scenario.params.grid),
            0.6,
        ),
        cell(
            "shg_a_uniform_1.0",
            None,
            |setup| setup.scenario.shg.build(),
            1.0,
        ),
        cell(
            "db_2560_uniform_1.0",
            Some(BIGTOPO_2560_DB),
            |setup| setup.db_topology.clone().expect("db request").1,
            1.0,
        ),
    ]
}

/// How many sweeps this process has already journaled (each gets a
/// distinct journal path suffix, so multi-sweep binaries like
/// `fig6 --scenario all` don't clobber one journal).
static JOURNALED_SWEEPS: AtomicUsize = AtomicUsize::new(0);

/// The journal path for the `nth` (0-based) sweep of this process:
/// the flag value as-is for the first, `<path>.2`, `<path>.3`, … after.
fn nth_journal_path(path: &str, nth: usize) -> String {
    if nth == 0 {
        path.to_owned()
    } else {
        format!("{path}.{}", nth + 1)
    }
}

/// Attaches the [`CellCache`] at `--cache <dir>` (created if missing),
/// if the flag is given: cells any earlier run stored are answered from
/// disk, only new cells simulate. An unusable directory is a usage
/// error via [`cli_error`] (exit code 2), never a panic. Shared by
/// [`run_experiment`], [`saturation_table`] and the binaries (e.g.
/// `sweep_worker`) that drive journaled execution themselves.
pub fn attach_cache_from_args(experiment: &mut Experiment<'_>) {
    if let Some(dir) = arg_value("--cache") {
        let cache =
            CellCache::open(&dir).unwrap_or_else(|e| cli_error(format!("--cache {dir}: {e}")));
        experiment.set_cache(cache);
    }
}

/// The `--shard i/N` flag (default: the whole plan); a malformed value
/// is a usage error via [`cli_error`].
#[must_use]
pub fn shard_from_args() -> ShardSpec {
    arg_value("--shard").map_or(ShardSpec::SOLO, |text| {
        ShardSpec::parse(&text).unwrap_or_else(|e| cli_error(e))
    })
}

/// One-line cache-effectiveness summary (`cache: cached=… simulated=…
/// total=…`) of an experiment's execution so far, or `None` when no
/// cache is attached. `total` is the number of cells this execution
/// resolved (cached + simulated) — a shard runs a subset of the plan,
/// and a journal resume skips already-journaled cells outside the
/// cache entirely, so the grid size would not add up. Binaries print
/// it so long sweeps — and the CI service-smoke job — can see exactly
/// how many cells were re-simulated.
#[must_use]
pub fn cache_summary(experiment: &Experiment<'_>) -> Option<String> {
    experiment.cache().map(|cache| {
        let stats = cache.stats();
        format!(
            "cache: cached={} simulated={} total={}",
            stats.cached,
            stats.simulated,
            stats.cached + stats.simulated
        )
    })
}

/// Runs an experiment under the standard sharding flags through the
/// one full-outcome driver, [`run_sweep`] on the local pool; the
/// execution path every harness binary that keeps full outcomes shares
/// (the saturation reports use [`saturation_table`] instead).
///
/// * `--shard i/N` — run only the `i`-th of `N` strided shards
///   ([`ShardSpec::parse`], one-based `i`). Tables and saturation
///   estimates then cover just that shard's cells; journal the shard
///   and merge with `sweep_merge` to recover the full result.
/// * `--resume <journal>` — journal completed cells to the given JSONL
///   path, resuming (and validating the plan fingerprint) if the file
///   already has cells from an interrupted run. Each further sweep in
///   the same process appends `.2`, `.3`, … to the path.
/// * `--durable` — `fsync` the journal after its header and after
///   every completed chunk, so a machine crash (not just a process
///   kill) loses at most the in-flight chunk.
/// * `--cache <dir>` — incremental execution (see
///   [`attach_cache_from_args`]).
/// * `--progress` — log `cells done / total` to stderr as chunks
///   complete; with a cache attached, the cached/simulated split is
///   reported alongside.
///
/// Without `--resume` and `--progress` the cells run in one
/// [`Experiment::run_cells`] call, exactly as
/// [`Experiment::run_parallel`] runs them.
///
/// A malformed `--shard`, an unusable `--cache` directory, and a journal that does not match the
/// experiment (fingerprint, shard or prefix mismatch — the message
/// names the cause) are usage errors: reported via [`cli_error`] (exit
/// code 2), never a panic.
#[must_use]
pub fn run_experiment(experiment: &mut Experiment<'_>) -> SweepResult {
    attach_cache_from_args(experiment);
    let experiment: &Experiment<'_> = experiment;
    let shard = shard_from_args();
    let journal = arg_value("--resume")
        .map(|path| nth_journal_path(&path, JOURNALED_SWEEPS.fetch_add(1, Ordering::Relaxed)));
    let total_cells = experiment.num_points();
    let mut report = |p: CoordProgress| {
        let cache = experiment.cache().map_or(String::new(), |cache| {
            let stats = cache.stats();
            format!(", {} cached / {} simulated", stats.cached, stats.simulated)
        });
        eprintln!(
            "[sweep] {}/{} cells done (shard {shard} of {total_cells} total{cache})",
            p.cells_done, p.cells_total
        );
    };
    let sink = journal.as_deref().map(|path| JournalSink {
        path: Path::new(path),
        resume: true,
        durable: has_flag("--durable"),
    });
    let progress = has_flag("--progress").then_some(&mut report as ProgressFn<'_>);
    let (result, _) = run_sweep(experiment, shard, Executors::Local, sink, progress)
        .unwrap_or_else(|e| cli_error(format!("journal {}: {e}", journal.unwrap_or_default())));
    if let Some(summary) = cache_summary(experiment) {
        eprintln!("[sweep] {summary}");
    }
    result
}

/// The [`run_experiment`] flags that only serve full outcomes: a
/// journal (`--resume`, `--durable`) and chunked progress
/// (`--progress`).
const FULL_OUTCOME_FLAGS: [&str; 3] = ["--resume", "--durable", "--progress"];

/// Rejects `--resume`, `--durable` and `--progress` through
/// [`cli_error`] (exit code 2): a report built by
/// [`saturation_table`] keeps no outcomes, so it would otherwise ignore
/// them silently. Its binaries call this before any other work, so a
/// rejected flag costs nothing.
pub fn reject_full_outcome_flags() {
    if let Some(flag) = FULL_OUTCOME_FLAGS.into_iter().find(|flag| has_flag(flag)) {
        cli_error(format!(
            "{flag} does not apply here: this report asks each cell only whether it keeps up \
             and keeps no outcomes (sweep_worker journals full outcomes)"
        ));
    }
}

/// A per-pattern saturation table (see [`saturation_table`]).
#[derive(Debug)]
pub struct SaturationTable {
    /// How many cells of the plan the table covers (a `--shard` covers
    /// a subset of it), probed or not.
    pub cells: usize,
    /// The rendered table, one line per case.
    pub text: String,
}

impl std::fmt::Display for SaturationTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Renders a per-pattern saturation table: one row per case, one column
/// per traffic pattern *actually swept*, entries in percent of injection
/// capacity (`-` where even the lowest swept rate saturates). Rows and
/// columns follow the first appearance of each case name and pattern
/// in `cells`; `estimate` gives the highest rate a case keeps up with
/// under a pattern.
fn render_saturation_table<'c>(
    cells: impl IntoIterator<Item = (&'c str, TrafficPattern)>,
    estimate: impl Fn(&str, TrafficPattern) -> Option<f64>,
) -> String {
    let mut cases: Vec<&str> = Vec::new();
    let mut patterns: Vec<TrafficPattern> = Vec::new();
    for (case, pattern) in cells {
        if !cases.contains(&case) {
            cases.push(case);
        }
        if !patterns.contains(&pattern) {
            patterns.push(pattern);
        }
    }
    let mut out = String::new();
    out.push_str(&format!("{:<26}", "SatThr[%] by pattern"));
    for pattern in &patterns {
        out.push_str(&format!(" {:>13}", pattern.to_string()));
    }
    out.push('\n');
    out.push_str(&"-".repeat(26 + 14 * patterns.len()));
    out.push('\n');
    for case in &cases {
        out.push_str(&format!("{case:<26}"));
        for &pattern in &patterns {
            match estimate(case, pattern) {
                Some(sat) => out.push_str(&format!(" {:>13.1}", sat * 100.0)),
                None => out.push_str(&format!(" {:>13}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Runs an experiment for its per-pattern saturation table — the report
/// `fig6`, `pareto` and `ruche_comparison` print. A case's saturation
/// under a pattern is the highest swept rate whose cell keeps up with
/// its offered load within `slack` ([`shg_sim::SimOutcome::keeps_up`]).
/// Each row is bisected over its rates
/// ([`Experiment::highest_sustained`]), so a row of n cells runs at
/// most ⌈log₂(n + 1)⌉ of them, and a cell that cannot keep up stops
/// inside its measurement window as soon as that is certain instead of
/// running on to the drain limit. The bisection assumes a row's cells
/// that keep up are a prefix of its rates; on such rows the table is
/// exactly [`SweepResult::saturation_estimate`] over the completed
/// cells. On a row that breaks it the entry is a probed rate that
/// keeps up whose probed next-higher rate does not, not necessarily
/// the highest.
///
/// Reads the standard flags that still apply:
///
/// * `--shard i/N` — build the table from just that shard's cells;
/// * `--cache <dir>` — answer cells from a cache that a full-outcome
///   run (e.g. `sweep_worker --cache <dir>`) warmed. Read-only: a
///   verdict is not an outcome, so nothing is stored. The
///   `cache: cached=… simulated=… total=…` line goes to stderr; it
///   counts the cells the row bisections probed, with probed misses
///   counted as simulated.
///
/// The flags that only serve full outcomes are rejected
/// ([`reject_full_outcome_flags`]). A malformed `--shard` or an
/// unusable `--cache` directory is a usage error via [`cli_error`].
#[must_use]
pub fn saturation_table(experiment: &mut Experiment<'_>, slack: f64) -> SaturationTable {
    reject_full_outcome_flags();
    attach_cache_from_args(experiment);
    let experiment: &Experiment<'_> = experiment;
    let shard = shard_from_args();
    let cells = experiment.plan().shard_cells(shard);
    let rows = experiment.highest_sustained(&cells, slack);
    if let Some(summary) = cache_summary(experiment) {
        eprintln!("[sweep] {summary}");
    }
    let spec = experiment.spec();
    let label = |row: &SustainedRow| {
        (
            experiment.cases()[row.case as usize].name.as_str(),
            spec.patterns[row.pattern as usize],
        )
    };
    let text = render_saturation_table(rows.iter().map(label), |case, pattern| {
        rows.iter()
            .filter(|row| label(row) == (case, pattern))
            .filter_map(|row| row.rate)
            .reduce(f64::max)
    });
    SaturationTable {
        cells: cells.len(),
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shg_topology::{generators, Grid};

    #[test]
    fn fingerprint_distinguishes_topologies_and_matches_itself() {
        let grid = Grid::new(4, 4);
        let mesh = generators::mesh(grid);
        let torus = generators::torus(grid);
        assert_eq!(topology_fingerprint(&mesh), topology_fingerprint(&mesh));
        assert_ne!(topology_fingerprint(&mesh), topology_fingerprint(&torus));
        let mesh2 = generators::mesh(Grid::new(4, 5));
        assert_ne!(topology_fingerprint(&mesh), topology_fingerprint(&mesh2));
    }

    #[test]
    fn cache_computes_each_topology_once() {
        let scenario = Scenario::knc_a();
        let options = ModelOptions {
            cell_scale: 6.0,
            ..ModelOptions::default()
        };
        let mesh = generators::mesh(scenario.params.grid);
        let mut cache = TopologyCache::new();
        let a = cache
            .prepare(&scenario.params, &options, &mesh)
            .expect("mesh routes");
        let b = cache
            .prepare(&scenario.params, &options, &mesh)
            .expect("mesh routes");
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(a.link_latencies, b.link_latencies);
        assert_eq!(a.link_latencies.len(), mesh.num_links());
        assert_eq!(
            a.routes,
            routing::default_routes(&mesh).expect("mesh routes")
        );
        // Other model options are another prediction: their own slot.
        let coarser = ModelOptions {
            cell_scale: 8.0,
            ..options
        };
        cache
            .prepare(&scenario.params, &coarser, &mesh)
            .expect("mesh routes");
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn run_experiment_without_flags_is_run_parallel() {
        // The test binary's argv carries none of the sharding flags, so
        // the executor must take the plain path and reproduce the
        // single-shot bytes.
        let mesh = generators::mesh(Grid::new(4, 4));
        let spec = shg_sim::SweepSpec::new(shg_sim::SimConfig::fast_test()).rates([0.05, 0.2]);
        let mut experiment = shg_sim::Experiment::new(spec)
            .with_unit_latency_case("mesh", &mesh)
            .expect("mesh routes");
        let executed = run_experiment(&mut experiment).to_json();
        assert_eq!(executed, experiment.run_parallel().to_json());
        assert!(
            cache_summary(&experiment).is_none(),
            "no --cache flag, no cache"
        );
    }

    #[test]
    fn request_setup_rejects_the_removed_routes_param() {
        let error = request_setup(&[("routes".to_owned(), "dense".to_owned())])
            .expect_err("routes= was removed");
        assert!(
            error.contains("routes") && error.contains("removed"),
            "{error}"
        );
        let setup = request_setup(&[]).expect("default request");
        assert_eq!(setup.route_form, RouteForm::NextHop);
    }

    #[test]
    fn journal_paths_of_later_sweeps_get_suffixes() {
        assert_eq!(nth_journal_path("a.jsonl", 0), "a.jsonl");
        assert_eq!(nth_journal_path("a.jsonl", 1), "a.jsonl.2");
        assert_eq!(nth_journal_path("a.jsonl", 2), "a.jsonl.3");
    }

    #[test]
    fn verdict_table_equals_the_table_of_full_outcomes() {
        let mut scenario = Scenario::knc_a();
        // Shrink for test speed.
        scenario.params.grid = Grid::new(4, 4);
        scenario.sim = shg_sim::SimConfig::fast_test();
        let options = ModelOptions {
            cell_scale: 6.0,
            ..ModelOptions::default()
        };
        let topologies = vec![
            ("mesh".to_owned(), generators::mesh(scenario.params.grid)),
            ("torus".to_owned(), generators::torus(scenario.params.grid)),
        ];
        let mut experiment = annotated_experiment(
            &scenario.params,
            &options,
            &mut TopologyCache::new(),
            &topologies,
            scenario_sweep_spec(&scenario, 3),
            RouteForm::NextHop,
        )
        .expect("4x4 cases route");
        // The test binary's argv carries no sweep flags: the whole plan.
        let table = saturation_table(&mut experiment, 0.05);
        // 6 patterns on the 3-point linear grid, plus the hot-spot
        // pattern's 4 extra log-spaced low-end rates, per case.
        assert_eq!(table.cells, 2 * (7 * 3 + 4));
        let cells: Vec<shg_sim::CellId> = experiment.plan().cells().collect();
        let result = SweepResult {
            points: experiment.run_cells(&cells),
        };
        let reference = render_saturation_table(
            result.points.iter().map(|p| (p.case.as_str(), p.pattern)),
            |case, pattern| result.saturation_estimate(case, pattern, 0.05),
        );
        assert_eq!(table.text, reference);
        // The grid holds cells on both sides of the verdict.
        let keeps_up = |p: &shg_sim::SweepPoint| p.outcome.keeps_up(0.05);
        assert!(result.points.iter().any(keeps_up));
        assert!(!result.points.iter().all(keeps_up));
        assert!(table.text.contains("mesh"));
        assert!(table.text.contains("tornado"));
        // The low end gives the hot-spot column a resolved (non `-`)
        // saturation estimate even when the linear grid saturates.
        for case in ["mesh", "torus"] {
            assert!(
                result
                    .saturation_estimate(case, TrafficPattern::Hotspot(20), 0.05)
                    .is_some(),
                "{case}: hot-spot saturation unresolved"
            );
        }
    }
}
