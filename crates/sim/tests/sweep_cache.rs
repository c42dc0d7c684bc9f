//! Correctness suite for the cell-result cache: a warm re-run must
//! serialize byte-identically to a cold run, a widened grid must
//! simulate **only** the new cells, and corrupted or stale entries
//! must be recomputed — never merged into a result.

use std::path::PathBuf;

use proptest::prelude::*;
use shg_sim::sweep::{run_sweep, Executors, JournalSink};
use shg_sim::{
    CellCache, CellId, Experiment, ShardSpec, SimConfig, SweepResult, SweepSpec, TrafficPattern,
};
use shg_topology::{generators, Grid, Topology};

/// A scratch directory unique to this test process and name; removed
/// on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("shg_sweep_cache_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }

    fn cache(&self) -> CellCache {
        CellCache::open(&self.0).expect("cache dir opens")
    }

    fn entry_paths(&self) -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&self.0)
            .expect("cache dir lists")
            .map(|e| e.expect("dir entry").path())
            .collect();
        paths.sort();
        paths
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn base_spec(config: SimConfig) -> SweepSpec {
    SweepSpec::new(config)
        .rates([0.02, 0.1])
        .patterns([TrafficPattern::UniformRandom, TrafficPattern::Hotspot(20)])
}

fn experiment<'a>(spec: SweepSpec, mesh: &'a Topology) -> Experiment<'a> {
    Experiment::new(spec)
        .with_unit_latency_case("mesh", mesh)
        .expect("mesh routes")
}

/// The cache-less reference bytes: every cell on its own fresh network.
fn fresh_json(experiment: &Experiment<'_>) -> String {
    let cells: Vec<CellId> = experiment.plan().cells().collect();
    SweepResult {
        points: experiment.run_cells_fresh(&cells),
    }
    .to_json()
}

#[test]
fn warm_rerun_is_byte_identical_and_simulates_nothing() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let scratch = ScratchDir::new("warm_rerun");
    let reference = fresh_json(&experiment(base_spec(SimConfig::fast_test()), &mesh));

    let cold = experiment(base_spec(SimConfig::fast_test()), &mesh).with_cache(scratch.cache());
    assert_eq!(cold.run_parallel().to_json(), reference);
    let stats = cold.cache().expect("cache attached").stats();
    assert_eq!(
        (stats.cached, stats.simulated),
        (0, 4),
        "cold run misses all"
    );

    let warm = experiment(base_spec(SimConfig::fast_test()), &mesh).with_cache(scratch.cache());
    assert_eq!(
        warm.run_parallel().to_json(),
        reference,
        "warm bytes differ"
    );
    let stats = warm.cache().expect("cache attached").stats();
    assert_eq!(
        (stats.cached, stats.simulated),
        (4, 0),
        "warm run must hit all"
    );
}

#[test]
fn widened_grid_simulates_only_the_delta() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let torus = generators::torus(Grid::new(4, 4));
    let scratch = ScratchDir::new("widened");
    let cold = experiment(base_spec(SimConfig::fast_test()), &mesh).with_cache(scratch.cache());
    let _ = cold.run_parallel();
    assert_eq!(cold.cache().expect("cache").stats().simulated, 4);

    // Widen every axis by appending: a rate, a pattern's override, and
    // a whole new case. Surviving cells keep their coordinates (and
    // derived seeds), so only the new cells may simulate.
    let widened_spec = || {
        base_spec(SimConfig::fast_test())
            .rates([0.02, 0.1, 0.3])
            .rates_for(TrafficPattern::Hotspot(20), [0.02, 0.1, 0.05])
    };
    let widen = |cache: CellCache| {
        Experiment::new(widened_spec())
            .with_unit_latency_case("mesh", &mesh)
            .expect("mesh routes")
            .with_unit_latency_case("torus", &torus)
            .expect("torus routes")
            .with_cache(cache)
    };
    // Delta: mesh uniform gains 1 rate, mesh hotspot gains 1 override
    // rate, and the torus case contributes all 3 + 3 cells.
    let warm = widen(scratch.cache());
    let warm_json = warm.run_parallel().to_json();
    let stats = warm.cache().expect("cache").stats();
    assert_eq!(stats.cached, 4, "all original cells must hit");
    assert_eq!(stats.simulated, 2 + 6, "only the widened delta simulates");

    // The warm widened run is byte-identical to a cold widened run.
    let fresh = ScratchDir::new("widened_fresh");
    let cold_widened = widen(fresh.cache());
    assert_eq!(cold_widened.run_parallel().to_json(), warm_json);
    assert_eq!(cold_widened.cache().expect("cache").stats().simulated, 12);
}

#[test]
fn reindexed_cells_do_not_hit_the_cache() {
    // Inserting a rate *before* existing ones shifts rate indices, so
    // the shifted cells get new derived seeds — they must re-simulate,
    // not hit stale entries keyed under the old coordinates.
    let mesh = generators::mesh(Grid::new(4, 4));
    let scratch = ScratchDir::new("reindexed");
    let cold = experiment(base_spec(SimConfig::fast_test()), &mesh).with_cache(scratch.cache());
    let _ = cold.run_parallel();

    let shifted_spec = base_spec(SimConfig::fast_test()).rates([0.01, 0.02, 0.1]);
    let shifted = experiment(shifted_spec.clone(), &mesh).with_cache(scratch.cache());
    let shifted_json = shifted.run_parallel().to_json();
    let stats = shifted.cache().expect("cache").stats();
    assert_eq!(stats.cached, 0, "every coordinate shifted; nothing may hit");
    assert_eq!(stats.simulated, 6);
    let reference = fresh_json(&experiment(shifted_spec, &mesh));
    assert_eq!(shifted_json, reference);
}

#[test]
fn corrupted_and_stale_entries_are_recomputed_never_merged() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let scratch = ScratchDir::new("corrupt");
    let reference = fresh_json(&experiment(base_spec(SimConfig::fast_test()), &mesh));
    let cold = experiment(base_spec(SimConfig::fast_test()), &mesh).with_cache(scratch.cache());
    let _ = cold.run_parallel();

    let corruptions: [&dyn Fn(&PathBuf); 4] = [
        // Torn write: the trailing newline never landed.
        &|path| {
            let text = std::fs::read_to_string(path).expect("read");
            std::fs::write(path, text.trim_end()).expect("write");
        },
        // Truncated mid-entry.
        &|path| {
            let text = std::fs::read_to_string(path).expect("read");
            std::fs::write(path, &text[..text.len() / 2]).expect("write");
        },
        // A recorded fingerprint that disagrees with its address.
        &|path| {
            let text = std::fs::read_to_string(path).expect("read");
            let tampered = text.replacen("\"fingerprint\":", "\"fingerprint\":9", 1);
            std::fs::write(path, tampered).expect("write");
        },
        // Outright garbage.
        &|path| std::fs::write(path, "{\"format\":\"who knows\"}\n").expect("write"),
    ];
    let paths = scratch.entry_paths();
    assert_eq!(paths.len(), 4, "one entry per cell");
    for (path, corrupt) in paths.iter().zip(corruptions) {
        corrupt(path);
    }

    let warm = experiment(base_spec(SimConfig::fast_test()), &mesh).with_cache(scratch.cache());
    assert_eq!(
        warm.run_parallel().to_json(),
        reference,
        "corrupted entries leaked into the result"
    );
    let stats = warm.cache().expect("cache").stats();
    assert_eq!(
        (stats.cached, stats.simulated),
        (0, 4),
        "every corrupted entry must be recomputed"
    );

    // The recomputation healed the cache: a further run hits all 4.
    let healed = experiment(base_spec(SimConfig::fast_test()), &mesh).with_cache(scratch.cache());
    let _ = healed.run_parallel();
    let stats = healed.cache().expect("cache").stats();
    assert_eq!((stats.cached, stats.simulated), (4, 0));
}

#[test]
fn different_routing_table_never_hits() {
    // `SweepCase::annotated` accepts arbitrary routes: the same
    // topology routed differently produces different outcomes, so the
    // digest must separate them — a stale hit here would silently
    // report the other routing's results.
    use shg_sim::SweepCase;
    use shg_topology::routing::{build_routes_with, RouteForm, RoutingAlgorithm};
    use shg_units::Cycles;

    let mesh = generators::mesh(Grid::new(4, 4));
    let latencies = vec![Cycles::one(); mesh.num_links()];
    let routed = |algorithm: RoutingAlgorithm| {
        let routes = build_routes_with(&mesh, algorithm, RouteForm::Dense).expect("mesh routes");
        assert_eq!(routes.form(), RouteForm::Dense);
        Experiment::new(base_spec(SimConfig::fast_test())).with_case(SweepCase::annotated(
            "mesh",
            &mesh,
            routes,
            latencies.clone(),
        ))
    };
    let scratch = ScratchDir::new("routes");
    let cold = routed(RoutingAlgorithm::RowColumn).with_cache(scratch.cache());
    let _ = cold.run_parallel();

    let rerouted = routed(RoutingAlgorithm::HopEscalation).with_cache(scratch.cache());
    let rerouted_json = rerouted.run_parallel().to_json();
    let stats = rerouted.cache().expect("cache").stats();
    assert_eq!(stats.cached, 0, "a different routing table must never hit");
    assert_eq!(
        rerouted_json,
        routed(RoutingAlgorithm::HopEscalation)
            .run_parallel()
            .to_json()
    );
}

#[test]
fn different_root_seed_never_hits() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let scratch = ScratchDir::new("seed");
    let cold = experiment(base_spec(SimConfig::fast_test()), &mesh).with_cache(scratch.cache());
    let _ = cold.run_parallel();
    let other = SimConfig {
        seed: 7,
        ..SimConfig::fast_test()
    };
    let reference = fresh_json(&experiment(base_spec(other.clone()), &mesh));
    let reseeded = experiment(base_spec(other), &mesh).with_cache(scratch.cache());
    assert_eq!(reseeded.run_parallel().to_json(), reference);
    let stats = reseeded.cache().expect("cache").stats();
    assert_eq!((stats.cached, stats.simulated), (0, 4));
}

#[test]
fn journal_resume_and_cache_compose() {
    // The journal stays the crash-consistency layer: a journaled shard
    // run with a warm cache writes byte-identical journal lines while
    // simulating nothing.
    let mesh = generators::mesh(Grid::new(4, 4));
    let scratch = ScratchDir::new("journal");
    let journal_cold = scratch.0.join("cold.jsonl");
    let journal_warm = scratch.0.join("warm.jsonl");
    std::fs::create_dir_all(&scratch.0).expect("scratch dir");

    let cached = experiment(base_spec(SimConfig::fast_test()), &mesh)
        .with_cache(CellCache::open(scratch.0.join("cells")).expect("cache"));
    let journaled = |experiment: &Experiment<'_>, path: &std::path::Path| {
        let journal = JournalSink {
            path,
            resume: false,
            durable: false,
        };
        run_sweep(
            experiment,
            ShardSpec::SOLO,
            Executors::Local,
            Some(journal),
            None,
        )
        .expect("journaled run")
        .0
    };
    let cold = journaled(&cached, &journal_cold);
    let stats = cached.cache().expect("cache").stats();
    assert_eq!((stats.cached, stats.simulated), (0, 4));

    let warm_exp = experiment(base_spec(SimConfig::fast_test()), &mesh)
        .with_cache(CellCache::open(scratch.0.join("cells")).expect("cache"));
    let warm = journaled(&warm_exp, &journal_warm);
    assert_eq!(warm.to_json(), cold.to_json());
    let stats = warm_exp.cache().expect("cache").stats();
    assert_eq!((stats.cached, stats.simulated), (4, 0));
    assert_eq!(
        std::fs::read(&journal_cold).expect("cold journal"),
        std::fs::read(&journal_warm).expect("warm journal"),
        "cache leaked into the journal bytes"
    );
}

/// Cell groups and the cache compose: a group whose cells are all
/// cached builds no network, and the bytes stay the fresh networks'.
#[test]
fn reuse_backend_and_cache_compose() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let scratch = ScratchDir::new("reuse_compose");
    let reference = fresh_json(&experiment(base_spec(SimConfig::fast_test()), &mesh));
    let cold = experiment(base_spec(SimConfig::fast_test()), &mesh).with_cache(scratch.cache());
    assert_eq!(cold.run_parallel().to_json(), reference);
    // One group of four cells: one construction, three resets.
    let built = cold.exec_stats();
    assert_eq!((built.per_cell_cells, built.reuse_cells), (1, 3));
    let warm = experiment(base_spec(SimConfig::fast_test()), &mesh).with_cache(scratch.cache());
    assert_eq!(warm.run_parallel().to_json(), reference);
    let stats = warm.cache().expect("cache").stats();
    assert_eq!((stats.cached, stats.simulated), (4, 0));
    assert_eq!(warm.exec_stats(), shg_sim::ExecStats::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any seed: a cold cached run and a warm re-run both serialize
    /// to exactly the cache-less bytes, and the warm run simulates
    /// nothing.
    #[test]
    fn cold_and_warm_cached_runs_match_the_uncached_bytes(seed in 0u64..1_000) {
        let mesh = generators::mesh(Grid::new(4, 4));
        let config = SimConfig {
            seed,
            ..SimConfig::fast_test()
        };
        let scratch = ScratchDir::new(&format!("prop_{seed}"));
        let reference = fresh_json(&experiment(base_spec(config.clone()), &mesh));
        let build = || {
            experiment(base_spec(config.clone()), &mesh).with_cache(scratch.cache())
        };
        let cold = build();
        prop_assert_eq!(cold.run_parallel().to_json(), reference.clone());
        let warm = build();
        prop_assert_eq!(warm.run_parallel().to_json(), reference.clone());
        let stats = warm.cache().expect("cache").stats();
        prop_assert_eq!((stats.cached, stats.simulated), (4, 0));
    }
}

/// The cache keys on routing *semantics*, not storage form: a sweep
/// over next-hop routes re-hits every cell a dense-routed sweep cached
/// (they simulate byte-identically), while changing the routing
/// algorithm misses every cell.
#[test]
fn cache_is_route_form_agnostic_but_algorithm_sensitive() {
    use shg_sim::SweepCase;
    use shg_topology::routing::{build_routes_with, RouteForm, RoutingAlgorithm};
    use shg_units::Cycles;

    let mesh = generators::mesh(Grid::new(4, 4));
    let with_routes = |algorithm, form| {
        let routes = build_routes_with(&mesh, algorithm, form).expect("routes build");
        assert_eq!(routes.form(), form);
        let latencies = vec![Cycles::one(); mesh.num_links()];
        Experiment::new(base_spec(SimConfig::fast_test()))
            .with_case(SweepCase::annotated("mesh", &mesh, routes, latencies))
    };

    let scratch = ScratchDir::new("form_agnostic");
    let dense =
        with_routes(RoutingAlgorithm::RowColumn, RouteForm::Dense).with_cache(scratch.cache());
    let reference = dense.run_parallel().to_json();
    let stats = dense.cache().expect("cache").stats();
    assert_eq!((stats.cached, stats.simulated), (0, 4), "cold run misses");

    // Same algorithm, compact storage: every cell is already cached.
    let compact =
        with_routes(RoutingAlgorithm::RowColumn, RouteForm::NextHop).with_cache(scratch.cache());
    assert_eq!(compact.run_parallel().to_json(), reference);
    let stats = compact.cache().expect("cache").stats();
    assert_eq!(
        (stats.cached, stats.simulated),
        (4, 0),
        "form switch must stay warm"
    );

    // Different algorithm over the same topology: no entry may be
    // shared, whatever the storage form.
    let escalation = with_routes(RoutingAlgorithm::HopEscalation, RouteForm::NextHop)
        .with_cache(scratch.cache());
    let _ = escalation.run_parallel();
    let stats = escalation.cache().expect("cache").stats();
    assert_eq!(
        (stats.cached, stats.simulated),
        (0, 4),
        "algorithm switch must miss"
    );
}
