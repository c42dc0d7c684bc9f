//! Sweep-layer equivalence of the topology database: a `db` request
//! whose database reduces to a legacy generator produces the same plan
//! fingerprint, the same sweep bytes and the same cell-cache entries as
//! the legacy topology under the same case name — and a heterogeneous
//! two-die database sweeps byte-deterministically through the same
//! machinery.

use shg_bench::sweep::{annotated_experiment, cache_summary, request_setup, TopologyCache};
use shg_sim::CellCache;
use shg_topology::{generators, Grid, Topology};

/// Request params for scenario a's fast one-point sweep, optionally
/// carrying a `db` value in wire form.
fn params(db: Option<&str>) -> Vec<(String, String)> {
    let mut params = vec![
        ("scenario".to_owned(), "a".to_owned()),
        ("fast".to_owned(), "1".to_owned()),
        ("rate-points".to_owned(), "1".to_owned()),
    ];
    if let Some(spec) = db {
        params.push(("db".to_owned(), spec.to_owned()));
    }
    params
}

/// A scratch cache directory, wiped at entry so reruns start cold.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "shg_expanded_grid_sweep_{}_{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn db_request_matches_the_legacy_mesh_plan_and_bytes() {
    // The database path: die m is scenario a's full 8×8 grid, mesh
    // base — request_setup instantiates it as the single case `db`.
    let setup = request_setup(&params(Some("die/m/8x8/mesh"))).expect("db request");
    let pair = setup.db_topology.as_ref().expect("db topology present");
    assert_eq!(pair.0, "db");
    assert_eq!(pair.1, generators::mesh(Grid::new(8, 8)));
    let mut cache = TopologyCache::new();
    let db_experiment = annotated_experiment(
        &setup.scenario.params,
        &setup.model_options,
        &mut cache,
        std::slice::from_ref(pair),
        setup.spec.clone(),
        setup.route_form,
    )
    .expect("annotates");

    // The legacy path: the same mesh from the legacy constructor,
    // manually case-named `db` so the plans are comparable.
    let legacy_setup = request_setup(&params(None)).expect("legacy request");
    let legacy: Vec<(String, Topology)> = vec![(
        "db".to_owned(),
        generators::mesh(legacy_setup.scenario.params.grid),
    )];
    let legacy_experiment = annotated_experiment(
        &legacy_setup.scenario.params,
        &legacy_setup.model_options,
        &mut cache,
        &legacy,
        legacy_setup.spec.clone(),
        legacy_setup.route_form,
    )
    .expect("annotates");

    // Same plan fingerprint (spec, case names, grids, links, floorplan
    // latencies) — the coordinator's handshake would accept either
    // side — and byte-identical sweep output.
    assert_eq!(
        db_experiment.plan().fingerprint(),
        legacy_experiment.plan().fingerprint()
    );
    assert_eq!(
        db_experiment.run_parallel().to_json(),
        legacy_experiment.run_parallel().to_json()
    );
}

#[test]
fn warm_cache_from_legacy_cells_answers_the_db_request() {
    let dir = scratch_dir("warm");

    // Cold run on the legacy constructor's mesh, case-named `db`.
    let legacy_setup = request_setup(&params(None)).expect("legacy request");
    let legacy: Vec<(String, Topology)> = vec![(
        "db".to_owned(),
        generators::mesh(legacy_setup.scenario.params.grid),
    )];
    let mut cache = TopologyCache::new();
    let mut cold = annotated_experiment(
        &legacy_setup.scenario.params,
        &legacy_setup.model_options,
        &mut cache,
        &legacy,
        legacy_setup.spec.clone(),
        legacy_setup.route_form,
    )
    .expect("annotates");
    cold.set_cache(CellCache::open(&dir).expect("cache opens"));
    let cold_json = cold.run_parallel().to_json();
    let total = cold.plan().num_cells();
    assert_eq!(
        cache_summary(&cold).expect("cache attached"),
        format!("cache: cached=0 simulated={total} total={total}")
    );

    // Warm run through the database path: every cell fingerprint must
    // match the legacy one, so nothing re-simulates.
    let setup = request_setup(&params(Some("die/m/8x8/mesh"))).expect("db request");
    let pair = setup.db_topology.as_ref().expect("db topology present");
    let mut warm = annotated_experiment(
        &setup.scenario.params,
        &setup.model_options,
        &mut cache,
        std::slice::from_ref(pair),
        setup.spec.clone(),
        setup.route_form,
    )
    .expect("annotates");
    warm.set_cache(CellCache::open(&dir).expect("cache reopens"));
    let warm_json = warm.run_parallel().to_json();
    assert_eq!(warm_json, cold_json);
    assert_eq!(
        cache_summary(&warm).expect("cache attached"),
        format!("cache: cached={total} simulated=0 total={total}")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_die_heterogeneous_sweep_is_byte_deterministic_and_cache_warm() {
    let dir = scratch_dir("two_die");
    // Two 4×3 dies: a mesh compute die and a sparse-Hamming die with a
    // memory region, stitched on every row with 3-cycle seams. (Small
    // dies keep the product's diameter within the simulator's 8 VCs —
    // the generic hop-escalation routing of multi-die topologies needs
    // one VC class per hop.)
    let wire = "die/l/4x3/mesh;die/r/4x3/shg:sc=2;\
                region/r/r0..2/c0..3/memory;boundary/every=1/latency=3";
    let setup = request_setup(&params(Some(wire))).expect("two-die request");
    let pair = setup.db_topology.as_ref().expect("db topology present");
    assert_eq!(pair.1.grid(), Grid::new(4, 6));
    assert_eq!(pair.1.num_dies(), 2);
    assert_eq!(setup.scenario.params.grid, pair.1.grid(), "grid overridden");

    let mut cache = TopologyCache::new();
    let mut first = annotated_experiment(
        &setup.scenario.params,
        &setup.model_options,
        &mut cache,
        std::slice::from_ref(pair),
        setup.spec.clone(),
        setup.route_form,
    )
    .expect("annotates");
    first.set_cache(CellCache::open(&dir).expect("cache opens"));
    let first_json = first.run_parallel().to_json();

    // Identical request, fresh interpretation: byte-identical output,
    // fully answered from the cell cache.
    let setup2 = request_setup(&params(Some(wire))).expect("repeat request");
    let pair2 = setup2.db_topology.as_ref().expect("db topology present");
    let mut second = annotated_experiment(
        &setup2.scenario.params,
        &setup2.model_options,
        &mut cache,
        std::slice::from_ref(pair2),
        setup2.spec.clone(),
        setup2.route_form,
    )
    .expect("annotates");
    second.set_cache(CellCache::open(&dir).expect("cache reopens"));
    let second_json = second.run_parallel().to_json();
    assert_eq!(second_json, first_json);
    let total = second.plan().num_cells();
    assert_eq!(
        cache_summary(&second).expect("cache attached"),
        format!("cache: cached={total} simulated=0 total={total}")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn request_setup_rejects_bad_databases() {
    let err = request_setup(&params(Some("die/d/8x8/nope"))).expect_err("unknown base");
    assert!(err.contains("db '"), "{err}");
    let err = request_setup(&params(Some("die/d/3x3/hypercube"))).expect_err("grid mismatch");
    assert!(err.contains("db '"), "{err}");
    assert!(err.contains("hypercube") || err.contains("power"), "{err}");
    let err = request_setup(&params(Some("widget/d/8x8/mesh"))).expect_err("unknown statement");
    assert!(err.contains("unknown statement"), "{err}");
}

/// The simulator has one allocator, so `alloc` names no plan parameter:
/// a request carrying it is refused like any other unknown key.
#[test]
fn request_setup_rejects_the_alloc_param() {
    let mut request = params(None);
    request.push(("alloc".to_owned(), "full-scan".to_owned()));
    let err = request_setup(&request).expect_err("alloc is not a request param");
    assert_eq!(err, "unknown request param 'alloc'");
}
