//! The traced pass: each workload's work replayed in process through the
//! layers' public functions, every call inside a span, every replayed
//! result checked against what the untraced path produces. End-to-end
//! metrics are never taken from here.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use shg_core::{Evaluation, PerformanceMode, SparseHammingConfig, Toolchain};
use shg_floorplan::ArchParams;
use shg_sim::sweep::proto::{read_frame, write_frame, ToCoord, ToWorker};
use shg_sim::sweep::{read_journal, JournalWriter};
use shg_sim::{
    CellCache, CellId, ExecBackend, Experiment, Network, ShardResult, ShardSpec, SimConfig,
    SimOutcome, SweepPoint, SweepResult, TrafficPattern,
};
use shg_topology::routing::{RouteForm, Routes};
use shg_topology::{TileId, Topology};
use shg_units::Cycles;

use crate::calib;
use crate::metrics::{Checks, Results, PER_LAYER};
use crate::plan::{self, Case, SweepInputs, Workload, BIGTOPO_SHARD};
use crate::trace::Tracer;
use crate::workloads::{self, splitmix, Ctx};

/// Runs `f`, returning its result and how long it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// One simulation through the simulator's public calls: `Network::new`,
/// `run_profiled` (phases A/B/C from its `PhaseProfile`), then a `reset`
/// of the now-dirty network — what the reuse backend pays between cells.
/// With tracing off it is the plain `new` + `run` every caller makes.
fn simulate(
    t: &mut Tracer,
    case: &Case<'_>,
    config: SimConfig,
    rate: f64,
    pattern: TrafficPattern,
) -> SimOutcome {
    let next_seed = config.seed.wrapping_add(1);
    if !t.enabled() {
        let mut network = Network::new(case.topology, &case.routes, &case.link_latencies, config);
        return network.run(rate, pattern);
    }
    let packet_len = f64::from(config.packet_len);
    let mut network = t.span("sim.network.new", |_| {
        Network::new(case.topology, &case.routes, &case.link_latencies, config)
    });
    let outcome = t.span("sim.network.run", |t| {
        let (outcome, profile) = network.run_profiled(rate, pattern);
        t.reported_children(&[
            ("sim.network.injection", profile.injection),
            ("sim.network.delivery", profile.delivery),
            ("sim.network.allocation", profile.allocation),
        ]);
        t.count("cycles", outcome.cycles as f64);
        t.count(
            "tile_cycles",
            (outcome.cycles * case.topology.num_tiles() as u64) as f64,
        );
        t.count("packets", outcome.measured_packets as f64);
        t.count("flits", outcome.measured_packets as f64 * packet_len);
        outcome
    });
    t.span("sim.network.reset", |_| network.reset(next_seed));
    outcome
}

/// Replays `cells` one after another on this thread, each with the seed,
/// rate and pattern of its untraced point, and checks every outcome is
/// identical. Returns the seconds each cell took.
fn replay_cells(
    t: &mut Tracer,
    cases: &[Case<'_>],
    config: &SimConfig,
    cells: &[CellId],
    reference: &[SweepPoint],
    checks: &mut Checks,
) -> Vec<f64> {
    cells
        .iter()
        .zip(reference)
        .map(|(cell, point)| {
            let case = &cases[cell.case as usize];
            let config = SimConfig {
                seed: point.seed,
                ..config.clone()
            };
            let (outcome, seconds) = timed(|| simulate(t, case, config, point.rate, point.pattern));
            checks.check(
                &format!("replayed cell {cell} equals its untraced outcome"),
                outcome == point.outcome,
            );
            seconds
        })
        .collect()
}

/// Tracing overhead from a strided eighth of the replayed cells: their
/// traced seconds against the same cells run again with tracing off.
fn replay_overhead_pct(
    t: &mut Tracer,
    cases: &[Case<'_>],
    config: &SimConfig,
    cells: &[CellId],
    reference: &[SweepPoint],
    traced_s: &[f64],
) -> f64 {
    let picked: Vec<usize> = (0..cells.len()).step_by(8).collect();
    let subset: Vec<CellId> = picked.iter().map(|&i| cells[i]).collect();
    let points: Vec<SweepPoint> = picked.iter().map(|&i| reference[i].clone()).collect();
    let traced: f64 = picked.iter().map(|&i| traced_s[i]).sum();
    let untraced: f64 = t.span("bench.untraced_replay", |_| {
        let mut off = Tracer::new(false);
        replay_cells(
            &mut off,
            cases,
            config,
            &subset,
            &points,
            &mut Checks::default(),
        )
        .iter()
        .sum()
    });
    (traced / untraced - 1.0) * 100.0
}

/// `Routes::port_and_class` over a seeded sample of a million hops of
/// `case`'s routed paths (compact forms only; the dense form has no
/// per-hop query).
fn traced_routing_query(t: &mut Tracer, case: &Case<'_>, seed: u64) {
    const HOPS: usize = 1_000_000;
    if case.routes.form() == RouteForm::Dense {
        return;
    }
    let tiles = case.topology.num_tiles() as u64;
    let mut sample: Vec<(TileId, TileId, TileId, usize)> = Vec::with_capacity(HOPS + 64);
    let mut state = seed;
    while sample.len() < HOPS {
        state = splitmix(state);
        let src = TileId::new((state % tiles) as u32);
        let dst = TileId::new(((state >> 32) % tiles) as u32);
        let (mut at, mut hop) = (src, 0usize);
        case.routes.for_each_hop(src, dst, |h| {
            sample.push((at, src, dst, hop));
            at = h.to;
            hop += 1;
        });
    }
    sample.truncate(HOPS);
    t.span("topology.routing.query", |t| {
        let mut sum = 0u64;
        for &(at, src, dst, hop) in &sample {
            let (port, class) = case.routes.port_and_class(at, src, dst, hop);
            sum += u64::from(port) + u64::from(class);
        }
        black_box(sum);
        t.count("hops", HOPS as f64);
    });
}

/// `Toolchain::evaluate` with each stage called on its own: route
/// build, the floorplan steps, the zero-load walk, and the saturation
/// estimate of the toolchain's mode.
fn traced_evaluate(
    t: &mut Tracer,
    toolchain: &Toolchain,
    params: &ArchParams,
    topology: &Topology,
) -> Evaluation {
    t.span("core.toolchain.evaluate", |t| {
        let routes = plan::traced_routes(t, topology, RouteForm::Dense);
        let prediction = plan::traced_predict(t, params, topology, &toolchain.model_options);
        let latencies = &prediction.estimates.link_latencies;
        let zero_load_latency = t.span("core.toolchain.zero_load", |_| {
            shg_sim::zero_load_latency(topology, &routes, latencies, &toolchain.sim)
        });
        let saturation_throughput = match toolchain.mode {
            PerformanceMode::Analytic => t.span("core.toolchain.analytic_sat", |t| {
                let loads = t.span("topology.routing.channel_loads", |_| {
                    routes.channel_loads(topology)
                });
                // `analytic_saturation`'s bound, from the loads timed above.
                match loads.into_iter().max() {
                    Some(max) if max > 0 && topology.num_tiles() >= 2 => {
                        ((topology.num_tiles() as f64 - 1.0) / f64::from(max)).min(1.0)
                    }
                    _ => 1.0,
                }
            }),
            PerformanceMode::Simulate => {
                traced_saturation_search(t, toolchain, topology, &routes, latencies)
            }
        };
        let estimates = &prediction.estimates;
        let evaluation = Evaluation {
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
        };
        // Freeing a dense table is one deallocation per tile pair.
        t.span("topology.routing.drop", |_| drop(routes));
        evaluation
    })
}

/// `shg_sim::saturation_throughput`'s binary search, each probe run
/// through [`simulate`] so the simulator's phases show.
fn traced_saturation_search(
    t: &mut Tracer,
    toolchain: &Toolchain,
    topology: &Topology,
    routes: &Routes,
    latencies: &[Cycles],
) -> f64 {
    t.span("sim.runner.saturation_search", |t| {
        let case = Case {
            topology,
            routes: routes.clone(),
            link_latencies: latencies.to_vec(),
        };
        let search = toolchain.search;
        let zll = shg_sim::zero_load_latency(topology, routes, latencies, &toolchain.sim);
        let mut stable_at = |rate: f64| {
            let outcome = simulate(t, &case, toolchain.sim.clone(), rate, toolchain.pattern);
            outcome.keeps_up(search.slack)
                && outcome.avg_packet_latency <= zll * search.latency_factor
        };
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        if stable_at(hi) {
            return hi;
        }
        while hi - lo > search.resolution {
            let mid = (lo + hi) / 2.0;
            if stable_at(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    })
}

/// Total bytes of the regular files directly inside `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The cell cache on its own: probe every cell of an empty cache, store
/// every point, probe again.
fn traced_cache(
    t: &mut Tracer,
    dir: &Path,
    inputs: &SweepInputs,
    entries: &[(CellId, SweepPoint)],
    checks: &mut Checks,
    out: &mut Results,
) {
    let mut experiment = plan::annotate(inputs);
    experiment.set_cache(CellCache::open(dir).expect("cache directory opens"));
    let probe_all = |t: &mut Tracer| {
        t.span("sim.sweep.cache.probe", |t| {
            t.count("cells", entries.len() as f64);
            entries
                .iter()
                .filter(|(cell, point)| experiment.probe_cached(*cell).as_ref() == Some(point))
                .count()
        })
    };
    let found_cold = probe_all(t);
    let stored = t.span("sim.sweep.cache.store", |t| {
        t.count("cells", entries.len() as f64);
        entries
            .iter()
            .filter(|(cell, point)| experiment.store_cached(*cell, point))
            .count()
    });
    let found_warm = probe_all(t);
    checks.check("cell cache: empty cache misses every cell", found_cold == 0);
    checks.check(
        "cell cache: every stored point probes back identical",
        stored == entries.len() && found_warm == entries.len(),
    );
    let stats = experiment.cache().expect("cache attached").stats();
    let cells = entries.len() as f64;
    out.per_layer
        .insert("sim.sweep.cache.hits", stats.cached as f64);
    out.per_layer
        .insert("sim.sweep.cache.misses", stats.simulated as f64);
    out.per_layer.insert(
        "sim.sweep.cache.bytes_per_cell",
        dir_bytes(dir) as f64 / cells,
    );
}

/// The journal on its own: create + append in chunks of 16, read back.
fn traced_journal(
    t: &mut Tracer,
    path: &Path,
    experiment: &Experiment<'_>,
    shard: ShardSpec,
    entries: &[(CellId, SweepPoint)],
    checks: &mut Checks,
    out: &mut Results,
) {
    t.span("sim.sweep.journal.append", |_| {
        let mut writer = JournalWriter::create(path, &experiment.plan(), shard, false)
            .expect("journal is creatable");
        for chunk in entries.chunks(16) {
            writer.append(chunk).expect("journal appends");
        }
    });
    let read = t.span("sim.sweep.journal.read", |_| read_journal(path));
    checks.check(
        "journal: entries read back identical",
        read.is_ok_and(|journal| journal.entries == entries),
    );
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    out.per_layer.insert(
        "sim.sweep.journal.bytes_per_cell",
        bytes as f64 / entries.len() as f64,
    );
}

/// The result layer on its own: `to_json` of the whole grid, and `merge`
/// of the same grid cut into two strided shards.
fn traced_result(
    t: &mut Tracer,
    experiment: &Experiment<'_>,
    entries: &[(CellId, SweepPoint)],
    checks: &mut Checks,
    out: &mut Results,
) -> String {
    let result = SweepResult {
        points: entries.iter().map(|(_, p)| p.clone()).collect(),
    };
    let json = t.span("sim.sweep.result.to_json", |_| result.to_json());
    let plan = experiment.plan();
    let shards: Vec<ShardResult> = (0..2)
        .map(|i| {
            let shard = ShardSpec::new(i, 2);
            ShardResult {
                fingerprint: plan.fingerprint(),
                shard,
                plan_cells: plan.num_cells() as u64,
                entries: (0..entries.len())
                    .filter(|&ordinal| shard.owns(ordinal))
                    .map(|ordinal| entries[ordinal].clone())
                    .collect(),
            }
        })
        .collect();
    let merged = t.span("sim.sweep.result.merge", |_| SweepResult::merge(shards));
    checks.check(
        "result: two strided shards merge back to the single-shot bytes",
        merged.is_ok_and(|m| m.to_json() == json),
    );
    out.per_layer.insert(
        "sim.sweep.result.json_bytes_per_cell",
        json.len() as f64 / entries.len() as f64,
    );
    json
}

/// The wire protocol on its own: per 16-cell chunk, the `Chunk` request
/// and its `ChunkDone` reply encoded, framed into a buffer, read back and
/// decoded.
fn traced_proto(
    t: &mut Tracer,
    entries: &[(CellId, SweepPoint)],
    checks: &mut Checks,
    out: &mut Results,
) {
    const ROUNDS: usize = 20;
    let mut frames = 0u64;
    let mut bytes = 0u64;
    let mut intact = true;
    t.span("sim.sweep.proto.codec", |_| {
        for _ in 0..ROUNDS {
            for (id, chunk) in entries.chunks(16).enumerate() {
                let request = ToWorker::Chunk {
                    id: id as u64,
                    cells: chunk.iter().map(|(cell, _)| *cell).collect(),
                };
                let reply = ToCoord::ChunkDone {
                    id: id as u64,
                    entries: chunk.to_vec(),
                };
                let mut wire = Vec::new();
                write_frame(&mut wire, &request.encode()).expect("frame writes");
                write_frame(&mut wire, &reply.encode()).expect("frame writes");
                let mut reader = wire.as_slice();
                let got_request = read_frame(&mut reader).map(|p| ToWorker::decode(&p));
                let got_reply = read_frame(&mut reader).map(|p| ToCoord::decode(&p));
                intact &= matches!(got_request, Ok(Ok(m)) if m == request)
                    && matches!(got_reply, Ok(Ok(m)) if m == reply);
                frames += 2;
                bytes += wire.len() as u64;
            }
        }
    });
    checks.check(
        "proto: every framed message decodes to what was sent",
        intact,
    );
    let codec_s = t.totals()["sim.sweep.proto.codec"].total_s;
    out.per_layer.insert(
        "sim.sweep.proto.frame_roundtrip_ns",
        codec_s * 1e9 / frames as f64,
    );
    out.per_layer.insert(
        "sim.sweep.proto.bytes_per_cell",
        bytes as f64 / (ROUNDS * entries.len()) as f64,
    );
}

/// An experiment over `inputs` on `backend`, run on `threads` threads.
fn run_on(
    inputs: &SweepInputs,
    backend: ExecBackend,
    lanes: usize,
    threads: usize,
    cells: &[CellId],
) -> (Vec<SweepPoint>, f64) {
    let mut experiment = plan::annotate(inputs);
    experiment.set_backend(backend);
    experiment.set_lanes(lanes);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool builds");
    timed(|| pool.install(|| experiment.run_cells(cells)))
}

/// The backend row: the same strided eighth of the grid on every
/// execution backend, one thread, outputs compared; then the auto
/// backend again on every core for the parallel efficiency.
fn traced_backends(
    t: &mut Tracer,
    inputs: &SweepInputs,
    cells: &[CellId],
    reference: &[SweepPoint],
    checks: &mut Checks,
    out: &mut Results,
) {
    let picked: Vec<usize> = (0..cells.len()).step_by(8).collect();
    let subset: Vec<CellId> = picked.iter().map(|&i| cells[i]).collect();
    let expected: Vec<SweepPoint> = picked.iter().map(|&i| reference[i].clone()).collect();
    let rows = [
        (
            "sim.sweep.experiment.per_cell_cells_per_s",
            ExecBackend::PerCell,
            8,
        ),
        (
            "sim.sweep.experiment.reuse_cells_per_s",
            ExecBackend::Reuse,
            8,
        ),
        (
            "sim.sweep.experiment.batched_l1_cells_per_s",
            ExecBackend::Batched,
            1,
        ),
        (
            "sim.sweep.experiment.batched_l8_cells_per_s",
            ExecBackend::Batched,
            8,
        ),
        (
            "sim.sweep.experiment.auto_cells_per_s",
            ExecBackend::Auto,
            8,
        ),
    ];
    t.span("bench.backend_row", |_| {
        let mut auto_single_s = 0.0;
        for (metric, backend, lanes) in rows {
            let (points, seconds) = run_on(inputs, backend, lanes, 1, &subset);
            checks.check(
                &format!("backend row: {backend} (lanes {lanes}) agrees with the reference"),
                points == expected,
            );
            out.per_layer.insert(metric, subset.len() as f64 / seconds);
            auto_single_s = seconds;
        }
        let threads = rayon::current_num_threads();
        let (points, parallel_s) = run_on(inputs, ExecBackend::Auto, 8, threads, &subset);
        checks.check(
            "backend row: parallel auto agrees with the reference",
            points == expected,
        );
        out.per_layer.insert(
            "sim.sweep.experiment.parallel_efficiency",
            auto_single_s / (threads as f64 * parallel_s),
        );
    });
}

/// The traced pass of a sweep workload (`fig6a_fast`, `sweep_cold`,
/// `coord_fleet`, `bigtopo_2560`).
fn traced_sweep(
    t: &mut Tracer,
    workload: Workload,
    ctx: &Ctx,
    checks: &mut Checks,
    out: &mut Results,
) {
    let flags = workload.sweep_flags().expect("sweep workload");
    let params = plan::request_params(&flags, None);
    let inputs = plan::sweep_inputs(&params);
    // The untraced side: the chain exactly as the binaries call it.
    let mut engine = t.span("bench.reference", |_| plan::annotate(&inputs));
    let (experiment, cases) = plan::traced_sweep_setup(t, &params, &inputs);
    let fingerprint = t.span("sim.sweep.experiment.plan_fingerprint", |_| {
        experiment.plan().fingerprint()
    });
    checks.check(
        "set-up chain called step by step builds the same plan",
        fingerprint == engine.plan().fingerprint(),
    );
    traced_routing_query(t, cases.last().expect("at least one case"), ctx.seed);
    if workload == Workload::Fig6aFast {
        // `fig6` first ranks the seven topologies with the fast toolchain.
        let toolchain = Toolchain::fast();
        for (name, topology) in &inputs.topologies {
            let eval = traced_evaluate(t, &toolchain, &inputs.setup.scenario.params, topology);
            let reference = t.span("bench.reference", |_| {
                toolchain.evaluate(&inputs.setup.scenario.params, topology)
            });
            checks.check(
                &format!("{name}: evaluation called step by step equals Toolchain::evaluate"),
                reference.is_ok_and(|r| r == eval),
            );
        }
    }
    if workload == Workload::CoordFleet {
        return traced_fleet(t, ctx, &inputs, &experiment, checks, out);
    }
    let plan = experiment.plan();
    let shard = ShardSpec::parse(BIGTOPO_SHARD).expect("shard spec");
    let cells: Vec<CellId> = match workload {
        Workload::Fig6aFast => plan.cells().step_by(4).collect(),
        Workload::Bigtopo2560 => plan.shard_cells(shard),
        _ => plan.cells().collect(),
    };
    // The untraced points, from the sweep engine: on `sweep_cold` as the
    // worker runs them (auto backend, cold cache), elsewhere per cell on
    // every core — all backends produce identical points, and the auto
    // backend would run `bigtopo_2560`'s two cells one after the other.
    if workload == Workload::SweepCold {
        engine.set_backend(ExecBackend::Auto);
        let cache_dir = ctx.fresh_dir("reference-cache");
        engine.set_cache(CellCache::open(cache_dir).expect("cache directory opens"));
    }
    let reference = t.span("bench.reference", |_| engine.run_cells(&cells));
    let config = &inputs.setup.spec.config;
    let seconds = replay_cells(t, &cases, config, &cells, &reference, checks);
    let entries: Vec<(CellId, SweepPoint)> = cells.iter().copied().zip(reference.clone()).collect();
    match workload {
        Workload::Fig6aFast => {
            let overhead = replay_overhead_pct(t, &cases, config, &cells, &reference, &seconds);
            out.per_layer.insert("trace.overhead_pct", overhead);
        }
        Workload::SweepCold => {
            let overhead = replay_overhead_pct(t, &cases, config, &cells, &reference, &seconds);
            out.per_layer.insert("trace.overhead_pct", overhead);
            let stats = engine.exec_stats();
            out.per_layer.insert(
                "sim.sweep.experiment.auto_batched_cells",
                stats.batched_cells as f64,
            );
            out.per_layer.insert(
                "sim.sweep.experiment.auto_reuse_cells",
                stats.reuse_cells as f64,
            );
            traced_backends(t, &inputs, &cells, &reference, checks, out);
            traced_cache(
                t,
                &ctx.fresh_dir("cache-layer"),
                &inputs,
                &entries,
                checks,
                out,
            );
            let journal = ctx.fresh_dir("journal-layer").join("j.jsonl");
            traced_journal(
                t,
                &journal,
                &experiment,
                ShardSpec::SOLO,
                &entries,
                checks,
                out,
            );
            traced_result(t, &experiment, &entries, checks, out);
        }
        _ => {
            let journal = ctx.fresh_dir("journal-layer").join("j.jsonl");
            traced_journal(t, &journal, &experiment, shard, &entries, checks, out);
        }
    }
}

/// `coord_fleet`'s own layers: a real fleet run timed per request from
/// the coordinator's banner lines, a `sweep_cold` child as byte
/// reference, the widened grid run in process, and the protocol, cache,
/// journal and result layers over the points the fleet produced.
fn traced_fleet(
    t: &mut Tracer,
    ctx: &Ctx,
    inputs: &SweepInputs,
    experiment: &Experiment<'_>,
    checks: &mut Checks,
    out: &mut Results,
) {
    let cold = t.span("bench.child.sweep_cold", |_| {
        workloads::run_rep(Workload::SweepCold, ctx, 100)
    });
    let fleet = t.span("sim.sweep.coord.fleet", |t| {
        let fleet = workloads::run_rep(Workload::CoordFleet, ctx, 101);
        // Line arrival times cut the run into ready + one part per request.
        let at = |prefix: &str| {
            fleet
                .run
                .stdout
                .lines()
                .position(|l| l.starts_with(prefix))
                .map_or(0.0, |i| fleet.run.line_at_s[i])
        };
        let marks = [
            0.0,
            at("request 1:"),
            at("request 1 done:"),
            at("request 2 done:"),
            at("request 3 done:"),
        ];
        let part =
            |i: usize| std::time::Duration::from_secs_f64((marks[i] - marks[i - 1]).max(0.0));
        t.reported_children(&[
            ("sim.sweep.coord.ready", part(1)),
            ("sim.sweep.coord.request", part(2)),
            ("sim.sweep.coord.request", part(3)),
            ("sim.sweep.coord.request", part(4)),
        ]);
        out.per_layer.insert(
            "sim.sweep.coord.fleet_overhead_s",
            marks[2] - marks[1] - cold.run.wall_s,
        );
        fleet
    });
    let sum_of = |key: &str| -> f64 {
        fleet
            .run
            .stdout
            .lines()
            .filter(|l| l.contains(" done: "))
            .filter_map(|l| {
                l.split(&format!(" {key}="))
                    .nth(1)?
                    .split_whitespace()
                    .next()?
                    .parse::<f64>()
                    .ok()
            })
            .sum()
    };
    for (metric, key) in [
        ("sim.sweep.coord.chunks", "chunks"),
        ("sim.sweep.coord.stolen", "stolen"),
        ("sim.sweep.coord.requeued", "requeued"),
        ("sim.sweep.coord.cached", "cached"),
        ("sim.sweep.coord.dispatched", "dispatched"),
    ] {
        out.per_layer.insert(metric, sum_of(key));
    }
    checks.check(
        "coord_fleet: both children exit 0",
        cold.run.ok && fleet.run.ok,
    );
    let bytes = |dir: &Path, name: &str| std::fs::read(dir.join(name)).unwrap_or_default();
    let single_shot = bytes(&cold.dir, "out.json");
    checks.check(
        "coord_fleet: requests 1 and 2 are byte-identical to sweep_cold's JSON",
        !single_shot.is_empty()
            && bytes(&fleet.dir, "r1.json") == single_shot
            && bytes(&fleet.dir, "r2.json") == single_shot,
    );
    let journal = read_journal(fleet.dir.join("j1.jsonl"));
    checks.check("coord_fleet: streamed journal reads back", journal.is_ok());
    let entries = journal.map_or(Vec::new(), |j| j.entries);
    let json = traced_result(t, experiment, &entries, checks, out);
    checks.check(
        "coord_fleet: journal merges to sweep_cold's JSON",
        json.as_bytes() == single_shot,
    );
    // The widened grid, single process, same auto backend as the workers.
    let flags = Workload::CoordFleet.sweep_flags().expect("sweep workload");
    let widened = plan::sweep_inputs(&plan::request_params(&flags, Some(&ctx.appended_rate())));
    let in_process = t.span("bench.reference", |_| {
        let mut engine = plan::annotate(&widened);
        engine.set_backend(ExecBackend::Auto);
        engine.run_parallel().to_json()
    });
    checks.check(
        "coord_fleet: request 3 is byte-identical to an in-process run of the widened grid",
        bytes(&fleet.dir, "r3.json") == in_process.as_bytes(),
    );
    traced_proto(t, &entries, checks, out);
    traced_cache(
        t,
        &ctx.fresh_dir("cache-layer"),
        inputs,
        &entries,
        checks,
        out,
    );
    let path = ctx.fresh_dir("journal-layer").join("j.jsonl");
    traced_journal(t, &path, experiment, ShardSpec::SOLO, &entries, checks, out);
}

/// `customize`'s greedy loop with every candidate evaluated through
/// [`traced_evaluate`], checked step by step against the real call.
fn traced_customize(t: &mut Tracer, checks: &mut Checks, out: &mut Results) {
    let (toolchain, params, goals) = plan::customize_inputs();
    let (reference, reference_s) = timed(|| {
        t.span("bench.reference", |_| {
            shg_core::customize(&toolchain, &params, goals).expect("customization runs")
        })
    });
    let score = |eval: &Evaluation| {
        (
            eval.area_overhead <= goals.area_budget,
            eval.saturation_throughput,
            -eval.zero_load_latency,
        )
    };
    let (steps, replay_s) = timed(|| {
        t.span("core.customize", |t| {
            let evaluate = |t: &mut Tracer, config: &SparseHammingConfig| {
                let topology = t.span("topology.build", |t| {
                    let topology = config.build();
                    t.count("tiles", topology.num_tiles() as f64);
                    t.count("links", topology.num_links() as f64);
                    topology
                });
                traced_evaluate(t, &toolchain, &params, &topology)
            };
            let mut current = SparseHammingConfig::mesh(20, 20);
            let mut current_eval = evaluate(t, &current);
            let mut steps = vec![(current.clone(), current_eval.clone())];
            let mut configs = 1usize;
            loop {
                let mut best: Option<(SparseHammingConfig, Evaluation)> = None;
                for candidate in current.grow_moves() {
                    configs += 1;
                    let eval = evaluate(t, &candidate);
                    if eval.area_overhead > goals.area_budget {
                        continue;
                    }
                    if best.as_ref().is_none_or(|(_, b)| score(&eval) > score(b)) {
                        best = Some((candidate, eval));
                    }
                }
                match best {
                    Some((config, eval)) if score(&eval) > score(&current_eval) => {
                        current = config;
                        current_eval = eval;
                        steps.push((current.clone(), current_eval.clone()));
                    }
                    _ => break,
                }
            }
            t.count("configs", configs as f64);
            t.count("steps", steps.len() as f64);
            steps
        })
    });
    checks.check(
        "customize_20x20: replayed trace has the real trace's length",
        steps.len() == reference.steps.len(),
    );
    for (i, ((config, eval), step)) in steps.iter().zip(&reference.steps).enumerate() {
        checks.check(
            &format!("customize_20x20: accepted step {i} equals customize()'s"),
            *config == step.config && *eval == step.evaluation,
        );
    }
    out.per_layer
        .insert("trace.overhead_pct", (replay_s / reference_s - 1.0) * 100.0);
}

/// `table3_mempool`'s flow — predict, simulate, binary-search the
/// saturation point — replayed and compared with `Toolchain::evaluate`.
fn traced_table3(t: &mut Tracer, checks: &mut Checks, out: &mut Results) {
    let (toolchain, reference) = plan::table3_inputs();
    let topology = t.span("topology.build", |t| {
        let topology = reference.topology();
        t.count("tiles", topology.num_tiles() as f64);
        t.count("links", topology.num_links() as f64);
        topology
    });
    let (expected, reference_s) = timed(|| {
        t.span("bench.reference", |_| {
            toolchain
                .evaluate(&reference.params, &topology)
                .expect("mesh evaluates")
        })
    });
    let (eval, replay_s) = timed(|| traced_evaluate(t, &toolchain, &reference.params, &topology));
    checks.check(
        "table3_validate: evaluation called step by step equals Toolchain::evaluate",
        eval == expected,
    );
    out.per_layer
        .insert("trace.overhead_pct", (replay_s / reference_s - 1.0) * 100.0);
    let error =
        |published: f64, predicted: f64| ((predicted - published) / published * 100.0).abs();
    for (metric, value) in [
        (
            "core.toolchain.area_err_pct",
            error(reference.correct_area_mm2, eval.total_area.value()),
        ),
        (
            "core.toolchain.power_err_pct",
            error(reference.correct_power_w, eval.total_power.value()),
        ),
        (
            "core.toolchain.latency_err_pct",
            error(reference.correct_latency_cycles, eval.zero_load_latency),
        ),
        (
            "core.toolchain.throughput_err_pct",
            error(reference.correct_throughput, eval.saturation_throughput),
        ),
    ] {
        out.per_layer.insert(metric, value);
    }
}

/// Turns the recorded spans into the per-layer metrics: a metric `x_s`
/// is the total time of the spans named `x`; the rest are self times,
/// counts and rates.
fn layer_metrics(t: &Tracer, out: &mut Results) {
    let totals = t.totals();
    let total = |name: &str| totals.get(name).map_or(0.0, |l| l.total_s);
    let self_time = |name: &str| totals.get(name).map_or(0.0, |l| l.self_s);
    let per_second = |count: f64, seconds: f64| if seconds > 0.0 { count / seconds } else { 0.0 };
    for &(metric, _) in PER_LAYER {
        if let Some(layer) = metric.strip_suffix("_s").and_then(|name| totals.get(name)) {
            out.per_layer.insert(metric, layer.total_s);
        }
    }
    let run_s = total("sim.network.run");
    let derived = [
        (
            "bench.sweep.annotate_self_s",
            self_time("bench.sweep.annotate"),
        ),
        ("core.customize.self_s", self_time("core.customize")),
        ("sim.network.run_other_s", self_time("sim.network.run")),
        ("topology.tiles", t.count_sum("topology.build", "tiles")),
        ("topology.links", t.count_sum("topology.build", "links")),
        (
            "topology.routing.table_bytes",
            t.count_sum("topology.routing.build", "table_bytes"),
        ),
        (
            "topology.routing.query_ns",
            per_second(
                total("topology.routing.query") * 1e9,
                t.count_sum("topology.routing.query", "hops"),
            ),
        ),
        (
            "floorplan.unit_cells",
            t.count_sum("floorplan.predict", "unit_cells"),
        ),
        (
            "floorplan.unit_cells_per_s",
            per_second(
                t.count_sum("floorplan.predict", "unit_cells"),
                total("floorplan.predict"),
            ),
        ),
        (
            "floorplan.collisions",
            t.count_sum("floorplan.predict", "collisions"),
        ),
        (
            "core.customize.configs",
            t.count_sum("core.customize", "configs"),
        ),
        (
            "core.customize.steps",
            t.count_sum("core.customize", "steps"),
        ),
        (
            "sim.network.cycles",
            t.count_sum("sim.network.run", "cycles"),
        ),
        (
            "sim.network.cycles_per_s",
            per_second(t.count_sum("sim.network.run", "cycles"), run_s),
        ),
        (
            "sim.network.tile_cycles_per_s",
            per_second(t.count_sum("sim.network.run", "tile_cycles"), run_s),
        ),
        (
            "sim.network.packets",
            t.count_sum("sim.network.run", "packets"),
        ),
        (
            "sim.network.flits_delivered",
            t.count_sum("sim.network.run", "flits"),
        ),
        (
            "sim.sweep.cache.store_cells_per_s",
            per_second(
                t.count_sum("sim.sweep.cache.store", "cells"),
                total("sim.sweep.cache.store"),
            ),
        ),
        (
            "sim.sweep.cache.probe_cells_per_s",
            per_second(
                t.count_sum("sim.sweep.cache.probe", "cells"),
                total("sim.sweep.cache.probe"),
            ),
        ),
    ];
    for (metric, value) in derived {
        out.per_layer.insert(metric, value);
    }
    let root = &t.spans[0];
    let root_s = (root.end_ns - root.start_ns) as f64 * 1e-9;
    out.per_layer.insert(
        "trace.coverage_pct",
        (1.0 - self_time("bench.traced") / root_s) * 100.0,
    );
}

/// The traced pass of one workload. Returns the recorder, for the
/// trace file and the ledger.
pub fn traced_pass(
    workload: Workload,
    ctx: &Ctx,
    checks: &mut Checks,
    out: &mut Results,
) -> Tracer {
    out.per_layer
        .insert("calib.loop_mops_start", calib::loop_mops());
    out.per_layer.insert("calib.mem_gbps", calib::mem_gbps());
    let mut tracer = Tracer::new(true);
    tracer.span("bench.traced", |t| match workload {
        Workload::Customize20x20 => traced_customize(t, checks, out),
        Workload::Table3Validate => traced_table3(t, checks, out),
        sweep => traced_sweep(t, sweep, ctx, checks, out),
    });
    out.per_layer
        .insert("calib.loop_mops_end", calib::loop_mops());
    layer_metrics(&tracer, out);
    let coverage = out.per_layer["trace.coverage_pct"];
    checks.check(
        &format!(
            "{}: spans cover {coverage:.1}% of the traced wall (at least 90%)",
            workload.name()
        ),
        coverage >= 90.0,
    );
    tracer
}
