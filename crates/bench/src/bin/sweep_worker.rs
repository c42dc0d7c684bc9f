//! One shard of the standard scenario pattern sweep (the fig6 grid),
//! run to a resumable JSONL journal — the worker half of cross-machine
//! sweep sharding (`sweep_merge` recombines the journals) and, in
//! `--serve`/`--connect` mode, the worker half of the `shg_coord`
//! sweep service.
//!
//! Run with:
//! `cargo run --release -p shg-bench --bin sweep_worker --
//!  [--scenario a|b|c|d] [--fast] [--rate-points N] [--add-rates r,..]
//!  [--cache <dir>] --shard i/N (--out journal.jsonl | --resume journal.jsonl)
//!  [--durable] [--progress]`
//!
//! `--out` starts the shard from scratch (truncating any existing
//! file); `--resume` continues an interrupted journal after validating
//! that it was written under the same plan (spec, topologies,
//! latencies — the fingerprint) and shard, recomputing only the
//! missing cells: the finished journal is byte-identical to an
//! uninterrupted run's. `--durable` additionally `fsync`s the journal
//! after its header and every completed chunk.
//!
//! `--single-shot result.json` ignores sharding and writes the full
//! sweep JSON, byte-identical to `run_parallel`'s — the reference the
//! CI `service-smoke` job diffs incremental executions against.
//!
//! Both modes make one [`run_sweep`] call on the local pool; a journal
//! or `--progress` cuts the cells into chunks of a few per pool thread,
//! otherwise they run as one batch.
//!
//! `--cache <dir>` attaches the cross-run cell-result cache: cells any
//! earlier run stored (same case, pattern, rate, seed and simulator
//! config) are answered from disk, and only new cells simulate —
//! `--add-rates 0.31,0.44` *appends* extra shared-grid rates, the
//! widening move that keeps every existing cell's coordinates (and
//! therefore its cache identity) intact. The final
//! `cache: cached=… simulated=… total=…` line reports the split.
//!
//! In **service mode** the worker ignores the plan flags and instead
//! rebuilds its experiment per request from the params `shg_coord`
//! ships over the wire (the worker-local `--cache` flag still
//! applies): `--serve` speaks the framed protocol
//! on stdin/stdout (the coordinator spawns workers this way),
//! `--connect host:port` dials a listening coordinator over TCP. A
//! serving worker prints nothing to stdout — that is the protocol
//! channel — and exits cleanly on shutdown or coordinator hangup.
//!
//! Every worker of one sweep must be given the same scenario flags;
//! the journal header's plan fingerprint lets `sweep_merge` — and the
//! coordinator's handshake — reject mismatches instead of silently
//! concatenating different sweeps.

use shg_bench::sweep::{
    annotated_experiment, attach_cache_from_args, cache_summary, request_params_from_args,
    request_setup, shard_from_args, TopologyCache,
};
use shg_bench::{arg_value, cli_error, has_flag, named_topologies};
use shg_core::Scenario;
use std::path::Path;

use shg_sim::sweep::{
    connect_with_backoff, run_sweep, serve_worker, CoordProgress, Executors, JournalSink,
    ProgressFn,
};
use shg_sim::{Experiment, ShardSpec};
use shg_topology::routing::RouteForm;
use shg_topology::Topology;

const USAGE: &str = "\
Usage: sweep_worker [--scenario a|b|c|d] [--fast] [--rate-points N]
                    [--add-rates r1,r2,..]
                    [--db <topology-db wire spec>]
                    [--faults <plan>] [--cache <dir>]
                    [--shard i/N] (--out j.jsonl | --resume j.jsonl)
                    [--single-shot result.json] [--durable] [--progress]
                    [--serve | --connect host:port [--connect-patience SECS]]

  --scenario     KNC scenario whose grid to sweep (default: a)
  --db           sweep one expanded-grid topology instantiated from a
                 topology database in wire form (fields `/`-separated,
                 statements `;`-separated, e.g.
                 die/a/4x4/mesh;die/b/4x4/shg:sr=2) instead of the
                 scenario's built-in topology set; the case is named db
  --fast         fast-test simulator config and coarser floorplan model
  --rate-points  linear rate-grid points (default: 10 fast / 20 full)
  --add-rates    extra rates APPENDED to the shared grid — widens the
                 sweep without shifting existing cells' coordinates,
                 so a warm --cache re-simulates only these new cells
  --faults       deterministic fault-injection plan: an optional
                 drop|drain in-flight policy token followed by
                 comma-separated CYCLE:link:A-B / CYCLE:router:R kills
                 (e.g. drain,2000:link:3-4,2500:router:9); routes are
                 recomputed over the surviving graph at each fault
                 cycle, and link kills must name links present in every
                 swept topology (router kills apply everywhere)
  --cache        cell-result cache directory (cross-run, content
                 addressed; prints cached/simulated counts at the end)
  --shard i/N    run only the i-th of N strided shards (one-based i)
  --out          fresh journal path    --resume  continue a journal
  --single-shot  skip sharding, write the full run_parallel JSON
  --durable      fsync the journal after the header and every chunk
  --progress     log cells done (and the cached/simulated split)
  --serve        worker service mode: speak the shg_coord protocol on
                 stdin/stdout (plan flags come per request; --cache
                 still configures this worker)
  --connect      like --serve, but dial a coordinator listening on TCP;
                 retried with capped jittered exponential backoff, so
                 the worker may be started before the coordinator
  --connect-patience  seconds to keep retrying --connect before giving
                 up with a usage error (default: 30)";

/// Service mode: serve coordinator requests until shutdown or hangup.
/// Topology sets for every scenario are built up front so one
/// long-lived worker can serve requests of any shape, reusing routing
/// tables and floorplan latencies across them via the topology cache.
/// Requests carrying a `db` param instead sweep the instantiated
/// expanded-grid topology; those are memoized per spec string (leaked
/// for the worker's lifetime, like the prebuilt sets) so repeat
/// requests reuse routing tables and floorplan latencies too.
fn serve() -> Result<(), Box<dyn std::error::Error>> {
    let scenarios: Vec<(String, Vec<(String, Topology)>)> = ["a", "b", "c", "d"]
        .iter()
        .map(|letter| {
            let scenario = Scenario::by_name(letter).expect("built-in scenario");
            (scenario.name.clone(), named_topologies(&scenario))
        })
        .collect();
    let mut db_store: std::collections::HashMap<String, &'static [(String, Topology)]> =
        std::collections::HashMap::new();
    let mut topo_cache = TopologyCache::new();
    let build = |params: &[(String, String)]| -> Result<Experiment<'_>, String> {
        let setup = request_setup(params)?;
        let topologies: &[(String, Topology)] = match setup.db_topology {
            Some(pair) => db_store
                .entry(
                    params
                        .iter()
                        .find(|(key, _)| key == "db")
                        .map(|(_, value)| value.clone())
                        .expect("db_topology implies a db param"),
                )
                .or_insert_with(|| Box::leak(vec![pair].into_boxed_slice())),
            None => scenarios
                .iter()
                .find(|(name, _)| *name == setup.scenario.name)
                .map(|(_, topologies)| topologies.as_slice())
                .expect("every scenario's topologies are prebuilt"),
        };
        let mut experiment = annotated_experiment(
            &setup.scenario.params,
            &setup.model_options,
            &mut topo_cache,
            topologies,
            setup.spec,
            RouteForm::NextHop,
        )?;
        attach_cache_from_args(&mut experiment);
        eprintln!(
            "[sweep_worker] serving request: scenario ({}), {} cells (fingerprint {:#018x})",
            setup.scenario.name,
            experiment.num_points(),
            experiment.plan().fingerprint()
        );
        Ok(experiment)
    };
    if let Some(addr) = arg_value("--connect") {
        let patience = arg_value("--connect-patience").map_or(30, |secs| {
            secs.parse::<u64>()
                .unwrap_or_else(|e| cli_error(format!("--connect-patience {secs}: {e}")))
        });
        let patience = std::time::Duration::from_secs(patience);
        let stream = connect_with_backoff(&addr, patience).unwrap_or_else(|e| {
            cli_error(format!(
                "--connect {addr}: no coordinator answered within {}s of backoff retries \
                 (last error: {e}); start shg_coord --listen first or raise --connect-patience",
                patience.as_secs()
            ))
        });
        eprintln!("[sweep_worker] connected to coordinator at {addr}");
        let mut reader = stream.try_clone()?;
        let mut writer = stream;
        serve_worker(&mut reader, &mut writer, build)?;
    } else {
        let mut reader = std::io::stdin().lock();
        let mut writer = std::io::stdout().lock();
        serve_worker(&mut reader, &mut writer, build)?;
    }
    eprintln!("[sweep_worker] serve loop ended (shutdown or coordinator hangup)");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    shg_bench::reject_retired_flags();
    if has_flag("--help") {
        println!("{USAGE}");
        return Ok(());
    }
    if has_flag("--serve") || arg_value("--connect").is_some() {
        return serve();
    }
    // Mirror fig6's pattern-sweep setup exactly, so a sharded worker
    // fleet reproduces the very grid the single-process binary prints.
    let setup = request_setup(&request_params_from_args()).unwrap_or_else(|e| cli_error(e));
    let scenario = setup.scenario;
    let topologies = match setup.db_topology {
        Some(pair) => vec![pair],
        None => named_topologies(&scenario),
    };
    let mut cache = TopologyCache::new();
    let mut experiment = annotated_experiment(
        &scenario.params,
        &setup.model_options,
        &mut cache,
        &topologies,
        setup.spec,
        RouteForm::NextHop,
    )
    .unwrap_or_else(|e| cli_error(e));
    attach_cache_from_args(&mut experiment);
    let experiment = experiment; // flags applied; execution is read-only
    let plan = experiment.plan();

    // A single shot is the whole plan, unjournaled; a shard run writes
    // its journal.
    let single_shot = arg_value("--single-shot");
    let shard = match single_shot {
        Some(_) => ShardSpec::SOLO,
        None => shard_from_args(),
    };
    let journal = match (&single_shot, arg_value("--out"), arg_value("--resume")) {
        (Some(_), _, _) => None,
        (None, Some(path), None) => Some((path, false)),
        (None, None, Some(path)) => Some((path, true)),
        (None, None, None) => Some((
            format!(
                "sweep_{}_{}_of_{}.jsonl",
                scenario.name,
                shard.index + 1,
                shard.count
            ),
            false,
        )),
        (None, Some(_), Some(_)) => cli_error("--out and --resume are mutually exclusive"),
    };
    if let Some((path, resume)) = &journal {
        println!(
            "scenario ({}): shard {shard} = {} of {} cells \
             (fingerprint {:#018x}) → {path}{}",
            scenario.name,
            plan.shard_cells(shard).len(),
            plan.num_cells(),
            plan.fingerprint(),
            if *resume { " (resuming)" } else { "" }
        );
    }
    let mut report = |p: CoordProgress| {
        eprintln!(
            "[sweep_worker] {}/{} cells done (shard {shard})",
            p.cells_done, p.cells_total
        );
    };
    let sink = journal.as_ref().map(|(path, resume)| JournalSink {
        path: Path::new(path),
        resume: *resume,
        durable: has_flag("--durable"),
    });
    let progress = has_flag("--progress").then_some(&mut report as ProgressFn<'_>);
    let path = journal.as_ref().map_or("", |(path, _)| path.as_str());
    let (result, _) = run_sweep(&experiment, shard, Executors::Local, sink, progress)
        .unwrap_or_else(|e| cli_error(format!("journal {path}: {e}")));
    if let Some(path) = single_shot {
        std::fs::write(&path, result.to_json())?;
        println!(
            "single shot: scenario ({}), {} cells (fingerprint {:#018x}) → {path}",
            scenario.name,
            plan.num_cells(),
            plan.fingerprint()
        );
    } else if let Some((path, _)) = &journal {
        println!(
            "shard {shard} complete: {} cells journaled to {path}",
            result.points.len()
        );
    }
    if let Some(summary) = cache_summary(&experiment) {
        println!("{summary}");
    }
    Ok(())
}
