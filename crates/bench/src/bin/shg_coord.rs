//! Sweep-as-a-service coordinator: accepts sweep requests on stdin,
//! cuts each request's cell grid into chunks, dispatches them to a
//! fleet of `sweep_worker` processes over the framed protocol, steals
//! remaining chunks from stragglers, requeues the chunks of workers
//! that die mid-request, streams completed entries into one journal in
//! canonical order, and answers warm or duplicate requests straight
//! from the shared cell cache — including pre-warming workers' caches
//! with entries (cache entries travel to workers, cells don't).
//!
//! Run with:
//! `cargo run --release -p shg-bench --bin shg_coord --
//!  (--spawn-workers N [--worker-bin path] | --listen host:port --workers N)
//!  [--scenario a|b|c|d] [--fast] [--rate-points N] [--add-rates r,..]
//!  [--db <wire spec>]
//!  [--faults <plan>] [--cache <dir>]
//!  [--chunk-size N] [--durable] [--progress] [--kill-worker I:AFTER]`
//!
//! Requests are lines on stdin, each `key=value` tokens:
//!
//! ```text
//! out=first.json journal=first.jsonl
//! out=second.json rate-points=4
//! ```
//!
//! `out=` (required) is where the request's full `SweepResult` JSON is
//! written — byte-identical to `sweep_worker --single-shot` of the
//! same flags, no matter how chunks interleaved, stole or died.
//! `journal=` (optional) streams a solo-shard journal alongside,
//! byte-identical to a `sweep_worker --out` solo run. The plan keys
//! (`scenario`, `fast`, `rate-points`, `add-rates`, `db` — a
//! topology database in its one-token wire form, sweeping one
//! expanded-grid topology instead of the scenario set — and `faults`,
//! a deterministic fault-injection plan) default
//! to the coordinator's own flags and may be overridden per request;
//! they are forwarded to the workers as the user's raw strings, and
//! the plan-fingerprint handshake aborts the request if any worker
//! interprets them differently.
//!
//! `--cache` points the coordinator at the shared cell cache: every
//! cell is probed there before dispatch (a duplicate request reports
//! `cache: cached=N simulated=0 total=N` without the fleet hearing
//! about it), worker results are banked back, and cache-holding
//! workers are pre-warmed. In spawn mode, `--cache` is forwarded to the
//! spawned workers.
//!
//! `--kill-worker I:AFTER` (spawn mode; the chaos hook of the CI
//! `service-smoke` job) SIGKILLs the `I`-th spawned worker (1-based)
//! after `AFTER` chunks have completed — work stealing and requeueing
//! must still finish the grid with identical bytes.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;

use shg_bench::sweep::{
    annotated_experiment, cache_summary, request_params_from_args, request_setup, TopologyCache,
};
use shg_bench::{arg_value, cli_error, has_flag, named_topologies};
use shg_core::Scenario;
use shg_sim::sweep::{run_sweep, Executors, Fleet, JournalSink, WorkerLink};
use shg_sim::{CellCache, ShardSpec};
use shg_topology::routing::RouteForm;
use shg_topology::Topology;

const USAGE: &str = "\
Usage: shg_coord (--spawn-workers N [--worker-bin path]
                  | --listen host:port --workers N)
                 [--scenario a|b|c|d] [--fast] [--rate-points N]
                 [--add-rates r1,r2,..]
                 [--cache <dir>] [--chunk-size N] [--durable] [--progress]
                 [--kill-worker I:AFTER]

  Reads requests from stdin, one per line, as key=value tokens:
    out=result.json [journal=j.jsonl] [scenario=..] [fast=1]
    [rate-points=N] [add-rates=r1,r2] [db=<wire spec>] [faults=<plan>]
  and answers each with the full sweep JSON at out= — byte-identical
  to `sweep_worker --single-shot` of the same flags. db= sweeps one
  expanded-grid topology instantiated from a topology database in its
  one-token wire form (e.g. db=die/a/4x4/mesh;die/b/4x4/shg:sr=2).
  faults= injects deterministic mid-run link/router kills (e.g.
  faults=drain,2000:link:3-4,2500:router:9) with rerouting over the
  surviving graph; the raw plan string is forwarded to the workers
  like every other plan key.

  --spawn-workers  spawn N `sweep_worker --serve` children over pipes
  --worker-bin     worker binary (default: sweep_worker next to this
                   binary)
  --listen         accept --workers N TCP worker connections instead
                   (workers dial in with `sweep_worker --connect`)
  --scenario/--fast/--rate-points/--add-rates
                   per-request plan defaults (overridable per line)
  --cache          shared cell-result cache: probed before dispatch,
                   results banked, cache-holding workers pre-warmed;
                   forwarded to spawned workers
  --chunk-size     cells per dispatched chunk (default: ~4 per worker)
  --durable        fsync the streamed journal after header and chunks
  --progress       log chunk completions to stderr
  --kill-worker    I:AFTER — SIGKILL the I-th spawned worker (1-based)
                   after AFTER completed chunks (crash-recovery smoke)";

/// One parsed stdin request line.
struct Request {
    out: String,
    journal: Option<String>,
    params: Vec<(String, String)>,
}

/// Parses `key=value` tokens, starting from the coordinator's own plan
/// flags; plan keys override the base, `out=`/`journal=` stay local.
fn parse_request(line: &str, base: &[(String, String)]) -> Result<Request, String> {
    let mut params = base.to_vec();
    let mut out = None;
    let mut journal = None;
    for token in line.split_whitespace() {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| format!("request token '{token}' is not key=value"))?;
        match key {
            "out" => out = Some(value.to_owned()),
            "journal" => journal = Some(value.to_owned()),
            "routes" => return Err(shg_bench::retired_flag_message("request key 'routes'")),
            "scenario" | "fast" | "rate-points" | "add-rates" | "db" | "faults" => {
                match params.iter_mut().find(|(k, _)| k == key) {
                    Some(pair) => pair.1 = value.to_owned(),
                    None => params.push((key.to_owned(), value.to_owned())),
                }
            }
            other => return Err(format!("unknown request key '{other}'")),
        }
    }
    Ok(Request {
        out: out.ok_or("request line has no out=PATH")?,
        journal,
        params,
    })
}

/// Spawns `count` `sweep_worker --serve` children, protocol on piped
/// stdio, stderr inherited (worker logs interleave with ours).
fn spawn_fleet(count: usize, forward: &[String]) -> (Vec<Child>, Vec<WorkerLink>) {
    let worker_bin = arg_value("--worker-bin").unwrap_or_else(|| {
        let mut path = std::env::current_exe().unwrap_or_else(|e| cli_error(format!("{e}")));
        path.set_file_name("sweep_worker");
        path.to_string_lossy().into_owned()
    });
    let mut children = Vec::new();
    let mut links = Vec::new();
    for i in 0..count {
        let mut child = Command::new(&worker_bin)
            .arg("--serve")
            .args(forward)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| cli_error(format!("spawning {worker_bin}: {e}")));
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        links.push(WorkerLink::new(format!("worker-{}", i + 1), stdout, stdin));
        children.push(child);
    }
    (children, links)
}

/// Accepts `count` TCP worker connections on `addr`.
fn accept_fleet(addr: &str, count: usize) -> Vec<WorkerLink> {
    let listener = std::net::TcpListener::bind(addr)
        .unwrap_or_else(|e| cli_error(format!("--listen {addr}: {e}")));
    eprintln!("[shg_coord] listening on {addr} for {count} worker(s)");
    (0..count)
        .map(|i| {
            let (stream, peer) = listener
                .accept()
                .unwrap_or_else(|e| cli_error(format!("accepting workers: {e}")));
            eprintln!("[shg_coord] worker {} connected from {peer}", i + 1);
            WorkerLink::from_tcp(format!("worker-{}", i + 1), stream)
                .unwrap_or_else(|e| cli_error(format!("worker stream: {e}")))
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    shg_bench::reject_retired_flags();
    if has_flag("--help") {
        println!("{USAGE}");
        return Ok(());
    }

    // Parse every flag before the fleet exists, so usage errors exit
    // without orphaning spawned workers.
    let kill_spec: Option<(usize, u64)> = arg_value("--kill-worker").map(|spec| {
        let parsed = spec.split_once(':').and_then(|(index, after)| {
            Some((index.parse::<usize>().ok()?, after.parse::<u64>().ok()?))
        });
        match parsed {
            Some((index, after)) if index >= 1 => (index, after),
            _ => cli_error(format!(
                "--kill-worker '{spec}': expected I:AFTER, I one-based"
            )),
        }
    });
    let chunk_size = arg_value("--chunk-size").map(|n| {
        n.parse::<usize>()
            .unwrap_or_else(|e| cli_error(format!("--chunk-size {n}: {e}")))
    });
    let durable = has_flag("--durable");
    let progress_flag = has_flag("--progress");
    let cache_dir = arg_value("--cache");
    // The coordinator's own plan flags are the per-request defaults;
    // interpreting them once up front turns a malformed --scenario,
    // --db or --faults into an immediate usage error instead of a
    // failure on the first request (after workers were spawned).
    let base_params = request_params_from_args();
    let _ = request_setup(&base_params).unwrap_or_else(|e| cli_error(e));

    // Fleet.
    let spawn_count = arg_value("--spawn-workers").map(|n| {
        n.parse::<usize>()
            .unwrap_or_else(|e| cli_error(format!("--spawn-workers {n}: {e}")))
    });
    let listen = arg_value("--listen");
    let (children, mut links) = match (spawn_count, listen) {
        (Some(n), None) if n > 0 => {
            let forward: Vec<String> = arg_value("--cache")
                .map(|dir| vec!["--cache".to_owned(), dir])
                .unwrap_or_default();
            spawn_fleet(n, &forward)
        }
        (None, Some(addr)) => {
            let n = arg_value("--workers").map_or(1, |n| {
                n.parse::<usize>()
                    .unwrap_or_else(|e| cli_error(format!("--workers {n}: {e}")))
            });
            (Vec::new(), accept_fleet(&addr, n))
        }
        _ => cli_error("pass exactly one of --spawn-workers N (N > 0) or --listen host:port"),
    };
    let children = Mutex::new(children);
    let mut kill_done = false;

    // Coordinator-side experiment ingredients, shared across requests.
    let scenarios: Vec<(String, Vec<(String, Topology)>)> = ["a", "b", "c", "d"]
        .iter()
        .map(|letter| {
            let scenario = Scenario::by_name(letter).expect("built-in scenario");
            (scenario.name.clone(), named_topologies(&scenario))
        })
        .collect();
    let mut topo_cache = TopologyCache::new();

    let stdin = std::io::stdin().lock();
    let mut request_id = 0u64;
    for line in stdin.lines() {
        let line = line?;
        if line.trim().is_empty() || line.trim_start().starts_with('#') {
            continue;
        }
        request_id += 1;
        let request = parse_request(&line, &base_params).unwrap_or_else(|e| cli_error(e));
        let setup = request_setup(&request.params).unwrap_or_else(|e| cli_error(e));
        let topologies: &[(String, Topology)] = match &setup.db_topology {
            // The setup outlives the request's experiment, so the
            // expanded-grid topology is borrowed in place.
            Some(pair) => std::slice::from_ref(pair),
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
        )
        .unwrap_or_else(|e| cli_error(e));
        // A fresh cache handle per request: its counters are this
        // request's cached/simulated split over the shared directory.
        if let Some(dir) = &cache_dir {
            let cache =
                CellCache::open(dir).unwrap_or_else(|e| cli_error(format!("--cache {dir}: {e}")));
            experiment.set_cache(cache);
        }
        let experiment = experiment;
        let plan = experiment.plan();
        println!(
            "request {request_id}: scenario ({}), {} cells (fingerprint {:#018x}) → {}",
            setup.scenario.name,
            plan.num_cells(),
            plan.fingerprint(),
            request.out
        );

        let kill_done = &mut kill_done;
        let children_ref = &children;
        let mut progress = move |p: shg_sim::sweep::CoordProgress| {
            if let Some((index, after)) = kill_spec {
                if !*kill_done && p.chunks_done >= after {
                    *kill_done = true;
                    eprintln!(
                        "[shg_coord] killing worker {index} after {} completed chunk(s)",
                        p.chunks_done
                    );
                    let mut children = children_ref.lock().expect("children mutex");
                    if let Some(child) = children.get_mut(index - 1) {
                        let _ = child.kill();
                    }
                }
            }
            if progress_flag {
                eprintln!(
                    "[shg_coord] request {request_id}: {}/{} chunks, {}/{} cells",
                    p.chunks_done, p.chunks_total, p.cells_done, p.cells_total
                );
            }
        };

        let fleet = Fleet {
            request_id,
            params: &request.params,
            workers: &mut links,
            chunk_size,
        };
        let journal = request.journal.as_deref().map(|path| JournalSink {
            path: std::path::Path::new(path),
            resume: false,
            durable,
        });
        let (result, summary) = run_sweep(
            &experiment,
            ShardSpec::SOLO,
            Executors::Fleet(fleet),
            journal,
            Some(&mut progress),
        )?;
        std::fs::write(&request.out, result.to_json())?;
        println!(
            "request {request_id} done: cached={} dispatched={} chunks={} stolen={} \
             requeued={} lost-workers={} → {}",
            summary.cached,
            summary.dispatched,
            summary.chunks,
            summary.stolen_chunks,
            summary.requeued_chunks,
            summary.lost_workers,
            request.out
        );
        if let Some(line) = cache_summary(&experiment) {
            println!("{line}");
        }
        if let Some(journal) = &request.journal {
            println!(
                "request {request_id} journal: {journal} ({} syncs)",
                summary.journal_syncs
            );
        }
    }

    // Drain the fleet: polite shutdown, close the pipes, reap children.
    for link in &mut links {
        link.shutdown();
    }
    drop(links);
    for child in children.lock().expect("children mutex").iter_mut() {
        let _ = child.wait();
    }
    eprintln!("[shg_coord] all requests served; fleet shut down");
    Ok(())
}
