//! Merges `sweep_worker` shard journals into the standard `SweepResult`
//! JSON — byte-identical to what a single-process `run_parallel` of the
//! same sweep would have serialized.
//!
//! Run with:
//! `cargo run --release -p shg-bench --bin sweep_merge --
//!  shard1.jsonl shard2.jsonl ... [--out result.json] [--table]`
//!
//! Validation before any output: every journal must carry the same
//! plan fingerprint (same spec, topologies and latencies), no cell may
//! appear twice (overlapping shards), and the union must cover the
//! whole plan (no missing or unfinished shard) — violations name the
//! offending journal and cause.
//!
//! Without `--out` the merged JSON goes to stdout; `--table` prints
//! the human-readable point table to stderr as well.

use shg_bench::{arg_value, cli_error, has_flag};
use shg_sim::sweep::read_journal;
use shg_sim::SweepResult;

const USAGE: &str = "\
Usage: sweep_merge shard1.jsonl shard2.jsonl .. [--out result.json] [--table]

  Validates that every journal carries the same plan fingerprint, that
  no cell appears twice and that the union covers the whole plan, then
  writes the canonical SweepResult JSON — byte-identical to a
  single-process run (a warm `sweep_worker --cache` run included: the
  cell cache changes which cells are simulated, never their bytes).

  --out    write the merged JSON here instead of stdout
  --table  also print the human-readable point table to stderr";

/// Flags whose value must not be mistaken for a journal path.
const VALUE_FLAGS: [&str; 1] = ["--out"];

fn journal_paths() -> Vec<String> {
    let mut paths = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            let _ = args.next();
        } else if !arg.starts_with("--") {
            paths.push(arg);
        }
    }
    paths
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    shg_bench::reject_retired_flags();
    if has_flag("--help") {
        println!("{USAGE}");
        return Ok(());
    }
    let paths = journal_paths();
    if paths.is_empty() {
        cli_error("no journals given");
    }
    let mut shards = Vec::new();
    for path in &paths {
        let shard = read_journal(path).unwrap_or_else(|e| cli_error(format!("{path}: {e}")));
        eprintln!(
            "{path}: shard {} — {} cells (fingerprint {:#018x})",
            shard.shard,
            shard.entries.len(),
            shard.fingerprint
        );
        shards.push(shard);
    }
    let merged = SweepResult::merge(shards).unwrap_or_else(|e| cli_error(e));
    eprintln!(
        "merged {} journals → {} points",
        paths.len(),
        merged.points.len()
    );
    if has_flag("--table") {
        eprintln!("\n{}", merged.table());
    }
    let json = merged.to_json();
    match arg_value("--out") {
        Some(out) => {
            std::fs::write(&out, json)?;
            eprintln!("wrote {out}");
        }
        None => println!("{json}"),
    }
    Ok(())
}
