//! The repository benchmark: six end-to-end workloads measured from
//! outside with tracing off, and a traced pass that attributes each
//! workload's time to the layers under it. See `benchmark/README.md`.
//!
//! ```text
//! shg-benchmark --bin-dir DIR [--workload NAME] [--seed N]
//!               [--seconds S | --reps N] [--trace 0|1]
//! shg-benchmark compare BASE.tsv NEW.tsv
//! ```
//!
//! With `--workload` it is one run of the driver's contract: named
//! metric lines, then one JSON object as the last line. Without, it is
//! the whole benchmark: every workload untraced (`--reps`, default 3),
//! then every workload traced, results filed under `benchmark/out/`.

mod calib;
mod compare;
mod metrics;
mod plan;
mod proc;
mod trace;
mod traced;
mod workloads;

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{Checks, Results};
use plan::Workload;
use workloads::{Ctx, Rep};

/// Everything under here is scratch and results; `.gitignore` names it.
const OUT_DIR: &str = "benchmark/out";

/// How long one untraced run repeats its workload.
#[derive(Clone, Copy)]
enum Budget {
    /// Repeat until this many seconds have been measured; a workload
    /// longer than that runs once.
    Seconds(f64),
    Reps(usize),
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// `customize_20x20`'s child: runs `shg_core::customize` and prints the
/// accepted trace for the parent to check.
fn child_customize() {
    let (toolchain, params, goals) = plan::customize_inputs();
    let trace = shg_core::customize(&toolchain, &params, goals).expect("customization runs");
    let list = |set: &std::collections::BTreeSet<u16>| {
        let items: Vec<String> = set.iter().map(u16::to_string).collect();
        items.join(",")
    };
    let configs: usize = 1 + trace
        .steps
        .iter()
        .map(|step| step.config.grow_moves().len())
        .sum::<usize>();
    println!("steps {}", trace.steps.len());
    println!("configs {configs}");
    for (i, step) in trace.steps.iter().enumerate() {
        println!(
            "step {i} sr={} sc={} eval={}",
            list(step.config.sr()),
            list(step.config.sc()),
            serde_json::to_string(&step.evaluation).expect("evaluation serializes")
        );
    }
}

/// `count` samples of `setup_s`: the set-up chain run over and over on
/// this thread, in batches of about 60 ms; a batch's fastest pass is one
/// sample (the chain is deterministic, so what a pass takes beyond the
/// fastest is the machine's doing, not the code's).
fn setup_samples(workload: Workload, count: usize) -> Vec<f64> {
    let pass = || {
        let start = Instant::now();
        black_box(plan::setup_once(workload));
        start.elapsed().as_secs_f64()
    };
    let per_batch = ((0.06 / pass()) as usize).clamp(1, 99);
    (0..count)
        .map(|_| (0..per_batch).map(|_| pass()).fold(f64::INFINITY, f64::min))
        .collect()
}

/// One workload end to end with tracing off.
fn untraced(workload: Workload, ctx: &Ctx, budget: Budget) -> (Results, Checks) {
    let mut out = Results::default();
    let mut checks = Checks::default();
    let loop_start = calib::loop_mops();
    // Set-up is sampled on both sides of the repetitions, so its median
    // sees the machine over the same stretch of time they do.
    let mut setup = setup_samples(workload, 5);
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        reps.push(workloads::run_rep(workload, ctx, reps.len()));
        let enough = match budget {
            Budget::Reps(n) => reps.len() >= n,
            Budget::Seconds(s) => started.elapsed().as_secs_f64() >= s,
        };
        if enough {
            break;
        }
    }
    setup.extend(setup_samples(workload, 4));
    out.sample("setup_s", "s", &setup);
    let loop_end = calib::loop_mops();
    let per_rep = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    out.sample("wall_s", "s", &per_rep(|r| r.run.wall_s));
    out.sample("cpu_s", "s", &per_rep(|r| r.run.cpu_s));
    out.sample("peak_rss_mb", "MB", &per_rep(|r| r.run.peak_rss_mb));
    let rate = per_rep(|r| r.work / r.run.wall_s);
    out.sample("work_per_s", "1/s", &rate);
    match workload {
        Workload::Customize20x20 => out.sample("configs_per_s", "1/s", &rate),
        Workload::Table3Validate => {}
        _ => out.sample("cells_per_s", "1/s", &rate),
    }
    let cycle_rates: Option<Vec<f64>> = reps
        .iter()
        .map(|r| Some(r.sim_cycles? as f64 / r.run.wall_s))
        .collect();
    if let Some(rates) = cycle_rates {
        out.sample("sim_cycles_per_s", "1/s", &rates);
    }
    workloads::verify(workload, ctx, &reps, &mut checks, &mut out);
    let failed_share = checks.failed() as f64 / checks.attempted as f64;
    out.sample("failed_share", "share", &[failed_share]);
    out.record("seed", ctx.seed, "seed");
    out.record("calib.loop_mops_start", loop_start, "Mop/s");
    out.record("calib.loop_mops_end", loop_end, "Mop/s");
    out.flag_spread();
    out.flag_calibration("noisy", loop_start, loop_end);
    (out, checks)
}

/// One workload's traced pass, its layers ranked by self time printed.
fn traced(workload: Workload, ctx: &Ctx) -> (Results, Checks, String) {
    let mut out = Results::default();
    let mut checks = Checks::default();
    let tracer = traced::traced_pass(workload, ctx, &mut checks, &mut out);
    let (start, end) = (
        out.per_layer["calib.loop_mops_start"],
        out.per_layer["calib.loop_mops_end"],
    );
    out.flag_calibration("traced.noisy", start, end);
    // The ledger: the program's layers ranked by self time, as shares of
    // the replayed work; the harness's own spans (references, untraced
    // replay, backend row, child runs) are summed into one last row.
    let totals = tracer.totals();
    let (harness, mut layers): (Vec<_>, Vec<_>) = totals
        .iter()
        .partition(|(name, _)| name.starts_with("bench."));
    layers.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    let replayed_s: f64 = layers.iter().map(|(_, l)| l.self_s).sum();
    let name = workload.name();
    println!("{name}  ledger: layers by self time, of {replayed_s:.3} s replayed");
    for (layer, total) in layers.iter().take(12) {
        println!(
            "{name}  ledger  {layer:<36} self {:>10.6} s {:>5.1}%  total {:>10.6} s  spans {}",
            total.self_s,
            total.self_s / replayed_s * 100.0,
            total.total_s,
            total.spans
        );
    }
    println!(
        "{name}  ledger  {:<36} self {:>10.6} s",
        "bench.* (the harness's own work)",
        harness.iter().map(|(_, l)| l.self_s).sum::<f64>()
    );
    (out, checks, tracer.to_jsonl(workload.name()))
}

fn report(workload: Workload, out: &Results, checks: &Checks) {
    out.print(workload.name());
    println!(
        "{}  checks attempted {} failed {}",
        workload.name(),
        checks.attempted,
        checks.failed()
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("child-customize") => {
            child_customize();
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            let (Some(base), Some(new)) = (args.get(1), args.get(2)) else {
                eprintln!("usage: compare BASE.tsv NEW.tsv");
                return ExitCode::from(2);
            };
            return match compare::compare(base, new) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(message) => {
                    eprintln!("error: {message}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if let Err(message) = metrics::check_contract(&names) {
        eprintln!("error: {message}");
        return ExitCode::from(2);
    }
    let number = |flag: &str, default: f64| -> f64 {
        flag_value(&args, flag).map_or(default, |text| {
            text.parse()
                .unwrap_or_else(|e| panic!("{flag} {text}: {e}"))
        })
    };
    let Some(bin_dir) = flag_value(&args, "--bin-dir") else {
        eprintln!("error: --bin-dir DIR (the repository's release binaries) is required");
        return ExitCode::from(2);
    };
    let seed =
        flag_value(&args, "--seed").map_or(1, |s| s.parse::<u64>().expect("--seed is a u64"));
    let trace_on = number("--trace", 0.0) != 0.0;
    let ctx_for = |workload: Workload| Ctx {
        bin_dir: PathBuf::from(&bin_dir),
        work_dir: PathBuf::from(OUT_DIR).join("work").join(workload.name()),
        seed,
    };
    std::fs::create_dir_all(OUT_DIR).expect("benchmark/out is creatable");

    if let Some(name) = flag_value(&args, "--workload") {
        let Some(workload) = Workload::from_name(&name) else {
            eprintln!("error: unknown workload '{name}' (one of {names:?})");
            return ExitCode::from(2);
        };
        let ctx = ctx_for(workload);
        let (out, checks) = if trace_on {
            let (out, checks, jsonl) = traced(workload, &ctx);
            std::fs::write(format!("{OUT_DIR}/trace.jsonl"), jsonl).expect("trace file writes");
            (out, checks)
        } else {
            let budget = match flag_value(&args, "--reps") {
                Some(reps) => Budget::Reps(reps.parse().expect("--reps is a count")),
                None => Budget::Seconds(number("--seconds", 5.0)),
            };
            untraced(workload, &ctx, budget)
        };
        report(workload, &out, &checks);
        println!("{}", out.driver_line(trace_on, &checks));
        return ExitCode::SUCCESS;
    }

    // The whole benchmark: every workload untraced, then every one traced.
    let reps = number("--reps", 3.0) as usize;
    let mut tsv = format!(
        "seed\t{seed}\tseed\nnproc\t{}\tcount\n",
        rayon::current_num_threads()
    );
    let mut jsonl = String::new();
    let mut failed = 0;
    let mut file = |workload: Workload, out: &Results, checks: &Checks| {
        report(workload, out, checks);
        tsv.push_str(&out.to_tsv(workload.name()));
        failed += checks.failed();
    };
    for workload in Workload::ALL {
        let (out, checks) = untraced(workload, &ctx_for(workload), Budget::Reps(reps));
        file(workload, &out, &checks);
    }
    for workload in Workload::ALL {
        let (out, checks, spans) = traced(workload, &ctx_for(workload));
        file(workload, &out, &checks);
        jsonl.push_str(&spans);
    }
    std::fs::write(format!("{OUT_DIR}/results.tsv"), tsv).expect("results file writes");
    std::fs::write(format!("{OUT_DIR}/trace.jsonl"), jsonl).expect("trace file writes");
    println!(
        "results: {OUT_DIR}/results.tsv, spans: {OUT_DIR}/trace.jsonl, failed checks: {failed}"
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
