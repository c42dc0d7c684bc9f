//! Regression tests for the harness binaries' CLI error convention:
//! user-input mistakes (unknown flags' values, malformed numbers,
//! conflicting modes) must exit with code 2 and a one-line `error:` +
//! `--help` pointer on stderr — never a panic with a backtrace — while
//! `--help` itself exits 0 with the usage text on stdout.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn sweep_worker(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep_worker"))
        .args(args)
        .output()
        .expect("spawn sweep_worker")
}

fn sweep_merge(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep_merge"))
        .args(args)
        .output()
        .expect("spawn sweep_merge")
}

fn shg_coord(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_shg_coord"))
        .args(args)
        .output()
        .expect("spawn shg_coord")
}

fn load_curve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_load_curve"))
        .args(args)
        .output()
        .expect("spawn load_curve")
}

/// Asserts the usage-error contract: exit code 2, an `error:` line and
/// the `--help` pointer on stderr, no panic backtrace anywhere.
fn assert_usage_error(output: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "expected exit 2, got {:?}; stderr: {stderr}",
        output.status.code()
    );
    assert!(
        stderr.contains("error:"),
        "stderr should carry an error: line, got: {stderr}"
    );
    assert!(
        stderr.contains("run with --help for usage"),
        "stderr should point at --help, got: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "stderr should mention '{needle}', got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "user-input errors must not panic, got: {stderr}"
    );
}

#[test]
fn help_exits_zero_with_usage() {
    for output in [
        sweep_worker(&["--help"]),
        sweep_merge(&["--help"]),
        shg_coord(&["--help"]),
    ] {
        assert_eq!(output.status.code(), Some(0));
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("Usage:"), "got: {stdout}");
    }
}

#[test]
fn unknown_scenario_is_a_usage_error() {
    let output = sweep_worker(&["--fast", "--scenario", "z", "--single-shot", "/dev/null"]);
    assert_usage_error(&output, "scenario");
    // Every binary that names a scenario, a grid dimension or a
    // pattern rejects a bad one the same way, before any work.
    for (binary, flag, value) in [
        (env!("CARGO_BIN_EXE_fig6"), "--scenario", "z"),
        (env!("CARGO_BIN_EXE_pareto"), "--rows", "x"),
        (env!("CARGO_BIN_EXE_pareto"), "--cols", "x"),
        (env!("CARGO_BIN_EXE_load_curve"), "--scenario", "z"),
        (env!("CARGO_BIN_EXE_load_curve"), "--pattern", "nope"),
        (env!("CARGO_BIN_EXE_ruche_comparison"), "--scenario", "z"),
        (env!("CARGO_BIN_EXE_sparsity_sweep"), "--scenario", "z"),
    ] {
        let output = Command::new(binary).args([flag, value]).output();
        assert_usage_error(&output.expect("spawn binary"), &flag[2..]);
    }
}

#[test]
fn malformed_rate_points_is_a_usage_error() {
    let output = sweep_worker(&[
        "--fast",
        "--rate-points",
        "lots",
        "--single-shot",
        "/dev/null",
    ]);
    assert_usage_error(&output, "rate-points");
}

#[test]
fn non_positive_add_rates_is_a_usage_error() {
    let output = sweep_worker(&[
        "--fast",
        "--add-rates",
        "0.2,-0.1",
        "--single-shot",
        "/dev/null",
    ]);
    assert_usage_error(&output, "add-rates");
}

/// `--backend` was removed: any value, including a formerly valid one,
/// is a usage error that names the flag, never silently ignored.
#[test]
fn unknown_backend_is_a_usage_error() {
    for backend in ["quantum", "auto"] {
        let output = sweep_worker(&["--fast", "--backend", backend, "--single-shot", "/dev/null"]);
        assert_usage_error(&output, "--backend was removed");
    }
}

/// `--lanes` and `--routes` were removed too: every binary rejects them,
/// and a coordinator request rejects `routes=`.
#[test]
fn malformed_lanes_is_a_usage_error() {
    let output = sweep_worker(&["--fast", "--lanes", "8", "--single-shot", "/dev/null"]);
    assert_usage_error(&output, "--lanes was removed");
    let output = load_curve(&["--routes", "dense"]);
    assert_usage_error(&output, "--routes was removed");
    let output = shg_coord(&["--spawn-workers", "1", "--lanes", "4"]);
    assert_usage_error(&output, "--lanes was removed");
    let mut coord = Command::new(env!("CARGO_BIN_EXE_shg_coord"))
        .args(["--spawn-workers", "1", "--fast", "--rate-points", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn shg_coord");
    coord
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"out=/dev/null routes=dense\n")
        .expect("request written");
    let output = coord.wait_with_output().expect("shg_coord exits");
    assert_usage_error(&output, "'routes' was removed");
}

#[test]
fn zero_based_shard_is_a_usage_error() {
    let output = sweep_worker(&["--fast", "--shard", "0/3", "--out", "/dev/null"]);
    assert_usage_error(&output, "shard");
}

#[test]
fn out_and_resume_conflict_is_a_usage_error() {
    let output = sweep_worker(&["--fast", "--out", "a.jsonl", "--resume", "b.jsonl"]);
    assert_usage_error(&output, "mutually exclusive");
}

#[test]
fn single_shot_rejects_the_shard_and_journal_flags() {
    for extra in [
        &["--shard", "1/2"][..],
        &["--shard", "0/3"],
        &["--out", "a.jsonl"],
        &["--resume", "a.jsonl"],
        &["--durable"],
    ] {
        let mut args = vec!["--fast", "--single-shot", "/dev/null"];
        args.extend_from_slice(extra);
        let output = sweep_worker(&args);
        assert_usage_error(&output, extra[0]);
        assert_usage_error(&output, "--single-shot");
    }
}

#[test]
fn unknown_topology_spec_is_a_usage_error() {
    let output = load_curve(&["--topology", "moebius"]);
    assert_usage_error(&output, "moebius");
}

#[test]
fn malformed_topology_database_is_a_usage_error() {
    let output = load_curve(&["--topology", "db:widget/d/8x8/mesh"]);
    assert_usage_error(&output, "unknown statement");
}

#[test]
fn uninstantiable_topology_database_is_a_usage_error() {
    // 3×3 admits no hypercube: a DB validation failure, not a panic.
    let output = load_curve(&["--topology", "db:die/d/3x3/hypercube"]);
    assert_usage_error(&output, "hypercube");
}

#[test]
fn worker_rejects_a_malformed_db_param() {
    let output = sweep_worker(&["--fast", "--db", "die/d/8x8", "--single-shot", "/dev/null"]);
    assert_usage_error(&output, "db");
}

#[test]
fn malformed_fault_cycle_is_a_usage_error() {
    let output = sweep_worker(&[
        "--fast",
        "--faults",
        "soon:link:0-1",
        "--single-shot",
        "/dev/null",
    ]);
    assert_usage_error(&output, "bad fault cycle");
}

#[test]
fn out_of_range_fault_router_is_a_usage_error() {
    // Parses fine; dies at annotation when checked against the
    // scenario's concrete 64-tile topologies.
    let output = sweep_worker(&[
        "--fast",
        "--faults",
        "100:router:9999",
        "--single-shot",
        "/dev/null",
    ]);
    assert_usage_error(&output, "out of range");
}

#[test]
fn duplicate_fault_kill_is_a_usage_error() {
    // The two events name the same canonical link from both ends.
    let output = sweep_worker(&[
        "--fast",
        "--faults",
        "100:link:0-1,200:link:1-0",
        "--single-shot",
        "/dev/null",
    ]);
    assert_usage_error(&output, "duplicate kill");
}

#[test]
fn load_curve_rejects_an_absent_fault_link() {
    // Tiles 0 and 2 both exist but share no link on the scenario mesh.
    let output = load_curve(&["--topology", "mesh", "--faults", "100:link:0-2"]);
    assert_usage_error(&output, "no link 0-2");
}

#[test]
fn coordinator_validates_faults_before_spawning_the_fleet() {
    let output = shg_coord(&["--spawn-workers", "2", "--fast", "--faults", "100:nuke:3"]);
    assert_usage_error(&output, "bad fault event");
}

#[test]
fn resilience_rejects_an_out_of_range_kill_fraction() {
    let output = Command::new(env!("CARGO_BIN_EXE_resilience"))
        .args(["--fractions", "0.5,1.5"])
        .output()
        .expect("spawn resilience");
    assert_usage_error(&output, "fraction");
}

#[test]
fn merge_without_journals_is_a_usage_error() {
    let output = sweep_merge(&[]);
    assert_usage_error(&output, "no journals given");
}

#[test]
fn merge_of_a_missing_journal_is_a_usage_error() {
    let output = sweep_merge(&["/nonexistent/journal.jsonl"]);
    assert_usage_error(&output, "/nonexistent/journal.jsonl");
}

#[test]
fn coordinator_without_a_fleet_mode_is_a_usage_error() {
    let output = shg_coord(&[]);
    assert_usage_error(&output, "--spawn-workers");
}

#[test]
fn coordinator_rejects_a_malformed_kill_spec() {
    let output = shg_coord(&["--spawn-workers", "1", "--kill-worker", "0:oops"]);
    assert_usage_error(&output, "--kill-worker");
}

#[test]
fn verdict_reports_reject_the_full_outcome_flags() {
    // fig6, pareto and ruche_comparison keep no outcomes, so a journal
    // or chunked progress would be silently ignored; the removed
    // backend and lane-count flags are rejected like on every binary.
    let reports = [
        env!("CARGO_BIN_EXE_fig6"),
        env!("CARGO_BIN_EXE_pareto"),
        env!("CARGO_BIN_EXE_ruche_comparison"),
    ];
    let flags: [&[&str]; 3] = [
        &["--resume", "journal.jsonl"],
        &["--durable"],
        &["--progress"],
    ];
    let retired: [&[&str]; 2] = [&["--backend", "reuse"], &["--lanes", "4"]];
    for report in reports {
        let run = |flag: &[&str]| {
            Command::new(report)
                .args(flag)
                .output()
                .expect("spawn report binary")
        };
        for flag in flags {
            let output = run(flag);
            assert_usage_error(&output, flag[0]);
            assert_usage_error(&output, "sweep_worker");
        }
        for flag in retired {
            assert_usage_error(&run(flag), &format!("{} was removed", flag[0]));
        }
    }
}
