//! CI perf-smoke harness: re-measures the Criterion headline numbers in
//! quick mode, writes them as machine-readable JSON and (optionally)
//! gates against a committed baseline.
//!
//! The gated headlines are **speedup ratios** (an optimized path vs.
//! the slower way it replaces — reset vs. rebuild, warm vs. cold cache,
//! next-hop vs. dense routes — measured
//! back-to-back on the same machine), so they are comparable across CI
//! runner generations; absolute medians
//! are recorded under `info_ms` for trend-watching but never gated —
//! runner hardware varies too much for wall-clock gates.
//!
//! Run with:
//! `cargo run --release -p shg-bench --bin perf_smoke --
//!  [--samples 5] [--out BENCH_smoke.json] [--check BENCH_baseline.json]`
//!
//! `--check` exits non-zero if any headline ratio regressed more than
//! 25% below the baseline (or a baseline headline is missing from the
//! current run). Refresh the committed baseline by copying the `--out`
//! file after an intentional performance change.
//!
//! One deliberate exception to "commit what you measured": the
//! `warm_cache_sweep_speedup` headline (a fully-warm cell cache vs. a
//! cold run) is bound by fixed warm-side costs — the one-time routing
//! -table digest plus entry reads — so its absolute ratio swings
//! across machines (measured here: ~60×). Its committed baseline is a
//! conservative 30× — the gate then fails below 22.5×, which still
//! catches any real regression (a cache that re-simulates even one
//! cell of the grid falls to ~single-digit ratios) without flaking on
//! disk-speed differences. `network_reset_vs_rebuild` is likewise
//! committed at the low end of its measured 5–7× spread.
//! `nexthop_route_build` (measured ~300×) is committed
//! at 10× — an order of magnitude on both build time and table bytes
//! is the design floor for the compact form; losing it would mean the
//! next-hop kernels fell back to materializing paths.

use std::fmt::Write as _;

use shg_bench::{arg_value, median, profile_setup_phase, SetupSample};
use shg_sim::{CellCache, Experiment, SimConfig, SweepSpec, TrafficPattern};
use shg_topology::routing::RouteForm;
use shg_topology::{generators, routing, Grid};

/// Allowed relative shortfall of a headline ratio vs. the baseline.
const REGRESSION_TOLERANCE: f64 = 0.25;

/// A measured headline (gated) or info (ungated) entry.
struct Entry {
    name: &'static str,
    median: f64,
}

fn bench_config() -> SimConfig {
    SimConfig {
        warmup: 500,
        measure: 2_000,
        drain_limit: 6_000,
        ..SimConfig::default()
    }
}

/// Median per-cell setup speedup of `Network::reset` over fresh
/// construction (the batched-backend headline), measured on the
/// high-radix 16×16 flattened butterfly — the shape where per-cell
/// allocation hurts most — via the protocol shared with the
/// `setup_phase` Criterion group ([`profile_setup_phase`]).
fn reset_headline(samples: usize, info: &mut Vec<Entry>) -> f64 {
    let fb = generators::flattened_butterfly(Grid::new(16, 16));
    let measured = profile_setup_phase(&fb, &bench_config(), 0.01, samples);
    info.push(Entry {
        name: "setup_phase_fb16_rate0.01_reset",
        median: median(measured.iter().map(|s| s.reset * 1e3).collect()),
    });
    median(measured.iter().map(SetupSample::ratio).collect())
}

/// Median whole-sweep speedup of a fully-warm cell cache over a cold
/// run (the incremental-sweep headline): each sample runs a small
/// mesh-16×16 grid cold into a fresh cache directory, re-runs it warm,
/// asserts byte-identical JSON and zero warm simulations, and takes
/// the cold/warm wall ratio.
///
/// # Panics
///
/// Panics if the cache directory is unusable or a warm run ever
/// deviates from its cold twin.
fn warm_cache_headline(samples: usize, info: &mut Vec<Entry>) -> f64 {
    let mesh = generators::mesh(Grid::new(16, 16));
    let spec = || {
        SweepSpec::new(bench_config())
            .rates([0.005, 0.01, 0.02])
            .patterns([TrafficPattern::UniformRandom, TrafficPattern::Transpose])
    };
    let root = std::env::temp_dir().join(format!("shg_perf_smoke_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut ratios = Vec::new();
    let mut warm_wall = Vec::new();
    for i in 0..samples {
        let dir = root.join(i.to_string());
        let cached_experiment = || {
            Experiment::new(spec())
                .with_unit_latency_case("mesh", &mesh)
                .expect("mesh routes")
                .with_cache(CellCache::open(&dir).expect("cache dir"))
        };
        let cold_experiment = cached_experiment();
        let start = std::time::Instant::now();
        let cold_result = cold_experiment.run_parallel();
        let cold = start.elapsed().as_secs_f64();
        let warm_experiment = cached_experiment();
        let start = std::time::Instant::now();
        let warm_result = warm_experiment.run_parallel();
        let warm = start.elapsed().as_secs_f64();
        assert_eq!(
            cold_result.to_json(),
            warm_result.to_json(),
            "warm cache changed the sweep bytes"
        );
        let stats = warm_experiment.cache().expect("cache attached").stats();
        assert_eq!(stats.simulated, 0, "warm run must simulate nothing");
        ratios.push(cold / warm);
        warm_wall.push(warm * 1e3);
    }
    let _ = std::fs::remove_dir_all(&root);
    info.push(Entry {
        name: "warm_cache_sweep_mesh16_6cells_warm",
        median: median(warm_wall),
    });
    median(ratios)
}

/// Median advantage of the compact next-hop routing table over the
/// dense all-pairs path store on a 32×32 mesh (1,024 tiles — the size
/// where dense tables start to hurt and the compact form's O(1)
/// kernels pay off): the headline is the **smaller** of the build-time
/// ratio and the table-size ratio, so it only stays green while the
/// compact form wins on both axes. The table-size ratio is
/// deterministic (bytes are a function of the topology alone); the
/// build ratio is measured back-to-back like every other headline.
/// Both builders' absolute medians go to `info_ms`: they share the 1D
/// line banks, so a change there moves both and leaves the ratio flat.
fn nexthop_route_headline(samples: usize, info: &mut Vec<Entry>) -> f64 {
    let mesh = generators::mesh(Grid::new(32, 32));
    let build = |form: RouteForm| {
        let start = std::time::Instant::now();
        let routes = routing::default_routes_with(&mesh, form).expect("mesh routes");
        (start.elapsed().as_secs_f64(), routes)
    };
    let _ = build(RouteForm::NextHop); // warm up
    let mut ratios = Vec::new();
    let mut compact_wall = Vec::new();
    let mut dense_wall = Vec::new();
    let mut bytes_ratio = 0.0;
    for _ in 0..samples {
        let (compact, compact_routes) = build(RouteForm::NextHop);
        let (dense, dense_routes) = build(RouteForm::Dense);
        assert_eq!(
            compact_routes.num_vc_classes(),
            dense_routes.num_vc_classes(),
            "route forms must agree"
        );
        bytes_ratio = dense_routes.table_bytes() as f64 / compact_routes.table_bytes() as f64;
        ratios.push(dense / compact);
        compact_wall.push(compact * 1e3);
        dense_wall.push(dense * 1e3);
    }
    info.push(Entry {
        name: "nexthop_route_build_mesh32_next_hop",
        median: median(compact_wall),
    });
    info.push(Entry {
        name: "nexthop_route_build_mesh32_dense",
        median: median(dense_wall),
    });
    median(ratios).min(bytes_ratio)
}

/// Renders the report as JSON (two flat objects of name → median).
fn to_json(samples: usize, headlines: &[Entry], info: &[Entry]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": 1,");
    let _ = writeln!(out, "  \"samples\": {samples},");
    let section = |out: &mut String, label: &str, entries: &[Entry], last: bool| {
        let _ = writeln!(out, "  \"{label}\": {{");
        for (i, e) in entries.iter().enumerate() {
            let comma = if i + 1 == entries.len() { "" } else { "," };
            let _ = writeln!(out, "    \"{}\": {:.3}{comma}", e.name, e.median);
        }
        let _ = writeln!(out, "  }}{}", if last { "" } else { "," });
    };
    section(&mut out, "headlines", headlines, false);
    section(&mut out, "info_ms", info, true);
    out.push_str("}\n");
    out
}

/// Extracts the `name → value` pairs of one JSON section written by
/// [`to_json`], via the vendored `serde_json` value parser (the same
/// reading path the sweep journals use).
///
/// # Errors
///
/// Fails if the text is not JSON or the section is not a flat object
/// of numbers.
fn parse_section(text: &str, label: &str) -> Result<Vec<(String, f64)>, String> {
    let value: serde_json::Value = text
        .parse()
        .map_err(|e: serde_json::ParseError| e.to_string())?;
    let section = value
        .get(label)
        .and_then(serde_json::Value::as_object)
        .ok_or_else(|| format!("no '{label}' object in the baseline"))?;
    section
        .iter()
        .map(|(name, v)| {
            v.as_f64()
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("'{label}.{name}' is not a number"))
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let samples: usize = arg_value("--samples").map_or(5, |v| v.parse().expect("samples"));
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_smoke.json".to_owned());

    let mut info = Vec::new();
    let headlines = vec![
        Entry {
            name: "network_reset_vs_rebuild",
            median: reset_headline(samples, &mut info),
        },
        Entry {
            name: "warm_cache_sweep_speedup",
            median: warm_cache_headline(samples, &mut info),
        },
        Entry {
            name: "nexthop_route_build",
            median: nexthop_route_headline(samples, &mut info),
        },
    ];

    let json = to_json(samples, &headlines, &info);
    std::fs::write(&out_path, &json)?;
    println!("perf smoke ({samples} samples per headline) → {out_path}\n{json}");

    let Some(baseline_path) = arg_value("--check") else {
        return Ok(());
    };
    let baseline = std::fs::read_to_string(&baseline_path)?;
    let mut failures = Vec::new();
    for (name, expected) in parse_section(&baseline, "headlines")? {
        match headlines.iter().find(|e| e.name == name) {
            None => failures.push(format!("{name}: in baseline but not measured")),
            Some(entry) => {
                let floor = expected * (1.0 - REGRESSION_TOLERANCE);
                if entry.median < floor {
                    failures.push(format!(
                        "{name}: {:.2}x is more than {:.0}% below the baseline {expected:.2}x \
                         (floor {floor:.2}x)",
                        entry.median,
                        REGRESSION_TOLERANCE * 100.0
                    ));
                } else {
                    println!(
                        "ok: {name} = {:.2}x (baseline {expected:.2}x, floor {floor:.2}x)",
                        entry.median
                    );
                }
            }
        }
    }
    if failures.is_empty() {
        println!("perf smoke green vs {baseline_path}");
        Ok(())
    } else {
        for failure in &failures {
            eprintln!("PERF REGRESSION — {failure}");
        }
        Err(format!("{} headline(s) regressed", failures.len()).into())
    }
}
