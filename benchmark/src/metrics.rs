//! Metric tables, sample statistics, correctness-check bookkeeping and
//! the three output forms: named lines with units, the flat
//! `name<TAB>value<TAB>unit` file `compare` reads, and the one-line JSON
//! result the driver reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde_json::Value;

/// How far a metric may worsen before `compare` calls it a regression.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    /// A share of the base value.
    Share(f64),
    /// An absolute amount in the metric's unit.
    Absolute(f64),
}

/// An end-to-end metric as `compare` judges it.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Bound,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: Bound) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// The end-to-end metrics every workload reports — the list
/// `BENCHMARK.json` gates (its bounds are checked against these at start).
pub const END_TO_END: [EndToEnd; 5] = [
    e2e("wall_s", "s", false, Bound::Share(0.25)),
    e2e("cpu_s", "s", false, Bound::Share(0.25)),
    e2e("setup_s", "s", false, Bound::Share(0.25)),
    e2e("peak_rss_mb", "MB", false, Bound::Share(0.15)),
    e2e("work_per_s", "1/s", true, Bound::Share(0.25)),
];

/// End-to-end metrics only some workloads have. The driver's contract
/// wants every listed metric from every workload and never a zero, so
/// these are printed, filed and compared by `compare`, but not listed in
/// `BENCHMARK.json`; the accuracy figures are gated as correctness checks.
pub const WORKLOAD_SPECIFIC: [EndToEnd; 8] = [
    e2e("cells_per_s", "1/s", true, Bound::Share(0.25)),
    e2e("sim_cycles_per_s", "1/s", true, Bound::Share(0.25)),
    e2e("configs_per_s", "1/s", true, Bound::Share(0.25)),
    e2e("area_err_pct", "%", false, Bound::Absolute(0.1)),
    e2e("power_err_pct", "%", false, Bound::Absolute(0.1)),
    e2e("latency_err_pct", "%", false, Bound::Absolute(0.1)),
    e2e("throughput_err_pct", "%", false, Bound::Absolute(0.1)),
    e2e("failed_share", "share", false, Bound::Absolute(0.0)),
];

/// Per-layer metrics of the traced pass: `(name, unit)`. A layer that
/// does not run in a workload reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("calib.loop_mops_start", "Mop/s"),
    ("calib.loop_mops_end", "Mop/s"),
    ("calib.mem_gbps", "GB/s"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("bench.sweep.request_setup_s", "s"),
    ("bench.sweep.annotate_s", "s"),
    ("bench.sweep.annotate_self_s", "s"),
    ("topology.build_s", "s"),
    ("topology.tiles", "count"),
    ("topology.links", "count"),
    ("topology.routing.build_s", "s"),
    ("topology.routing.table_bytes", "bytes"),
    ("topology.routing.query_ns", "ns"),
    ("topology.routing.channel_loads_s", "s"),
    ("floorplan.placement_s", "s"),
    ("floorplan.global_route_s", "s"),
    ("floorplan.spacing_s", "s"),
    ("floorplan.unitcell_s", "s"),
    ("floorplan.detailed_route_s", "s"),
    ("floorplan.estimate_s", "s"),
    ("floorplan.predict_s", "s"),
    ("floorplan.unit_cells", "count"),
    ("floorplan.unit_cells_per_s", "1/s"),
    ("floorplan.collisions", "count"),
    ("core.toolchain.zero_load_s", "s"),
    ("core.toolchain.analytic_sat_s", "s"),
    ("core.toolchain.evaluate_s", "s"),
    ("core.toolchain.area_err_pct", "%"),
    ("core.toolchain.power_err_pct", "%"),
    ("core.toolchain.latency_err_pct", "%"),
    ("core.toolchain.throughput_err_pct", "%"),
    ("core.customize.configs", "count"),
    ("core.customize.steps", "count"),
    ("core.customize.self_s", "s"),
    ("sim.network.new_s", "s"),
    ("sim.network.reset_s", "s"),
    ("sim.network.run_s", "s"),
    ("sim.network.injection_s", "s"),
    ("sim.network.delivery_s", "s"),
    ("sim.network.allocation_s", "s"),
    ("sim.network.run_other_s", "s"),
    ("sim.network.cycles", "count"),
    ("sim.network.cycles_per_s", "1/s"),
    ("sim.network.tile_cycles_per_s", "1/s"),
    ("sim.network.packets", "count"),
    ("sim.network.flits_delivered", "count"),
    ("sim.runner.saturation_search_s", "s"),
    ("sim.sweep.experiment.plan_fingerprint_s", "s"),
    ("sim.sweep.experiment.per_cell_cells_per_s", "1/s"),
    ("sim.sweep.experiment.reuse_cells_per_s", "1/s"),
    ("sim.sweep.experiment.batched_l1_cells_per_s", "1/s"),
    ("sim.sweep.experiment.batched_l8_cells_per_s", "1/s"),
    ("sim.sweep.experiment.auto_cells_per_s", "1/s"),
    ("sim.sweep.experiment.parallel_efficiency", "share"),
    ("sim.sweep.experiment.auto_batched_cells", "count"),
    ("sim.sweep.experiment.auto_reuse_cells", "count"),
    ("sim.sweep.cache.store_s", "s"),
    ("sim.sweep.cache.probe_s", "s"),
    ("sim.sweep.cache.store_cells_per_s", "1/s"),
    ("sim.sweep.cache.probe_cells_per_s", "1/s"),
    ("sim.sweep.cache.bytes_per_cell", "bytes"),
    ("sim.sweep.cache.hits", "count"),
    ("sim.sweep.cache.misses", "count"),
    ("sim.sweep.journal.append_s", "s"),
    ("sim.sweep.journal.read_s", "s"),
    ("sim.sweep.journal.bytes_per_cell", "bytes"),
    ("sim.sweep.result.to_json_s", "s"),
    ("sim.sweep.result.merge_s", "s"),
    ("sim.sweep.result.json_bytes_per_cell", "bytes"),
    ("sim.sweep.proto.frame_roundtrip_ns", "ns"),
    ("sim.sweep.proto.codec_s", "s"),
    ("sim.sweep.proto.bytes_per_cell", "bytes"),
    ("sim.sweep.coord.ready_s", "s"),
    ("sim.sweep.coord.chunks", "count"),
    ("sim.sweep.coord.stolen", "count"),
    ("sim.sweep.coord.requeued", "count"),
    ("sim.sweep.coord.cached", "count"),
    ("sim.sweep.coord.dispatched", "count"),
    ("sim.sweep.coord.fleet_overhead_s", "s"),
];

/// Median, extremes and count of one metric's samples.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Stat {
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "a metric needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        let median = if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        };
        Self {
            median,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        }
    }
}

/// Correctness checks of one run: every one is counted, failures named.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; a failed one is remembered by name.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            eprintln!("CHECK FAILED: {what}");
            self.failures.push(what.to_owned());
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Everything one workload's run produced, by metric name.
#[derive(Debug, Default)]
pub struct Results {
    /// End-to-end metrics (tracing off): samples' statistics.
    pub end_to_end: BTreeMap<&'static str, (Stat, &'static str)>,
    /// Per-layer metrics (traced pass).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Exact values recorded so two commits can be compared: digests,
    /// paper-facing numbers, counts. `(value, unit)`.
    pub records: BTreeMap<String, (String, &'static str)>,
    pub noisy: Vec<String>,
}

impl Results {
    pub fn sample(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        self.end_to_end.insert(name, (Stat::of(samples), unit));
    }

    pub fn record(&mut self, name: impl Into<String>, value: impl ToString, unit: &'static str) {
        self.records.insert(name.into(), (value.to_string(), unit));
    }

    /// Marks the run noisy where an end-to-end metric's max/min over the
    /// reps exceeds its bound.
    pub fn flag_spread(&mut self) {
        for def in END_TO_END.iter().chain(&WORKLOAD_SPECIFIC) {
            let (Some((stat, _)), Bound::Share(bound)) = (self.end_to_end.get(def.name), def.bound)
            else {
                continue;
            };
            if stat.min > 0.0 && stat.max / stat.min - 1.0 > bound {
                self.noisy.push(format!(
                    "{} max/min {:.3} over {} reps exceeds its {:.0}% bound",
                    def.name,
                    stat.max / stat.min,
                    stat.n,
                    bound * 100.0
                ));
            }
        }
    }

    /// Marks the run noisy when the calibration loop's speed before and
    /// after differs by more than 10 %, and records how many noise marks
    /// the run collected under `key`.
    pub fn flag_calibration(&mut self, key: &str, start: f64, end: f64) {
        if (start / end - 1.0).abs() > 0.10 {
            self.noisy.push(format!(
                "calibration loop ran at {start:.0} Mop/s before and {end:.0} after"
            ));
        }
        self.record(key, self.noisy.len(), "count");
    }

    /// Every metric by name with its unit, for people.
    pub fn print(&self, workload: &str) {
        for (name, (stat, unit)) in &self.end_to_end {
            println!(
                "{workload}  {name:<22} {:>14.6} {unit:<6} (min {:.6} max {:.6} n={})",
                stat.median, stat.min, stat.max, stat.n
            );
        }
        for &(name, unit) in PER_LAYER {
            if let Some(value) = self.per_layer.get(name) {
                println!("{workload}  {name:<46} {value:>16.6} {unit}");
            }
        }
        for (name, (value, unit)) in &self.records {
            println!("{workload}  {name:<32} {value} {unit}");
        }
        for reason in &self.noisy {
            println!("{workload}  NOISY: {reason}");
        }
    }

    /// The flat `name<TAB>value<TAB>unit` lines `compare` reads.
    pub fn to_tsv(&self, workload: &str) -> String {
        let mut out = String::new();
        for (name, (stat, unit)) in &self.end_to_end {
            let _ = writeln!(out, "{workload}/{name}\t{}\t{unit}", stat.median);
            let _ = writeln!(out, "{workload}/{name}.min\t{}\t{unit}", stat.min);
            let _ = writeln!(out, "{workload}/{name}.max\t{}\t{unit}", stat.max);
            let _ = writeln!(out, "{workload}/{name}.n\t{}\tcount", stat.n);
        }
        for &(name, unit) in PER_LAYER {
            if let Some(value) = self.per_layer.get(name) {
                let _ = writeln!(out, "{workload}/{name}\t{value}\t{unit}");
            }
        }
        for (name, (value, unit)) in &self.records {
            let _ = writeln!(out, "{workload}/{name}\t{value}\t{unit}");
        }
        out
    }

    /// The driver's result line: with tracing off every end-to-end
    /// metric of `BENCHMARK.json`, with tracing on every per-layer one.
    pub fn driver_line(&self, traced: bool, checks: &Checks) -> String {
        let mut metrics = String::new();
        let mut push = |name: &str, value: f64, unit: &str| {
            // JSON has no NaN or infinity; a ratio over nothing reads 0.
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if metrics.is_empty() { "" } else { ", " }
            );
        };
        if traced {
            for &(name, unit) in PER_LAYER {
                push(name, self.per_layer.get(name).copied().unwrap_or(0.0), unit);
            }
        } else {
            for def in &END_TO_END {
                let (stat, _) = self
                    .end_to_end
                    .get(def.name)
                    .unwrap_or_else(|| panic!("every workload reports {}", def.name));
                push(def.name, stat.median, def.unit);
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            checks.failed() == 0,
            checks.attempted,
            checks.failed()
        )
    }
}

/// Checks that `BENCHMARK.json` in the current directory lists exactly
/// the metrics and bounds this harness emits, so the two cannot drift.
///
/// # Errors
///
/// Describes the first disagreement, or why the file could not be read.
pub fn check_contract(workloads: &[&str]) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc: Value = text
        .parse()
        .map_err(|e| format!("BENCHMARK.json is not JSON: {e}"))?;
    let list = |key: &str| -> Result<&[Value], String> {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no list '{key}'"))
    };
    let field = |item: &Value, key: &str| -> String {
        item.get(key)
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_owned()
    };
    let names: Vec<String> = list("workloads")?
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    if names != workloads {
        return Err(format!(
            "BENCHMARK.json workloads {names:?} != {workloads:?}"
        ));
    }
    let declared = list("end_to_end")?;
    if declared.len() != END_TO_END.len() {
        return Err("BENCHMARK.json end_to_end does not list the harness's metrics".into());
    }
    for (item, def) in declared.iter().zip(&END_TO_END) {
        let bound = item.get("bound").and_then(Value::as_f64);
        let Bound::Share(share) = def.bound else {
            unreachable!("gated metrics have share bounds")
        };
        let better = if def.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        if field(item, "name") != def.name
            || field(item, "unit") != def.unit
            || field(item, "better") != better
            || bound != Some(share)
        {
            return Err(format!(
                "BENCHMARK.json end_to_end disagrees on {}",
                def.name
            ));
        }
    }
    let declared: Vec<(String, String)> = list("per_layer")?
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect();
    let emitted: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect();
    if declared != emitted {
        let odd = declared
            .iter()
            .zip(&emitted)
            .find(|(d, e)| d != e)
            .map_or_else(
                || "list lengths differ".to_owned(),
                |(d, e)| format!("{d:?} vs {e:?}"),
            );
        return Err(format!(
            "BENCHMARK.json per_layer disagrees with the harness: {odd}"
        ));
    }
    Ok(())
}
