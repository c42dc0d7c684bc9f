//! Spans recorded by the harness around calls into each layer's public
//! functions. Kept in memory, written out when the run ends; a layer's
//! self time is its spans' duration minus the part their children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval. `parent` is the span open when this one began.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span (cells, cycles, bytes, …).
    pub counts: Vec<(&'static str, f64)>,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    pub spans: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// The recorder. A disabled tracer runs the same closures and records
/// nothing — the untraced side of the tracing-overhead measurement.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// `false` for the recorder of an untraced replay.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` nest.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    /// Adds `value` to count `key` of the innermost open span.
    pub fn count(&mut self, key: &'static str, value: f64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].counts.push((key, value));
        }
    }

    /// Records durations measured *by the layer itself* (a public return
    /// value such as `PhaseProfile`) as children of the innermost open
    /// span, laid end to end from its start and marked `reported`.
    pub fn reported_children(&mut self, parts: &[(&'static str, Duration)]) {
        let Some(&parent) = self.open.last() else {
            return;
        };
        let mut at = self.spans[parent].start_ns;
        for &(name, duration) in parts {
            let end = at + duration.as_nanos() as u64;
            self.spans.push(Span {
                parent: Some(parent),
                name,
                start_ns: at,
                end_ns: end,
                counts: vec![("reported", 1.0)],
            });
            at = end;
        }
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.spans += 1;
            entry.total_s += duration as f64 * 1e-9;
            entry.self_s += duration.saturating_sub(child_ns[i]) as f64 * 1e-9;
        }
        totals
    }

    /// Sum of count `key` over the spans named `name`.
    pub fn count_sum(&self, name: &str, key: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.counts.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum::<f64>()
            + 0.0 // an empty sum is -0.0
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"workload\":\"{workload}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"counts\":{{",
                span.name, span.start_ns, span.end_ns
            );
            let mut merged: BTreeMap<&str, f64> = BTreeMap::new();
            for (key, value) in &span.counts {
                *merged.entry(key).or_default() += value;
            }
            for (i, (key, value)) in merged.iter().enumerate() {
                let _ = write!(out, "{}\"{key}\":{value}", if i > 0 { "," } else { "" });
            }
            out.push_str("}}\n");
        }
        out
    }
}
