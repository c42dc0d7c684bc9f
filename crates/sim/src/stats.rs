//! Simulation outcome records.

use serde::{JsonWriter, Serialize};

use crate::config::SimConfig;
use crate::flit::Flit;

/// Fault-related packet accounting of one run (measurement-window
/// scope, like every other outcome counter). All-zero for fault-free
/// runs, in which case it is omitted from the serialized outcome so
/// fault-free output stays byte-identical to builds that predate fault
/// injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct FaultStats {
    /// Measured packets discarded by a fault epoch (in-flight traffic
    /// under the drop policy, dead-router buffers and unreachable
    /// packets under the drain policy).
    pub dropped_packets: u64,
    /// Injection attempts suppressed because no surviving route
    /// connected source and destination (the packet was never offered).
    pub unroutable_packets: u64,
}

impl FaultStats {
    /// `true` if no fault ever touched a measured packet.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }
}

/// The measured result of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// Injected flits per node per cycle during the measurement window.
    pub offered_rate: f64,
    /// Ejected flits per node per cycle during the measurement window.
    pub accepted_rate: f64,
    /// Mean packet latency (creation to tail ejection), in cycles.
    pub avg_packet_latency: f64,
    /// Median (p50) packet latency, in cycles.
    pub p50_packet_latency: f64,
    /// 99th-percentile packet latency, in cycles.
    pub p99_packet_latency: f64,
    /// Worst measured packet latency, in cycles.
    pub max_packet_latency: f64,
    /// Number of packets measured.
    pub measured_packets: u64,
    /// `true` if all measured packets drained within the drain limit.
    pub stable: bool,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Dropped/unroutable packet accounting under fault injection
    /// (all-zero, and omitted from JSON, for fault-free runs).
    pub faults: FaultStats,
}

/// Hand-written so the `faults` block only appears when a fault touched
/// the run: every fault-free outcome — including every pre-existing
/// cache entry and journal line — keeps its exact historical byte
/// representation, which the sweep byte-identity gates rely on.
impl Serialize for SimOutcome {
    fn serialize(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("offered_rate");
        self.offered_rate.serialize(w);
        w.field("accepted_rate");
        self.accepted_rate.serialize(w);
        w.field("avg_packet_latency");
        self.avg_packet_latency.serialize(w);
        w.field("p50_packet_latency");
        self.p50_packet_latency.serialize(w);
        w.field("p99_packet_latency");
        self.p99_packet_latency.serialize(w);
        w.field("max_packet_latency");
        self.max_packet_latency.serialize(w);
        w.field("measured_packets");
        self.measured_packets.serialize(w);
        w.field("stable");
        self.stable.serialize(w);
        w.field("cycles");
        self.cycles.serialize(w);
        if !self.faults.is_zero() {
            w.field("faults");
            self.faults.serialize(w);
        }
        w.end_object();
    }
}

/// Computes a percentile (0.0–1.0) of a latency sample by sorting a copy.
/// Returns 0.0 for an empty sample.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    percentile_of_sorted(&sorted_copy(samples), p)
}

fn sorted_copy(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    sorted
}

/// [`percentile`] of an already sorted sample.
fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p.clamp(0.0, 1.0)).round() as usize;
    sorted[rank]
}

/// The per-run statistics accumulator shared by every execution engine
/// (`Network::run_inner` and the batched struct-of-arrays core): window
/// accounting, outstanding-packet tracking and the final
/// [`SimOutcome`] arithmetic live here exactly once, so two engines
/// cannot drift in how they *measure* even while they differ in how
/// they *simulate*.
#[derive(Debug)]
pub(crate) struct OutcomeRecorder {
    measure_start: u64,
    measure_end: u64,
    measure: u64,
    packet_len: u16,
    outstanding_measured: u64,
    latencies: Vec<f64>,
    ejected_in_window: u64,
    injected_in_window: u64,
    dropped_packets: u64,
    unroutable_packets: u64,
}

impl OutcomeRecorder {
    pub(crate) fn new(config: &SimConfig) -> Self {
        Self {
            measure_start: config.warmup,
            measure_end: config.warmup + config.measure,
            measure: config.measure,
            packet_len: config.packet_len,
            outstanding_measured: 0,
            latencies: Vec::new(),
            ejected_in_window: 0,
            injected_in_window: 0,
            dropped_packets: 0,
            unroutable_packets: 0,
        }
    }

    /// Accounts one injected packet created at cycle `now`.
    #[inline]
    pub(crate) fn record_injection(&mut self, now: u64) {
        if now >= self.measure_start && now < self.measure_end {
            self.outstanding_measured += 1;
            self.injected_in_window += u64::from(self.packet_len);
        }
    }

    /// Accounts one ejected flit at cycle `now` (latency is recorded on
    /// the tail flit of each packet created inside the window).
    #[inline]
    pub(crate) fn record_ejection(&mut self, flit: &Flit, now: u64) {
        if flit.is_tail {
            let created = u64::from(flit.created);
            if created >= self.measure_start && created < self.measure_end {
                self.latencies.push((now - created) as f64);
                self.outstanding_measured -= 1;
            }
        }
        if now >= self.measure_start && now < self.measure_end {
            self.ejected_in_window += 1;
        }
    }

    /// Accounts one dropped packet (its tail flit was discarded by a
    /// fault). Called exactly once per packet, on the tail; packets
    /// created outside the window were never outstanding and only
    /// window packets are counted.
    #[inline]
    pub(crate) fn record_drop(&mut self, created: u32) {
        let created = u64::from(created);
        if created >= self.measure_start && created < self.measure_end {
            self.outstanding_measured -= 1;
            self.dropped_packets += 1;
        }
    }

    /// Accounts one injection attempt suppressed because no surviving
    /// route connects source and destination at cycle `now`.
    #[inline]
    pub(crate) fn record_unroutable(&mut self, now: u64) {
        if now >= self.measure_start && now < self.measure_end {
            self.unroutable_packets += 1;
        }
    }

    /// `true` once every measured packet has been ejected.
    #[inline]
    pub(crate) fn drained(&self) -> bool {
        self.outstanding_measured == 0
    }

    /// End of the measurement window (warmup + measure cycles).
    #[inline]
    pub(crate) fn measure_end(&self) -> u64 {
        self.measure_end
    }

    /// Folds the accumulated statistics into the final outcome.
    pub(crate) fn finalize(&self, now: u64, nodes: f64) -> SimOutcome {
        let stable = self.outstanding_measured == 0;
        let avg_latency = if self.latencies.is_empty() {
            0.0
        } else {
            self.latencies.iter().sum::<f64>() / self.latencies.len() as f64
        };
        let max_latency = self.latencies.iter().copied().fold(0.0f64, f64::max);
        // One sorted copy serves both ranks (a saturated cell holds
        // ~10⁵ samples).
        let sorted = sorted_copy(&self.latencies);
        SimOutcome {
            offered_rate: self.injected_in_window as f64 / (self.measure as f64 * nodes),
            accepted_rate: self.ejected_in_window as f64 / (self.measure as f64 * nodes),
            avg_packet_latency: avg_latency,
            p50_packet_latency: percentile_of_sorted(&sorted, 0.5),
            p99_packet_latency: percentile_of_sorted(&sorted, 0.99),
            max_packet_latency: max_latency,
            measured_packets: self.latencies.len() as u64,
            stable,
            cycles: now,
            faults: FaultStats {
                dropped_packets: self.dropped_packets,
                unroutable_packets: self.unroutable_packets,
            },
        }
    }
}

impl SimOutcome {
    /// `true` if the network kept up with the offered load: the run
    /// drained and accepted throughput tracks offered throughput within
    /// `slack` (e.g. `0.05` for 95%).
    ///
    /// # Examples
    ///
    /// ```
    /// use shg_sim::{FaultStats, SimOutcome};
    ///
    /// let outcome = SimOutcome {
    ///     offered_rate: 0.2,
    ///     accepted_rate: 0.199,
    ///     avg_packet_latency: 30.0,
    ///     p50_packet_latency: 28.0,
    ///     p99_packet_latency: 70.0,
    ///     max_packet_latency: 80.0,
    ///     measured_packets: 1000,
    ///     stable: true,
    ///     cycles: 20_000,
    ///     faults: FaultStats::default(),
    /// };
    /// assert!(outcome.keeps_up(0.05));
    /// ```
    #[must_use]
    pub fn keeps_up(&self, slack: f64) -> bool {
        self.stable && self.accepted_rate >= self.offered_rate * (1.0 - slack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(stable: bool, offered: f64, accepted: f64) -> SimOutcome {
        SimOutcome {
            offered_rate: offered,
            accepted_rate: accepted,
            avg_packet_latency: 10.0,
            p50_packet_latency: 9.0,
            p99_packet_latency: 18.0,
            max_packet_latency: 20.0,
            measured_packets: 100,
            stable,
            cycles: 1000,
            faults: FaultStats::default(),
        }
    }

    #[test]
    fn fault_block_is_omitted_until_a_fault_touches_the_run() {
        let json = |o: &SimOutcome| {
            let mut w = JsonWriter::new();
            o.serialize(&mut w);
            w.finish()
        };
        let clean = outcome(true, 0.1, 0.1);
        assert!(!json(&clean).contains("faults"));
        let mut faulty = clean;
        faulty.faults.dropped_packets = 3;
        faulty.faults.unroutable_packets = 2;
        let text = json(&faulty);
        assert!(text.ends_with(r#""faults":{"dropped_packets":3,"unroutable_packets":2}}"#));
    }

    #[test]
    fn keeps_up_requires_stability() {
        assert!(!outcome(false, 0.1, 0.1).keeps_up(0.05));
    }

    #[test]
    fn keeps_up_requires_throughput() {
        assert!(!outcome(true, 0.2, 0.1).keeps_up(0.05));
        assert!(outcome(true, 0.2, 0.195).keeps_up(0.05));
    }

    #[test]
    fn percentile_of_sorted_sample() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert!((percentile(&samples, 0.5) - 50.0).abs() <= 1.0);
        assert!((percentile(&samples, 0.99) - 99.0).abs() <= 1.0);
    }

    #[test]
    fn percentile_of_empty_sample_is_zero() {
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_is_order_independent() {
        let a = [5.0, 1.0, 3.0, 2.0, 4.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&a, 0.5), percentile(&b, 0.5));
        assert_eq!(percentile(&a, 0.5), 3.0);
    }
}
