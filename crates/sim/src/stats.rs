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

/// The question a saturation-search probe asks of one run: did the
/// network keep up within `slack`, at a mean packet latency of at most
/// `latency_limit` cycles?
#[derive(Debug, Clone, Copy)]
pub(crate) struct Verdict {
    pub(crate) slack: f64,
    pub(crate) latency_limit: f64,
}

impl Verdict {
    /// The probe's answer on a finished run.
    pub(crate) fn holds(&self, outcome: &SimOutcome) -> bool {
        outcome.keeps_up(self.slack) && outcome.avg_packet_latency <= self.latency_limit
    }
}

/// The throughput half of [`SimOutcome::keeps_up`].
fn tracks_offered(offered_rate: f64, accepted_rate: f64, slack: f64) -> bool {
    accepted_rate >= offered_rate * (1.0 - slack)
}

/// Mean of `packets` latencies summing to `latency_sum` cycles (0.0 for
/// none). Both are far below 2⁵³ (a run's packets × its hard stop), so
/// the conversions are exact and the quotient equals the `f64` sum of
/// the individual latencies divided by their count, bit for bit.
fn mean_latency(latency_sum: u64, packets: u64) -> f64 {
    if packets == 0 {
        0.0
    } else {
        latency_sum as f64 / packets as f64
    }
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
    /// Σ creation cycle over the outstanding measured packets.
    outstanding_created: u64,
    latencies: Vec<f64>,
    /// Σ `latencies`, as the integer it is.
    latency_sum: u64,
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
            outstanding_created: 0,
            latencies: Vec::new(),
            latency_sum: 0,
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
            self.outstanding_created += now;
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
                self.latency_sum += now - created;
                self.outstanding_measured -= 1;
                self.outstanding_created -= created;
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
            self.outstanding_created -= created;
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

    /// `flits` counted inside the measurement window, as a rate per node
    /// per cycle.
    fn window_rate(&self, flits: u64, nodes: f64) -> f64 {
        flits as f64 / (self.measure as f64 * nodes)
    }

    /// `true` once no continuation of the run can make `verdict` hold
    /// on the finalized outcome, `now` cycles into a run of `tiles`
    /// routers whose measurement window offers `window_offer` flits in
    /// all (known before the run: the offered load is fixed by the
    /// per-tile streams). Never before the window opens. Two exact
    /// clauses:
    ///
    /// 1. accepted throughput cannot reach offered × (1 − slack) — the
    ///    comparison [`SimOutcome::keeps_up`] will make, in the same
    ///    `f64` arithmetic as the rates [`Self::finalize`] will report.
    ///    Inside the window the accepted count is bounded: a router
    ///    ejects at most one flit per cycle (its ejection port takes
    ///    one switch winner), so the best case is every router ejecting
    ///    in each window cycle left, and `u64 → f64` conversion and
    ///    `f64` division are monotone. From [`Self::measure_end`] on
    ///    the counts are final;
    /// 2. from [`Self::measure_end`] on, when the set of measured
    ///    packets is final, the final mean latency cannot come in under
    ///    the limit. Should the run drain (it fails `keeps_up`
    ///    otherwise), every packet outstanding at cycle `now` will have
    ///    taken at least `now − created` cycles, so the mean computed as
    ///    if all of them ejected right now is a floor of the final one:
    ///    the numerator only grows, the packet count is fixed, and
    ///    `u64 → f64` conversion and `f64` division are monotone. Only
    ///    when `fault_free`: a dropped packet leaves the count instead
    ///    of adding its latency.
    ///
    /// Clause 1 holds with and without faults: a fault drops packets
    /// but never changes which ones were offered.
    pub(crate) fn rules_out(
        &self,
        verdict: &Verdict,
        window_offer: u64,
        now: u64,
        tiles: usize,
        fault_free: bool,
    ) -> bool {
        if now < self.measure_start {
            return false;
        }
        let closed = now >= self.measure_end;
        debug_assert!(!closed || window_offer == self.injected_in_window);
        let nodes = tiles as f64;
        let best = self.ejected_in_window + tiles as u64 * self.measure_end.saturating_sub(now);
        let offered = self.window_rate(window_offer, nodes);
        if !tracks_offered(offered, self.window_rate(best, nodes), verdict.slack) {
            return true;
        }
        closed && fault_free && self.latency_floor(now) > verdict.latency_limit
    }

    /// Flits offered inside the measurement window so far (all of them
    /// from [`Self::measure_end`] on).
    pub(crate) fn window_offer(&self) -> u64 {
        self.injected_in_window
    }

    /// The mean latency as if every outstanding measured packet ejected
    /// at cycle `now` (clause 2 of [`Self::rules_out`]).
    fn latency_floor(&self, now: u64) -> f64 {
        let outstanding = self.outstanding_measured * now - self.outstanding_created;
        mean_latency(
            self.latency_sum + outstanding,
            self.latencies.len() as u64 + self.outstanding_measured,
        )
    }

    /// Folds the accumulated statistics into the final outcome.
    pub(crate) fn finalize(&self, now: u64, nodes: f64) -> SimOutcome {
        let stable = self.outstanding_measured == 0;
        let avg_latency = mean_latency(self.latency_sum, self.latencies.len() as u64);
        let max_latency = self.latencies.iter().copied().fold(0.0f64, f64::max);
        // One sorted copy serves both ranks (a saturated cell holds
        // ~10⁵ samples).
        let sorted = sorted_copy(&self.latencies);
        SimOutcome {
            offered_rate: self.window_rate(self.injected_in_window, nodes),
            accepted_rate: self.window_rate(self.ejected_in_window, nodes),
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
        self.stable && tracks_offered(self.offered_rate, self.accepted_rate, slack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shg_topology::TileId;

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

    /// `(created, ejected)` cycles of a deterministic pseudo-random
    /// packet schedule straddling a 10..50 measurement window.
    fn schedule() -> (SimConfig, Vec<(u64, u64)>) {
        let config = SimConfig {
            warmup: 10,
            measure: 40,
            drain_limit: 200,
            packet_len: 2,
            ..SimConfig::fast_test()
        };
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        let packets = (0..300)
            .map(|_| {
                let created = next(60);
                (created, created + 1 + next(90))
            })
            .collect();
        (config, packets)
    }

    fn tail(created: u64) -> Flit {
        Flit::packet(TileId::new(0), TileId::new(1), 1, created as u32)
            .next()
            .expect("one flit")
    }

    /// Cycle `now` of the schedule: its injections, then its ejections
    /// (a drop instead for the packets `dropped` picks).
    fn replay_cycle(
        recorder: &mut OutcomeRecorder,
        packets: &[(u64, u64)],
        now: u64,
        dropped: impl Fn(usize) -> bool,
    ) {
        for (i, &(created, ejected)) in packets.iter().enumerate() {
            if created == now {
                recorder.record_injection(now);
            }
            if ejected == now && dropped(i) {
                recorder.record_drop(created as u32);
            } else if ejected == now {
                recorder.record_ejection(&tail(created), now);
            }
        }
    }

    #[test]
    fn latency_floor_matches_a_brute_force_sum() {
        let (config, packets) = schedule();
        let window = config.warmup..config.warmup + config.measure;
        let measured: Vec<(u64, u64)> = packets
            .iter()
            .copied()
            .filter(|(created, _)| window.contains(created))
            .collect();
        let final_sum: u64 = measured.iter().map(|(c, e)| e - c).sum();
        let final_mean = final_sum as f64 / measured.len() as f64;
        // Every third measured packet is dropped by a "fault" instead of
        // ejecting in the second pass: the sums must follow.
        for with_drops in [false, true] {
            let dropped = |i: usize| with_drops && i.is_multiple_of(3);
            let mut recorder = OutcomeRecorder::new(&config);
            let mut last_floor = 0.0f64;
            for now in 0..160u64 {
                replay_cycle(&mut recorder, &packets, now, dropped);
                let after = now + 1;
                if after < window.end {
                    continue;
                }
                // Brute force over the packets still counted: delivered
                // ones at their latency, outstanding ones as if ejected
                // right now.
                let counted: Vec<u64> = packets
                    .iter()
                    .enumerate()
                    .filter(|&(i, (c, e))| window.contains(c) && !(dropped(i) && *e <= now))
                    .map(|(_, &(c, e))| if e <= now { e - c } else { after - c })
                    .collect();
                let brute = counted.iter().sum::<u64>() as f64 / counted.len() as f64;
                let floor = recorder.latency_floor(after);
                assert_eq!(floor.to_bits(), brute.to_bits(), "cycle {after}");
                if !with_drops {
                    assert!(floor >= last_floor && floor <= final_mean, "cycle {after}");
                    last_floor = floor;
                }
            }
            assert!(recorder.drained());
            let outcome = recorder.finalize(160, 4.0);
            assert_eq!(
                outcome.avg_packet_latency.to_bits(),
                recorder.latency_floor(160).to_bits()
            );
            if with_drops {
                // Drops leave the mean's denominator: the fault-free
                // floor is no bound any more.
                assert!(outcome.faults.dropped_packets > 0);
            } else {
                assert_eq!(outcome.avg_packet_latency.to_bits(), final_mean.to_bits());
                assert_eq!(outcome.measured_packets, measured.len() as u64);
            }
        }
    }

    #[test]
    fn rules_out_follows_its_two_clauses() {
        let (config, packets) = schedule();
        let end = config.warmup + config.measure;
        let mut recorder = OutcomeRecorder::new(&config);
        for now in 0..end {
            replay_cycle(&mut recorder, &packets, now, |_| false);
        }
        let partial = recorder.finalize(end, 4.0);
        let floor = recorder.latency_floor(end);
        let offer = recorder.window_offer();
        assert!(!recorder.drained() && floor > 0.0);
        let verdict = |slack: f64, latency_limit: f64| Verdict {
            slack,
            latency_limit,
        };
        let rules_out = |verdict: Verdict, fault_free: bool| {
            recorder.rules_out(&verdict, offer, end, 4, fault_free)
        };
        // Clause 1 is `keeps_up`'s throughput comparison on the window's
        // final rates, with or without faults.
        let loss = 1.0 - partial.accepted_rate / partial.offered_rate;
        assert!(loss > 0.0 && loss < 1.0, "{partial:?}");
        for fault_free in [true, false] {
            assert!(rules_out(verdict(loss / 2.0, f64::INFINITY), fault_free));
            assert!(!rules_out(
                verdict((loss + 1.0) / 2.0, f64::INFINITY),
                fault_free
            ));
        }
        // Clause 2 compares the floor with the limit, fault-free only.
        assert!(rules_out(verdict(1.0, floor - 0.01), true));
        assert!(!rules_out(verdict(1.0, floor), true));
        assert!(!rules_out(verdict(1.0, floor - 0.01), false));
    }

    #[test]
    fn inside_the_window_clause_1_bounds_what_can_still_eject() {
        let (config, packets) = schedule();
        let end = config.warmup + config.measure;
        let tiles = 4usize;
        let rate = |flits: u64| flits as f64 / (config.measure as f64 * tiles as f64);
        let verdict = |slack: f64| Verdict {
            slack,
            latency_limit: f64::INFINITY,
        };
        let mut recorder = OutcomeRecorder::new(&config);
        let mut fired = 0;
        for now in 0..end + 20 {
            // `now` cycles have run.
            if now < config.warmup {
                // Never before the window opens, whatever the offer.
                for slack in [0.0, 0.5] {
                    assert!(!recorder.rules_out(&verdict(slack), u64::MAX >> 12, now, tiles, true));
                }
            } else if now < end {
                // Every router ejects in each window cycle left.
                let best = recorder.ejected_in_window + tiles as u64 * (end - now);
                for offer in [best / 2, best - 1, best, best + 1, best * 3 / 2, best * 3] {
                    for slack in [0.0, 0.05, 0.25] {
                        let misses = rate(best) < rate(offer) * (1.0 - slack);
                        for fault_free in [true, false] {
                            let out =
                                recorder.rules_out(&verdict(slack), offer, now, tiles, fault_free);
                            assert_eq!(out, misses, "cycle {now}, offer {offer}, slack {slack}");
                            fired += usize::from(out);
                        }
                    }
                }
                // The equality boundary: exactly the best case keeps up.
                assert!(!recorder.rules_out(&verdict(0.0), best, now, tiles, true));
                assert!(recorder.rules_out(&verdict(0.0), best + 1, now, tiles, true));
            } else {
                // From the window's end on, the bound is gone: only the
                // final counts decide.
                let offer = recorder.window_offer();
                for slack in [0.0, 0.05, 0.25, 0.5] {
                    let misses = rate(recorder.ejected_in_window) < rate(offer) * (1.0 - slack);
                    assert_eq!(
                        recorder.rules_out(&verdict(slack), offer, now, tiles, false),
                        misses,
                        "cycle {now}, slack {slack}"
                    );
                }
            }
            replay_cycle(&mut recorder, &packets, now, |_| false);
        }
        assert!(fired > 0);
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
