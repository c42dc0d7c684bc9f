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

/// The measurement window's packets by creation cycle, counted before
/// a verdict-mode run (the per-tile streams fix them), and folded in
/// cycle by cycle: how many window packets exist by a given cycle —
/// in the network or still parked at their source — and Σ their
/// creation cycles. The created half of the latency floor of
/// [`OutcomeRecorder::rules_out`].
#[derive(Debug)]
pub(crate) struct WindowCreations {
    /// The window's first cycle.
    start: u64,
    /// Window packets created at each window cycle, from the first.
    per_cycle: Vec<u32>,
    /// Σ `per_cycle`: the window's final packet count.
    packets: u64,
    /// Leading cycles of `per_cycle` folded into the two sums below.
    folded: usize,
    /// Packets created in the folded cycles.
    created: u64,
    /// Σ creation cycle over those packets.
    created_cycles: u64,
}

impl WindowCreations {
    /// An empty tally for `config`'s measurement window.
    pub(crate) fn new(config: &SimConfig) -> Self {
        Self {
            start: config.warmup,
            per_cycle: vec![0; config.measure as usize],
            packets: 0,
            folded: 0,
            created: 0,
            created_cycles: 0,
        }
    }

    /// Accounts one window packet created at cycle `created`.
    pub(crate) fn record(&mut self, created: u64) {
        self.per_cycle[(created - self.start) as usize] += 1;
        self.packets += 1;
    }

    /// Folds every window cycle before `now` into the running sums.
    fn fold_until(&mut self, now: u64) {
        let until = (now.saturating_sub(self.start) as usize).min(self.per_cycle.len());
        while self.folded < until {
            let packets = u64::from(self.per_cycle[self.folded]);
            self.created += packets;
            self.created_cycles += packets * (self.start + self.folded as u64);
            self.folded += 1;
        }
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
    latencies: Vec<f64>,
    /// Σ `latencies`, as the integer it is.
    latency_sum: u64,
    /// Σ creation cycle over the ejected measured packets.
    ejected_created: u64,
    ejected_in_window: u64,
    injected_in_window: u64,
    dropped_packets: u64,
    unroutable_packets: u64,
    /// The window's packets by creation cycle, for the latency floor of
    /// [`Self::rules_out`] (`None`: no floor).
    creations: Option<WindowCreations>,
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
            latency_sum: 0,
            ejected_created: 0,
            ejected_in_window: 0,
            injected_in_window: 0,
            dropped_packets: 0,
            unroutable_packets: 0,
            creations: None,
        }
    }

    /// Turns on the latency floor of [`Self::rules_out`], given the
    /// window's packets by creation cycle, counted before a fault-free
    /// run.
    pub(crate) fn expect_creations(&mut self, creations: WindowCreations) {
        self.creations = Some(creations);
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
                self.latency_sum += now - created;
                self.ejected_created += created;
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
        debug_assert!(self.creations.is_none(), "the latency floor is fault-free");
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
        debug_assert!(self.creations.is_none(), "the latency floor is fault-free");
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
    /// clauses, both from the first measured cycle on:
    ///
    /// 1. accepted throughput cannot reach offered × (1 − slack) — the
    ///    comparison [`SimOutcome::keeps_up`] will make, in the same
    ///    `f64` arithmetic as the rates [`Self::finalize`] will report.
    ///    Inside the window the accepted count is bounded: a router
    ///    ejects at most one flit per cycle (its ejection port takes
    ///    one switch winner), so the best case is every router ejecting
    ///    in each window cycle left, and `u64 → f64` conversion and
    ///    `f64` division are monotone. From [`Self::measure_end`] on
    ///    the counts are final. Holds with and without faults: a fault
    ///    drops packets but never changes which ones were offered;
    /// 2. the final mean latency cannot come in under the limit. The
    ///    window's `N` packets and their creation cycles are known
    ///    before the run ([`Self::expect_creations`]), and should the
    ///    run drain (it fails `keeps_up` otherwise) each of them is
    ///    ejected exactly once. Every window packet created before
    ///    `now` and not yet ejected — in the network or still parked at
    ///    its source — will take at least `now − created` cycles, and a
    ///    later one at least none, so (Σ delivered latencies +
    ///    unejected · now − Σ their creation cycles) ÷ `N` is a floor of
    ///    the final mean: the numerator only grows, `N` is fixed, and
    ///    `u64 → f64` conversion and `f64` division are monotone. Only
    ///    once the creations are expected, which verdict mode does for
    ///    fault-free runs with a finite limit: a dropped packet would
    ///    leave the count instead of adding its latency.
    pub(crate) fn rules_out(
        &mut self,
        verdict: &Verdict,
        window_offer: u64,
        now: u64,
        tiles: usize,
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
        self.window_latency_floor(now)
            .is_some_and(|floor| floor > verdict.latency_limit)
    }

    /// Clause 2 of [`Self::rules_out`]: the mean latency as if every
    /// window packet created before cycle `now` and not yet ejected
    /// ejected at `now`, over all the window's packets (`None` until
    /// [`Self::expect_creations`]).
    fn window_latency_floor(&mut self, now: u64) -> Option<f64> {
        let window = self.creations.as_mut()?;
        debug_assert!(
            now < self.measure_end
                || window.packets * u64::from(self.packet_len) == self.injected_in_window,
            "the window's packets by creation cycle are the run's"
        );
        window.fold_until(now);
        let unejected = window.created - self.latencies.len() as u64;
        let waited = unejected * now - (window.created_cycles - self.ejected_created);
        Some(mean_latency(self.latency_sum + waited, window.packets))
    }

    /// Flits offered inside the measurement window so far (all of them
    /// from [`Self::measure_end`] on).
    pub(crate) fn window_offer(&self) -> u64 {
        self.injected_in_window
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

    /// Cycle `now` of the schedule: its injections, then its ejections.
    fn replay_cycle(recorder: &mut OutcomeRecorder, packets: &[(u64, u64)], now: u64) {
        for &(created, ejected) in packets {
            if created == now {
                recorder.record_injection(now);
            }
            if ejected == now {
                recorder.record_ejection(&tail(created), now);
            }
        }
    }

    /// The window's packets of `packets` by creation cycle, as verdict
    /// mode counts them before the run.
    fn creations(config: &SimConfig, packets: &[(u64, u64)]) -> WindowCreations {
        let window = config.warmup..config.warmup + config.measure;
        let mut tally = WindowCreations::new(config);
        for &(created, _) in packets {
            if window.contains(&created) {
                tally.record(created);
            }
        }
        tally
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
        let mut recorder = OutcomeRecorder::new(&config);
        assert_eq!(recorder.window_latency_floor(window.start), None);
        recorder.expect_creations(creations(&config, &packets));
        let mut last_floor = 0.0f64;
        for now in 0..160u64 {
            replay_cycle(&mut recorder, &packets, now);
            let after = now + 1;
            if after < window.start {
                continue;
            }
            // Brute force over the window's packets: delivered ones at
            // their latency, created ones as if ejected right now, the
            // ones not created yet at none.
            let sum: u64 = measured
                .iter()
                .map(|&(c, e)| match (e <= now, c <= now) {
                    (true, _) => e - c,
                    (false, true) => after - c,
                    (false, false) => 0,
                })
                .sum();
            let brute = sum as f64 / measured.len() as f64;
            let floor = recorder
                .window_latency_floor(after)
                .expect("creations are expected");
            assert_eq!(floor.to_bits(), brute.to_bits(), "cycle {after}");
            assert!(floor >= last_floor && floor <= final_mean, "cycle {after}");
            last_floor = floor;
        }
        assert!(recorder.drained());
        let outcome = recorder.finalize(160, 4.0);
        assert_eq!(outcome.avg_packet_latency.to_bits(), final_mean.to_bits());
        assert_eq!(last_floor.to_bits(), final_mean.to_bits());
        assert_eq!(outcome.measured_packets, measured.len() as u64);
    }

    #[test]
    fn rules_out_follows_its_throughput_and_latency_clauses() {
        let (config, packets) = schedule();
        let end = config.warmup + config.measure;
        let replay = |until: u64, floor: bool| {
            let mut recorder = OutcomeRecorder::new(&config);
            if floor {
                recorder.expect_creations(creations(&config, &packets));
            }
            for now in 0..until {
                replay_cycle(&mut recorder, &packets, now);
            }
            recorder
        };
        let verdict = |slack: f64, latency_limit: f64| Verdict {
            slack,
            latency_limit,
        };
        let offer = replay(end, false).window_offer();
        let rules_out = |until: u64, verdict: Verdict, floor: bool| {
            replay(until, floor).rules_out(&verdict, offer, until, 4)
        };
        // Clause 1 is `keeps_up`'s throughput comparison on the window's
        // final rates, with or without the latency floor.
        let partial = replay(end, false).finalize(end, 4.0);
        let loss = 1.0 - partial.accepted_rate / partial.offered_rate;
        assert!(loss > 0.0 && loss < 1.0, "{partial:?}");
        for floor in [true, false] {
            assert!(rules_out(end, verdict(loss / 2.0, f64::INFINITY), floor));
            assert!(!rules_out(
                end,
                verdict((loss + 1.0) / 2.0, f64::INFINITY),
                floor
            ));
        }
        // Clause 2 compares the floor with the limit from the first
        // measured cycle on, once the creations are expected.
        for now in [config.warmup, (config.warmup + end) / 2, end, end + 7] {
            let floor = replay(now, true)
                .window_latency_floor(now)
                .expect("creations are expected");
            assert!(floor > 0.0 || now == config.warmup, "cycle {now}");
            assert!(
                rules_out(now, verdict(1.0, floor - 0.01), true),
                "cycle {now}"
            );
            assert!(!rules_out(now, verdict(1.0, floor), true), "cycle {now}");
            assert!(
                !rules_out(now, verdict(1.0, floor - 0.01), false),
                "cycle {now}"
            );
        }
    }

    #[test]
    fn parked_packets_alone_push_the_floor_over_the_limit_inside_the_window() {
        let (config, _) = schedule();
        let (start, end) = (config.warmup, config.warmup + config.measure);
        // Four packets created in the window's first cycle wait at their
        // sources, never drawn, so never outstanding; four more are
        // created in its last cycle.
        let packets: Vec<(u64, u64)> = [(start, end + 50); 4]
            .into_iter()
            .chain([(end - 1, end + 60); 4])
            .collect();
        let mut recorder = OutcomeRecorder::new(&config);
        recorder.expect_creations(creations(&config, &packets));
        let offer = 8 * u64::from(config.packet_len);
        let now = start + 20;
        let verdict = |latency_limit: f64| Verdict {
            slack: 0.05,
            latency_limit,
        };
        assert!(recorder.drained());
        // (4 · 20 waited cycles + 4 · none) ÷ 8 packets.
        assert_eq!(recorder.window_latency_floor(now), Some(10.0));
        assert!(recorder.rules_out(&verdict(9.5), offer, now, 4));
        assert!(!recorder.rules_out(&verdict(10.0), offer, now, 4));
        // Without the creations, nothing in the network says so.
        let mut blind = OutcomeRecorder::new(&config);
        assert!(!blind.rules_out(&verdict(9.5), offer, now, 4));
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
                    assert!(!recorder.rules_out(&verdict(slack), u64::MAX >> 12, now, tiles));
                }
            } else if now < end {
                // Every router ejects in each window cycle left.
                let best = recorder.ejected_in_window + tiles as u64 * (end - now);
                for offer in [best / 2, best - 1, best, best + 1, best * 3 / 2, best * 3] {
                    for slack in [0.0, 0.05, 0.25] {
                        let misses = rate(best) < rate(offer) * (1.0 - slack);
                        let out = recorder.rules_out(&verdict(slack), offer, now, tiles);
                        assert_eq!(out, misses, "cycle {now}, offer {offer}, slack {slack}");
                        fired += usize::from(out);
                    }
                }
                // The equality boundary: exactly the best case keeps up.
                assert!(!recorder.rules_out(&verdict(0.0), best, now, tiles));
                assert!(recorder.rules_out(&verdict(0.0), best + 1, now, tiles));
            } else {
                // From the window's end on, the bound is gone: only the
                // final counts decide.
                let offer = recorder.window_offer();
                for slack in [0.0, 0.05, 0.25, 0.5] {
                    let misses = rate(recorder.ejected_in_window) < rate(offer) * (1.0 - slack);
                    assert_eq!(
                        recorder.rules_out(&verdict(slack), offer, now, tiles),
                        misses,
                        "cycle {now}, slack {slack}"
                    );
                }
            }
            replay_cycle(&mut recorder, &packets, now);
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
