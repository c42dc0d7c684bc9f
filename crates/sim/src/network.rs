//! The cycle-accurate network model: orchestration of input-queued
//! virtual-channel routers (see [`crate::router`]) with credit-based
//! flow control and multi-cycle pipelined links.
//!
//! Each cycle:
//!
//! 1. **Injection** — Bernoulli packet generation into injection
//!    buffers from the injection calendar, which visits only the tiles that
//!    fire (per-tile RNG streams; a tile whose buffer is still busy is
//!    parked and drawn when it frees — see [`crate::injection`]),
//! 2. **Arrivals** — the flits and credits due this cycle, taken from
//!    the delivery calendar,
//! 3. **Allocation + traversal** — per-router request-driven VC
//!    allocation, separable switch allocation and switch traversal (the
//!    router module).
//!
//! Links that are too long for one clock cycle are pipelined (paper
//! Section II-A): a link of latency `L` holds up to `L` flits in flight.
//!
//! # Active-set scheduling
//!
//! Phase C visits only the **active set**: routers with a live VC- or
//! switch-allocation request (see the router module's "Request-driven
//! allocation"). A router whose buffered flits all wait — heads parked
//! until a VC on their output frees, VCs out of credits — does nothing
//! in its visit, so skipping it is exact. A router enters the set when
//! an event arms a request: a flit arrival or an injection that fills
//! an empty buffer, a credit that lifts an owned VC off zero in Phase B,
//! a fault epoch's re-arming of parked heads; members without a request
//! left drop out after their visit. Active routers are visited in
//! ascending index order — the order a scan of every router would
//! take, skipping only routers with nothing to do.
//!
//! # Delivery calendar
//!
//! Each channel is a FIFO of constant latency, so a flit or credit sent
//! at cycle `t` on a channel of latency `L` is due at exactly `t + L`.
//! There are no per-channel pipes: one calendar of `W` buckets, `W` the
//! smallest power of two above the largest channel latency, files every
//! entry under its due cycle mod `W`, and Phase B drains bucket
//! `now mod W` — flits first, then credits — touching only what is due.
//! Phase C files a send at `now + max(L, 1)`, so a zero-latency channel
//! delivers on the next cycle. The bucket's order is not a channel
//! order, and need not be: a channel carries at most one flit per cycle
//! into its own `(router, input port)`, credits are counts, and the
//! active and touched router sets are bitmaps, so deliveries within a
//! cycle commute.
//!
//! The pinned outcomes in `tests/golden_outcomes.txt` and the per-cycle
//! invariants of [`Network::run_validated`] hold the schedule there.

use rand::rngs::SmallRng;
use shg_topology::{
    routing::{RouteForm, Routes, NO_COMPONENT},
    ChannelId, Grid, TileId, Topology,
};
use shg_units::Cycles;

use crate::config::{SimConfig, VcClassTable};
use crate::fault::{FaultEpoch, FaultSchedule, InFlightPolicy};
use crate::flit::Flit;
use crate::injection::Injector;
use crate::router::{Router, TraversalOutput};
use crate::stats::{OutcomeRecorder, SimOutcome, Verdict, WindowCreations};
use crate::traffic::TrafficPattern;

/// Wall-clock decomposition of one run into its simulation phases —
/// what [`Network::run_profiled`] returns alongside the outcome.
///
/// The measured spans are the phase bodies only; loop control,
/// statistics collection and the active-set sweep bookkeeping are
/// excluded, so the three durations need not sum to the run's total
/// wall time.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseProfile {
    /// Phase A: packet generation (the injection calendar).
    pub injection: std::time::Duration,
    /// Phase B: delivery of the flits and credits the calendar holds
    /// due this cycle.
    pub delivery: std::time::Duration,
    /// Phase C: per-router VC allocation, switch allocation and
    /// traversal — including the filing of each router's forwards and
    /// credits into the delivery calendar.
    pub allocation: std::time::Duration,
}

/// An index set over `0..len`: a bitmap, so insertion is one OR,
/// duplicates cost nothing and members come out in ascending order
/// without a sort.
#[derive(Debug)]
pub(crate) struct ActiveSet {
    /// Bit `i & 63` of word `i >> 6` is set while `i` is a member.
    words: Vec<u64>,
    /// Last cycle's sweep buffer, recycled so the per-cycle sweep is
    /// allocation-free in steady state.
    scratch: Vec<usize>,
}

impl ActiveSet {
    pub(crate) fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            scratch: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, index: usize) {
        self.words[index >> 6] |= 1 << (index & 63);
    }

    /// Moves the members out, in ascending order, leaving the set
    /// empty. Call [`ActiveSet::keep`] for every index to retain, then
    /// return the buffer via [`ActiveSet::finish_sweep`].
    pub(crate) fn start_sweep(&mut self) -> Vec<usize> {
        let mut sweep = std::mem::take(&mut self.scratch);
        self.clear_with(|i| sweep.push(i));
        sweep
    }

    #[inline]
    pub(crate) fn contains(&self, index: usize) -> bool {
        self.words[index >> 6] & (1 << (index & 63)) != 0
    }

    #[inline]
    pub(crate) fn keep(&mut self, index: usize) {
        self.insert(index);
    }

    pub(crate) fn finish_sweep(&mut self, mut sweep: Vec<usize>) {
        sweep.clear();
        self.scratch = sweep;
    }

    /// Empties the set, visiting each former member in ascending order.
    pub(crate) fn clear_with(&mut self, mut visit: impl FnMut(usize)) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                visit((w << 6) | bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// Every link pipeline of the network as one timing wheel: bucket `b`
/// holds the flits and credits due at the next cycle `t` with
/// `t mod W = b` (see the module's "Delivery calendar").
#[derive(Debug)]
struct Calendar {
    /// `data[b]`: `(channel, flit)` due in bucket `b`.
    data: Vec<Vec<(u32, Flit)>>,
    /// `credits[b]`: `(channel, vc)` due in bucket `b`, flowing
    /// source-ward.
    credits: Vec<Vec<(u32, u8)>>,
    /// `W − 1`.
    mask: u64,
}

impl Calendar {
    /// A calendar with room for a delay of up to `max_latency` cycles.
    fn new(max_latency: u64) -> Self {
        let buckets = (max_latency + 1).next_power_of_two() as usize;
        Self {
            data: vec![Vec::new(); buckets],
            credits: vec![Vec::new(); buckets],
            mask: buckets as u64 - 1,
        }
    }

    /// The bucket of entries due at cycle `due`.
    #[inline]
    fn slot(&self, due: u64) -> usize {
        (due & self.mask) as usize
    }

    /// Empties every bucket, keeping its capacity.
    fn clear(&mut self) {
        self.data.iter_mut().for_each(Vec::clear);
        self.credits.iter_mut().for_each(Vec::clear);
    }
}

/// What turns a tile's arrival into a packet: the run's traffic
/// pattern, packet length and fault schedule, and the window its
/// packets count in.
/// Arrivals reach it from the [`Injector`] either as they fire or, for
/// a parked tile, when its injection buffer frees — possibly cycles,
/// and fault epochs, after their creation.
struct Arrivals<'s> {
    pattern: TrafficPattern,
    grid: Grid,
    packet_len: u16,
    schedule: Option<&'s FaultSchedule>,
    measure_end: u64,
}

impl Arrivals<'_> {
    /// The surviving-component map in force at cycle `cycle` (`None`
    /// before the first fault epoch).
    fn component_at(&self, cycle: u64) -> Option<&[u32]> {
        let epochs = &self.schedule?.epochs;
        let applied = epochs.partition_point(|epoch| epoch.at <= cycle);
        applied
            .checked_sub(1)
            .map(|e| epochs[e].component.as_slice())
    }

    /// `true` while a packet drawn in cycle `now` still has to be
    /// counted: from the end of the window on, [`Arrivals::catch_up`]
    /// has counted every window packet, drawn or not.
    fn counting(&self, now: u64) -> bool {
        now < self.measure_end
    }

    /// Draws the destination of tile `t`'s packet created at cycle
    /// `created` from its stream and, if `count`, accounts for it.
    /// `None` if the pattern gives it no destination, or if no surviving
    /// route joined source and destination when it was created — a
    /// packet created before a fault epoch keeps the verdict of its
    /// creation and is sunk at VC allocation if the epoch cut it off.
    fn draw(
        &self,
        t: usize,
        created: u64,
        stream: &mut SmallRng,
        recorder: &mut OutcomeRecorder,
        count: bool,
    ) -> Option<TileId> {
        let dst = self
            .pattern
            .destination(self.grid, TileId::new(t as u32), stream)?;
        if let Some(component) = self.component_at(created) {
            let (a, b) = (component[t], component[dst.index()]);
            if a == NO_COMPONENT || a != b {
                if count {
                    recorder.record_unroutable(created);
                }
                return None;
            }
        }
        if count {
            recorder.record_injection(created);
        }
        Some(dst)
    }

    /// Refills tile `t`'s injection buffer, freed during cycle `now`,
    /// from its parked backlog (a no-op for a tile that is not parked).
    fn refill(
        &self,
        injector: &mut Injector,
        router: &mut Router,
        t: usize,
        now: u64,
        recorder: &mut OutcomeRecorder,
    ) {
        let count = self.counting(now);
        injector.draw_parked(t, now + 1, |created, stream| {
            self.draw(t, created, stream, recorder, count)
                // `created` stays below the hard stop, which fits `u32`.
                .map(|dst| router.fill_injection_buffer(dst, created as u32, self.packet_len))
                .is_some()
        });
    }

    /// Discards tile `t`'s parked backlog at the top of cycle `now`,
    /// where a fault epoch took its injection buffer: each pending
    /// packet is drawn, counted while the window is open, and dropped;
    /// the tile resumes at its first arrival from `now` on.
    fn flush(&self, injector: &mut Injector, t: usize, now: u64, recorder: &mut OutcomeRecorder) {
        let count = self.counting(now);
        injector.flush_parked(t, now, |created, stream| {
            if self.draw(t, created, stream, recorder, count).is_some() {
                recorder.record_drop(created as u32);
            }
        });
    }

    /// Counts the window packets still parked as the window closes (at
    /// the end of its last cycle, before anything reads the counts), on
    /// copies of the tiles' streams: the packets are drawn for real
    /// only when their buffers free, no longer counted then.
    fn catch_up(&self, injector: &Injector, tiles: usize, recorder: &mut OutcomeRecorder) {
        for t in 0..tiles {
            injector.walk_parked(t, self.measure_end, |created, stream| {
                let _ = self.draw(t, created, stream, recorder, true);
            });
        }
    }

    /// The flits the measurement window offers in all, counted before
    /// the run: copies of every tile's stream on a fresh injector are
    /// walked through all its packets of the window, as
    /// [`Arrivals::catch_up`] walks a parked backlog, into a scratch
    /// recorder, and each window packet's creation cycle is tallied in
    /// `creations` if given. Each window packet is counted exactly
    /// once in the run too — as it fires, refills a buffer, is flushed
    /// by a fault epoch or is caught up — always judged by its creation
    /// cycle, so the run's final count is this one.
    fn window_offer(
        &self,
        fresh: &Injector,
        tiles: usize,
        config: &SimConfig,
        mut creations: Option<&mut WindowCreations>,
    ) -> u64 {
        let mut scratch = OutcomeRecorder::new(config);
        for t in 0..tiles {
            fresh.walk_parked(t, self.measure_end, |created, stream| {
                let drawn = self.draw(t, created, stream, &mut scratch, true);
                if let (Some(_), Some(tally)) = (drawn, creations.as_deref_mut()) {
                    if created >= config.warmup {
                        tally.record(created);
                    }
                }
            });
        }
        scratch.window_offer()
    }
}

/// How [`Network::run_inner`] ended.
struct RunEnd {
    /// The outcome at the last simulated cycle.
    outcome: SimOutcome,
    /// Verdict mode stopped the run because no continuation could make
    /// the verdict hold; `outcome` is then a partial one.
    ruled_out: bool,
}

impl RunEnd {
    /// The verdict-mode answer: `false` outright for a run that was
    /// ruled out, the predicate on the outcome of one that ran to
    /// completion.
    fn holds(&self, verdict: &Verdict) -> bool {
        !self.ruled_out && verdict.holds(&self.outcome)
    }
}

/// A cycle-accurate NoC simulation instance.
///
/// # Examples
///
/// ```
/// use shg_sim::{Network, SimConfig, TrafficPattern};
/// use shg_topology::{generators, routing, Grid};
/// use shg_units::Cycles;
///
/// let mesh = generators::mesh(Grid::new(4, 4));
/// let routes = routing::default_routes(&mesh).expect("mesh routes");
/// let latencies = vec![Cycles::one(); mesh.num_links()];
/// let mut network = Network::new(&mesh, &routes, &latencies, SimConfig::fast_test());
/// let outcome = network.run(0.05, TrafficPattern::UniformRandom);
/// assert!(outcome.stable);
/// assert!(outcome.avg_packet_latency > 0.0);
/// ```
#[derive(Debug)]
pub struct Network<'a> {
    topology: &'a Topology,
    routes: &'a Routes,
    config: SimConfig,
    /// VC range of each routing class (degraded fault-epoch tables
    /// inherit the base table's class count, so one table serves all).
    vc_classes: VcClassTable,
    /// Effective latency per channel: floorplan link latency plus router
    /// pipeline overhead, capped at the run's length.
    latency: Vec<u64>,
    routers: Vec<Router>,
    /// Destination `(router, in_port)` of each channel.
    ch_dst: Vec<(usize, u8)>,
    /// Source `(router, out_port)` of each channel.
    ch_src: Vec<(usize, u8)>,
    /// The flits and credits in flight on every channel, by due cycle.
    calendar: Calendar,
    /// Routers with a live allocation request.
    active_routers: ActiveSet,
    /// Routers that have held a flit since construction (or the last
    /// [`Network::reset`]) — a monotone superset of `active_routers`.
    /// All per-router mutable state (buffers, credits, round-robin
    /// pointers, request bitmasks) only ever changes on routers in this
    /// set, so a reset cleans exactly these and leaves untouched
    /// routers alone.
    touched_routers: ActiveSet,
}

impl<'a> Network<'a> {
    /// Builds a simulation instance.
    ///
    /// `link_latencies` come from the floorplan model (one entry per
    /// bidirectional link; both directions share it).
    ///
    /// # Panics
    ///
    /// Panics if `link_latencies` does not match the topology's link
    /// count, the routing table needs more VC classes than configured
    /// VCs, or `warmup + measure + drain_limit` exceeds `u32::MAX`
    /// (flits stamp their creation cycle in 32 bits).
    #[must_use]
    pub fn new(
        topology: &'a Topology,
        routes: &'a Routes,
        link_latencies: &[Cycles],
        config: SimConfig,
    ) -> Self {
        assert_eq!(
            link_latencies.len(),
            topology.num_links(),
            "one latency per link required"
        );
        assert!(
            routes.num_vc_classes() <= config.num_vcs,
            "routing needs {} VC classes but only {} VCs are configured",
            routes.num_vc_classes(),
            config.num_vcs
        );
        config.assert_cycles_fit_u32();
        let vc_classes = VcClassTable::new(&config, routes.num_vc_classes());
        let n = topology.num_tiles();
        let mut routers = Vec::with_capacity(n);
        for t in 0..n {
            let tile = TileId::new(t as u32);
            let mut in_channels = Vec::new();
            let mut out_channels = Vec::new();
            for &(_, link) in topology.neighbors(tile) {
                let out = topology.channel_from(tile, link);
                out_channels.push(out.id);
                // The paired reverse channel is this router's input.
                let reverse = ChannelId::new(out.id.index() as u32 ^ 1);
                in_channels.push(reverse);
            }
            routers.push(Router::new(tile, in_channels, out_channels, &config));
        }
        let mut ch_dst = vec![(0usize, 0u8); topology.num_channels()];
        let mut ch_src = vec![(0usize, 0u8); topology.num_channels()];
        for (r, router) in routers.iter().enumerate() {
            for (p, &c) in router.in_channels.iter().enumerate() {
                ch_dst[c.index()] = (r, p as u8);
            }
            for (p, &c) in router.out_channels.iter().enumerate() {
                ch_src[c.index()] = (r, p as u8);
            }
        }
        // Nothing is delivered after a run's last cycle, so a latency
        // beyond it acts exactly like the run's length — to which it is
        // clamped, bounding the calendar.
        let horizon = config.warmup + config.measure + config.drain_limit;
        let latency: Vec<u64> = (0..topology.num_channels())
            .map(|c| {
                let link = link_latencies[ChannelId::new(c as u32).link().index()].value();
                link.saturating_add(u64::from(config.router_overhead))
                    .min(horizon)
            })
            .collect();
        let calendar = Calendar::new(latency.iter().copied().max().unwrap_or(0));
        Self {
            topology,
            routes,
            config,
            vc_classes,
            latency,
            routers,
            ch_dst,
            ch_src,
            calendar,
            active_routers: ActiveSet::new(n),
            touched_routers: ActiveSet::new(n),
        }
    }

    /// Returns the instance to its just-constructed state under a new
    /// RNG seed, **without re-allocating** routers, buffers or calendar
    /// buckets: only the routers actually touched since construction (or
    /// the previous reset) are cleaned, so the cost is O(touched + `W`)
    /// rather than O(network).
    ///
    /// A `reset(seed)` followed by [`Network::run`] is bit-identical to
    /// a fresh [`Network::new`] with `config.seed = seed` followed by
    /// the same run, which is what lets a sweep reuse one `Network`
    /// across the cells of a topology (see `Experiment::run_cells`).
    /// The reset suite pins this under
    /// [`Network::run_validated`], where any stale request or
    /// active-set state trips an invariant assertion.
    pub fn reset(&mut self, seed: u64) {
        self.config.seed = seed;
        let routers = &mut self.routers;
        let config = &self.config;
        self.touched_routers
            .clear_with(|r| routers[r].reset(config));
        self.calendar.clear();
        // The active set is a subset of the touched set; its members'
        // state is already clean, only the membership flags remain to
        // drop.
        self.active_routers.clear_with(|_| ());
    }

    /// Runs warm-up, measurement and drain phases at the given injection
    /// rate (flits per node per cycle) under `pattern`, visiting only
    /// active routers and the calendar bucket due each cycle.
    #[must_use]
    pub fn run(&mut self, rate: f64, pattern: TrafficPattern) -> SimOutcome {
        self.run_inner(rate, pattern, false, None, None).outcome
    }

    /// Like [`Network::run`], additionally asserting every router's
    /// cross-structure invariants after each cycle: the occupancy
    /// counter matches the buffer contents, credits never exceed
    /// `buffer_depth`, `out_owner` reservations agree with the input-VC
    /// states, the request bitmasks mirror the buffers and credits
    /// exactly (a switch request is set exactly when its VC is active,
    /// holds flits and ejects or has a credit), every parked head sits on
    /// its output port's wait list alone while that port has no free VC
    /// of its class, every router with a request is in the active set,
    /// and no tile is parked behind an empty injection buffer. A
    /// fault-free run also checks flow control on every channel: no more
    /// flits in flight than its latency (at least one), and for each VC,
    /// upstream credits + flits in flight + flits buffered downstream +
    /// credits in flight = `buffer_depth`. The outcome is
    /// [`Network::run`]'s; a testing aid, orders of magnitude slower
    /// than a plain run.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    #[must_use]
    pub fn run_validated(&mut self, rate: f64, pattern: TrafficPattern) -> SimOutcome {
        self.run_inner(rate, pattern, true, None, None).outcome
    }

    /// Like [`Network::run`], additionally timing each simulation phase
    /// (injection, delivery, allocation) — the measurement behind the
    /// phase-cost decomposition in `injection_profile`. The outcome is unaffected; the
    /// per-cycle timestamping adds a few percent of overhead.
    #[must_use]
    pub fn run_profiled(
        &mut self,
        rate: f64,
        pattern: TrafficPattern,
    ) -> (SimOutcome, PhaseProfile) {
        let mut profile = PhaseProfile::default();
        let end = self.run_inner(rate, pattern, false, Some(&mut profile), None);
        (end.outcome, profile)
    }

    /// Whether the network sustains `rate` — the question a saturation
    /// search asks of each probe. Exactly
    ///
    /// ```text
    /// let outcome = network.run(rate, pattern);
    /// outcome.keeps_up(slack) && outcome.avg_packet_latency <= latency_limit
    /// ```
    ///
    /// but the simulation stops the cycle the answer is decided instead
    /// of completing the outcome. The window's packets are fixed by the
    /// per-tile streams, so they are counted before the run: its offered
    /// load and, for a fault-free run with a finite `latency_limit`,
    /// each packet's creation cycle. From the first measured cycle on, a
    /// run stops once its accepted throughput can no longer reach the
    /// slack — even if every router ejected a flit in each window cycle
    /// left — or once its mean latency can no longer come in under the
    /// limit: every window packet created and not yet ejected, in the
    /// network or still parked at its source, has waited since its
    /// creation. An overloaded network is thus never drained (it would
    /// otherwise run, with every source backlogged, up to the drain
    /// limit). A stopped run answers `false` outright; its partial
    /// outcome is never judged. With an infinite limit no creation cycle
    /// is counted and the latency test costs nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// use shg_sim::{Network, SimConfig, TrafficPattern};
    /// use shg_topology::{generators, routing, Grid};
    /// use shg_units::Cycles;
    ///
    /// let ring = generators::ring(Grid::new(4, 4));
    /// let routes = routing::default_routes(&ring).expect("ring routes");
    /// let latencies = vec![Cycles::one(); ring.num_links()];
    /// let probe = |rate| {
    ///     Network::new(&ring, &routes, &latencies, SimConfig::fast_test()).sustains(
    ///         rate,
    ///         TrafficPattern::UniformRandom,
    ///         0.05,
    ///         40.0,
    ///     )
    /// };
    /// assert!(probe(0.05));
    /// assert!(!probe(0.8));
    /// ```
    #[must_use]
    pub fn sustains(
        &mut self,
        rate: f64,
        pattern: TrafficPattern,
        slack: f64,
        latency_limit: f64,
    ) -> bool {
        let verdict = Verdict {
            slack,
            latency_limit,
        };
        self.run_inner(rate, pattern, false, None, Some(verdict))
            .holds(&verdict)
    }

    fn run_inner(
        &mut self,
        rate: f64,
        pattern: TrafficPattern,
        validate: bool,
        mut profile: Option<&mut PhaseProfile>,
        verdict: Option<Verdict>,
    ) -> RunEnd {
        let config = self.config.clone();
        let packet_prob = rate / f64::from(config.packet_len);
        let mut recorder = crate::stats::OutcomeRecorder::new(&config);
        let measure_end = recorder.measure_end();
        let hard_stop = measure_end + config.drain_limit;
        let tiles = self.topology.num_tiles();
        let nodes = tiles as f64;
        let mut injector = Injector::new(config.seed, tiles, packet_prob, hard_stop);
        // Compiled fault plan: `None` (the overwhelmingly common case)
        // keeps this loop on the exact fault-free path.
        let schedule =
            FaultSchedule::build(&config.faults, self.topology, self.routes.num_vc_classes());
        let arrivals = Arrivals {
            pattern,
            grid: self.topology.grid(),
            packet_len: config.packet_len,
            schedule: schedule.as_ref(),
            measure_end,
        };
        // Verdict mode judges from the first measured cycle on:
        // throughput against the window's final offered load and, in a
        // fault-free run with a finite latency limit, latency against
        // the window's packets by creation cycle.
        let window_offer = verdict.map(|verdict| {
            let floor = schedule.is_none() && verdict.latency_limit < f64::INFINITY;
            let mut creations = floor.then(|| WindowCreations::new(&config));
            let offer = arrivals.window_offer(&injector, tiles, &config, creations.as_mut());
            if let Some(creations) = creations {
                recorder.expect_creations(creations);
            }
            offer
        });
        let mut epoch_idx = 0usize;
        let mut routes: &Routes = self.routes;
        let mut dead_channels: Option<&[bool]> = None;
        let mut now = 0u64;
        let mut traversal = TraversalOutput::default();
        let mut ruled_out = false;
        loop {
            // Fault epochs strike at the top of their cycle, before that
            // cycle's injection: kill state is applied, and routing
            // switches to the surviving subgraph's table.
            if let Some(sched) = schedule.as_ref() {
                while epoch_idx < sched.epochs.len() && now >= sched.epochs[epoch_idx].at {
                    let epoch = &sched.epochs[epoch_idx];
                    self.apply_fault_epoch(
                        epoch,
                        sched.policy,
                        now,
                        &mut recorder,
                        (&mut injector, &arrivals),
                    );
                    // The table changes under every waiting head, parked
                    // ones included.
                    for (r, router) in self.routers.iter_mut().enumerate() {
                        router.forget_routes();
                        if router.has_requests() {
                            self.active_routers.insert(r);
                        }
                    }
                    routes = &epoch.routes;
                    if sched.policy == InFlightPolicy::Drain {
                        // Under `Drop` no traffic can ever reach a dead
                        // channel (all transient state died with the
                        // epoch), so delivery needs no dead mask.
                        dead_channels = Some(&epoch.dead_channel);
                    }
                    epoch_idx += 1;
                }
            }
            let mut stamp = profile.as_ref().map(|_| std::time::Instant::now());
            // Phase A: packet generation (keeps injecting during drain to
            // sustain back-pressure). The injector owns the RNG streams;
            // per-tile streams make the arrivals schedule-independent, so
            // the injection calendar visits only the tiles that fire. A
            // tile whose injection buffer is still busy
            // parks before its destination draw; fault gating comes
            // after it, so the RNG streams advance identically with and
            // without faults.
            let count = arrivals.counting(now);
            injector.fire_at(now, |t, stream| {
                let router = &mut self.routers[t];
                if router.injection_busy() {
                    return false;
                }
                if let Some(dst) = arrivals.draw(t, now, stream, &mut recorder, count) {
                    // `now` stays below the hard stop, which fits `u32`.
                    router.fill_injection_buffer(dst, now as u32, config.packet_len);
                    self.active_routers.insert(t);
                    self.touched_routers.insert(t);
                }
                true
            });
            if let Some(p) = profile.as_deref_mut() {
                let t = stamp.expect("profiling stamps");
                p.injection += t.elapsed();
                stamp = Some(std::time::Instant::now());
            }
            // Phase B: deliver the calendar's bucket for this cycle.
            self.deliver(now, dead_channels, &mut recorder);
            if let Some(p) = profile.as_deref_mut() {
                let t = stamp.expect("profiling stamps");
                p.delivery += t.elapsed();
                stamp = Some(std::time::Instant::now());
            }
            // Phase C: per-router allocation and traversal, in ascending
            // router order.
            self.allocate(
                now,
                routes,
                &mut traversal,
                &mut recorder,
                (&mut injector, &arrivals),
            );
            if let Some(p) = profile.as_deref_mut() {
                p.allocation += stamp.expect("profiling stamps").elapsed();
            }
            if validate {
                for (t, router) in self.routers.iter().enumerate() {
                    router.assert_consistent(&self.config, &self.vc_classes);
                    assert!(
                        !injector.is_parked(t, now + 1) || router.injection_busy(),
                        "tile {t} parked behind an empty injection buffer at cycle {now}"
                    );
                    assert!(
                        !router.has_requests() || self.active_routers.contains(t),
                        "router {t} has a request but left the active set at cycle {now}"
                    );
                }
                if schedule.is_none() {
                    self.assert_flow_control(now);
                }
            }
            now += 1;
            if now == measure_end {
                arrivals.catch_up(&injector, tiles, &mut recorder);
            }
            if now >= measure_end && recorder.drained() {
                break;
            }
            if now >= hard_stop {
                break;
            }
            // Verdict mode: stop once the answer cannot change any more.
            if let (Some(verdict), Some(offer)) = (&verdict, window_offer) {
                if recorder.rules_out(verdict, offer, now, tiles) {
                    ruled_out = true;
                    break;
                }
            }
        }
        RunEnd {
            outcome: recorder.finalize(now, nodes),
            ruled_out,
        }
    }

    /// Phase B: delivers the flits, then the credits, that the calendar
    /// holds due at cycle `now`.
    ///
    /// `dead_channels` is `Some` only under an applied drain-policy
    /// fault epoch: flits due on a dead channel — and flits arriving at
    /// an input VC mid-sink — are discarded with their credit returned
    /// upstream, so senders drain instead of wedging. Such a credit is
    /// due a full latency later — on a zero-latency channel, in this
    /// cycle's credit pass. Credits deliver on dead channels unchanged.
    fn deliver(
        &mut self,
        now: u64,
        dead_channels: Option<&[bool]>,
        recorder: &mut OutcomeRecorder,
    ) {
        let slot = self.calendar.slot(now);
        let mut due = std::mem::take(&mut self.calendar.data[slot]);
        for (c, flit) in due.drain(..) {
            let c = c as usize;
            let (r, p) = self.ch_dst[c];
            if let Some(dead) = dead_channels {
                let discard = dead[c] || self.routers[r].is_sinking(p as usize, flit.vc);
                if discard {
                    if flit.is_tail {
                        if !dead[c] {
                            self.routers[r].clear_sink(p as usize, flit.vc);
                        }
                        recorder.record_drop(flit.created);
                    }
                    let back = self.calendar.slot(now + self.latency[c]);
                    self.calendar.credits[back].push((c as u32, flit.vc));
                    continue;
                }
            }
            let router = &mut self.routers[r];
            debug_assert!(
                router.buffer(p as usize, flit.vc as usize).len()
                    < self.config.buffer_depth as usize,
                "buffer overflow: credits out of sync"
            );
            if router.enqueue(p as usize, flit.vc as usize, flit) {
                self.active_routers.insert(r);
            }
            self.touched_routers.insert(r);
        }
        self.calendar.data[slot] = due;
        for (c, vc) in self.calendar.credits[slot].drain(..) {
            let (r, p) = self.ch_src[c as usize];
            // A credit re-activates its router only if it lifts an owned
            // VC with waiting flits off zero.
            if self.routers[r].return_credit(p as usize, vc as usize) {
                self.active_routers.insert(r);
            }
        }
    }

    /// Phase C: VC allocation, switch allocation and traversal on every
    /// active router in ascending order, filing each router's forwards
    /// and credits into the calendar, recording its ejections and drops,
    /// and refilling an injection buffer its packet left.
    fn allocate(
        &mut self,
        now: u64,
        routes: &Routes,
        traversal: &mut TraversalOutput,
        recorder: &mut OutcomeRecorder,
        (injector, arrivals): (&mut Injector, &Arrivals<'_>),
    ) {
        let sweep = self.active_routers.start_sweep();
        for &r in &sweep {
            self.vc_allocate(r, routes, traversal);
            self.routers[r].switch_allocate_and_traverse(&self.config, traversal);
            for (channel, vc) in traversal.credits.drain(..) {
                let c = channel.index();
                let slot = self.calendar.slot(now + self.latency[c].max(1));
                self.calendar.credits[slot].push((c as u32, vc));
            }
            for (channel, flit) in traversal.forwards.drain(..) {
                let c = channel.index();
                let slot = self.calendar.slot(now + self.latency[c].max(1));
                self.calendar.data[slot].push((c as u32, flit));
            }
            for flit in traversal.ejected.drain(..) {
                recorder.record_ejection(&flit, now);
            }
            for created in traversal.dropped.drain(..) {
                recorder.record_drop(created);
            }
            if std::mem::take(&mut traversal.injection_freed) {
                arrivals.refill(injector, &mut self.routers[r], r, now, recorder);
            }
            if self.routers[r].has_requests() {
                self.active_routers.keep(r);
            }
        }
        self.active_routers.finish_sweep(sweep);
    }

    /// Asserts credit flow control on every channel at the end of cycle
    /// `now` of a fault-free run: at most `max(latency, 1)` flits in
    /// flight, and per VC, upstream credits + flits in flight + flits
    /// buffered downstream + credits in flight = `buffer_depth`.
    fn assert_flow_control(&self, now: u64) {
        let vcs = usize::from(self.config.num_vcs);
        let channels = self.latency.len();
        let mut in_flight = vec![0usize; channels * vcs];
        let mut flits = vec![0u64; channels];
        for &(c, flit) in self.calendar.data.iter().flatten() {
            in_flight[c as usize * vcs + usize::from(flit.vc)] += 1;
            flits[c as usize] += 1;
        }
        for &(c, vc) in self.calendar.credits.iter().flatten() {
            in_flight[c as usize * vcs + usize::from(vc)] += 1;
        }
        for c in 0..channels {
            let lat = self.latency[c];
            assert!(
                flits[c] <= lat.max(1),
                "channel {c} holds {} flits in flight on a {lat}-cycle link at cycle {now}",
                flits[c]
            );
            let (src, out) = self.ch_src[c];
            let (dst, input) = self.ch_dst[c];
            for v in 0..vcs {
                let credits = usize::from(self.routers[src].credit(out as usize, v));
                let buffered = self.routers[dst].buffer(input as usize, v).len();
                assert_eq!(
                    credits + in_flight[c * vcs + v] + buffered,
                    usize::from(self.config.buffer_depth),
                    "channel {c} VC {v} at cycle {now}: {credits} credits upstream, \
                     {buffered} flits buffered downstream, {} flits and credits in flight",
                    in_flight[c * vcs + v]
                );
            }
        }
    }

    /// The output port and VC class the head flit needs at router `tile`.
    fn route_head(
        topology: &Topology,
        routes: &Routes,
        router: &Router,
        tile: usize,
        flit: &Flit,
    ) -> (u8, u8) {
        if flit.dst.index() == tile {
            return (router.ejection_port() as u8, 0);
        }
        if routes.form() != RouteForm::Dense {
            // Compact forms answer (out port, class) directly: their port
            // numbering is the position in the sorted neighbor list, the
            // same order `Network::new` created the ports in.
            return routes.port_and_class(
                TileId::new(tile as u32),
                flit.src,
                flit.dst,
                flit.hop as usize,
            );
        }
        let path = routes.path(flit.src, flit.dst);
        let hop = &path[flit.hop as usize];
        debug_assert_eq!(
            topology.channel(hop.channel).from.index(),
            tile,
            "flit at wrong router for its path"
        );
        let port = router
            .out_channels
            .iter()
            .position(|&c| c == hop.channel)
            .expect("path channel leaves this tile") as u8;
        (port, hop.vc_class)
    }

    /// VC allocation for router `r` (routing closure plumbed in here).
    /// `routes` is the *current* table — the base one until a fault
    /// epoch swaps in a degraded table over the surviving subgraph.
    fn vc_allocate(&mut self, r: usize, routes: &Routes, out: &mut TraversalOutput) {
        let topology = self.topology;
        let router = &mut self.routers[r];
        // Split borrow: the routing closure reads topology/routes only.
        let route =
            |router: &Router, flit: &Flit| Self::route_head(topology, routes, router, r, flit);
        router.vc_allocate_with(&self.vc_classes, route, out);
    }

    /// Applies one fault epoch's state change at cycle `now`.
    ///
    /// Under [`InFlightPolicy::Drop`] the entire transient state of the
    /// fabric is discarded — every touched router is wiped back to
    /// constructed state, the calendar is emptied and every parked
    /// source's backlog is flushed, counting each lost measured packet
    /// as dropped — while the injector, packet counter and clock carry
    /// on.
    ///
    /// Under [`InFlightPolicy::Drain`] only the routers that die *at
    /// this epoch* are wiped, with their sources' backlogs; each flit
    /// buffered on a network input port returns its credit upstream so
    /// senders drain. Everything else keeps flowing: dead-channel
    /// arrivals and unroutable packets are sunk cycle-by-cycle in
    /// [`Network::deliver`] and VC allocation.
    fn apply_fault_epoch(
        &mut self,
        epoch: &FaultEpoch,
        policy: InFlightPolicy,
        now: u64,
        recorder: &mut OutcomeRecorder,
        (injector, arrivals): (&mut Injector, &Arrivals<'_>),
    ) {
        match policy {
            InFlightPolicy::Drop => {
                let routers = &mut self.routers;
                let config = &self.config;
                self.touched_routers.clear_with(|r| {
                    for (_, flit) in routers[r].buffered_flits() {
                        if flit.is_tail {
                            recorder.record_drop(flit.created);
                        }
                    }
                    routers[r].reset(config);
                });
                for t in 0..routers.len() {
                    arrivals.flush(injector, t, now, recorder);
                }
                for (_, flit) in self.calendar.data.iter().flatten() {
                    if flit.is_tail {
                        recorder.record_drop(flit.created);
                    }
                }
                self.calendar.clear();
                self.active_routers.clear_with(|_| ());
            }
            InFlightPolicy::Drain => {
                for &r in &epoch.newly_dead_routers {
                    let r = r as usize;
                    let router = &mut self.routers[r];
                    let net_ports = router.in_channels.len();
                    arrivals.flush(injector, r, now, recorder);
                    for (p, flit) in router.buffered_flits() {
                        if flit.is_tail {
                            recorder.record_drop(flit.created);
                        }
                        if p < net_ports {
                            // Filed before this cycle's Phase B, so a
                            // zero-latency credit is due now.
                            let c = router.in_channels[p].index();
                            let slot = self.calendar.slot(now + self.latency[c]);
                            self.calendar.credits[slot].push((c as u32, flit.vc));
                        }
                    }
                    // The credit counters must survive the reset: credits
                    // for flits this router sent before dying are still in
                    // flight back to it, and delivering them onto freshly
                    // refilled counters would push past the buffer depth.
                    // Preserved, they climb back toward (never past) full
                    // as the outstanding returns arrive — the router is
                    // never allocated again, so they are otherwise inert.
                    router.reset_keeping_credits(&self.config);
                }
            }
        }
    }
}

#[cfg(test)]
mod verdict_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use shg_topology::{generators, routing, Grid};

    fn unit_latencies(t: &Topology) -> Vec<Cycles> {
        vec![Cycles::one(); t.num_links()]
    }

    #[test]
    fn mesh_low_load_is_stable_and_all_delivered() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let routes = routing::default_routes(&mesh).expect("routes");
        let lats = unit_latencies(&mesh);
        let mut net = Network::new(&mesh, &routes, &lats, SimConfig::fast_test());
        let out = net.run(0.05, TrafficPattern::UniformRandom);
        assert!(out.stable, "low load must drain: {out:?}");
        assert!(out.measured_packets > 50, "{out:?}");
        assert!(
            (out.accepted_rate - out.offered_rate).abs() < 0.02,
            "accepted ≈ offered at low load: {out:?}"
        );
    }

    #[test]
    fn latency_grows_with_load() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let routes = routing::default_routes(&mesh).expect("routes");
        let lats = unit_latencies(&mesh);
        let low = Network::new(&mesh, &routes, &lats, SimConfig::fast_test())
            .run(0.02, TrafficPattern::UniformRandom);
        let high = Network::new(&mesh, &routes, &lats, SimConfig::fast_test())
            .run(0.30, TrafficPattern::UniformRandom);
        assert!(
            high.avg_packet_latency > low.avg_packet_latency,
            "low {low:?} high {high:?}"
        );
    }

    #[test]
    fn overload_is_detected_as_unstable() {
        // A ring cannot sustain anything close to 0.8 flits/node/cycle.
        let ring = generators::ring(Grid::new(4, 4));
        let routes = routing::default_routes(&ring).expect("routes");
        let lats = unit_latencies(&ring);
        let out = Network::new(&ring, &routes, &lats, SimConfig::fast_test())
            .run(0.8, TrafficPattern::UniformRandom);
        assert!(
            !out.stable || out.accepted_rate < 0.5 * out.offered_rate,
            "{out:?}"
        );
    }

    #[test]
    fn flattened_butterfly_outperforms_ring() {
        let grid = Grid::new(4, 4);
        let fb = generators::flattened_butterfly(grid);
        let ring = generators::ring(grid);
        let fb_routes = routing::default_routes(&fb).expect("fb");
        let ring_routes = routing::default_routes(&ring).expect("ring");
        // A 16-node ring saturates at ≤ 8/n = 0.5 flits/node/cycle even
        // ideally; the flattened butterfly is nowhere near saturation.
        let rate = 0.5;
        let fb_out = Network::new(
            &fb,
            &fb_routes,
            &unit_latencies(&fb),
            SimConfig::fast_test(),
        )
        .run(rate, TrafficPattern::UniformRandom);
        let ring_out = Network::new(
            &ring,
            &ring_routes,
            &unit_latencies(&ring),
            SimConfig::fast_test(),
        )
        .run(rate, TrafficPattern::UniformRandom);
        let fb_ok = fb_out.stable && fb_out.accepted_rate >= 0.9 * fb_out.offered_rate;
        let ring_ok = ring_out.stable && ring_out.accepted_rate >= 0.9 * ring_out.offered_rate;
        assert!(fb_ok, "FB should sustain 0.25: {fb_out:?}");
        assert!(!ring_ok, "ring should saturate below 0.25: {ring_out:?}");
    }

    #[test]
    fn longer_links_raise_latency() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let routes = routing::default_routes(&mesh).expect("routes");
        let fast = Network::new(
            &mesh,
            &routes,
            &unit_latencies(&mesh),
            SimConfig::fast_test(),
        )
        .run(0.02, TrafficPattern::UniformRandom);
        let slow_lats = vec![Cycles::new(4); mesh.num_links()];
        let slow = Network::new(&mesh, &routes, &slow_lats, SimConfig::fast_test())
            .run(0.02, TrafficPattern::UniformRandom);
        assert!(slow.avg_packet_latency > fast.avg_packet_latency + 2.0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let torus = generators::torus(Grid::new(4, 4));
        let routes = routing::default_routes(&torus).expect("routes");
        let lats = unit_latencies(&torus);
        let a = Network::new(&torus, &routes, &lats, SimConfig::fast_test())
            .run(0.1, TrafficPattern::UniformRandom);
        let b = Network::new(&torus, &routes, &lats, SimConfig::fast_test())
            .run(0.1, TrafficPattern::UniformRandom);
        assert_eq!(a, b);
    }

    #[test]
    fn all_topologies_simulate_without_deadlock() {
        let grid = Grid::new(4, 4);
        let topologies = vec![
            generators::ring(grid),
            generators::mesh(grid),
            generators::torus(grid),
            generators::folded_torus(grid),
            generators::hypercube(grid).expect("4x4"),
            generators::flattened_butterfly(grid),
        ];
        for t in topologies {
            let routes = routing::default_routes(&t).expect("routes");
            let lats = unit_latencies(&t);
            let out = Network::new(&t, &routes, &lats, SimConfig::fast_test())
                .run(0.1, TrafficPattern::UniformRandom);
            assert!(out.stable, "{t}: moderate load should drain, got {out:?}");
        }
    }

    #[test]
    fn slimnoc_simulates() {
        let slim = generators::slim_noc(Grid::new(10, 5)).expect("50 tiles");
        let routes = routing::default_routes(&slim).expect("routes");
        let lats = unit_latencies(&slim);
        let out = Network::new(&slim, &routes, &lats, SimConfig::fast_test())
            .run(0.1, TrafficPattern::UniformRandom);
        assert!(out.stable, "{out:?}");
    }

    #[test]
    fn transpose_traffic_runs() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let routes = routing::default_routes(&mesh).expect("routes");
        let lats = unit_latencies(&mesh);
        let out = Network::new(&mesh, &routes, &lats, SimConfig::fast_test())
            .run(0.05, TrafficPattern::Transpose);
        assert!(out.stable);
        assert!(out.measured_packets > 0);
    }

    #[test]
    fn active_set_sweeps_ascending_whatever_the_insertion_order() {
        for len in [1usize, 64, 65, 2_560] {
            let mut set = ActiveSet::new(len);
            assert!(set.start_sweep().is_empty(), "len {len}");
            // Every third index plus both ends, inserted descending
            // and twice over.
            let mut expected: Vec<usize> = (0..len).step_by(3).chain([len - 1]).collect();
            expected.dedup();
            for _ in 0..2 {
                for &i in expected.iter().rev() {
                    set.insert(i);
                }
            }
            let sweep = set.start_sweep();
            assert_eq!(sweep, expected, "len {len}");
            // Members kept during a sweep — behind, at and ahead of the
            // sweep position — are exactly the next sweep.
            for &i in &sweep {
                if i % 2 == 0 {
                    set.keep(i);
                }
            }
            set.insert(len - 1);
            set.finish_sweep(sweep);
            let mut kept: Vec<usize> = expected.iter().copied().filter(|i| i % 2 == 0).collect();
            if kept.last() != Some(&(len - 1)) {
                kept.push(len - 1);
            }
            let mut visited = Vec::new();
            set.clear_with(|i| visited.push(i));
            assert_eq!(visited, kept, "len {len}");
            assert!(set.start_sweep().is_empty(), "clear_with empties the set");
        }
    }

    /// The latency of one packet sent alone from `src` to `dst` at cycle
    /// `created`, stepped through phases B and C with nothing else in
    /// the network.
    fn lone_packet_latency(
        topology: &Topology,
        routes: &Routes,
        lats: &[Cycles],
        (src, dst): (usize, usize),
        created: u64,
    ) -> f64 {
        let config = SimConfig {
            warmup: 0,
            measure: 64,
            ..SimConfig::fast_test()
        };
        let mut net = Network::new(topology, routes, lats, config.clone());
        let mut recorder = OutcomeRecorder::new(&config);
        let arrivals = Arrivals {
            pattern: TrafficPattern::UniformRandom,
            grid: topology.grid(),
            packet_len: config.packet_len,
            schedule: None,
            measure_end: recorder.measure_end(),
        };
        let mut injector = Injector::new(config.seed, topology.num_tiles(), 0.0, 1_000);
        net.routers[src].fill_injection_buffer(
            TileId::new(dst as u32),
            created as u32,
            config.packet_len,
        );
        recorder.record_injection(created);
        net.active_routers.insert(src);
        net.touched_routers.insert(src);
        let mut traversal = TraversalOutput::default();
        let mut now = created;
        while !recorder.drained() {
            assert!(now < created + 1_000, "the packet never arrived");
            net.deliver(now, None, &mut recorder);
            net.allocate(
                now,
                routes,
                &mut traversal,
                &mut recorder,
                (&mut injector, &arrivals),
            );
            now += 1;
        }
        let outcome = recorder.finalize(now, topology.num_tiles() as f64);
        assert_eq!(outcome.measured_packets, 1);
        outcome.avg_packet_latency
    }

    #[test]
    fn each_hop_is_due_exactly_one_link_latency_after_its_send() {
        // A 1×10 line, crossed end to end over all nine links. Links of
        // 1..=9 cycles plus the one-cycle router overhead make channels
        // of 2..=10 cycles, so the calendar has 16 buckets and a path
        // of ≈ 80 cycles wraps it several times, from every start phase.
        let line = generators::mesh(Grid::new(1, 10));
        let routes = routing::default_routes(&line).expect("routes");
        let mixed: Vec<Cycles> = (0..9).map(|i| Cycles::new(1 + i * 4 % 9)).collect();
        let mut sorted: Vec<u64> = mixed.iter().map(|l| l.value()).collect();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (1..=9).collect::<Vec<_>>(),
            "a permutation of 1..=9"
        );
        let extra: u64 = mixed.iter().map(|l| l.value() - 1).sum();
        let ones = unit_latencies(&line);
        assert_eq!(
            Network::new(&line, &routes, &mixed, SimConfig::fast_test())
                .calendar
                .data
                .len(),
            16
        );
        for ends in [(0, 9), (9, 0)] {
            for created in 0..16 {
                let base = lone_packet_latency(&line, &routes, &ones, ends, created);
                let slow = lone_packet_latency(&line, &routes, &mixed, ends, created);
                assert_eq!(
                    slow,
                    base + extra as f64,
                    "{ends:?} sent at cycle {created}"
                );
            }
        }
    }

    #[test]
    fn a_router_out_of_credits_leaves_the_sweep_until_one_returns() {
        // A 1×3 line with one-flit buffers and two-cycle channels: router
        // 0 sends its packet's head and is left holding the tail with no
        // credit, so it has nothing to do until router 1 forwards the
        // head and the credit comes back, two cycles later.
        let line = generators::mesh(Grid::new(1, 3));
        let routes = routing::default_routes(&line).expect("routes");
        let lats = unit_latencies(&line);
        let config = SimConfig {
            buffer_depth: 1,
            warmup: 0,
            measure: 64,
            ..SimConfig::fast_test()
        };
        let mut net = Network::new(&line, &routes, &lats, config.clone());
        let mut recorder = OutcomeRecorder::new(&config);
        let arrivals = Arrivals {
            pattern: TrafficPattern::UniformRandom,
            grid: line.grid(),
            packet_len: config.packet_len,
            schedule: None,
            measure_end: recorder.measure_end(),
        };
        let mut injector = Injector::new(config.seed, 3, 0.0, 1_000);
        net.routers[0].fill_injection_buffer(TileId::new(2), 0, config.packet_len);
        recorder.record_injection(0);
        net.active_routers.insert(0);
        net.touched_routers.insert(0);
        let mut traversal = TraversalOutput::default();
        let mut members = Vec::new();
        for now in 0..6 {
            net.deliver(now, None, &mut recorder);
            let woken = net.active_routers.contains(0);
            net.allocate(
                now,
                &routes,
                &mut traversal,
                &mut recorder,
                (&mut injector, &arrivals),
            );
            let stalled = net.routers[0].has_occupied_buffers();
            members.push((woken, stalled, net.active_routers.contains(0)));
            for router in &net.routers {
                router.assert_consistent(&net.config, &net.vc_classes);
            }
        }
        // (in the sweep after Phase B, tail still buffered, kept after
        // Phase C) per cycle: the head leaves at cycle 0, the credit it
        // freed at router 1 on cycle 2 arrives at cycle 4 and the tail
        // leaves in that cycle's sweep.
        let stall = (false, true, false);
        assert_eq!(
            members,
            [
                (true, true, false),
                stall,
                stall,
                stall,
                (true, false, false),
                (false, false, false),
            ]
        );
    }

    #[test]
    fn a_link_longer_than_the_run_delivers_nothing_from_a_bounded_calendar() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let routes = routing::default_routes(&mesh).expect("routes");
        let lats = vec![Cycles::new(u64::from(u32::MAX)); mesh.num_links()];
        let config = SimConfig::fast_test();
        let mut net = Network::new(&mesh, &routes, &lats, config.clone());
        let horizon = config.warmup + config.measure + config.drain_limit;
        assert_eq!(
            net.calendar.data.len() as u64,
            (horizon + 1).next_power_of_two()
        );
        let out = net.run(0.05, TrafficPattern::UniformRandom);
        assert!(!out.stable && out.accepted_rate == 0.0, "{out:?}");
    }

    #[test]
    fn fault_epochs_count_each_source_queue_packet_once() {
        // Every tile creates a packet every cycle, and no buffer ever
        // frees: by cycle 10 each holds one packet and has nine parked.
        let mesh = generators::mesh(Grid::new(4, 4));
        let routes = routing::default_routes(&mesh).expect("routes");
        let lats = unit_latencies(&mesh);
        for plan in ["10:router:5", "drain,10:router:5"] {
            // The window closes right before the epoch, or after it.
            for measure in [10, 20] {
                let config = SimConfig {
                    warmup: 0,
                    measure,
                    packet_len: 1,
                    faults: crate::FaultPlan::parse(plan).expect("plan parses"),
                    ..SimConfig::fast_test()
                };
                let schedule = FaultSchedule::build(&config.faults, &mesh, routes.num_vc_classes())
                    .expect("non-empty plan");
                let mut recorder = OutcomeRecorder::new(&config);
                let arrivals = Arrivals {
                    pattern: TrafficPattern::UniformRandom,
                    grid: mesh.grid(),
                    packet_len: 1,
                    schedule: Some(&schedule),
                    measure_end: measure,
                };
                let mut injector = Injector::new(3, 16, 1.0, 100);
                let mut net = Network::new(&mesh, &routes, &lats, config);
                for now in 0..10 {
                    injector.fire_at(now, |t, stream| {
                        if net.routers[t].injection_busy() {
                            return false;
                        }
                        let dst = arrivals.draw(t, now, stream, &mut recorder, true);
                        let dst = dst.expect("uniform traffic before any fault");
                        net.routers[t].fill_injection_buffer(dst, now as u32, 1);
                        net.touched_routers.insert(t);
                        true
                    });
                }
                assert!((0..16).all(|t| injector.is_parked(t, 10)));
                if measure == 10 {
                    arrivals.catch_up(&injector, 16, &mut recorder);
                }
                net.apply_fault_epoch(
                    &schedule.epochs[0],
                    schedule.policy,
                    10,
                    &mut recorder,
                    (&mut injector, &arrivals),
                );
                let outcome = recorder.finalize(10, 16.0);
                let injected = (outcome.offered_rate * measure as f64 * 16.0).round() as u64;
                let dropped = outcome.faults.dropped_packets;
                let label = format!("{plan} measure {measure}");
                match schedule.policy {
                    // The whole fabric's transient state goes, backlogs
                    // included, and every source resumes at cycle 10.
                    InFlightPolicy::Drop => {
                        assert_eq!((injected, dropped), (160, 160), "{label}");
                        assert!(recorder.drained(), "{label}");
                        assert!(net.routers.iter().all(|r| !r.has_occupied_buffers()));
                        let mut fired = Vec::new();
                        injector.fire_at(10, |t, _| {
                            fired.push(t);
                            false
                        });
                        assert_eq!(fired, (0..16).collect::<Vec<_>>(), "{label}");
                    }
                    // Only the dead router's packets go; the survivors
                    // keep their buffers and backlogs, counted by the
                    // catch-up if the window has closed.
                    InFlightPolicy::Drain => {
                        let expected = if measure == 10 { 160 } else { 16 + 9 };
                        assert_eq!((injected, dropped), (expected, 10), "{label}");
                        assert!(!injector.is_parked(5, 10), "{label}");
                        assert!((0..16)
                            .filter(|&t| t != 5)
                            .all(|t| injector.is_parked(t, 10) && net.routers[t].injection_busy()));
                    }
                }
                assert!(!net.routers[5].has_occupied_buffers());
                for router in &net.routers {
                    router.assert_consistent(&net.config, &net.vc_classes);
                }
            }
        }
    }
}
