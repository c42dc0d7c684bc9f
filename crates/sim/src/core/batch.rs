//! The lockstep lane engine: K independent cells of one topology
//! stepped cycle-by-cycle through one struct-of-arrays core.
//!
//! Each *lane* is a complete, independent simulation — its own RNG
//! streams (the per-tile [`Injector`] reused verbatim), its own packet
//! counter, its own link-pipeline contents, its own
//! [`OutcomeRecorder`] — sharing nothing with its siblings except the
//! immutable [`CoreLayout`] and the *schedules*: one union
//! [`ActiveSet`] of routers and one of channels covers all lanes, and
//! the per-cycle sweeps walk `(member, lane)` pairs with the lane loop
//! innermost, where the lane-major state layout makes it unit-stride.
//!
//! # Why the union schedule preserves bit-identity
//!
//! For a single run the reference visits router `r` in phase C of
//! cycle `t` iff `r` is in its active set, and (because link latencies
//! give every forward at least one cycle in flight) membership at that
//! moment is equivalent to `occupied > 0`. The union set is a superset
//! of every lane's reference set, visited in the same ascending order;
//! each `(r, lane)` visit is gated on that lane's own occupancy, so
//! extra members are exact no-ops and the per-lane visit sequence —
//! and with it every arbitration decision and statistic — is the
//! reference's. Channels need no explicit gate: delivering from an
//! empty pipe is already a no-op.
//!
//! Lanes complete independently: a lane that drains (or hits its drain
//! limit — a saturated lane) finalizes its outcome, has exactly the
//! routers and channels it touched wiped back to constructed state
//! (per-lane touched sets, the analogue of `Network::reset`'s
//! O(touched) cleanup), and is refilled with the batch's next pending
//! cell while its siblings continue undisturbed.

use shg_topology::{
    routing::{Routes, NO_COMPONENT, NO_ROUTE},
    TileId, Topology,
};
use shg_units::Cycles;

use crate::config::SimConfig;
use crate::fault::{FaultEpoch, FaultSchedule, InFlightPolicy};
use crate::flit::Flit;
use crate::injection::Injector;
use crate::network::ActiveSet;
use crate::stats::{OutcomeRecorder, SimOutcome};
use crate::traffic::TrafficPattern;

use super::layout::{CoreLayout, NO_CHANNEL};
use super::state::{pack_owner, CoreState, NO_OWNER};

/// Buffers a flit into input VC `(r, p, v)` of `lane` — the core's
/// transcription of `Router::enqueue`: bump occupancy and, when the VC
/// transitions empty→nonempty, raise a VC-allocation request (or a
/// switch request if the VC already holds an output grant).
#[inline]
fn enqueue(
    state: &mut CoreState,
    layout: &CoreLayout<'_>,
    r: usize,
    p: usize,
    v: usize,
    lane: usize,
    flit: Flit,
) {
    let i = state.ivc(layout, r, p, v, lane);
    state.buffers[i].push_back(flit);
    state.occupied[r * state.lanes + lane] += 1;
    if state.buffers[i].len() == 1 {
        let s = state.islot(layout, r, p, lane);
        if state.in_active[i] {
            state.sa_vc_mask[s] |= 1 << v;
        } else {
            state.va_vc_mask[s] |= 1 << v;
        }
    }
}

/// One cell's inputs to a batched run. All jobs of a batch share the
/// topology, routes, latencies and base configuration; the per-cell
/// degrees of freedom are exactly the sweep grid's.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneJob {
    /// The cell's derived RNG seed.
    pub(crate) seed: u64,
    /// Injection rate in flits per node per cycle.
    pub(crate) rate: f64,
    /// Traffic pattern.
    pub(crate) pattern: TrafficPattern,
}

/// The in-flight run occupying one lane.
#[derive(Debug)]
struct LaneRun {
    /// Index into the batch's job (and result) list.
    job: usize,
    now: u64,
    measure_end: u64,
    hard_stop: u64,
    /// Fault epochs already applied to this lane (lanes have
    /// independent clocks, so each replays the shared [`FaultSchedule`]
    /// at its own pace; a refilled lane restarts from zero).
    epoch: usize,
    pattern: TrafficPattern,
    injector: Injector,
    recorder: OutcomeRecorder,
}

impl LaneRun {
    fn start(job: usize, spec: &LaneJob, layout: &CoreLayout<'_>) -> Self {
        let config = &layout.config;
        let packet_prob = spec.rate / f64::from(config.packet_len);
        let recorder = OutcomeRecorder::new(config);
        let measure_end = recorder.measure_end();
        let hard_stop = measure_end + config.drain_limit;
        let injector = Injector::new(
            spec.seed,
            layout.topology.num_tiles(),
            packet_prob,
            hard_stop,
        );
        Self {
            job,
            now: 0,
            measure_end,
            hard_stop,
            epoch: 0,
            pattern: spec.pattern,
            injector,
            recorder,
        }
    }
}

/// The shared engine: layout, lane-major state, union schedules and
/// the per-visit switch-allocation scratch.
#[derive(Debug)]
struct Engine<'a> {
    layout: CoreLayout<'a>,
    state: CoreState,
    /// Union over lanes of routers with occupied buffers.
    active_routers: ActiveSet,
    /// Union over lanes of channels with in-flight flits or credits.
    active_channels: ActiveSet,
    /// Per-lane monotone touched sets — what a lane's completion reset
    /// must clean (the twins of `Network::touched_routers/_channels`).
    touched_routers: Vec<ActiveSet>,
    touched_channels: Vec<ActiveSet>,
    /// Per-output-port request lists, reused serially across every
    /// `(router, lane)` visit (sized for the widest router).
    out_requests: Vec<Vec<(u8, u8)>>,
    /// Output ports with entries in `out_requests`. Per-visit scratch.
    touched_outputs: Vec<u8>,
}

impl<'a> Engine<'a> {
    fn new(layout: CoreLayout<'a>, lanes: usize) -> Self {
        let state = CoreState::new(&layout, lanes);
        let max_out_ports = (0..layout.n_routers)
            .map(|r| layout.out_ports(r))
            .max()
            .unwrap_or(0);
        let n = layout.n_routers;
        let channels = layout.n_channels;
        Self {
            layout,
            state,
            active_routers: ActiveSet::new(n),
            active_channels: ActiveSet::new(channels),
            touched_routers: (0..lanes).map(|_| ActiveSet::new(n)).collect(),
            touched_channels: (0..lanes).map(|_| ActiveSet::new(channels)).collect(),
            out_requests: vec![Vec::new(); max_out_ports],
            touched_outputs: Vec::new(),
        }
    }

    /// Phase A for one lane: packet generation through the lane's own
    /// injector and per-tile streams. `component` is the lane's current
    /// surviving-component map (`None` before the first fault epoch);
    /// gating comes *after* the destination draw, so the RNG streams
    /// advance identically with and without faults.
    fn inject(&mut self, lane: usize, run: &mut LaneRun, component: Option<&[u32]>) {
        let Self {
            layout,
            state,
            active_routers,
            touched_routers,
            ..
        } = self;
        let grid = layout.topology.grid();
        let packet_len = layout.config.packet_len;
        let now = run.now;
        let LaneRun {
            pattern,
            injector,
            recorder,
            ..
        } = run;
        let pattern = *pattern;
        injector.fire_at(now, |t, stream| {
            let src = TileId::new(t as u32);
            if let Some(dst) = pattern.destination(grid, src, stream) {
                if let Some(component) = component {
                    let (a, b) = (component[t], component[dst.index()]);
                    if a == NO_COMPONENT || a != b {
                        recorder.record_unroutable(now);
                        return true;
                    }
                }
                recorder.record_injection(now);
                let inj = layout.injection_port(t);
                // `now` stays below the hard stop, which fits `u32`.
                for flit in Flit::packet(src, dst, packet_len, now as u32) {
                    enqueue(state, layout, t, inj, 0, lane, flit);
                }
                active_routers.insert(t);
                touched_routers[lane].insert(t);
            }
            true
        });
    }

    /// Phase B: delivers due flits and credits on the union's active
    /// channels, lane by lane (a lane without in-flight traffic on a
    /// channel is a no-op, exactly like the reference's idle channel).
    ///
    /// Under an applied drain-policy fault epoch, a lane's flits due on
    /// a dead channel — and flits arriving at an input VC mid-sink —
    /// are discarded with their credit returned upstream, exactly like
    /// `Network::deliver`.
    fn deliver(&mut self, lanes: &mut [Option<LaneRun>], schedule: Option<&FaultSchedule>) {
        let k = self.state.lanes;
        let sweep = self.active_channels.start_sweep();
        for &c in &sweep {
            let mut busy = false;
            for (lane, slot) in lanes.iter_mut().enumerate() {
                let Some(run) = slot else { continue };
                let now = run.now;
                let ci = c * k + lane;
                let dead = match (schedule, run.epoch) {
                    (Some(s), e) if e > 0 && s.policy == InFlightPolicy::Drain => {
                        Some(s.epochs[e - 1].dead_channel.as_slice())
                    }
                    _ => None,
                };
                while let Some(&(ready, _)) = self.state.data_pipe[ci].front() {
                    if ready > now {
                        break;
                    }
                    let (_, flit) = self.state.data_pipe[ci].pop_front().expect("checked front");
                    let (r, p) = self.layout.ch_dst[c];
                    if let Some(dead) = dead {
                        let s = self.state.islot(&self.layout, r, p, lane);
                        let sinking = self.state.sink_vc_mask[s] & (1 << flit.vc) != 0;
                        if dead[c] || sinking {
                            if flit.is_tail {
                                if !dead[c] {
                                    self.state.sink_vc_mask[s] &= !(1 << flit.vc);
                                }
                                run.recorder.record_drop(flit.created);
                            }
                            let lat = self.layout.latency[c];
                            self.state.credit_pipe[ci].push_back((now + lat, flit.vc));
                            continue;
                        }
                    }
                    debug_assert!(
                        self.state.buffers
                            [self.state.ivc(&self.layout, r, p, flit.vc as usize, lane)]
                        .len()
                            < self.layout.config.buffer_depth as usize,
                        "buffer overflow: credits out of sync"
                    );
                    enqueue(
                        &mut self.state,
                        &self.layout,
                        r,
                        p,
                        flit.vc as usize,
                        lane,
                        flit,
                    );
                    self.active_routers.insert(r);
                    self.touched_routers[lane].insert(r);
                }
                while let Some(&(ready, _)) = self.state.credit_pipe[ci].front() {
                    if ready > now {
                        break;
                    }
                    let (_, vc) = self.state.credit_pipe[ci]
                        .pop_front()
                        .expect("checked front");
                    let (r, o) = self.layout.ch_src[c];
                    let i = self.state.ovc(&self.layout, r, o, vc as usize, lane);
                    self.state.credits[i] += 1;
                    // No router activation: a credit alone creates no
                    // work; any flit waiting on it keeps its router
                    // active.
                }
                busy |=
                    !self.state.data_pipe[ci].is_empty() || !self.state.credit_pipe[ci].is_empty();
            }
            if busy {
                self.active_channels.keep(c);
            }
        }
        self.active_channels.finish_sweep(sweep);
    }

    /// Phase C: allocation and traversal over the union's active
    /// routers in ascending order; each `(router, lane)` visit is
    /// gated on that lane's own occupancy — the per-lane reference
    /// membership criterion.
    fn phase_c(&mut self, lanes: &mut [Option<LaneRun>], schedule: Option<&FaultSchedule>) {
        let k = self.state.lanes;
        let sweep = self.active_routers.start_sweep();
        for &r in &sweep {
            let mut busy = false;
            for (lane, slot) in lanes.iter_mut().enumerate() {
                let Some(run) = slot else { continue };
                if self.state.occupied[r * k + lane] == 0 {
                    continue;
                }
                // The lane's current routing table: the base one until
                // its first fault epoch swaps in a degraded table.
                let routes = match (schedule, run.epoch) {
                    (Some(s), e) if e > 0 => &s.epochs[e - 1].routes,
                    _ => self.layout.routes,
                };
                self.vc_allocate(r, lane, routes, run);
                self.switch_allocate_and_traverse(r, lane, run);
                busy |= self.state.occupied[r * k + lane] > 0;
            }
            if busy {
                self.active_routers.keep(r);
            }
        }
        self.active_routers.finish_sweep(sweep);
    }

    /// VC allocation for `(r, lane)`: ports ascending, each port's
    /// request word in ascending VC order — the reference's ascending
    /// (port, VC) slot order. `consider_va` only ever clears the bit
    /// it was called for, so the word snapshot stays exact.
    fn vc_allocate(&mut self, r: usize, lane: usize, routes: &Routes, run: &mut LaneRun) {
        for p in 0..self.layout.in_ports(r) {
            let s = self.state.islot(&self.layout, r, p, lane);
            let mut word = self.state.va_vc_mask[s];
            while word != 0 {
                let v = word.trailing_zeros() as usize;
                word &= word - 1;
                self.consider_va(r, p, v, lane, routes, run);
            }
        }
    }

    /// One (port, vc) step of VC allocation — the core's transcription
    /// of `Router::consider_va` (request-queue grant, which the object
    /// model pins as bit-identical to the exhaustive scan).
    fn consider_va(
        &mut self,
        r: usize,
        p: usize,
        v: usize,
        lane: usize,
        routes: &Routes,
        run: &mut LaneRun,
    ) {
        let Self {
            layout,
            state,
            active_channels,
            touched_channels,
            ..
        } = self;
        let i = state.ivc(layout, r, p, v, lane);
        if state.in_active[i] {
            return;
        }
        let Some(front) = state.buffers[i].front().copied() else {
            return;
        };
        if !front.is_head {
            // A body flit at the front of an inactive VC can only
            // happen transiently after a tail release; skip.
            return;
        }
        let (out_port, class) = layout.route(routes, r, &front);
        let s = state.islot(layout, r, p, lane);
        if out_port == NO_ROUTE {
            // No surviving route to the destination (drain fault
            // policy): sink the packet here, exactly like
            // `Router::consider_va` — discard its buffered flits
            // (crediting upstream so senders drain), account the drop
            // on the tail, and keep sinking arrivals until the tail
            // shows up.
            state.va_vc_mask[s] &= !(1 << v);
            let k = state.lanes;
            let in_ch = layout.islot_channel[layout.islot(r, p)];
            let mut saw_tail = false;
            while let Some(flit) = state.buffers[i].pop_front() {
                state.occupied[r * k + lane] -= 1;
                if in_ch != NO_CHANNEL {
                    let lat = layout.latency[in_ch];
                    state.credit_pipe[in_ch * k + lane].push_back((run.now + lat, flit.vc));
                    active_channels.insert(in_ch);
                    touched_channels[lane].insert(in_ch);
                }
                if flit.is_tail {
                    run.recorder.record_drop(flit.created);
                    saw_tail = true;
                    break;
                }
            }
            if saw_tail {
                if !state.buffers[i].is_empty() {
                    // The next packet's head is at the front now.
                    state.va_vc_mask[s] |= 1 << v;
                }
            } else {
                state.sink_vc_mask[s] |= 1 << v;
            }
            return;
        }
        if out_port as usize == layout.ejection_port(r) {
            state.in_active[i] = true;
            state.in_out_port[i] = out_port;
            state.in_out_vc[i] = 0;
            state.va_vc_mask[s] &= !(1 << v);
            state.sa_vc_mask[s] |= 1 << v;
            return;
        }
        // Grant a free output VC in the class's range, rotating: the
        // free VC with the smallest rotated distance from the pointer.
        let o = out_port as usize;
        let os = state.oslot(layout, r, o, lane);
        let class = class as usize;
        let range_start = layout.class_start[class];
        let len = layout.class_len[class];
        let start = state.va_rr[os] % len.max(1);
        let mut free = layout.class_mask[class] & !state.out_vc_used[os];
        let mut best: Option<(u8, u8)> = None;
        while free != 0 {
            let ov = free.trailing_zeros() as u8;
            free &= free - 1;
            let dist = (ov - range_start + len - start) % len;
            if best.is_none_or(|(d, _)| dist < d) {
                best = Some((dist, ov));
            }
        }
        if let Some((_, ov)) = best {
            let oi = state.ovc(layout, r, o, ov as usize, lane);
            state.out_owner[oi] = pack_owner(p, v);
            state.out_vc_used[os] |= 1 << ov;
            state.va_rr[os] = state.va_rr[os].wrapping_add(1);
            state.in_active[i] = true;
            state.in_out_port[i] = out_port;
            state.in_out_vc[i] = ov;
            state.va_vc_mask[s] &= !(1 << v);
            state.sa_vc_mask[s] |= 1 << v;
        }
    }

    /// Separable input-first switch allocation and traversal for
    /// `(r, lane)` — the core's transcription of
    /// `Router::sa_request_queue`.
    fn switch_allocate_and_traverse(&mut self, r: usize, lane: usize, run: &mut LaneRun) {
        let in_ports = self.layout.in_ports(r);
        debug_assert!(self.touched_outputs.is_empty(), "scratch leaked");
        // Input arbitration: requesting ports ascending; rotating each
        // request mask right by the pointer orders its bits exactly
        // like the scan's `(start + i) % vcs` probe sequence.
        for p in 0..in_ports {
            let s = self.state.islot(&self.layout, r, p, lane);
            let mask = self.state.sa_vc_mask[s];
            if mask == 0 {
                continue;
            }
            let start = u32::from(self.state.sa_in_rr[s]);
            let mut rot = mask.rotate_right(start);
            while rot != 0 {
                let v = ((rot.trailing_zeros() + start) & 63) as usize;
                rot &= rot - 1;
                let i = self.state.ivc(&self.layout, r, p, v, lane);
                let o = self.state.in_out_port[i] as usize;
                let is_ejection = o == self.layout.ejection_port(r);
                if !is_ejection {
                    let ci =
                        self.state
                            .ovc(&self.layout, r, o, self.state.in_out_vc[i] as usize, lane);
                    if self.state.credits[ci] == 0 {
                        continue;
                    }
                }
                if self.out_requests[o].is_empty() {
                    self.touched_outputs.push(o as u8);
                }
                self.out_requests[o].push((p as u8, v as u8));
                break;
            }
        }
        // Output arbitration + traversal, in ascending output-port
        // order; the requester with the smallest rotated distance wins.
        self.touched_outputs.sort_unstable();
        let touched = std::mem::take(&mut self.touched_outputs);
        for &o in &touched {
            let o = o as usize;
            let os = self.state.oslot(&self.layout, r, o, lane);
            let start = usize::from(self.state.sa_out_rr[os]);
            let mut requests = std::mem::take(&mut self.out_requests[o]);
            let &(p, v) = requests
                .iter()
                .min_by_key(|&&(p, _)| (p as usize + in_ports - start) % in_ports)
                .expect("touched output has a request");
            requests.clear();
            self.out_requests[o] = requests;
            self.traverse_winner(r, o, p as usize, v as usize, lane, run);
        }
        let mut touched = touched;
        touched.clear();
        self.touched_outputs = touched;
    }

    /// Moves the switch winner `(p, v) → o` through the crossbar — the
    /// core's transcription of `Router::traverse_winner`, with the
    /// pipeline pushes (which the reference routes through
    /// `TraversalOutput`) inlined. Each input and output port wins at
    /// most once per visit, so every per-channel queue receives its
    /// items in the reference's order.
    fn traverse_winner(
        &mut self,
        r: usize,
        o: usize,
        p: usize,
        v: usize,
        lane: usize,
        run: &mut LaneRun,
    ) {
        let k = self.state.lanes;
        let in_ports = self.layout.in_ports(r);
        let i = self.state.ivc(&self.layout, r, p, v, lane);
        let s = self.state.islot(&self.layout, r, p, lane);
        let os = self.state.oslot(&self.layout, r, o, lane);
        let out_vc = self.state.in_out_vc[i];
        let mut flit = self.state.buffers[i].pop_front().expect("nonempty");
        self.state.occupied[r * k + lane] -= 1;
        self.state.sa_in_rr[s] = (v as u8).wrapping_add(1) % self.layout.config.num_vcs;
        self.state.sa_out_rr[os] = (p as u8).wrapping_add(1) % in_ports as u8;
        // Return a credit upstream (the injection port has none).
        let in_ch = self.layout.islot_channel[self.layout.islot(r, p)];
        if in_ch != NO_CHANNEL {
            let lat = self.layout.latency[in_ch];
            self.state.credit_pipe[in_ch * k + lane].push_back((run.now + lat, flit.vc));
            self.active_channels.insert(in_ch);
            self.touched_channels[lane].insert(in_ch);
        }
        let now_empty = self.state.buffers[i].is_empty();
        if o == self.layout.ejection_port(r) {
            if flit.is_tail {
                self.state.in_active[i] = false;
                self.state.sa_vc_mask[s] &= !(1 << v);
                if !now_empty {
                    // The next packet's head is at the front now.
                    self.state.va_vc_mask[s] |= 1 << v;
                }
            } else if now_empty {
                self.state.sa_vc_mask[s] &= !(1 << v);
            }
            run.recorder.record_ejection(&flit, run.now);
            return;
        }
        let out_ch = self.layout.oslot_channel[self.layout.oslot(r, o)];
        flit.vc = out_vc;
        flit.hop += 1;
        let ci = self.state.ovc(&self.layout, r, o, out_vc as usize, lane);
        self.state.credits[ci] -= 1;
        if flit.is_tail {
            self.state.out_owner[ci] = NO_OWNER;
            self.state.out_vc_used[os] &= !(1u64 << out_vc);
            self.state.in_active[i] = false;
            self.state.sa_vc_mask[s] &= !(1 << v);
            if !now_empty {
                self.state.va_vc_mask[s] |= 1 << v;
            }
        } else if now_empty {
            self.state.sa_vc_mask[s] &= !(1 << v);
        }
        let lat = self.layout.latency[out_ch];
        self.state.data_pipe[out_ch * k + lane].push_back((run.now + lat, flit));
        self.active_channels.insert(out_ch);
        self.touched_channels[lane].insert(out_ch);
    }

    /// Applies one fault epoch's state change to one lane — the
    /// lane-local twin of `Network::apply_fault_epoch`.
    ///
    /// Under [`InFlightPolicy::Drop`] the lane's entire transient state
    /// is discarded (every router and channel it touched is wiped back
    /// to constructed state, counting lost measured packets by their
    /// tail flits), while the injector, packet counter and clock carry
    /// on. The union active sets are *not* cleared: stale entries are
    /// occupancy-gated no-ops for this lane and still live for its
    /// siblings.
    ///
    /// Under [`InFlightPolicy::Drain`] only the routers that die at
    /// this epoch are wiped, with each flit buffered on a network input
    /// port returning its credit upstream so senders drain.
    fn apply_fault_epoch(
        &mut self,
        lane: usize,
        run: &mut LaneRun,
        epoch: &FaultEpoch,
        policy: InFlightPolicy,
    ) {
        let Self {
            layout,
            state,
            active_channels,
            touched_routers,
            touched_channels,
            ..
        } = self;
        let k = state.lanes;
        let vcs = layout.vcs;
        let recorder = &mut run.recorder;
        match policy {
            InFlightPolicy::Drop => {
                touched_routers[lane].clear_with(|r| {
                    for p in 0..layout.in_ports(r) {
                        for v in 0..vcs {
                            let i = (layout.islot(r, p) * vcs + v) * k + lane;
                            for flit in &state.buffers[i] {
                                if flit.is_tail {
                                    recorder.record_drop(flit.created);
                                }
                            }
                        }
                    }
                    state.reset_router_lane(layout, r, lane);
                });
                touched_channels[lane].clear_with(|c| {
                    for (_, flit) in &state.data_pipe[c * k + lane] {
                        if flit.is_tail {
                            recorder.record_drop(flit.created);
                        }
                    }
                    state.reset_channel_lane(c, lane);
                });
            }
            InFlightPolicy::Drain => {
                for &r in &epoch.newly_dead_routers {
                    let r = r as usize;
                    for p in 0..layout.in_ports(r) {
                        let in_ch = layout.islot_channel[layout.islot(r, p)];
                        for v in 0..vcs {
                            let i = (layout.islot(r, p) * vcs + v) * k + lane;
                            for flit in &state.buffers[i] {
                                if flit.is_tail {
                                    recorder.record_drop(flit.created);
                                }
                                if in_ch != NO_CHANNEL {
                                    let lat = layout.latency[in_ch];
                                    state.credit_pipe[in_ch * k + lane]
                                        .push_back((run.now + lat, flit.vc));
                                    active_channels.insert(in_ch);
                                    touched_channels[lane].insert(in_ch);
                                }
                            }
                        }
                    }
                    // Same reasoning as the object model's drain arm:
                    // credit returns for flits this router sent before
                    // dying are still in flight back to it, so its
                    // counters keep their values across the wipe instead
                    // of refilling (and then overflowing as the returns
                    // land). The slice covers every lane; other lanes
                    // are written back unchanged.
                    let base = layout.oslot(r, 0) * vcs * k;
                    let len = layout.out_ports(r) * vcs * k;
                    let saved = state.credits[base..base + len].to_vec();
                    state.reset_router_lane(layout, r, lane);
                    state.credits[base..base + len].copy_from_slice(&saved);
                }
            }
        }
    }

    /// Wipes everything a finished lane touched back to constructed
    /// state, in O(touched). Union active-set entries that existed only
    /// for this lane become no-ops and drop out on the next sweep.
    fn reset_lane(&mut self, lane: usize) {
        let Self {
            layout,
            state,
            touched_routers,
            touched_channels,
            ..
        } = self;
        touched_routers[lane].clear_with(|r| state.reset_router_lane(layout, r, lane));
        touched_channels[lane].clear_with(|c| state.reset_channel_lane(c, lane));
    }
}

/// Runs `jobs` — independent cells sharing one topology, routing
/// table, latency map and base configuration — through a
/// `min(max_lanes, jobs.len())`-lane core, refilling lanes as they
/// complete, and returns one [`SimOutcome`] per job in job order.
///
/// Every outcome is bit-identical to running its cell alone on a fresh
/// [`crate::Network`] with `config.seed = job.seed` (the equivalence
/// suite pins this across the pattern × injection × allocation
/// matrix); lane count, lane assignment and refill order are
/// unobservable in the results.
pub(crate) fn run_batch(
    topology: &Topology,
    routes: &Routes,
    link_latencies: &[Cycles],
    config: &SimConfig,
    jobs: &[LaneJob],
    max_lanes: usize,
) -> Vec<SimOutcome> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let k = max_lanes.max(1).min(jobs.len());
    let layout = CoreLayout::new(topology, routes, link_latencies, config.clone());
    // Compiled fault plan: `None` (the overwhelmingly common case)
    // keeps the loop on the exact fault-free path. Shared by all lanes,
    // each replaying it on its own clock.
    let schedule = FaultSchedule::build(&config.faults, topology, routes.num_vc_classes());
    let schedule = schedule.as_ref();
    let nodes = topology.num_tiles() as f64;
    let mut engine = Engine::new(layout, k);
    let mut lanes: Vec<Option<LaneRun>> = (0..k).map(|_| None).collect();
    let mut results: Vec<Option<SimOutcome>> = vec![None; jobs.len()];
    let mut next_job = 0usize;
    for slot in &mut lanes {
        if next_job < jobs.len() {
            *slot = Some(LaneRun::start(next_job, &jobs[next_job], &engine.layout));
            next_job += 1;
        }
    }
    while lanes.iter().any(Option::is_some) {
        // Phase A: per-lane packet generation (disjoint state; lane
        // order is unobservable). Fault epochs strike first, at the top
        // of their cycle on each lane's own clock, exactly like the
        // reference's top-of-loop application.
        for (lane, slot) in lanes.iter_mut().enumerate() {
            if let Some(run) = slot.as_mut() {
                if let Some(sched) = schedule {
                    while run.epoch < sched.epochs.len() && run.now >= sched.epochs[run.epoch].at {
                        engine.apply_fault_epoch(lane, run, &sched.epochs[run.epoch], sched.policy);
                        run.epoch += 1;
                    }
                }
                let component = match (schedule, run.epoch) {
                    (Some(s), e) if e > 0 => Some(s.epochs[e - 1].component.as_slice()),
                    _ => None,
                };
                engine.inject(lane, run, component);
            }
        }
        // Phase B: arrivals on the channel union.
        engine.deliver(&mut lanes, schedule);
        // Phase C: allocation + traversal on the router union.
        engine.phase_c(&mut lanes, schedule);
        // Advance each live lane's clock; finished lanes finalize,
        // reset their slice and pick up the next pending cell.
        for (lane, slot) in lanes.iter_mut().enumerate() {
            let done = match slot.as_mut() {
                Some(run) => {
                    run.now += 1;
                    (run.now >= run.measure_end && run.recorder.drained())
                        || run.now >= run.hard_stop
                }
                None => false,
            };
            if done {
                let run = slot.take().expect("finished lane was live");
                results[run.job] = Some(run.recorder.finalize(run.now, nodes));
                engine.reset_lane(lane);
                if next_job < jobs.len() {
                    *slot = Some(LaneRun::start(next_job, &jobs[next_job], &engine.layout));
                    next_job += 1;
                }
            }
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every job ran to completion"))
        .collect()
}
