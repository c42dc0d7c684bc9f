//! Router microarchitecture: per-router buffers, virtual-channel state,
//! credits and the two allocation stages.
//!
//! Split out of the network module so the network layer only owns
//! *global* state (the delivery calendar, the active sets, the cycle loop)
//! while everything a single router decides per cycle lives here:
//!
//! 1. **VC allocation** — head flits at buffer fronts acquire an output
//!    virtual channel of the class their routed path demands,
//! 2. **Switch allocation** — separable input-first/output-second
//!    round-robin arbitration with one flit per input and output port,
//! 3. **Switch traversal** — winning flits leave through their output
//!    port; the router reports ejections, link forwards and upstream
//!    credits back to the network layer, which owns the link pipelines
//!    (one delivery calendar).
//!
//! # Request-driven allocation
//!
//! The allocation stages never scan every input port × VC for a head
//! flit awaiting a VC or a buffered flit wanting the switch, nor every
//! output port × VC for a free output VC — that would cost
//! `O(ports × VCs)` per router visit even with a single flit resident.
//! The router keeps explicit sparse request state instead, updated
//! incrementally on enqueue, dequeue and VC grant/release:
//!
//! * per-input-port bitmasks of VCs whose buffer front awaits VC
//!   allocation ([`Router::va_mask`], summarized by
//!   [`Router::va_ports`]),
//! * per-input-port bitmasks of active VCs with buffered flits — the
//!   switch-allocation requests ([`Router::sa_mask`], summarized by
//!   [`Router::sa_ports`]) — gathered into per-output-port request
//!   lists each cycle ([`Router::out_requests`]),
//! * per-output-port bitmasks of occupied output VCs
//!   ([`Router::out_vc_used`]).
//!
//! Both stages walk only these live requests, in the order an
//! exhaustive scan would probe them: ascending `(port, VC)` for VC
//! allocation, round-robin rotation from each arbiter's pointer for
//! switch allocation and output-VC grants. Round-robin pointers move
//! only on grants. [`Router::assert_consistent`] checks every cycle of
//! a validated run that the request state mirrors the buffers exactly
//! (`crates/sim/tests/alloc_equivalence.rs`); the pinned outcomes in
//! `crates/sim/tests/golden_outcomes.txt` hold the arbitration order.
//!
//! # Source queue
//!
//! A tile's injection port is an unbounded queue in the model, but the
//! router never looks past the packet at its front. So the injection
//! buffer holds the flits of *one* packet and the router keeps no
//! packet behind it: the packets a backlogged tile has created but not
//! yet sent exist only as the tile's parked arrival stream (see the
//! injection module's "Parked sources"), a creation cycle and an RNG
//! position — O(1) however long the backlog. When the tail flit leaves
//! the buffer (or an unroutable packet is sunk from it), the router
//! reports it in [`TraversalOutput::injection_freed`] and the network
//! draws the next packet into [`Router::fill_injection_buffer`] before
//! the next cycle, so the buffer's front is what the unbounded queue's
//! front would be.
//!
//! # Route once per head
//!
//! A head flit's `(output port, VC class)` depends only on the flit
//! and the routing table, so [`InVc`] remembers it the first time the
//! head is routed; a head blocked on a busy output is retried from the
//! cached pair without touching the flit or the table. The cache dies
//! with the VC grant, and [`Router::forget_routes`] drops it when a
//! fault epoch swaps the table.

use std::collections::VecDeque;

use shg_topology::routing::NO_ROUTE;
use shg_topology::{ChannelId, TileId};

use crate::config::{SimConfig, VcClassTable};
use crate::flit::Flit;

/// State of one input virtual channel.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct InVc {
    /// `true` while a packet holds this VC's output reservation.
    pub(crate) active: bool,
    /// `true` while `out_port` and `class` cache the route of the head
    /// flit at the buffer front, which still awaits an output VC.
    routed: bool,
    /// Reserved (or, while `routed`, requested) output port.
    pub(crate) out_port: u8,
    /// Reserved output VC.
    pub(crate) out_vc: u8,
    /// VC class the routed head demands (meaningful while `routed`).
    class: u8,
}

/// What one router hands back to the network after switch traversal.
///
/// The network layer owns the link pipelines (its delivery calendar),
/// so the router reports forwards and credits instead of filing them
/// itself.
#[derive(Debug, Default)]
pub(crate) struct TraversalOutput {
    /// Flits that reached their destination this cycle.
    pub(crate) ejected: Vec<Flit>,
    /// Flits entering a link pipeline: `(channel, flit)`.
    pub(crate) forwards: Vec<(ChannelId, Flit)>,
    /// Credits returned upstream: `(channel, vc)`.
    pub(crate) credits: Vec<(ChannelId, u8)>,
    /// Creation cycles of packets whose tail was discarded by a fault
    /// sink (empty on every fault-free cycle).
    pub(crate) dropped: Vec<u32>,
    /// Set when the injection buffer's packet left it this visit — its
    /// tail was forwarded or it was sunk — so the network refills it.
    pub(crate) injection_freed: bool,
}

/// One router: buffers, reservations, credits and arbitration state.
#[derive(Debug)]
pub(crate) struct Router {
    /// The tile this router serves — the source of every packet it
    /// injects.
    tile: TileId,
    /// Incoming channels, defining network input ports `0..k`; port `k`
    /// is the injection port.
    pub(crate) in_channels: Vec<ChannelId>,
    /// Outgoing channels, defining network output ports `0..m`; port `m`
    /// is the ejection port.
    pub(crate) out_channels: Vec<ChannelId>,
    /// `buffers[in_port][vc]`.
    pub(crate) buffers: Vec<Vec<VecDeque<Flit>>>,
    /// `in_state[in_port][vc]`.
    pub(crate) in_state: Vec<Vec<InVc>>,
    /// `out_owner[out_port][vc]`: which (in_port, vc) holds the output VC.
    pub(crate) out_owner: Vec<Vec<Option<(u8, u8)>>>,
    /// `credits[out_port][vc]`: free downstream buffer slots.
    pub(crate) credits: Vec<Vec<u16>>,
    /// Round-robin pointer per output port for VC allocation.
    va_rr: Vec<u8>,
    /// Round-robin pointer per input port for switch allocation.
    sa_in_rr: Vec<u8>,
    /// Round-robin pointer per output port for switch allocation.
    sa_out_rr: Vec<u8>,
    /// Flits held across all ports/VCs. Maintained incrementally so the
    /// active-set scheduler can test occupancy in O(1).
    occupied: u32,
    /// `va_mask[in_port]`: VCs whose buffer front awaits VC allocation.
    /// One `u64` per port (the class table rejects more than 64 VCs).
    va_mask: Vec<u64>,
    /// One bit per input port, set while `va_mask[port] != 0`.
    va_ports: Vec<u64>,
    /// `sa_mask[in_port]`: active VCs with buffered flits — the input
    /// side's switch-allocation requests.
    sa_mask: Vec<u64>,
    /// One bit per input port, set while `sa_mask[port] != 0`.
    sa_ports: Vec<u64>,
    /// `out_vc_used[out_port]`: occupied output VCs — the bitmask twin
    /// of `out_owner[out_port]`.
    out_vc_used: Vec<u64>,
    /// `out_requests[out_port]`: input-arbitration winners requesting
    /// this output, `(in_port, vc)`. Per-cycle scratch, kept allocated.
    out_requests: Vec<Vec<(u8, u8)>>,
    /// Output ports with entries in `out_requests`. Per-cycle scratch.
    touched_outputs: Vec<u8>,
    /// `sinking[in_port]`: VCs mid-way through discarding a packet whose
    /// destination became unreachable (drain fault policy) — the head
    /// and buffered flits are gone, the rest is still in flight and is
    /// discarded on arrival until the tail clears the bit. All-zero in
    /// fault-free runs.
    sinking: Vec<u64>,
}

impl Router {
    pub(crate) fn new(
        tile: TileId,
        in_channels: Vec<ChannelId>,
        out_channels: Vec<ChannelId>,
        config: &SimConfig,
    ) -> Self {
        let vcs = config.num_vcs as usize;
        let in_ports = in_channels.len() + 1;
        let out_ports = out_channels.len() + 1;
        Self {
            tile,
            in_channels,
            out_channels,
            buffers: vec![vec![VecDeque::new(); vcs]; in_ports],
            in_state: vec![vec![InVc::default(); vcs]; in_ports],
            out_owner: vec![vec![None; vcs]; out_ports],
            credits: vec![vec![config.buffer_depth; vcs]; out_ports],
            va_rr: vec![0; out_ports],
            sa_in_rr: vec![0; in_ports],
            sa_out_rr: vec![0; out_ports],
            occupied: 0,
            va_mask: vec![0; in_ports],
            va_ports: vec![0; in_ports.div_ceil(64)],
            sa_mask: vec![0; in_ports],
            sa_ports: vec![0; in_ports.div_ceil(64)],
            out_vc_used: vec![0; out_ports],
            out_requests: vec![Vec::new(); out_ports],
            touched_outputs: Vec::new(),
            sinking: vec![0; in_ports],
        }
    }

    pub(crate) fn injection_port(&self) -> usize {
        self.in_channels.len()
    }

    pub(crate) fn ejection_port(&self) -> usize {
        self.out_channels.len()
    }

    /// `true` while any buffer holds a flit — the active-set criterion:
    /// a router with empty buffers cannot allocate or traverse, and any
    /// event that fills a buffer re-activates it. (A tile's source is
    /// parked only while its injection buffer is busy.)
    pub(crate) fn has_occupied_buffers(&self) -> bool {
        self.occupied > 0
    }

    /// `true` while input VC `(port, vc)` is discarding the remainder of
    /// an unroutable packet (drain fault policy).
    #[inline]
    pub(crate) fn is_sinking(&self, port: usize, vc: u8) -> bool {
        self.sinking[port] & (1 << vc) != 0
    }

    /// Ends the sink on `(port, vc)` — called when the packet's tail
    /// flit arrives and is discarded.
    #[inline]
    pub(crate) fn clear_sink(&mut self, port: usize, vc: u8) {
        self.sinking[port] &= !(1 << vc);
    }

    #[inline]
    fn va_set(&mut self, port: usize, vc: usize) {
        self.va_mask[port] |= 1 << vc;
        self.va_ports[port >> 6] |= 1 << (port & 63);
    }

    #[inline]
    fn va_clear(&mut self, port: usize, vc: usize) {
        self.va_mask[port] &= !(1 << vc);
        if self.va_mask[port] == 0 {
            self.va_ports[port >> 6] &= !(1 << (port & 63));
        }
    }

    #[inline]
    fn sa_set(&mut self, port: usize, vc: usize) {
        self.sa_mask[port] |= 1 << vc;
        self.sa_ports[port >> 6] |= 1 << (port & 63);
    }

    #[inline]
    fn sa_clear(&mut self, port: usize, vc: usize) {
        self.sa_mask[port] &= !(1 << vc);
        if self.sa_mask[port] == 0 {
            self.sa_ports[port >> 6] &= !(1 << (port & 63));
        }
    }

    /// Enqueues a flit into `buffers[port][vc]`.
    pub(crate) fn enqueue(&mut self, port: usize, vc: usize, flit: Flit) {
        self.buffers[port][vc].push_back(flit);
        self.occupied += 1;
        // A new buffer front is a new request: a switch request if the
        // VC already holds an output reservation, otherwise a head flit
        // awaiting VC allocation.
        if self.buffers[port][vc].len() == 1 {
            if self.in_state[port][vc].active {
                self.sa_set(port, vc);
            } else {
                self.va_set(port, vc);
            }
        }
    }

    /// `true` while the injection buffer holds a packet: a packet this
    /// tile creates now must wait behind it.
    #[inline]
    pub(crate) fn injection_busy(&self) -> bool {
        !self.buffers[self.injection_port()][0].is_empty()
    }

    /// Puts one packet created at cycle `created` for `dst` into the
    /// empty injection buffer.
    pub(crate) fn fill_injection_buffer(&mut self, dst: TileId, created: u32, packet_len: u16) {
        debug_assert!(!self.injection_busy(), "injection buffer holds a packet");
        self.occupied += u32::from(packet_len);
        let inj = self.injection_port();
        // The tail that emptied the buffer released the VC, so the new
        // front is a head awaiting VC allocation.
        self.buffers[inj][0].extend(Flit::packet(self.tile, dst, packet_len, created));
        self.va_set(inj, 0);
    }

    /// Drops every cached head route, so each waiting head is routed
    /// afresh — for a fault epoch that swaps the routing table.
    pub(crate) fn forget_routes(&mut self) {
        for state in self.in_state.iter_mut().flatten() {
            state.routed = false;
        }
    }

    /// VC allocation: head flits at buffer fronts acquire output VCs.
    ///
    /// `route` maps a head flit to its `(out_port, vc_class)` at this
    /// router (the ejection port for flits that have arrived). It
    /// receives the router by shared reference so it can inspect port
    /// lists without fighting the mutable borrow held by allocation.
    ///
    /// A routed port of [`NO_ROUTE`] (possible only under degraded
    /// routes) sinks the packet instead: its buffered flits are
    /// discarded with upstream credits reported into `out.credits` and
    /// the drop into `out.dropped` (and `out.injection_freed` for the
    /// injection buffer's packet).
    pub(crate) fn vc_allocate_with(
        &mut self,
        classes: &VcClassTable,
        route: impl Fn(&Router, &Flit) -> (u8, u8),
        out: &mut TraversalOutput,
    ) {
        // Requesting ports ascending, each port's VCs ascending.
        // `consider_va` only ever touches the request bit it was called
        // for, so both snapshots stay exact.
        for w in 0..self.va_ports.len() {
            let mut ports = self.va_ports[w];
            while ports != 0 {
                let p = (w << 6) | ports.trailing_zeros() as usize;
                ports &= ports - 1;
                let mut word = self.va_mask[p];
                while word != 0 {
                    let v = word.trailing_zeros() as usize;
                    word &= word - 1;
                    self.consider_va(p, v, classes, &route, out);
                }
            }
        }
    }

    /// One (port, vc) step of VC allocation: checks whether the slot's
    /// front is a head flit awaiting an output VC and tries to grant
    /// one.
    fn consider_va(
        &mut self,
        p: usize,
        v: usize,
        classes: &VcClassTable,
        route: &impl Fn(&Router, &Flit) -> (u8, u8),
        out: &mut TraversalOutput,
    ) {
        let state = self.in_state[p][v];
        if state.active {
            return;
        }
        if state.routed {
            // A head that found its output busy on an earlier cycle:
            // retry from the cached route, flit and table untouched.
            self.grant_output_vc(p, v, state.out_port, state.class, classes);
            return;
        }
        let Some(front) = self.buffers[p][v].front() else {
            return;
        };
        if !front.is_head {
            // A body flit at the front of an inactive VC can only
            // happen transiently after a tail release; skip.
            return;
        }
        let (out_port, class) = route(&*self, front);
        if out_port == NO_ROUTE {
            // No surviving route to the destination (drain fault
            // policy): sink the packet here. Discard its buffered
            // flits (crediting upstream so senders drain), account the
            // drop on the tail, and keep sinking arrivals until the
            // tail shows up.
            self.va_clear(p, v);
            let mut saw_tail = false;
            while let Some(flit) = self.buffers[p][v].pop_front() {
                self.occupied -= 1;
                if p < self.in_channels.len() {
                    out.credits.push((self.in_channels[p], flit.vc));
                }
                if flit.is_tail {
                    out.dropped.push(flit.created);
                    saw_tail = true;
                    break;
                }
            }
            if saw_tail {
                out.injection_freed |= p == self.injection_port();
                if !self.buffers[p][v].is_empty() {
                    // The next packet's head is at the front now.
                    self.va_set(p, v);
                }
            } else {
                self.sinking[p] |= 1 << v;
            }
            return;
        }
        if out_port as usize == self.ejection_port() {
            self.in_state[p][v] = InVc {
                active: true,
                out_port,
                ..InVc::default()
            };
            self.va_clear(p, v);
            self.sa_set(p, v);
            return;
        }
        self.in_state[p][v] = InVc {
            routed: true,
            out_port,
            class,
            ..InVc::default()
        };
        self.grant_output_vc(p, v, out_port, class, classes);
    }

    /// Tries to grant the routed head at the front of `(p, v)` a free
    /// output VC of `class` on `out_port`: the first free one in the
    /// class's range, rotating from the port's round-robin pointer. On
    /// failure the head stays a VA request.
    #[inline]
    fn grant_output_vc(
        &mut self,
        p: usize,
        v: usize,
        out_port: u8,
        class: u8,
        classes: &VcClassTable,
    ) {
        let o = out_port as usize;
        let class = class as usize;
        let (first, len) = (classes.start[class], classes.len[class]);
        let rr = self.va_rr[o];
        let start = if len.is_power_of_two() {
            rr & (len - 1)
        } else {
            rr % len
        };
        // The free VC with the smallest rotated distance, read off the
        // occupied-output-VC bitmask.
        let mut free = classes.mask[class] & !self.out_vc_used[o];
        let mut best: Option<(u8, u8)> = None;
        while free != 0 {
            let ov = free.trailing_zeros() as u8;
            free &= free - 1;
            // (ov − first − start) mod len, both below len.
            let offset = ov - first;
            let dist = if offset >= start {
                offset - start
            } else {
                offset + len - start
            };
            if best.is_none_or(|(d, _)| dist < d) {
                best = Some((dist, ov));
            }
        }
        if let Some((_, ov)) = best {
            self.out_owner[o][ov as usize] = Some((p as u8, v as u8));
            self.out_vc_used[o] |= 1 << ov;
            self.va_rr[o] = rr.wrapping_add(1);
            self.in_state[p][v] = InVc {
                active: true,
                out_port,
                out_vc: ov,
                ..InVc::default()
            };
            self.va_clear(p, v);
            self.sa_set(p, v);
        }
    }

    /// Switch allocation (separable, input-first) and traversal:
    /// input arbitration rotates over each requesting port's live-VC
    /// bitmask, winners are gathered into per-output request lists, and
    /// each output picks the requester closest to its round-robin
    /// pointer. Writes ejections, forwards and upstream credits into
    /// `out`.
    pub(crate) fn switch_allocate_and_traverse(
        &mut self,
        config: &SimConfig,
        out: &mut TraversalOutput,
    ) {
        let in_ports = self.buffers.len();
        debug_assert!(self.touched_outputs.is_empty(), "scratch leaked");
        // Input arbitration over requesting ports only.
        for w in 0..self.sa_ports.len() {
            let mut word = self.sa_ports[w];
            while word != 0 {
                let p = (w << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                let start = u32::from(self.sa_in_rr[p]);
                // Rotating the request mask right by `start` orders its
                // bits like the round-robin probe sequence
                // `(start + i) % vcs` (bits below `start` wrap to the
                // top).
                let mut rot = self.sa_mask[p].rotate_right(start);
                while rot != 0 {
                    let v = ((rot.trailing_zeros() + start) & 63) as usize;
                    rot &= rot - 1;
                    let state = self.in_state[p][v];
                    let o = state.out_port as usize;
                    let is_ejection = o == self.ejection_port();
                    if !is_ejection && self.credits[o][state.out_vc as usize] == 0 {
                        continue;
                    }
                    if self.out_requests[o].is_empty() {
                        self.touched_outputs.push(o as u8);
                    }
                    self.out_requests[o].push((p as u8, v as u8));
                    break;
                }
            }
        }
        // Output arbitration + traversal, in ascending output-port
        // order.
        self.touched_outputs.sort_unstable();
        let touched = std::mem::take(&mut self.touched_outputs);
        for &o in &touched {
            let o = o as usize;
            let start = usize::from(self.sa_out_rr[o]);
            let mut requests = std::mem::take(&mut self.out_requests[o]);
            // The requester with the smallest rotated distance is the
            // first the round-robin probe `(start + i) % in_ports`
            // would hit. Input ports are distinct, so the minimum is
            // unique.
            let &(p, v) = requests
                .iter()
                .min_by_key(|&&(p, _)| {
                    // (p − start) mod in_ports, both below in_ports.
                    let p = p as usize;
                    if p >= start {
                        p - start
                    } else {
                        p + in_ports - start
                    }
                })
                .expect("touched output has a request");
            requests.clear();
            self.out_requests[o] = requests;
            self.traverse_winner(o, p as usize, v as usize, config, out);
        }
        let mut touched = touched;
        touched.clear();
        self.touched_outputs = touched;
    }

    /// Moves the switch winner `(p, v) → o` through the crossbar:
    /// credits, VC bookkeeping, request-state updates and the
    /// ejection/forward report.
    fn traverse_winner(
        &mut self,
        o: usize,
        p: usize,
        v: usize,
        config: &SimConfig,
        out: &mut TraversalOutput,
    ) {
        let in_ports = self.buffers.len();
        let state = self.in_state[p][v];
        let mut flit = self.buffers[p][v].pop_front().expect("nonempty");
        self.occupied -= 1;
        // Both pointers advance to the winner's successor, wrapping.
        self.sa_in_rr[p] = if v + 1 == config.num_vcs as usize {
            0
        } else {
            v as u8 + 1
        };
        self.sa_out_rr[o] = if p + 1 == in_ports { 0 } else { p as u8 + 1 };
        if p < self.in_channels.len() {
            // Return a credit upstream.
            out.credits.push((self.in_channels[p], flit.vc));
        } else if flit.is_tail {
            // The injection port has no upstream; its next packet, if
            // one waits, takes the departed one's place before the next
            // cycle.
            out.injection_freed = true;
        }
        let now_empty = self.buffers[p][v].is_empty();
        if o == self.ejection_port() {
            if flit.is_tail {
                self.in_state[p][v].active = false;
                self.sa_clear(p, v);
                if !now_empty {
                    // The next packet's head is at the front now.
                    self.va_set(p, v);
                }
            } else if now_empty {
                self.sa_clear(p, v);
            }
            out.ejected.push(flit);
            return;
        }
        let out_channel = self.out_channels[o];
        flit.vc = state.out_vc;
        flit.hop += 1;
        self.credits[o][state.out_vc as usize] -= 1;
        if flit.is_tail {
            self.out_owner[o][state.out_vc as usize] = None;
            self.out_vc_used[o] &= !(1u64 << state.out_vc);
            self.in_state[p][v].active = false;
            self.sa_clear(p, v);
            if !now_empty {
                self.va_set(p, v);
            }
        } else if now_empty {
            self.sa_clear(p, v);
        }
        out.forwards.push((out_channel, flit));
    }

    /// Returns the router to its just-constructed state: empty buffers,
    /// no reservations, full credits, zeroed round-robin pointers and
    /// cleared request bitmasks — without releasing any allocation, so
    /// a [`crate::Network::reset`] between sweep cells reuses every
    /// buffer's capacity instead of re-allocating it. The post-reset
    /// state is indistinguishable from [`Router::new`]'s (capacity
    /// aside), which is what makes reset-reuse bit-identical to fresh
    /// construction.
    pub(crate) fn reset(&mut self, config: &SimConfig) {
        for port in &mut self.buffers {
            for buffer in port {
                buffer.clear();
            }
        }
        for port in &mut self.in_state {
            port.fill(InVc::default());
        }
        for port in &mut self.out_owner {
            port.fill(None);
        }
        for port in &mut self.credits {
            port.fill(config.buffer_depth);
        }
        self.va_rr.fill(0);
        self.sa_in_rr.fill(0);
        self.sa_out_rr.fill(0);
        self.occupied = 0;
        self.va_mask.fill(0);
        self.va_ports.fill(0);
        self.sa_mask.fill(0);
        self.sa_ports.fill(0);
        self.out_vc_used.fill(0);
        // Per-cycle scratch is already empty after any completed cycle;
        // clear defensively so reset never depends on that invariant.
        for requests in &mut self.out_requests {
            requests.clear();
        }
        self.touched_outputs.clear();
        self.sinking.fill(0);
    }

    /// Asserts every cross-structure invariant of the router's state —
    /// the consistency contract the request-driven allocator relies on.
    /// Called per cycle by [`Network::run_validated`]
    /// (`crate::Network::run_validated`); panics with a description on
    /// the first violation.
    pub(crate) fn assert_consistent(&self, config: &SimConfig) {
        let vcs = config.num_vcs as usize;
        let packet_len = config.packet_len as usize;
        let inj = self.injection_port();
        let mut total = 0;
        for (p, port) in self.buffers.iter().enumerate() {
            for (v, buffer) in port.iter().enumerate() {
                total += buffer.len();
                // Network inputs are credit-limited to the buffer depth;
                // the injection buffer holds at most one packet.
                let limit = if p == inj {
                    packet_len
                } else {
                    config.buffer_depth as usize
                };
                assert!(
                    buffer.len() <= limit,
                    "buffer [{p}][{v}] over its limit of {limit}: {}",
                    buffer.len()
                );
                let state = self.in_state[p][v];
                assert!(
                    !state.routed
                        || (!state.active && buffer.front().is_some_and(|flit| flit.is_head)),
                    "cached route at [{p}][{v}] without a waiting head: {state:?}"
                );
                let sa_bit = self.sa_mask[p] & (1 << v) != 0;
                assert_eq!(
                    sa_bit,
                    state.active && !buffer.is_empty(),
                    "sa_mask[{p}] bit {v} vs active {} / occupancy {}",
                    state.active,
                    buffer.len()
                );
                let va_bit = self.va_mask[p] & (1 << v) != 0;
                if va_bit {
                    assert!(
                        !state.active && !buffer.is_empty(),
                        "va_mask bit [{p}][{v}] without a waiting front"
                    );
                } else {
                    assert!(
                        state.active || buffer.is_empty(),
                        "lost VA request at [{p}][{v}]"
                    );
                }
                if state.active && state.out_port as usize != self.ejection_port() {
                    assert_eq!(
                        self.out_owner[state.out_port as usize][state.out_vc as usize],
                        Some((p as u8, v as u8)),
                        "in_state [{p}][{v}] reservation not reflected in out_owner"
                    );
                }
            }
            let port_bit = self.sa_ports[p >> 6] & (1 << (p & 63)) != 0;
            assert_eq!(port_bit, self.sa_mask[p] != 0, "sa_ports bit {p} stale");
            let port_bit = self.va_ports[p >> 6] & (1 << (p & 63)) != 0;
            assert_eq!(port_bit, self.va_mask[p] != 0, "va_ports bit {p} stale");
            for (v, slot) in port.iter().enumerate().take(vcs) {
                if self.sinking[p] & (1 << v) != 0 {
                    assert!(
                        slot.is_empty() && !self.in_state[p][v].active,
                        "sinking VC [{p}][{v}] must stay empty and inactive"
                    );
                }
            }
        }
        assert_eq!(total as u32, self.occupied, "occupancy counter drifted");
        for (o, owners) in self.out_owner.iter().enumerate() {
            for (ov, owner) in owners.iter().enumerate() {
                assert!(
                    self.credits[o][ov] <= config.buffer_depth,
                    "credits[{o}][{ov}] exceed buffer depth: {}",
                    self.credits[o][ov]
                );
                let used_bit = self.out_vc_used[o] & (1 << ov) != 0;
                assert_eq!(used_bit, owner.is_some(), "out_vc_used[{o}] bit {ov} stale");
                if let Some((p, v)) = *owner {
                    let state = self.in_state[p as usize][v as usize];
                    assert!(
                        state.active && state.out_port as usize == o && state.out_vc as usize == ov,
                        "out_owner[{o}][{ov}] = ({p}, {v}) but in_state disagrees: {state:?}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    /// A router at tile 0 with two network ports (channels 0/1 in,
    /// 2/3 out) besides injection/ejection.
    fn router(config: &SimConfig) -> Router {
        let channels = |ids: [u32; 2]| ids.map(ChannelId::new).to_vec();
        Router::new(TileId::new(0), channels([0, 1]), channels([2, 3]), config)
    }

    fn config(packet_len: u16) -> SimConfig {
        SimConfig {
            packet_len,
            ..SimConfig::fast_test()
        }
    }

    /// One allocation + traversal visit with every head routed to
    /// `port`, returning each forward's credit at once. Refills a freed
    /// injection buffer from `source` the way the network does.
    fn step(
        router: &mut Router,
        config: &SimConfig,
        port: u8,
        source: &mut VecDeque<(u32, u32)>,
    ) -> (Vec<Flit>, bool) {
        let classes = VcClassTable::new(config, 1);
        let mut out = TraversalOutput::default();
        router.vc_allocate_with(&classes, |_, _| (port, 0), &mut out);
        router.switch_allocate_and_traverse(config, &mut out);
        for (_, flit) in &out.forwards {
            router.credits[port as usize][flit.vc as usize] += 1;
        }
        if out.injection_freed {
            assert!(!router.injection_busy());
            if let Some((dst, created)) = source.pop_front() {
                router.fill_injection_buffer(TileId::new(dst), created, config.packet_len);
            }
        }
        router.assert_consistent(config);
        let forwards = out.forwards.into_iter().map(|(_, flit)| flit).collect();
        (forwards, out.injection_freed)
    }

    #[test]
    fn injection_buffer_refills_as_the_tail_leaves() {
        for packet_len in [1u16, 4] {
            let config = config(packet_len);
            let mut router = router(&config);
            let inj = router.injection_port();
            let mut source: VecDeque<(u32, u32)> = (0..3u32).map(|k| (10 + k, 100 + k)).collect();
            let (dst, created) = source.pop_front().expect("three packets");
            router.fill_injection_buffer(TileId::new(dst), created, packet_len);
            router.assert_consistent(&config);
            assert!(router.injection_busy());
            assert_eq!(router.buffers[inj][0].len(), packet_len as usize);
            assert_eq!(router.occupied, u32::from(packet_len));
            // One flit leaves per visit; the buffer is back to a whole
            // packet the moment a tail has left, never in between.
            let mut sent = Vec::new();
            for visit in 1..=3 * packet_len {
                let (forwards, freed) = step(&mut router, &config, 0, &mut source);
                sent.extend(forwards);
                assert_eq!(sent.len(), visit as usize, "len {packet_len} visit {visit}");
                assert_eq!(
                    freed,
                    visit % packet_len == 0,
                    "len {packet_len} visit {visit}"
                );
                let packets_left = 3 - visit / packet_len;
                let expected = match visit % packet_len {
                    0 if packets_left == 0 => 0,
                    0 => packet_len,
                    gone => packet_len - gone,
                };
                assert_eq!(router.buffers[inj][0].len(), expected as usize);
                assert_eq!(router.occupied, u32::from(expected));
            }
            assert!(!router.has_occupied_buffers());
            // Flits left in injection order, stamped per packet.
            let stamps: Vec<(usize, u32)> =
                sent.iter().map(|f| (f.dst.index(), f.created)).collect();
            let expected: Vec<(usize, u32)> = (0..3u32)
                .flat_map(|k| std::iter::repeat_n((10 + k as usize, 100 + k), packet_len as usize))
                .collect();
            assert_eq!(stamps, expected);
            let tails = sent.iter().filter(|f| f.is_tail).count();
            assert_eq!((tails, sent.iter().filter(|f| f.is_head).count()), (3, 3));
        }
    }

    #[test]
    fn reset_with_a_queued_source_matches_fresh_construction() {
        let config = config(4);
        let mut used = router(&config);
        let mut source: VecDeque<(u32, u32)> = (0..5u32).map(|k| (3, k)).collect();
        used.fill_injection_buffer(TileId::new(3), 9, 4);
        for _ in 0..6 {
            let _ = step(&mut used, &config, 1, &mut source);
        }
        assert!(used.injection_busy(), "a packet must be mid-way out");
        used.reset(&config);
        used.assert_consistent(&config);
        assert_eq!(format!("{used:?}"), format!("{:?}", router(&config)));
    }
    #[test]
    fn blocked_head_routes_once_until_the_table_changes() {
        // One VC: a packet from network port 0 owns output 0's only VC,
        // so the injected head behind it is blocked.
        let config = SimConfig {
            num_vcs: 1,
            ..config(2)
        };
        let classes = VcClassTable::new(&config, 1);
        let mut router = router(&config);
        let inj = router.injection_port();
        let mut out = TraversalOutput::default();
        let mut blocker = Flit::packet(TileId::new(7), TileId::new(9), 2, 0);
        router.enqueue(0, 0, blocker.next().expect("head"));
        router.vc_allocate_with(&classes, |_, _| (0, 0), &mut out);
        assert_eq!(router.out_owner[0][0], Some((0, 0)));

        let queries = Cell::new(0);
        let table = Cell::new(0u8);
        let route = |_: &Router, flit: &Flit| {
            assert_eq!(flit.dst.index(), 5, "only the injected head is routed");
            queries.set(queries.get() + 1);
            (table.get(), 0)
        };
        router.fill_injection_buffer(TileId::new(5), 1, 2);
        for _ in 0..4 {
            router.vc_allocate_with(&classes, route, &mut out);
            router.assert_consistent(&config);
            assert!(!router.in_state[inj][0].active);
        }
        assert_eq!(queries.get(), 1, "a blocked head is retried from the cache");
        // A fault epoch swaps the table: the head must take the new
        // table's port, not the cached one.
        table.set(1);
        router.forget_routes();
        router.vc_allocate_with(&classes, route, &mut out);
        router.assert_consistent(&config);
        assert_eq!(queries.get(), 2);
        let state = router.in_state[inj][0];
        assert!(state.active && state.out_port == 1, "{state:?}");
        assert_eq!(router.out_owner[1][0], Some((inj as u8, 0)));
    }

    #[test]
    fn unroutable_source_packets_sink_one_by_one() {
        let config = config(4);
        let classes = VcClassTable::new(&config, 1);
        let mut router = router(&config);
        let mut out = TraversalOutput::default();
        for created in 50..53u32 {
            router.fill_injection_buffer(TileId::new(9), created, 4);
            router.vc_allocate_with(&classes, |_, _| (NO_ROUTE, 0), &mut out);
            router.assert_consistent(&config);
            assert!(std::mem::take(&mut out.injection_freed), "packet {created}");
            assert!(!router.has_occupied_buffers());
        }
        assert_eq!(out.dropped, [50, 51, 52]);
        assert!(out.credits.is_empty(), "the injection port has no upstream");
    }
}
