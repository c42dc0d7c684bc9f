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
//! Every per-VC array (`buffers`, `in_state`, `out_owner`, `credits`) is
//! one flat `Vec` indexed `port * vcs + vc`.
//!
//! # Request-driven allocation
//!
//! The allocation stages never scan every input port × VC for a head
//! flit awaiting a VC or a buffered flit wanting the switch, nor every
//! output port × VC for a free output VC — that would cost
//! `O(ports × VCs)` per router visit even with a single flit resident.
//! The router keeps explicit sparse request state instead, updated
//! incrementally on enqueue, dequeue, credit return and VC
//! grant/release:
//!
//! * per-input-port bitmasks of VCs whose buffer front is a head that
//!   may win VC allocation now ([`Router::va_mask`], summarized by
//!   [`Router::va_ports`]),
//! * per-input-port bitmasks of VCs that may win the switch now — active,
//!   with buffered flits, and either ejecting or holding at least one
//!   credit on their output VC ([`Router::sa_mask`], summarized by
//!   [`Router::sa_ports`]) — gathered into per-output-port request
//!   lists each cycle ([`Router::out_requests`]),
//! * per-output-port bitmasks of occupied output VCs
//!   ([`Router::out_vc_used`]).
//!
//! A request that cannot succeed leaves the masks until the one event
//! that could let it succeed, which is exact because a failed probe
//! changes no state (round-robin pointers move only on grants):
//!
//! * **Parked heads.** A routed head that finds no free output VC of its
//!   class clears its VA bit and joins its output port's wait list
//!   ([`Router::va_waiters`]). It keeps failing until a VC on that port
//!   frees, so when a tail releases one, the port's waiters get their
//!   bits back and are probed on the next cycle; [`Router::forget_routes`]
//!   re-arms every waiter when a fault epoch swaps the table.
//! * **Credit-gated switch requests.** A VC with zero credits would be
//!   skipped by input arbitration until a credit arrives, so it has no SA
//!   bit: the bit clears when a traversal spends the last credit and is
//!   set again by [`Router::return_credit`] on a 0 → 1 arrival, for the
//!   output VC's current owner. Input arbitration reads no credits.
//!
//! Both stages walk only the live requests, in the order an exhaustive
//! scan would probe them: ascending `(port, VC)` for VC allocation,
//! round-robin rotation from each arbiter's pointer for switch
//! allocation and output-VC grants. A router without a live request
//! does nothing in its visit, which is what lets the network skip it
//! ([`Router::has_requests`]). [`Router::assert_consistent`] checks every
//! cycle of a validated run that the request state and the wait lists
//! mirror the buffers and credits exactly
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
struct InVc {
    /// `true` while a packet holds this VC's output reservation.
    active: bool,
    /// `true` while `out_port` and `class` cache the route of the head
    /// flit at the buffer front, which still awaits an output VC.
    routed: bool,
    /// Reserved (or, while `routed`, requested) output port.
    out_port: u8,
    /// Reserved output VC.
    out_vc: u8,
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
    /// Virtual channels per port: the stride of every per-VC array.
    vcs: usize,
    /// `buffers[in_port * vcs + vc]`.
    buffers: Vec<VecDeque<Flit>>,
    /// `in_state[in_port * vcs + vc]`.
    in_state: Vec<InVc>,
    /// `out_owner[out_port * vcs + vc]`: which (in_port, vc) holds the
    /// output VC.
    out_owner: Vec<Option<(u8, u8)>>,
    /// `credits[out_port * vcs + vc]`: free downstream buffer slots.
    credits: Vec<u16>,
    /// Round-robin pointer per output port for VC allocation.
    va_rr: Vec<u8>,
    /// Round-robin pointer per input port for switch allocation.
    sa_in_rr: Vec<u8>,
    /// Round-robin pointer per output port for switch allocation.
    sa_out_rr: Vec<u8>,
    /// `va_mask[in_port]`: VCs whose buffer front is a head that may win
    /// VC allocation now — not parked on a wait list.
    /// One `u64` per port (the class table rejects more than 64 VCs).
    va_mask: Vec<u64>,
    /// One bit per input port, set while `va_mask[port] != 0`.
    va_ports: Vec<u64>,
    /// `sa_mask[in_port]`: active VCs with buffered flits that eject or
    /// hold a credit — the input side's switch-allocation requests.
    sa_mask: Vec<u64>,
    /// One bit per input port, set while `sa_mask[port] != 0`.
    sa_ports: Vec<u64>,
    /// `out_vc_used[out_port]`: occupied output VCs — the bitmask twin
    /// of `out_owner`.
    out_vc_used: Vec<u64>,
    /// `va_waiters[out_port]`: parked heads `(in_port, vc)` routed to
    /// this output that found no free VC of their class, re-armed when
    /// a VC on the port frees.
    va_waiters: Vec<Vec<(u8, u8)>>,
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
            vcs,
            buffers: vec![VecDeque::new(); in_ports * vcs],
            in_state: vec![InVc::default(); in_ports * vcs],
            out_owner: vec![None; out_ports * vcs],
            credits: vec![config.buffer_depth; out_ports * vcs],
            va_rr: vec![0; out_ports],
            sa_in_rr: vec![0; in_ports],
            sa_out_rr: vec![0; out_ports],
            va_mask: vec![0; in_ports],
            va_ports: vec![0; in_ports.div_ceil(64)],
            sa_mask: vec![0; in_ports],
            sa_ports: vec![0; in_ports.div_ceil(64)],
            out_vc_used: vec![0; out_ports],
            va_waiters: vec![Vec::new(); out_ports],
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

    /// The buffer of input VC `(port, vc)`.
    #[inline]
    pub(crate) fn buffer(&self, port: usize, vc: usize) -> &VecDeque<Flit> {
        &self.buffers[port * self.vcs + vc]
    }

    /// Every buffered flit with its input port, in `(port, VC)` order.
    pub(crate) fn buffered_flits(&self) -> impl Iterator<Item = (usize, &Flit)> {
        let vcs = self.vcs;
        self.buffers
            .iter()
            .enumerate()
            .flat_map(move |(i, buffer)| buffer.iter().map(move |flit| (i / vcs, flit)))
    }

    /// Free downstream slots of output VC `(port, vc)`.
    #[inline]
    pub(crate) fn credit(&self, port: usize, vc: usize) -> u16 {
        self.credits[port * self.vcs + vc]
    }

    /// `true` while any VA or SA request bit is set — the active-set
    /// criterion: a router whose requests are all parked (or that has
    /// none) does nothing in its visit, and every event that arms a
    /// request re-activates it.
    #[inline]
    pub(crate) fn has_requests(&self) -> bool {
        self.va_ports.iter().chain(&self.sa_ports).any(|&w| w != 0)
    }

    /// `true` while any buffer holds a flit.
    #[cfg(test)]
    pub(crate) fn has_occupied_buffers(&self) -> bool {
        self.buffers.iter().any(|b| !b.is_empty())
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

    /// `true` if an active VC in `state` may cross the switch as far as
    /// flow control goes: it ejects, or its output VC holds a credit.
    #[inline]
    fn can_send(&self, state: InVc) -> bool {
        let o = state.out_port as usize;
        o == self.ejection_port() || self.credits[o * self.vcs + state.out_vc as usize] > 0
    }

    /// Gives every head parked on output `o`'s wait list its VA bit
    /// back.
    fn wake_waiters(&mut self, o: usize) {
        let mut waiters = std::mem::take(&mut self.va_waiters[o]);
        for (p, v) in waiters.drain(..) {
            self.va_set(p as usize, v as usize);
        }
        self.va_waiters[o] = waiters;
    }

    /// Enqueues a flit into input VC `(port, vc)`; `true` if it became a
    /// new request (the buffer was empty).
    pub(crate) fn enqueue(&mut self, port: usize, vc: usize, flit: Flit) -> bool {
        let i = port * self.vcs + vc;
        self.buffers[i].push_back(flit);
        // A new buffer front is a new request: a switch request if the
        // VC already holds an output reservation with a credit, otherwise
        // a head flit awaiting VC allocation.
        if self.buffers[i].len() != 1 {
            return false;
        }
        let state = self.in_state[i];
        if !state.active {
            self.va_set(port, vc);
        } else if self.can_send(state) {
            self.sa_set(port, vc);
        } else {
            return false;
        }
        true
    }

    /// Returns one credit to output VC `(port, vc)`; `true` if it armed
    /// a switch request — the credit count rose from zero and the VC's
    /// owner has flits waiting.
    pub(crate) fn return_credit(&mut self, port: usize, vc: usize) -> bool {
        let j = port * self.vcs + vc;
        self.credits[j] += 1;
        if self.credits[j] != 1 {
            return false;
        }
        let Some((p, v)) = self.out_owner[j] else {
            return false;
        };
        let (p, v) = (p as usize, v as usize);
        if self.buffers[p * self.vcs + v].is_empty() {
            return false;
        }
        self.sa_set(p, v);
        true
    }

    /// `true` while the injection buffer holds a packet: a packet this
    /// tile creates now must wait behind it.
    #[inline]
    pub(crate) fn injection_busy(&self) -> bool {
        !self.buffers[self.injection_port() * self.vcs].is_empty()
    }

    /// Puts one packet created at cycle `created` for `dst` into the
    /// empty injection buffer.
    pub(crate) fn fill_injection_buffer(&mut self, dst: TileId, created: u32, packet_len: u16) {
        debug_assert!(!self.injection_busy(), "injection buffer holds a packet");
        let inj = self.injection_port();
        // The tail that emptied the buffer released the VC, so the new
        // front is a head awaiting VC allocation.
        self.buffers[inj * self.vcs].extend(Flit::packet(self.tile, dst, packet_len, created));
        self.va_set(inj, 0);
    }

    /// Drops every cached head route and re-arms every parked head, so
    /// each waiting head is routed afresh — for a fault epoch that swaps
    /// the routing table.
    pub(crate) fn forget_routes(&mut self) {
        for state in &mut self.in_state {
            state.routed = false;
        }
        for o in 0..self.va_waiters.len() {
            self.wake_waiters(o);
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

    /// One (port, vc) step of VC allocation: routes the head flit at the
    /// slot's front (or reuses its cached route) and tries to grant it
    /// an output VC.
    fn consider_va(
        &mut self,
        p: usize,
        v: usize,
        classes: &VcClassTable,
        route: &impl Fn(&Router, &Flit) -> (u8, u8),
        out: &mut TraversalOutput,
    ) {
        let i = p * self.vcs + v;
        let state = self.in_state[i];
        if state.routed {
            // A parked head woken by a freed VC on its output: retry
            // from the cached route, flit and table untouched.
            self.grant_output_vc(p, v, state.out_port, state.class, classes);
            return;
        }
        let front = self.buffers[i].front().expect("VA request without a flit");
        debug_assert!(front.is_head, "VA request at a body flit");
        let (out_port, class) = route(&*self, front);
        if out_port == NO_ROUTE {
            // No surviving route to the destination (drain fault
            // policy): sink the packet here. Discard its buffered
            // flits (crediting upstream so senders drain), account the
            // drop on the tail, and keep sinking arrivals until the
            // tail shows up.
            self.va_clear(p, v);
            let mut saw_tail = false;
            while let Some(flit) = self.buffers[i].pop_front() {
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
                if !self.buffers[i].is_empty() {
                    // The next packet's head is at the front now.
                    self.va_set(p, v);
                }
            } else {
                self.sinking[p] |= 1 << v;
            }
            return;
        }
        if out_port as usize == self.ejection_port() {
            self.in_state[i] = InVc {
                active: true,
                out_port,
                ..InVc::default()
            };
            self.va_clear(p, v);
            self.sa_set(p, v);
            return;
        }
        self.in_state[i] = InVc {
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
    /// failure the head parks on the port's wait list until a VC there
    /// frees.
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
        self.va_clear(p, v);
        // The free VC with the smallest rotated distance, read off the
        // occupied-output-VC bitmask.
        let mut free = classes.mask[class] & !self.out_vc_used[o];
        if free == 0 {
            self.va_waiters[o].push((p as u8, v as u8));
            return;
        }
        let (first, len) = (classes.start[class], classes.len[class]);
        let rr = self.va_rr[o];
        let start = if len.is_power_of_two() {
            rr & (len - 1)
        } else {
            rr % len
        };
        let mut best = (u8::MAX, 0u8);
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
            if dist < best.0 {
                best = (dist, ov);
            }
        }
        let ov = best.1;
        self.out_owner[o * self.vcs + ov as usize] = Some((p as u8, v as u8));
        self.out_vc_used[o] |= 1 << ov;
        self.va_rr[o] = rr.wrapping_add(1);
        let state = InVc {
            active: true,
            out_port,
            out_vc: ov,
            ..InVc::default()
        };
        self.in_state[p * self.vcs + v] = state;
        if self.can_send(state) {
            self.sa_set(p, v);
        }
    }

    /// Switch allocation (separable, input-first) and traversal:
    /// input arbitration takes, per requesting port, the live VC first
    /// in round-robin order from the port's pointer; winners are gathered
    /// into per-output request lists, and each output picks the
    /// requester closest to its round-robin pointer. Writes ejections,
    /// forwards and upstream credits into `out`.
    pub(crate) fn switch_allocate_and_traverse(
        &mut self,
        config: &SimConfig,
        out: &mut TraversalOutput,
    ) {
        let in_ports = self.sa_mask.len();
        debug_assert!(self.touched_outputs.is_empty(), "scratch leaked");
        // Input arbitration over requesting ports only. Every requesting
        // VC can send, so the first in rotation order wins.
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
                let rot = self.sa_mask[p].rotate_right(start);
                let v = ((rot.trailing_zeros() + start) & 63) as usize;
                let o = self.in_state[p * self.vcs + v].out_port as usize;
                if self.out_requests[o].is_empty() {
                    self.touched_outputs.push(o as u8);
                }
                self.out_requests[o].push((p as u8, v as u8));
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
        let in_ports = self.sa_mask.len();
        let i = p * self.vcs + v;
        let state = self.in_state[i];
        let mut flit = self.buffers[i].pop_front().expect("nonempty");
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
        let now_empty = self.buffers[i].is_empty();
        if o == self.ejection_port() {
            if flit.is_tail {
                self.in_state[i].active = false;
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
        let j = o * self.vcs + state.out_vc as usize;
        flit.vc = state.out_vc;
        flit.hop += 1;
        self.credits[j] -= 1;
        if flit.is_tail {
            self.out_owner[j] = None;
            self.out_vc_used[o] &= !(1u64 << state.out_vc);
            self.wake_waiters(o);
            self.in_state[i].active = false;
            self.sa_clear(p, v);
            if !now_empty {
                self.va_set(p, v);
            }
        } else if now_empty || self.credits[j] == 0 {
            // Out of flits, or out of credits until one returns.
            self.sa_clear(p, v);
        }
        out.forwards.push((out_channel, flit));
    }

    /// Returns the router to its just-constructed state: empty buffers,
    /// no reservations, full credits, zeroed round-robin pointers,
    /// cleared request bitmasks and empty wait lists — without releasing
    /// any allocation, so a [`crate::Network::reset`] between sweep cells
    /// reuses every buffer's capacity instead of re-allocating it. The
    /// post-reset state is indistinguishable from [`Router::new`]'s
    /// (capacity aside), which is what makes reset-reuse bit-identical to
    /// fresh construction.
    pub(crate) fn reset(&mut self, config: &SimConfig) {
        for buffer in &mut self.buffers {
            buffer.clear();
        }
        self.in_state.fill(InVc::default());
        self.out_owner.fill(None);
        self.credits.fill(config.buffer_depth);
        self.va_rr.fill(0);
        self.sa_in_rr.fill(0);
        self.sa_out_rr.fill(0);
        self.va_mask.fill(0);
        self.va_ports.fill(0);
        self.sa_mask.fill(0);
        self.sa_ports.fill(0);
        self.out_vc_used.fill(0);
        for waiters in &mut self.va_waiters {
            waiters.clear();
        }
        // Per-cycle scratch is already empty after any completed cycle;
        // clear defensively so reset never depends on that invariant.
        for requests in &mut self.out_requests {
            requests.clear();
        }
        self.touched_outputs.clear();
        self.sinking.fill(0);
    }

    /// [`Router::reset`], except that the credit counters keep their
    /// values — for a router killed under the drain fault policy, whose
    /// outstanding credit returns are still in flight back to it.
    pub(crate) fn reset_keeping_credits(&mut self, config: &SimConfig) {
        let credits = std::mem::take(&mut self.credits);
        self.reset(config);
        self.credits = credits;
    }

    /// Asserts every cross-structure invariant of the router's state —
    /// the consistency contract the request-driven allocator relies on.
    /// Called per cycle by [`Network::run_validated`]
    /// (`crate::Network::run_validated`); panics with a description on
    /// the first violation.
    pub(crate) fn assert_consistent(&self, config: &SimConfig, classes: &VcClassTable) {
        let vcs = self.vcs;
        let packet_len = config.packet_len as usize;
        let inj = self.injection_port();
        // How often each input VC appears on a wait list.
        let mut parked = vec![0usize; self.in_state.len()];
        for (o, waiters) in self.va_waiters.iter().enumerate() {
            for &(p, v) in waiters {
                let (p, v) = (p as usize, v as usize);
                parked[p * vcs + v] += 1;
                let state = self.in_state[p * vcs + v];
                assert!(
                    state.routed && state.out_port as usize == o,
                    "wait list of output {o} holds [{p}][{v}], routed elsewhere: {state:?}"
                );
                assert_eq!(
                    classes.mask[state.class as usize] & !self.out_vc_used[o],
                    0,
                    "[{p}][{v}] parked on output {o}, which has a free VC of class {}",
                    state.class
                );
            }
        }
        for p in 0..self.va_mask.len() {
            for v in 0..vcs {
                let i = p * vcs + v;
                let buffer = &self.buffers[i];
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
                let state = self.in_state[i];
                assert!(
                    !state.routed
                        || (!state.active && buffer.front().is_some_and(|flit| flit.is_head)),
                    "cached route at [{p}][{v}] without a waiting head: {state:?}"
                );
                let sa_bit = self.sa_mask[p] & (1 << v) != 0;
                assert_eq!(
                    sa_bit,
                    state.active && !buffer.is_empty() && self.can_send(state),
                    "sa_mask[{p}] bit {v} vs active {} / occupancy {} / credit",
                    state.active,
                    buffer.len()
                );
                let va_bit = self.va_mask[p] & (1 << v) != 0;
                if va_bit {
                    assert!(
                        !state.active
                            && buffer.front().is_some_and(|flit| flit.is_head)
                            && parked[i] == 0,
                        "va_mask bit [{p}][{v}] without a waiting head, or parked too"
                    );
                } else if !state.active && !buffer.is_empty() {
                    assert!(
                        state.routed && parked[i] == 1,
                        "lost VA request at [{p}][{v}]: parked {} times",
                        parked[i]
                    );
                } else {
                    assert_eq!(parked[i], 0, "[{p}][{v}] parked without a waiting head");
                }
                if state.active && state.out_port as usize != self.ejection_port() {
                    assert_eq!(
                        self.out_owner[state.out_port as usize * vcs + state.out_vc as usize],
                        Some((p as u8, v as u8)),
                        "in_state [{p}][{v}] reservation not reflected in out_owner"
                    );
                }
                if self.sinking[p] & (1 << v) != 0 {
                    assert!(
                        buffer.is_empty() && !state.active,
                        "sinking VC [{p}][{v}] must stay empty and inactive"
                    );
                }
            }
            let port_bit = self.sa_ports[p >> 6] & (1 << (p & 63)) != 0;
            assert_eq!(port_bit, self.sa_mask[p] != 0, "sa_ports bit {p} stale");
            let port_bit = self.va_ports[p >> 6] & (1 << (p & 63)) != 0;
            assert_eq!(port_bit, self.va_mask[p] != 0, "va_ports bit {p} stale");
        }
        for (j, owner) in self.out_owner.iter().enumerate() {
            let (o, ov) = (j / vcs, j % vcs);
            assert!(
                self.credits[j] <= config.buffer_depth,
                "credits[{o}][{ov}] exceed buffer depth: {}",
                self.credits[j]
            );
            let used_bit = self.out_vc_used[o] & (1 << ov) != 0;
            assert_eq!(used_bit, owner.is_some(), "out_vc_used[{o}] bit {ov} stale");
            if let Some((p, v)) = *owner {
                let state = self.in_state[p as usize * vcs + v as usize];
                assert!(
                    state.active && state.out_port as usize == o && state.out_vc as usize == ov,
                    "out_owner[{o}][{ov}] = ({p}, {v}) but in_state disagrees: {state:?}"
                );
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

    fn buffered(router: &Router) -> usize {
        router.buffers.iter().map(VecDeque::len).sum()
    }

    fn parked(router: &Router, port: usize, vc: usize) -> bool {
        router.va_mask[port] & (1 << vc) == 0
            && router
                .va_waiters
                .iter()
                .flatten()
                .any(|&w| w == (port as u8, vc as u8))
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
            router.return_credit(port as usize, flit.vc as usize);
        }
        if out.injection_freed {
            assert!(!router.injection_busy());
            if let Some((dst, created)) = source.pop_front() {
                router.fill_injection_buffer(TileId::new(dst), created, config.packet_len);
            }
        }
        router.assert_consistent(config, &classes);
        let forwards = out.forwards.into_iter().map(|(_, flit)| flit).collect();
        (forwards, out.injection_freed)
    }

    #[test]
    fn injection_buffer_refills_as_the_tail_leaves() {
        for packet_len in [1u16, 4] {
            let config = config(packet_len);
            let classes = VcClassTable::new(&config, 1);
            let mut router = router(&config);
            let inj = router.injection_port();
            let mut source: VecDeque<(u32, u32)> = (0..3u32).map(|k| (10 + k, 100 + k)).collect();
            let (dst, created) = source.pop_front().expect("three packets");
            router.fill_injection_buffer(TileId::new(dst), created, packet_len);
            router.assert_consistent(&config, &classes);
            assert!(router.injection_busy());
            assert_eq!(router.buffer(inj, 0).len(), packet_len as usize);
            assert_eq!(buffered(&router), packet_len as usize);
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
                assert_eq!(router.buffer(inj, 0).len(), expected as usize);
                assert_eq!(buffered(&router), expected as usize);
            }
            assert!(!router.has_occupied_buffers());
            assert!(!router.has_requests());
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
        // Eight VCs leave state across several VCs and a non-zero
        // input round-robin pointer; one VC lets a head park behind the
        // injected packet's output VC.
        for num_vcs in [8u8, 1] {
            let config = SimConfig {
                num_vcs,
                ..config(4)
            };
            let classes = VcClassTable::new(&config, 1);
            let mut used = router(&config);
            let mut source: VecDeque<(u32, u32)> = (0..5u32).map(|k| (3, k)).collect();
            used.fill_injection_buffer(TileId::new(3), 9, 4);
            for _ in 0..6 {
                let _ = step(&mut used, &config, 1, &mut source);
            }
            assert!(used.injection_busy(), "a packet must be mid-way out");
            if num_vcs == 1 {
                let mut blocked = Flit::packet(TileId::new(7), TileId::new(9), 4, 0);
                used.enqueue(0, 0, blocked.next().expect("head"));
                let mut out = TraversalOutput::default();
                used.vc_allocate_with(&classes, |_, _| (1, 0), &mut out);
                assert!(parked(&used, 0, 0));
            } else {
                assert_ne!(used.sa_in_rr[used.injection_port()], 0);
            }
            used.reset(&config);
            used.assert_consistent(&config, &classes);
            assert_eq!(format!("{used:?}"), format!("{:?}", router(&config)));
        }
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
        assert_eq!(router.out_owner[0], Some((0, 0)));

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
            router.assert_consistent(&config, &classes);
            assert!(!router.in_state[inj * router.vcs].active);
            assert!(parked(&router, inj, 0));
        }
        assert_eq!(queries.get(), 1, "a blocked head is routed once");
        // A fault epoch swaps the table: the parked head is re-armed and
        // must take the new table's port, not the cached one.
        table.set(1);
        router.forget_routes();
        assert!(router.va_mask[inj] & 1 != 0 && router.va_waiters.iter().all(Vec::is_empty));
        router.assert_consistent(&config, &classes);
        router.vc_allocate_with(&classes, route, &mut out);
        router.assert_consistent(&config, &classes);
        assert_eq!(queries.get(), 2);
        let state = router.in_state[inj * router.vcs];
        assert!(state.active && state.out_port == 1, "{state:?}");
        assert_eq!(router.out_owner[router.vcs], Some((inj as u8, 0)));
    }

    #[test]
    fn parked_head_is_probed_again_the_cycle_after_its_output_frees() {
        let config = SimConfig {
            num_vcs: 1,
            ..config(2)
        };
        let classes = VcClassTable::new(&config, 1);
        let mut router = router(&config);
        let inj = router.injection_port();
        let mut out = TraversalOutput::default();
        let probes = Cell::new(0);
        let route = |_: &Router, _: &Flit| {
            probes.set(probes.get() + 1);
            (0, 0)
        };
        // A two-flit packet on network port 0 takes output 0's only VC;
        // the injected head behind it parks.
        let mut blocker = Flit::packet(TileId::new(7), TileId::new(9), 2, 0);
        router.enqueue(0, 0, blocker.next().expect("head"));
        router.fill_injection_buffer(TileId::new(5), 1, 2);
        router.vc_allocate_with(&classes, route, &mut out);
        assert_eq!(router.out_owner[0], Some((0, 0)));
        assert!(parked(&router, inj, 0));
        assert_eq!(probes.get(), 2);
        // The blocker's head leaves; its tail is still upstream, so the
        // VC stays taken and the parked head is not probed.
        for visit in 0..3 {
            router.vc_allocate_with(&classes, route, &mut out);
            router.switch_allocate_and_traverse(&config, &mut out);
            router.assert_consistent(&config, &classes);
            assert!(parked(&router, inj, 0), "visit {visit}");
        }
        assert_eq!(out.forwards.len(), 1, "only the blocker's head moved");
        assert_eq!(probes.get(), 2, "a parked head is not routed again");
        // The tail frees the VC in traversal: the waiter is re-armed at
        // once and wins the VC in the next VC allocation.
        assert!(router.enqueue(0, 0, blocker.next().expect("tail")));
        router.switch_allocate_and_traverse(&config, &mut out);
        router.assert_consistent(&config, &classes);
        assert_eq!(out.forwards.len(), 2);
        assert!(router.va_mask[inj] & 1 != 0 && router.va_waiters[0].is_empty());
        router.vc_allocate_with(&classes, route, &mut out);
        router.assert_consistent(&config, &classes);
        let state = router.in_state[inj * router.vcs];
        assert!(state.active && state.out_port == 0 && state.out_vc == 0);
        assert_eq!(router.out_owner[0], Some((inj as u8, 0)));
        assert_eq!(probes.get(), 2, "the woken head reuses its cached route");
    }

    #[test]
    fn a_vc_out_of_credits_requests_the_switch_again_on_the_first_credit() {
        let config = SimConfig {
            buffer_depth: 2,
            ..config(4)
        };
        let classes = VcClassTable::new(&config, 1);
        let mut router = router(&config);
        let inj = router.injection_port();
        let mut out = TraversalOutput::default();
        router.fill_injection_buffer(TileId::new(5), 1, 4);
        router.vc_allocate_with(&classes, |_, _| (1, 0), &mut out);
        let ov = router.in_state[inj * router.vcs].out_vc as usize;
        // Two flits spend both credits; the second takes the SA bit.
        for credits_left in [1u16, 0] {
            router.switch_allocate_and_traverse(&config, &mut out);
            router.assert_consistent(&config, &classes);
            assert_eq!(router.credits[router.vcs + ov], credits_left);
        }
        assert_eq!(router.buffer(inj, 0).len(), 2);
        assert_eq!(router.sa_mask[inj], 0);
        assert!(!router.has_requests(), "a credit-stalled VC is no request");
        router.switch_allocate_and_traverse(&config, &mut out);
        assert_eq!(out.forwards.len(), 2, "nothing moves without a credit");
        // The first credit back re-arms the owner; a second is only a
        // count.
        assert!(router.return_credit(1, ov));
        assert!(router.has_requests() && router.sa_mask[inj] == 1);
        assert!(!router.return_credit(1, ov));
        router.assert_consistent(&config, &classes);
        router.switch_allocate_and_traverse(&config, &mut out);
        router.assert_consistent(&config, &classes);
        assert_eq!(out.forwards.len(), 3);
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
            router.assert_consistent(&config, &classes);
            assert!(std::mem::take(&mut out.injection_freed), "packet {created}");
            assert!(!router.has_occupied_buffers());
        }
        assert_eq!(out.dropped, [50, 51, 52]);
        assert!(out.credits.is_empty(), "the injection port has no upstream");
    }
}
