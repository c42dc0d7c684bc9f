//! The immutable geometry of the struct-of-arrays core: flat slot
//! index spaces with precomputed strides.
//!
//! The object model ([`crate::router::Router`]) stores per-router
//! `Vec<Vec<...>>` state; the batched core instead addresses every
//! input port, output port and virtual channel in the whole network
//! through four flat index spaces, all derived here once per topology:
//!
//! * **in-slot** — one per (router, input port), laid out router-major
//!   via the [`CoreLayout::in_base`] prefix sums,
//! * **out-slot** — one per (router, output port), via
//!   [`CoreLayout::out_base`],
//! * **in-VC** — `in_slot · vcs + vc`,
//! * **out-VC** — `out_slot · vcs + vc`.
//!
//! Port enumeration is byte-for-byte the one `Network::new` performs
//! (neighbor order defines network ports, the extra last port is
//! injection/ejection), so a flit's routed port numbers mean the same
//! thing in both engines. Routing lookups are O(1) here: the reference
//! resolves a path hop's channel to an output port with a linear
//! `position` search over the router's channel list; the layout
//! precomputes that same mapping in [`CoreLayout::ch_src`].

use shg_topology::{
    routing::{RouteForm, Routes},
    ChannelId, TileId, Topology,
};
use shg_units::Cycles;

use crate::config::{SimConfig, VcClassTable};
use crate::flit::Flit;

/// Sentinel for "no channel": the injection in-slot has no upstream
/// channel to credit, the ejection out-slot has no downstream link.
pub(crate) const NO_CHANNEL: usize = usize::MAX;

/// Precomputed strides, channel endpoints and routing tables shared by
/// every lane of a batch. Immutable after construction.
#[derive(Debug)]
pub(crate) struct CoreLayout<'a> {
    pub(crate) topology: &'a Topology,
    pub(crate) routes: &'a Routes,
    /// Template configuration (per-lane runs override `seed`).
    pub(crate) config: SimConfig,
    pub(crate) vcs: usize,
    pub(crate) n_routers: usize,
    pub(crate) n_channels: usize,
    /// In-slot base per router (prefix sums; `len == n_routers + 1`).
    /// Router `r` owns in-ports `0..in_base[r+1] - in_base[r]`, the
    /// last one being its injection port.
    pub(crate) in_base: Vec<usize>,
    /// Out-slot twin of `in_base`; the last port is ejection.
    pub(crate) out_base: Vec<usize>,
    /// Channel → `(router, in_port)` it delivers into.
    pub(crate) ch_dst: Vec<(usize, usize)>,
    /// Channel → `(router, out_port)` it leaves from — also the O(1)
    /// routing lookup replacing the reference's `position` search.
    pub(crate) ch_src: Vec<(usize, usize)>,
    /// In-slot → its incoming channel ([`NO_CHANNEL`] for injection
    /// ports); the credit-return target of a traversal.
    pub(crate) islot_channel: Vec<usize>,
    /// Out-slot → its outgoing channel ([`NO_CHANNEL`] for ejection).
    pub(crate) oslot_channel: Vec<usize>,
    /// Effective per-channel latency: floorplan link latency plus
    /// router pipeline overhead (identical to `Network::latency`).
    pub(crate) latency: Vec<u64>,
    /// Per VC class: first VC of the class's range.
    pub(crate) class_start: Vec<u8>,
    /// Per VC class: number of VCs in the range.
    pub(crate) class_len: Vec<u8>,
    /// Per VC class: bitmask of the range's VCs.
    pub(crate) class_mask: Vec<u64>,
}

impl<'a> CoreLayout<'a> {
    /// Builds the layout. Panics under exactly the conditions
    /// `Network::new` panics (latency count, VC-class budget, VC cap,
    /// clock range).
    pub(crate) fn new(
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
        let vcs = config.num_vcs as usize;
        let VcClassTable {
            start: class_start,
            len: class_len,
            mask: class_mask,
        } = VcClassTable::new(&config, routes.num_vc_classes());
        let n = topology.num_tiles();
        let n_channels = topology.num_channels();
        let mut in_base = Vec::with_capacity(n + 1);
        let mut out_base = Vec::with_capacity(n + 1);
        let mut ch_dst = vec![(0usize, 0usize); n_channels];
        let mut ch_src = vec![(0usize, 0usize); n_channels];
        let mut islot_channel = Vec::new();
        let mut oslot_channel = Vec::new();
        in_base.push(0);
        out_base.push(0);
        for t in 0..n {
            let tile = TileId::new(t as u32);
            for (ports, &(_, link)) in topology.neighbors(tile).iter().enumerate() {
                let out = topology.channel_from(tile, link);
                // The paired reverse channel is this router's input.
                let reverse = ChannelId::new(out.id.index() as u32 ^ 1);
                ch_src[out.id.index()] = (t, ports);
                ch_dst[reverse.index()] = (t, ports);
                islot_channel.push(reverse.index());
                oslot_channel.push(out.id.index());
            }
            // The extra last port: injection on the input side, ejection
            // on the output side.
            islot_channel.push(NO_CHANNEL);
            oslot_channel.push(NO_CHANNEL);
            in_base.push(islot_channel.len());
            out_base.push(oslot_channel.len());
        }
        let latency = (0..n_channels)
            .map(|c| {
                link_latencies[ChannelId::new(c as u32).link().index()].value()
                    + u64::from(config.router_overhead)
            })
            .collect();
        Self {
            topology,
            routes,
            config,
            vcs,
            n_routers: n,
            n_channels,
            in_base,
            out_base,
            ch_dst,
            ch_src,
            islot_channel,
            oslot_channel,
            latency,
            class_start,
            class_len,
            class_mask,
        }
    }

    /// Number of input ports of router `r` (network inputs + injection).
    #[inline]
    pub(crate) fn in_ports(&self, r: usize) -> usize {
        self.in_base[r + 1] - self.in_base[r]
    }

    /// Number of output ports of router `r` (network outputs + ejection).
    #[inline]
    pub(crate) fn out_ports(&self, r: usize) -> usize {
        self.out_base[r + 1] - self.out_base[r]
    }

    /// Router `r`'s injection port (its last input port).
    #[inline]
    pub(crate) fn injection_port(&self, r: usize) -> usize {
        self.in_ports(r) - 1
    }

    /// Router `r`'s ejection port (its last output port).
    #[inline]
    pub(crate) fn ejection_port(&self, r: usize) -> usize {
        self.out_ports(r) - 1
    }

    /// Global in-slot of `(router, in_port)`.
    #[inline]
    pub(crate) fn islot(&self, r: usize, p: usize) -> usize {
        self.in_base[r] + p
    }

    /// Global out-slot of `(router, out_port)`.
    #[inline]
    pub(crate) fn oslot(&self, r: usize, o: usize) -> usize {
        self.out_base[r] + o
    }

    /// Total in-slots across the network.
    #[inline]
    pub(crate) fn total_in_slots(&self) -> usize {
        *self.in_base.last().expect("prefix sums are non-empty")
    }

    /// Total out-slots across the network.
    #[inline]
    pub(crate) fn total_out_slots(&self) -> usize {
        *self.out_base.last().expect("prefix sums are non-empty")
    }

    /// The output port and VC class the head flit needs at router `r` —
    /// the core's `route_head`, with the channel→port `position` search
    /// replaced by the precomputed [`CoreLayout::ch_src`] map. `routes`
    /// is the *current* table — [`CoreLayout::routes`] until a fault
    /// epoch swaps in a degraded table (same port numbering, so
    /// `ch_src` stays valid).
    #[inline]
    pub(crate) fn route(&self, routes: &Routes, r: usize, flit: &Flit) -> (u8, u8) {
        if flit.dst.index() == r {
            return (self.ejection_port(r) as u8, 0);
        }
        if routes.form() != RouteForm::Dense {
            // Compact forms answer (out port, class) directly in the same
            // sorted-neighbor port numbering this layout was built with.
            return routes.port_and_class(
                TileId::new(r as u32),
                flit.src,
                flit.dst,
                flit.hop as usize,
            );
        }
        let path = routes.path(flit.src, flit.dst);
        let hop = &path[flit.hop as usize];
        let (src_router, out_port) = self.ch_src[hop.channel.index()];
        debug_assert_eq!(src_router, r, "flit at wrong router for its path");
        (out_port as u8, hop.vc_class)
    }
}
