//! Deterministic, deadlock-free, hop-minimal routing tables.
//!
//! The paper evaluates all topologies with "a routing algorithm that
//! minimizes the number of router-to-router hops" (Fig. 6 caption). This
//! module provides per-topology minimal routing that is *also* provably
//! deadlock-free via virtual-channel classes:
//!
//! * [`RoutingAlgorithm::RowColumn`] — route within the source row to the
//!   destination column, then within that column (mesh/XY, sparse Hamming,
//!   flattened butterfly). Within each 1D phase, paths are hop-minimal with
//!   at most two direction reversals; each reversal escalates the VC class,
//!   which makes the channel-dependency graph acyclic.
//! * [`RoutingAlgorithm::RingDateline`] — shorter way around the cycle,
//!   with a dateline VC-class bump (ring).
//! * [`RoutingAlgorithm::TorusDateline`] — dimension-ordered routing over
//!   the row/column cycles with a dateline class per dimension (torus,
//!   folded torus).
//! * [`RoutingAlgorithm::ECube`] — dimension-ordered bit-fixing (hypercube).
//! * [`RoutingAlgorithm::HopEscalation`] — generic minimal routing where
//!   the VC class equals the hop index (SlimNoC: diameter 2 ⇒ 2 classes).
//! * [`RoutingAlgorithm::Hierarchical`] — three-phase column / through-row
//!   / column routing for multi-die topologies (see the `hier` module docs),
//!   whose class count follows die-internal connectivity instead of
//!   network diameter.
//!
//! A [`Routes`] table comes in one of three storage forms
//! ([`RouteForm`]): the **dense** reference materializes every path as a
//! `Vec<Hop>` (O(n² · hops) memory — multi-GB at 10k tiles); the
//! **next-hop** form answers `(router, src, dst) → (out port, VC class)`
//! in O(1) from per-algorithm closed-form kernels and reconstructs paths
//! bit-identical to dense (enforced by the equivalence suite); the
//! **hierarchical** form is the next-hop analog for stitched multi-die
//! networks. Consumers that only step flits use [`Routes::port_and_class`];
//! per-path metrics stream over reconstructed paths via
//! [`Routes::for_each_hop`], and all-pairs sums (channel loads, mean hops,
//! zero-load delay) go through [`Routes::for_each_channel_use`], which
//! walks line banks instead of pairs where the kernel is line-separable.
//!
//! Every built [`Routes`] can be checked with [`Routes::is_deadlock_free`],
//! which constructs the channel/VC-class dependency graph and verifies
//! acyclicity.

mod dense;
mod hier;
mod line;
mod next_hop;

use serde::{Deserialize, Serialize};

use crate::grid::TileId;
use crate::topology::{ChannelId, Topology, TopologyKind};

use hier::HierTable;
use next_hop::NextHopTable;

/// One hop of a routed path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hop {
    /// The directed channel taken.
    pub channel: ChannelId,
    /// The tile reached after the hop.
    pub to: TileId,
    /// The virtual-channel class the flit must use on this channel.
    pub vc_class: u8,
}

/// The routing algorithm families provided by [`build_routes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoutingAlgorithm {
    /// Row phase then column phase; reversal-escalating VC classes.
    RowColumn,
    /// Shorter way around the Hamiltonian cycle; dateline class.
    RingDateline,
    /// Dimension-ordered routing over row/column cycles; dateline classes.
    TorusDateline,
    /// Dimension-ordered bit fixing on the hypercube.
    ECube,
    /// Generic BFS-minimal paths; VC class = hop index.
    HopEscalation,
    /// Column / through-row / column phases for multi-die topologies;
    /// per-phase class banks.
    Hierarchical,
}

/// The natural deadlock-free minimal algorithm for each topology kind.
#[must_use]
pub fn default_algorithm(kind: TopologyKind) -> RoutingAlgorithm {
    match kind {
        TopologyKind::Ring => RoutingAlgorithm::RingDateline,
        TopologyKind::Torus | TopologyKind::FoldedTorus => RoutingAlgorithm::TorusDateline,
        TopologyKind::Hypercube => RoutingAlgorithm::ECube,
        TopologyKind::SlimNoc | TopologyKind::Custom => RoutingAlgorithm::HopEscalation,
        TopologyKind::Mesh
        | TopologyKind::FlattenedButterfly
        | TopologyKind::Ruche
        | TopologyKind::SparseHamming => RoutingAlgorithm::RowColumn,
    }
}

/// Error returned when a routing table cannot be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildRoutesError {
    /// The algorithm does not apply to this topology (e.g. `RowColumn` on a
    /// graph whose rows are not connected within themselves).
    NotApplicable {
        /// The algorithm that failed.
        algorithm: RoutingAlgorithm,
        /// Explanation of the failure.
        reason: String,
    },
    /// The (sub)graph being routed is partitioned: some ordered pair of
    /// routable tiles has no surviving path. Raised instead of a panic by
    /// the BFS-based builders and by [`degraded_routes`] when a fault mask
    /// splits the network.
    Disconnected {
        /// Explanation naming a witness pair or component count.
        reason: String,
    },
}

impl std::fmt::Display for BuildRoutesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotApplicable { algorithm, reason } => {
                write!(f, "{algorithm:?} routing not applicable: {reason}")
            }
            Self::Disconnected { reason } => {
                write!(f, "network is disconnected: {reason}")
            }
        }
    }
}

impl std::error::Error for BuildRoutesError {}

/// The storage form of a [`Routes`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteForm {
    /// Every path materialized as a `Vec<Hop>`; the cross-checkable
    /// reference, O(n² · hops) memory.
    Dense,
    /// Compact per-algorithm kernels; O(1) hop queries, paths
    /// reconstructed on demand, bit-identical to [`RouteForm::Dense`].
    NextHop,
    /// The compact multi-die form ([`RoutingAlgorithm::Hierarchical`]),
    /// never requested directly: [`default_routes_with`] upgrades
    /// `NextHop` to it on multi-die topologies.
    Hierarchical,
}

impl RouteForm {
    /// The canonical spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Dense => "dense",
            Self::NextHop => "next-hop",
            Self::Hierarchical => "hierarchical",
        }
    }
}

impl std::fmt::Display for RouteForm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The storage behind a [`Routes`] table (see [`RouteForm`]).
#[derive(Debug, Clone, PartialEq)]
enum Table {
    Dense { paths: Vec<Vec<Hop>> },
    NextHop(NextHopTable),
    Hier(HierTable),
}

/// A complete deterministic routing table: one path per ordered tile pair.
///
/// # Examples
///
/// ```
/// use shg_topology::{generators, routing, Grid, TileId};
///
/// let mesh = generators::mesh(Grid::new(4, 4));
/// let routes = routing::build_routes(&mesh, routing::RoutingAlgorithm::RowColumn)
///     .expect("mesh routes");
/// assert_eq!(routes.path(TileId::new(0), TileId::new(15)).len(), 6);
/// assert!(routes.is_deadlock_free(&mesh));
///
/// // The compact form answers the same queries without materialized paths.
/// let compact = routing::build_routes_with(
///     &mesh,
///     routing::RoutingAlgorithm::RowColumn,
///     routing::RouteForm::NextHop,
/// )
/// .expect("mesh routes");
/// assert_eq!(
///     compact.path_vec(TileId::new(0), TileId::new(15)),
///     routes.path(TileId::new(0), TileId::new(15)),
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Routes {
    n: usize,
    algorithm: RoutingAlgorithm,
    num_vc_classes: u8,
    table: Table,
}

impl Routes {
    /// The path from `src` to `dst` (empty when `src == dst`).
    ///
    /// Only the dense form holds materialized paths; compact-form
    /// consumers use [`Routes::port_and_class`], [`Routes::for_each_hop`]
    /// or [`Routes::path_vec`].
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range, or on a non-dense form.
    #[must_use]
    pub fn path(&self, src: TileId, dst: TileId) -> &[Hop] {
        match &self.table {
            Table::Dense { paths } => &paths[src.index() * self.n + dst.index()],
            _ => panic!(
                "path() requires the dense route form (this is {})",
                self.form()
            ),
        }
    }

    /// The storage form of this table.
    #[must_use]
    pub fn form(&self) -> RouteForm {
        match &self.table {
            Table::Dense { .. } => RouteForm::Dense,
            Table::NextHop(_) => RouteForm::NextHop,
            Table::Hier(_) => RouteForm::Hierarchical,
        }
    }

    /// Number of VC classes the table requires. The simulator partitions
    /// its virtual channels into this many classes.
    #[must_use]
    pub fn num_vc_classes(&self) -> u8 {
        self.num_vc_classes
    }

    /// The algorithm that produced this table.
    #[must_use]
    pub fn algorithm(&self) -> RoutingAlgorithm {
        self.algorithm
    }

    /// `(out port, VC class)` at router `at` for a `src → dst` flit whose
    /// next hop is the `hop`-th of its path — the O(1) query the
    /// simulator's routing stage makes on compact forms. The out port is
    /// the channel's position in `at`'s sorted neighbor list, which is
    /// exactly how the simulator numbers router ports.
    ///
    /// # Panics
    ///
    /// Panics on the dense form (whose consumers read [`Routes::path`]
    /// and resolve ports from materialized channels), or if `at == dst`
    /// (ejection is not a routed hop).
    #[must_use]
    pub fn port_and_class(&self, at: TileId, src: TileId, dst: TileId, hop: usize) -> (u8, u8) {
        assert_ne!(at, dst, "ejection is not a routed hop");
        match &self.table {
            Table::Dense { .. } => {
                panic!("port_and_class() requires a compact route form (this is dense)")
            }
            Table::NextHop(t) => t.port_and_class(at.index(), src.index(), dst.index(), hop),
            Table::Hier(t) => t.port_and_class(at.index(), src.index(), dst.index(), hop),
        }
    }

    /// Streams the hops of `src → dst` in order without materializing the
    /// path. On compact forms this walks the table from `src`; the walk
    /// panics rather than livelocks if the table were ever inconsistent.
    pub fn for_each_hop(&self, src: TileId, dst: TileId, mut f: impl FnMut(Hop)) {
        match &self.table {
            Table::Dense { paths } => {
                for &hop in &paths[src.index() * self.n + dst.index()] {
                    f(hop);
                }
            }
            _ => {
                if src == dst {
                    return;
                }
                let (mut at, mut hop) = (src.index(), 0usize);
                while at != dst.index() {
                    assert!(hop < self.n, "routing walk exceeded {} hops", self.n);
                    let h = match &self.table {
                        Table::NextHop(t) => t.hop_at(at, src.index(), dst.index(), hop),
                        Table::Hier(t) => t.hop_at(at, src.index(), dst.index(), hop),
                        Table::Dense { .. } => unreachable!(),
                    };
                    f(h);
                    at = h.to.index();
                    hop += 1;
                }
            }
        }
    }

    /// The path from `src` to `dst`, materialized. Works on every form;
    /// on the dense form this clones the stored path.
    #[must_use]
    pub fn path_vec(&self, src: TileId, dst: TileId) -> Vec<Hop> {
        let mut hops = Vec::new();
        self.for_each_hop(src, dst, |hop| hops.push(hop));
        hops
    }

    /// Hop count from `src` to `dst`. O(1) on the dense and hierarchical
    /// forms and on the next-hop form's row-column kernel; a table walk
    /// on the other next-hop kernels.
    #[must_use]
    pub fn hop_count(&self, src: TileId, dst: TileId) -> usize {
        match &self.table {
            Table::Dense { paths } => paths[src.index() * self.n + dst.index()].len(),
            Table::Hier(t) if src != dst => t.hop_count(src.index(), dst.index()),
            Table::Hier(_) => 0,
            Table::NextHop(t) => t.hop_count(src.index(), dst.index()).unwrap_or_else(|| {
                let mut hops = 0;
                self.for_each_hop(src, dst, |_| hops += 1);
                hops
            }),
        }
    }

    /// Maximum hop count over all pairs (the routed diameter).
    #[must_use]
    pub fn max_hops(&self) -> usize {
        match &self.table {
            Table::Dense { paths } => paths.iter().map(Vec::len).max().unwrap_or(0),
            _ => self
                .pairs()
                .map(|(src, dst)| self.hop_count(src, dst))
                .max()
                .unwrap_or(0),
        }
    }

    /// Mean hop count over all ordered pairs of distinct tiles.
    #[must_use]
    pub fn average_hops(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let mut total = 0u64;
        self.for_each_channel_use(|_, uses| total += u64::from(uses));
        total as f64 / (self.n * (self.n - 1)) as f64
    }

    /// Physical length of the routed path, in tile units.
    #[must_use]
    pub fn physical_length(&self, topology: &Topology, src: TileId, dst: TileId) -> u32 {
        let mut length = 0;
        self.for_each_hop(src, dst, |hop| {
            length += topology.link_length(hop.channel.link());
        });
        length
    }

    /// `true` if every routed path is hop-minimal (equals the BFS
    /// distance).
    #[must_use]
    pub fn is_hop_minimal(&self, topology: &Topology) -> bool {
        for src in topology.grid().tiles() {
            let dist = topology.bfs_distances(src);
            for dst in topology.grid().tiles() {
                if self.hop_count(src, dst) as u32 != dist[dst.index()] {
                    return false;
                }
            }
        }
        true
    }

    /// `true` if every routed path's physical length equals the Manhattan
    /// distance between its endpoints — the "minimal paths used" column of
    /// Table I (design principle ❹b).
    #[must_use]
    pub fn minimal_paths_used(&self, topology: &Topology) -> bool {
        let grid = topology.grid();
        grid.tiles().all(|src| {
            grid.tiles()
                .all(|dst| self.physical_length(topology, src, dst) == grid.manhattan(src, dst))
        })
    }

    /// Visits every `(channel, multiplicity)` the all-pairs traffic uses:
    /// summed per channel, the multiplicities are the number of routed
    /// paths (one per ordered pair of distinct tiles) crossing it. A
    /// channel may be visited many times, in no particular order — this
    /// is the accumulation primitive behind [`Routes::channel_loads`],
    /// [`Routes::average_hops`] and the analytic performance estimates,
    /// which are all sums over it.
    ///
    /// Cost: on the next-hop form's row-column kernel (mesh, sparse
    /// Hamming, flattened butterfly, Ruche) paths separate into one row
    /// walk plus one column walk, each shared by a whole column of
    /// destinations or row of sources, so the pass visits
    /// O(n · (rows + cols) · hops) moves; every other kernel and form
    /// makes one pair-by-pair pass over its O(n² · hops) hops.
    pub fn for_each_channel_use(&self, mut f: impl FnMut(ChannelId, u32)) {
        match &self.table {
            Table::Dense { paths } => {
                for hop in paths.iter().flatten() {
                    f(hop.channel, 1);
                }
            }
            // The guard does the line-wise pass where the kernel allows one.
            Table::NextHop(t) if t.for_each_line_use(&mut f) => {}
            _ => {
                for (src, dst) in self.pairs() {
                    self.for_each_hop(src, dst, |hop| f(hop.channel, 1));
                }
            }
        }
    }

    /// Number of routed paths crossing each directed channel. Under
    /// uniform random traffic this is proportional to the expected channel
    /// load; the maximum entry bounds the saturation throughput.
    ///
    /// One [`Routes::for_each_channel_use`] pass: O(n · (rows + cols))
    /// list walks on row-column next-hop tables, O(n²) paths otherwise.
    #[must_use]
    pub fn channel_loads(&self, topology: &Topology) -> Vec<u32> {
        let mut loads = vec![0u32; topology.num_channels()];
        self.for_each_channel_use(|channel, uses| loads[channel.index()] += uses);
        loads
    }

    /// Verifies the structural integrity of every path: hops traverse real
    /// channels, consecutive hops connect, the path starts at `src` and
    /// ends at `dst`, and VC classes stay below `num_vc_classes`.
    #[must_use]
    pub fn validate(&self, topology: &Topology) -> bool {
        for src in topology.grid().tiles() {
            for dst in topology.grid().tiles() {
                if src == dst {
                    if let Table::Dense { paths } = &self.table {
                        if !paths[src.index() * self.n + dst.index()].is_empty() {
                            return false;
                        }
                    }
                    continue;
                }
                let mut at = src;
                let mut ok = true;
                self.for_each_hop(src, dst, |hop| {
                    let channel = topology.channel(hop.channel);
                    if channel.from != at
                        || channel.to != hop.to
                        || hop.vc_class >= self.num_vc_classes
                    {
                        ok = false;
                    }
                    at = hop.to;
                });
                if !ok || at != dst {
                    return false;
                }
            }
        }
        true
    }

    /// Builds the channel/VC-class dependency graph induced by all paths
    /// and checks it for cycles. Acyclicity implies the routing cannot
    /// deadlock under wormhole/VC flow control (Dally & Towles).
    ///
    /// Total on degraded tables: a pair with no surviving route (its
    /// first hop is [`NO_ROUTE`] — tiles a fault separated, or a dead
    /// router) carries no traffic and adds no dependency.
    #[must_use]
    pub fn is_deadlock_free(&self, topology: &Topology) -> bool {
        let classes = self.num_vc_classes as usize;
        let nodes = topology.num_channels() * classes;
        let key = |c: ChannelId, class: u8| c.index() * classes + class as usize;
        let mut edges: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); nodes];
        for (src, dst) in self.pairs() {
            if !matches!(self.table, Table::Dense { .. })
                && self.port_and_class(src, src, dst, 0).0 == NO_ROUTE
            {
                continue;
            }
            let mut prev: Option<Hop> = None;
            self.for_each_hop(src, dst, |hop| {
                if let Some(p) = prev {
                    edges[key(p.channel, p.vc_class)].insert(key(hop.channel, hop.vc_class));
                }
                prev = Some(hop);
            });
        }
        // Iterative three-color DFS cycle detection.
        let mut state = vec![0u8; nodes]; // 0 = white, 1 = gray, 2 = black
        for start in 0..nodes {
            if state[start] != 0 {
                continue;
            }
            let mut stack = vec![(start, false)];
            while let Some((node, processed)) = stack.pop() {
                if processed {
                    state[node] = 2;
                    continue;
                }
                if state[node] == 1 {
                    continue;
                }
                state[node] = 1;
                stack.push((node, true));
                for &next in &edges[node] {
                    match state[next] {
                        0 => stack.push((next, false)),
                        1 => return false, // back edge: cycle
                        _ => {}
                    }
                }
            }
        }
        true
    }

    /// A digest of what the table *routes* rather than how it stores it:
    /// equal across the dense and next-hop forms of one algorithm (whose
    /// paths are identical by construction and by the equivalence suite),
    /// different across algorithms. Sweep plans and the cell cache fold
    /// this in, so switching storage forms keeps cache entries warm while
    /// switching algorithms (e.g. to hierarchical) invalidates them.
    #[must_use]
    pub fn semantic_digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |bytes: &[u8]| {
            for &byte in bytes {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        };
        fold(&[self.algorithm as u8, self.num_vc_classes]);
        fold(&(self.n as u64).to_le_bytes());
        hash
    }

    /// Approximate resident heap bytes of the table storage.
    #[must_use]
    pub fn table_bytes(&self) -> usize {
        match &self.table {
            Table::Dense { paths } => {
                paths.len() * std::mem::size_of::<Vec<Hop>>()
                    + paths
                        .iter()
                        .map(|p| p.capacity() * std::mem::size_of::<Hop>())
                        .sum::<usize>()
            }
            Table::NextHop(t) => t.bytes(),
            Table::Hier(t) => t.bytes(),
        }
    }

    /// All ordered pairs of distinct tiles.
    fn pairs(&self) -> impl Iterator<Item = (TileId, TileId)> + '_ {
        (0..self.n).flat_map(move |s| {
            (0..self.n)
                .filter(move |&d| d != s)
                .map(move |d| (TileId::new(s as u32), TileId::new(d as u32)))
        })
    }
}

/// Builds a deterministic dense (reference-form) routing table for
/// `topology` with `algorithm`. [`RoutingAlgorithm::Hierarchical`] has no
/// dense form and always builds its compact table.
///
/// # Errors
///
/// Returns [`BuildRoutesError`] if the algorithm does not apply to the
/// topology's structure.
pub fn build_routes(
    topology: &Topology,
    algorithm: RoutingAlgorithm,
) -> Result<Routes, BuildRoutesError> {
    build_routes_with(topology, algorithm, RouteForm::Dense)
}

/// Builds a routing table for `topology` with `algorithm`, stored in
/// `form`. [`RouteForm::Hierarchical`] and
/// [`RoutingAlgorithm::Hierarchical`] each force the hierarchical table
/// regardless of the other parameter.
///
/// # Errors
///
/// Returns [`BuildRoutesError`] if the algorithm does not apply to the
/// topology's structure.
pub fn build_routes_with(
    topology: &Topology,
    algorithm: RoutingAlgorithm,
    form: RouteForm,
) -> Result<Routes, BuildRoutesError> {
    if algorithm == RoutingAlgorithm::Hierarchical || form == RouteForm::Hierarchical {
        return hier::build_hierarchical(topology);
    }
    match form {
        RouteForm::Dense => match algorithm {
            RoutingAlgorithm::RowColumn => dense::build_row_column(topology),
            RoutingAlgorithm::RingDateline => dense::build_ring_dateline(topology),
            RoutingAlgorithm::TorusDateline => dense::build_torus_dateline(topology),
            RoutingAlgorithm::ECube => dense::build_ecube(topology),
            RoutingAlgorithm::HopEscalation => dense::build_hop_escalation(topology),
            RoutingAlgorithm::Hierarchical => unreachable!("handled above"),
        },
        RouteForm::NextHop => next_hop::build_next_hop(topology, algorithm),
        RouteForm::Hierarchical => unreachable!("handled above"),
    }
}

/// Builds the default dense routing for the topology's kind.
///
/// # Errors
///
/// Returns [`BuildRoutesError`] if the default algorithm fails, which only
/// happens for custom topologies with exotic structure.
pub fn default_routes(topology: &Topology) -> Result<Routes, BuildRoutesError> {
    build_routes(topology, default_algorithm(topology.kind()))
}

/// Builds the default routing for the topology's kind, stored in `form`.
///
/// Requesting [`RouteForm::NextHop`] on a custom (typically stitched
/// multi-die) topology first tries the [`RoutingAlgorithm::Hierarchical`]
/// table — whose VC class count follows die-internal connectivity instead
/// of growing with network diameter — and falls back to the compact
/// hop-escalation table when the structure does not support it.
///
/// # Errors
///
/// Returns [`BuildRoutesError`] if no applicable algorithm remains.
pub fn default_routes_with(
    topology: &Topology,
    form: RouteForm,
) -> Result<Routes, BuildRoutesError> {
    match form {
        RouteForm::Dense => default_routes(topology),
        RouteForm::Hierarchical => build_routes_with(
            topology,
            RoutingAlgorithm::Hierarchical,
            RouteForm::Hierarchical,
        ),
        RouteForm::NextHop => {
            let algorithm = default_algorithm(topology.kind());
            if algorithm == RoutingAlgorithm::HopEscalation
                && topology.kind() == TopologyKind::Custom
            {
                if let Ok(routes) = build_routes_with(
                    topology,
                    RoutingAlgorithm::Hierarchical,
                    RouteForm::Hierarchical,
                ) {
                    return Ok(routes);
                }
            }
            build_routes_with(topology, algorithm, RouteForm::NextHop)
        }
    }
}

/// Sentinel out-port returned by [`Routes::port_and_class`] on a degraded
/// table when `dst` has no surviving route from `at`. Real ports are
/// positions in a tile's sorted neighbor list and stay well below this
/// (the builders reject radices that would collide).
pub const NO_ROUTE: u8 = u8::MAX;

/// Component id assigned to dead tiles in the component map returned by
/// [`degraded_routes_with_components`].
pub const NO_COMPONENT: u32 = u32::MAX;

/// Builds minimal routes over the surviving subgraph of `topology` after
/// faults: tiles with `alive_tile[t] == false` and directed channels with
/// `alive_channel[c] == false` are excluded. The table keeps the original
/// topology's port numbering (so a simulator mid-run can swap tables
/// without renumbering anything) and uses hop-escalation VC classes
/// clamped into `num_vc_classes` classes — pass the class count of the
/// table being replaced so the VC partition stays fixed across fault
/// epochs. Post-fault escalation-clamped routing is deterministic but not
/// provably deadlock-free; simulations bound runtime with their drain
/// limit.
///
/// Masks must be direction-symmetric (killing a link kills both directed
/// channels; killing a router kills all incident channels).
///
/// # Errors
///
/// Returns [`BuildRoutesError::Disconnected`] when the mask partitions
/// the surviving tiles. Use [`degraded_routes_with_components`] to route
/// *through* a partition instead (unreachable pairs answer
/// [`NO_ROUTE`]).
pub fn degraded_routes(
    topology: &Topology,
    alive_tile: &[bool],
    alive_channel: &[bool],
    num_vc_classes: u8,
) -> Result<Routes, BuildRoutesError> {
    let (routes, components) =
        degraded_routes_with_components(topology, alive_tile, alive_channel, num_vc_classes);
    let mut first: Option<(usize, u32)> = None;
    for (tile, &comp) in components.iter().enumerate() {
        if comp == NO_COMPONENT {
            continue;
        }
        match first {
            None => first = Some((tile, comp)),
            Some((witness, root)) if comp != root => {
                return Err(BuildRoutesError::Disconnected {
                    reason: format!(
                        "fault mask partitions the surviving network \
                         (tiles {witness} and {tile} are in different components)"
                    ),
                });
            }
            Some(_) => {}
        }
    }
    Ok(routes)
}

/// The lenient form of [`degraded_routes`]: always succeeds, returning
/// the degraded table plus one component id per tile (dead tiles get
/// [`NO_COMPONENT`]). Pairs in different components have no route —
/// [`Routes::port_and_class`] answers [`NO_ROUTE`] for them — so callers
/// gate traffic by comparing component ids instead of failing outright.
#[must_use]
pub fn degraded_routes_with_components(
    topology: &Topology,
    alive_tile: &[bool],
    alive_channel: &[bool],
    num_vc_classes: u8,
) -> (Routes, Vec<u32>) {
    next_hop::build_degraded(topology, alive_tile, alive_channel, num_vc_classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::grid::Grid;

    fn all_checks(topology: &Topology, routes: &Routes) {
        assert!(routes.validate(topology), "{topology}: invalid paths");
        assert!(
            routes.is_hop_minimal(topology),
            "{topology}: paths are not hop-minimal"
        );
        assert!(
            routes.is_deadlock_free(topology),
            "{topology}: channel dependency cycle"
        );
    }

    #[test]
    fn mesh_row_column_is_xy() {
        let grid = Grid::new(4, 4);
        let mesh = generators::mesh(grid);
        let routes = build_routes(&mesh, RoutingAlgorithm::RowColumn).expect("mesh");
        all_checks(&mesh, &routes);
        assert!(routes.minimal_paths_used(&mesh), "XY on mesh is minimal");
    }

    #[test]
    fn sparse_hamming_routes() {
        let grid = Grid::new(8, 8);
        let sr = [4].into_iter().collect();
        let sc = [2, 5].into_iter().collect();
        let shg = generators::row_column_skip(grid, &sr, &sc).expect("valid");
        let routes = build_routes(&shg, RoutingAlgorithm::RowColumn).expect("shg");
        all_checks(&shg, &routes);
    }

    #[test]
    fn flattened_butterfly_routes_use_minimal_paths() {
        let grid = Grid::new(8, 8);
        let fb = generators::flattened_butterfly(grid);
        let routes = build_routes(&fb, RoutingAlgorithm::RowColumn).expect("fb");
        all_checks(&fb, &routes);
        // Table I: minimal paths used ✓ for the flattened butterfly.
        assert!(routes.minimal_paths_used(&fb));
        assert_eq!(routes.max_hops(), 2);
    }

    #[test]
    fn ring_routes() {
        let grid = Grid::new(4, 4);
        let ring = generators::ring(grid);
        let routes = build_routes(&ring, RoutingAlgorithm::RingDateline).expect("ring");
        all_checks(&ring, &routes);
        assert_eq!(routes.max_hops(), 8); // R·C/2
        assert!(!routes.minimal_paths_used(&ring));
    }

    #[test]
    fn torus_routes() {
        let grid = Grid::new(4, 4);
        let torus = generators::torus(grid);
        let routes = build_routes(&torus, RoutingAlgorithm::TorusDateline).expect("torus");
        all_checks(&torus, &routes);
        assert_eq!(routes.max_hops(), 4); // R/2 + C/2
                                          // Table I: torus min-hop routing does not use physically minimal
                                          // paths (wrap links are physically long).
        assert!(!routes.minimal_paths_used(&torus));
    }

    #[test]
    fn folded_torus_routes() {
        let grid = Grid::new(8, 8);
        let ft = generators::folded_torus(grid);
        let routes = build_routes(&ft, RoutingAlgorithm::TorusDateline).expect("folded");
        all_checks(&ft, &routes);
        assert_eq!(routes.max_hops(), 8);
    }

    #[test]
    fn hypercube_routes() {
        let grid = Grid::new(8, 8);
        let hc = generators::hypercube(grid).expect("8x8");
        let routes = build_routes(&hc, RoutingAlgorithm::ECube).expect("ecube");
        all_checks(&hc, &routes);
        assert_eq!(routes.max_hops(), 6); // log2(64)
    }

    #[test]
    fn slimnoc_routes() {
        let grid = Grid::new(16, 8);
        let slim = generators::slim_noc(grid).expect("128 tiles");
        let routes = build_routes(&slim, RoutingAlgorithm::HopEscalation).expect("slim");
        all_checks(&slim, &routes);
        assert_eq!(routes.max_hops(), 2);
        assert_eq!(routes.num_vc_classes(), 2);
    }

    #[test]
    fn default_algorithms_cover_all_kinds() {
        let grid = Grid::new(8, 8);
        for topology in [
            generators::ring(grid),
            generators::mesh(grid),
            generators::torus(grid),
            generators::folded_torus(grid),
            generators::hypercube(grid).expect("8x8"),
            generators::flattened_butterfly(grid),
        ] {
            let routes = default_routes(&topology).expect("default routing");
            all_checks(&topology, &routes);
        }
    }

    #[test]
    fn channel_loads_sum_to_total_hops() {
        let grid = Grid::new(4, 4);
        let mesh = generators::mesh(grid);
        let routes = default_routes(&mesh).expect("mesh");
        let loads = routes.channel_loads(&mesh);
        let total: u32 = loads.iter().sum();
        let hops: usize = grid
            .tiles()
            .flat_map(|a| grid.tiles().map(move |b| (a, b)))
            .map(|(a, b)| routes.hop_count(a, b))
            .sum();
        assert_eq!(total as usize, hops);
    }

    #[test]
    fn average_hops_matches_metric() {
        let grid = Grid::new(6, 6);
        let mesh = generators::mesh(grid);
        let routes = default_routes(&mesh).expect("mesh");
        let metric = crate::metrics::average_hops(&mesh);
        assert!((routes.average_hops() - metric).abs() < 1e-9);
    }

    fn full_liveness(topology: &Topology) -> (Vec<bool>, Vec<bool>) {
        (
            vec![true; topology.num_tiles()],
            vec![true; topology.num_channels()],
        )
    }

    fn kill_link(topology: &Topology, channels: &mut [bool], a: u32, b: u32) {
        let want = crate::topology::Link::new(TileId::new(a), TileId::new(b));
        let link = topology
            .links()
            .iter()
            .position(|&l| l == want)
            .expect("link exists");
        channels[link * 2] = false;
        channels[link * 2 + 1] = false;
    }

    #[test]
    fn degraded_full_mask_matches_hop_escalation_paths() {
        let grid = Grid::new(4, 4);
        let mesh = generators::mesh(grid);
        let reference =
            build_routes_with(&mesh, RoutingAlgorithm::HopEscalation, RouteForm::NextHop)
                .expect("mesh");
        let (tiles, channels) = full_liveness(&mesh);
        let degraded = degraded_routes(&mesh, &tiles, &channels, reference.num_vc_classes())
            .expect("fully-alive mask is connected");
        assert_eq!(degraded.num_vc_classes(), reference.num_vc_classes());
        for src in grid.tiles() {
            for dst in grid.tiles() {
                assert_eq!(
                    degraded.path_vec(src, dst),
                    reference.path_vec(src, dst),
                    "{src} → {dst}"
                );
            }
        }
    }

    #[test]
    fn degraded_routes_avoid_a_dead_link() {
        let grid = Grid::new(4, 4);
        let mesh = generators::mesh(grid);
        let (tiles, mut channels) = full_liveness(&mesh);
        // Kill the 0 ↔ 1 link; tile 0 keeps its 0 ↔ 4 link.
        kill_link(&mesh, &mut channels, 0, 1);
        let routes = degraded_routes(&mesh, &tiles, &channels, 4).expect("mesh minus one link");
        let dead: Vec<ChannelId> = mesh
            .channels()
            .filter(|c| !channels[c.id.index()])
            .map(|c| c.id)
            .collect();
        for src in grid.tiles() {
            for dst in grid.tiles() {
                let mut at = src;
                routes.for_each_hop(src, dst, |hop| {
                    assert!(
                        !dead.contains(&hop.channel),
                        "{src} → {dst} uses a dead link"
                    );
                    at = hop.to;
                });
                assert_eq!(at, dst, "{src} → {dst} terminates");
            }
        }
        // The detour costs exactly one extra hop pair.
        assert_eq!(routes.hop_count(TileId::new(0), TileId::new(1)), 3);
    }

    #[test]
    fn degraded_dead_router_sinks_all_its_pairs() {
        let grid = Grid::new(4, 4);
        let mesh = generators::mesh(grid);
        let (mut tiles, mut channels) = full_liveness(&mesh);
        // Kill router 5 and all its incident channels (the symmetric mask
        // the simulator builds).
        tiles[5] = false;
        for &(n, _) in mesh.neighbors(TileId::new(5)) {
            kill_link(&mesh, &mut channels, 5, n.index() as u32);
        }
        let (routes, components) = degraded_routes_with_components(&mesh, &tiles, &channels, 4);
        assert_eq!(components[5], NO_COMPONENT);
        assert!(components
            .iter()
            .enumerate()
            .all(|(t, &c)| t == 5 || c == 0));
        // No surviving route to or from the dead router.
        let (port, _) = routes.port_and_class(TileId::new(0), TileId::new(0), TileId::new(5), 0);
        assert_eq!(port, NO_ROUTE);
        // Every surviving pair still routes.
        for src in grid.tiles().filter(|s| s.index() != 5) {
            for dst in grid.tiles().filter(|d| d.index() != 5 && *d != src) {
                let (port, _) = routes.port_and_class(src, src, dst, 0);
                assert_ne!(port, NO_ROUTE, "{src} → {dst}");
            }
        }
    }

    #[test]
    fn deadlock_check_skips_the_pairs_of_a_dead_router() {
        let grid = Grid::new(4, 4);
        let mesh = generators::mesh(grid);
        let (mut tiles, mut channels) = full_liveness(&mesh);
        tiles[5] = false;
        for &(n, _) in mesh.neighbors(TileId::new(5)) {
            kill_link(&mesh, &mut channels, 5, n.index() as u32);
        }
        let routes = degraded_routes(&mesh, &tiles, &channels, 4)
            .expect("the survivors of a 4x4 mesh minus one router stay connected");
        // Every pair to or from router 5 has no route; the check walks
        // only the others instead of panicking on the first of them.
        assert!(routes.is_deadlock_free(&mesh));
    }

    #[test]
    fn degraded_partition_is_a_typed_error() {
        let grid = Grid::new(1, 4);
        let path = Topology::new(
            grid,
            TopologyKind::Custom,
            (0..3).map(|i| crate::topology::Link::new(TileId::new(i), TileId::new(i + 1))),
        );
        let (tiles, mut channels) = full_liveness(&path);
        kill_link(&path, &mut channels, 1, 2);
        let err = degraded_routes(&path, &tiles, &channels, 1).expect_err("partitioned");
        assert!(matches!(err, BuildRoutesError::Disconnected { .. }));
        assert!(err.to_string().contains("disconnected"));
        let (routes, components) = degraded_routes_with_components(&path, &tiles, &channels, 1);
        assert_eq!(components, vec![0, 0, 1, 1]);
        let (port, _) = routes.port_and_class(TileId::new(1), TileId::new(1), TileId::new(2), 0);
        assert_eq!(port, NO_ROUTE);
        let (port, _) = routes.port_and_class(TileId::new(0), TileId::new(0), TileId::new(1), 0);
        assert_ne!(port, NO_ROUTE);
    }

    #[test]
    fn next_hop_form_reports_itself() {
        let grid = Grid::new(4, 4);
        let mesh = generators::mesh(grid);
        let dense = build_routes(&mesh, RoutingAlgorithm::RowColumn).expect("mesh");
        let compact = build_routes_with(&mesh, RoutingAlgorithm::RowColumn, RouteForm::NextHop)
            .expect("mesh");
        assert_eq!(dense.form(), RouteForm::Dense);
        assert_eq!(compact.form(), RouteForm::NextHop);
        assert_eq!(dense.semantic_digest(), compact.semantic_digest());
        assert!(compact.table_bytes() < dense.table_bytes());
        all_checks(&mesh, &compact);
    }
}
