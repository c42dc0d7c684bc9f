//! The compact next-hop form: O(1) `(current router, src, dst, hop) →
//! (out port, VC class)` queries from per-algorithm kernels, with no
//! per-pair heap allocation.
//!
//! Each kernel answers the query from closed-form state (cycle
//! positions, Gray codes, 1D line banks, per-destination port tables)
//! sized O(n)–O(n^1.5) instead of the dense oracle's O(n² · hops), and
//! reconstructs paths bit-identical to the dense builders — the
//! equivalence suite in `tests/` enforces this for every generator.

use crate::generators;
use crate::grid::TileId;
use crate::topology::{ChannelId, Topology, TopologyKind};

use super::line::{row_column_banks, LineBanks, CLASSES_PER_PHASE, MAX_REVERSALS};
use super::{BuildRoutesError, HopTable, Routes, RoutingAlgorithm, Table};

/// Per-tile sorted adjacency in the topology's canonical neighbor order
/// — the same order [`Topology::neighbors`] iterates, which is also the
/// order the simulator numbers router ports in. Every [`Routes`] form
/// shares this port map: a next tile maps to an out port by position
/// in this list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Csr {
    offsets: Vec<u32>,
    tiles: Vec<u32>,
    channels: Vec<u32>,
}

impl Csr {
    pub(super) fn build(topology: &Topology) -> Self {
        let n = topology.num_tiles();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut tiles = Vec::with_capacity(topology.num_channels());
        let mut channels = Vec::with_capacity(topology.num_channels());
        offsets.push(0);
        for tile in topology.grid().tiles() {
            for &(neighbor, link) in topology.neighbors(tile) {
                tiles.push(neighbor.index() as u32);
                channels.push(topology.channel_from(tile, link).id.index() as u32);
            }
            offsets.push(u32::try_from(tiles.len()).expect("adjacency fits u32"));
        }
        Self {
            offsets,
            tiles,
            channels,
        }
    }

    /// The out-port index (position in the sorted neighbor list) of the
    /// link from `at` to `to`.
    pub(super) fn port_of(&self, at: usize, to: u32) -> u32 {
        let lo = self.offsets[at] as usize;
        let hi = self.offsets[at + 1] as usize;
        let slot = self.tiles[lo..hi]
            .binary_search(&to)
            .unwrap_or_else(|_| panic!("no link {at} → {to}"));
        slot as u32
    }

    /// The `(neighbor tile, directed channel)` behind port `port` of `at`.
    pub(super) fn entry(&self, at: usize, port: u32) -> (u32, u32) {
        let slot = self.offsets[at] as usize + port as usize;
        (self.tiles[slot], self.channels[slot])
    }

    /// Number of ports (sorted neighbors) of `at`.
    pub(super) fn degree(&self, at: usize) -> usize {
        (self.offsets[at + 1] - self.offsets[at]) as usize
    }

    /// Approximate resident heap bytes.
    pub(super) fn bytes(&self) -> usize {
        (self.offsets.len() + self.tiles.len() + self.channels.len()) * std::mem::size_of::<u32>()
    }
}

/// The per-algorithm closed-form state a [`NextHopTable`] queries.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum Kernel {
    /// Per-row and per-column all-pairs 1D move banks.
    RowColumn { rows: LineBanks, cols: LineBanks },
    /// Cycle position of every tile and tile at every position.
    RingDateline { pos: Vec<u32>, order: Vec<u32> },
    /// Row/column cycle orders and their logical-position inverses.
    TorusDateline {
        row_cycle: Vec<u16>,
        col_cycle: Vec<u16>,
        row_logical: Vec<u16>,
        col_logical: Vec<u16>,
    },
    /// Hypercube id of every tile and tile of every hypercube id.
    ECube { hid: Vec<u32>, by_hid: Vec<u32> },
    /// Flat per-destination out-port table: `port[dst · n + at]`.
    HopEscalation { next_port: Vec<u8> },
    /// The masked post-fault analog of `HopEscalation`: routes over a
    /// surviving subgraph with the original port numbering,
    /// [`super::NO_ROUTE`] marking unreachable pairs, and hop classes
    /// clamped to `max_class` so the replaced table's VC partition is
    /// preserved.
    Degraded { next_port: Vec<u8>, max_class: u8 },
}

/// A compact next-hop routing table (see [`Kernel`]).
#[derive(Debug, Clone, PartialEq)]
pub(super) struct NextHopTable {
    rows: u16,
    cols: u16,
    kernel: Kernel,
}

impl HopTable for NextHopTable {
    /// O(1) apart from the port map lookup.
    fn port_and_class(
        &self,
        ports: &Csr,
        at: usize,
        src: usize,
        dst: usize,
        hop: usize,
    ) -> (u32, u8) {
        let cols = self.cols as usize;
        match &self.kernel {
            Kernel::RowColumn {
                rows,
                cols: col_banks,
            } => {
                let (sr, sc) = (src / cols, src % cols);
                let (dr, dc) = (dst / cols, dst % cols);
                let row_list = rows
                    .line(sr)
                    .list(sc as u16, dc as u16)
                    .expect("row connected");
                let (next, class) = if hop < row_list.len() {
                    let mv = row_list[hop];
                    (
                        sr * cols + mv.to_pos as usize,
                        mv.reversals.min(MAX_REVERSALS),
                    )
                } else {
                    let col_list = col_banks
                        .line(dc)
                        .list(sr as u16, dr as u16)
                        .expect("column connected");
                    let mv = col_list[hop - row_list.len()];
                    (
                        mv.to_pos as usize * cols + dc,
                        CLASSES_PER_PHASE + mv.reversals.min(MAX_REVERSALS),
                    )
                };
                (ports.port_of(at, next as u32), class)
            }
            Kernel::RingDateline { pos, order } => {
                let n = order.len();
                let (ps, pa) = (pos[src] as usize, pos[at] as usize);
                let pd = pos[dst] as usize;
                let forward = (pd + n - ps) % n;
                let backward = n - forward;
                let (np, crossed) = if forward <= backward {
                    ((pa + 1) % n, (pa + 1) % n == 0 || pa < ps)
                } else {
                    ((pa + n - 1) % n, pa == 0 || pa > ps)
                };
                (ports.port_of(at, order[np]), u8::from(crossed))
            }
            Kernel::TorusDateline {
                row_cycle,
                col_cycle,
                row_logical,
                col_logical,
            } => {
                let (ar, ac) = (at / cols, at % cols);
                let (sr, sc) = (src / cols, src % cols);
                let (dr, dc) = (dst / cols, dst % cols);
                // Dimension order: the row cycle first, then the column
                // cycle — all in logical (dateline-relative) positions.
                let (next, class) = if ac != dc {
                    let len = cols;
                    let a = row_logical[sc] as usize;
                    let b = row_logical[dc] as usize;
                    let pa = row_logical[ac] as usize;
                    let (np, crossed) = cycle_step(a, b, pa, len);
                    (ar * cols + row_cycle[np] as usize, u8::from(crossed))
                } else {
                    let len = self.rows as usize;
                    let a = col_logical[sr] as usize;
                    let b = col_logical[dr] as usize;
                    let pa = col_logical[ar] as usize;
                    let (np, crossed) = cycle_step(a, b, pa, len);
                    (col_cycle[np] as usize * cols + ac, 2 + u8::from(crossed))
                };
                (ports.port_of(at, next as u32), class)
            }
            Kernel::ECube { hid, by_hid } => {
                let (h, target) = (hid[at], hid[dst]);
                let bit = (h ^ target).trailing_zeros();
                let next = by_hid[(h ^ (1 << bit)) as usize];
                (ports.port_of(at, next), 0)
            }
            Kernel::HopEscalation { next_port } => {
                let n = self.rows as usize * cols;
                (
                    u32::from(next_port[dst * n + at]),
                    hop.min(u8::MAX as usize) as u8,
                )
            }
            Kernel::Degraded {
                next_port,
                max_class,
            } => {
                let n = self.rows as usize * cols;
                (
                    u32::from(next_port[dst * n + at]),
                    hop.min(*max_class as usize) as u8,
                )
            }
        }
    }

    /// The row-column kernel sums its two move-list lengths; the others
    /// walk.
    fn hop_count(&self, src: usize, dst: usize) -> Option<usize> {
        let Kernel::RowColumn {
            rows,
            cols: col_banks,
        } = &self.kernel
        else {
            return None;
        };
        let cols = self.cols as usize;
        let (sr, sc) = ((src / cols) as u16, (src % cols) as u16);
        let (dr, dc) = ((dst / cols) as u16, (dst % cols) as u16);
        let row = rows.line(sr as usize).list(sc, dc).expect("row connected");
        let col = col_banks
            .line(dc as usize)
            .list(sr, dr)
            .expect("column connected");
        Some(row.len() + col.len())
    }

    fn bytes(&self) -> usize {
        match &self.kernel {
            Kernel::RowColumn { rows, cols } => rows.bytes() + cols.bytes(),
            Kernel::RingDateline { pos, order } => (pos.len() + order.len()) * 4,
            Kernel::TorusDateline {
                row_cycle,
                col_cycle,
                row_logical,
                col_logical,
            } => (row_cycle.len() + col_cycle.len() + row_logical.len() + col_logical.len()) * 2,
            Kernel::ECube { hid, by_hid } => (hid.len() + by_hid.len()) * 4,
            Kernel::HopEscalation { next_port } => next_port.len(),
            Kernel::Degraded { next_port, .. } => next_port.len() + 1,
        }
    }
}

impl NextHopTable {
    /// The all-pairs channel uses of a line-separable kernel, visited
    /// line by line; `false` (and no visit) on kernels whose paths do
    /// not separate. A row-column path is one row walk plus one column
    /// walk, so the walk `sc → dc` of a row serves the paths to every
    /// tile of column `dc` and the walk `sr → dr` of a column serves the
    /// paths from every tile of row `sr`. Lines that share a bank share
    /// its walks too, so each distinct bank is walked once into per-edge
    /// use counts ([`LineBanks::for_each_edge_use`]) and every line then
    /// visits each of its used channels once: O(banks · positions² ·
    /// hops + links) in place of the O(n² · hops) of a pair-by-pair pass.
    /// The visits differ from the pair walk's only in grouping, which no
    /// sum over them can see.
    pub(super) fn for_each_line_use(
        &self,
        ports: &Csr,
        f: &mut impl FnMut(ChannelId, u32),
    ) -> bool {
        let Kernel::RowColumn {
            rows,
            cols: col_banks,
        } = &self.kernel
        else {
            return false;
        };
        let col_count = self.cols as usize;
        let mut visit = |at: usize, next: usize, uses: u32| {
            let port = ports.port_of(at, next as u32);
            f(ChannelId::new(ports.entry(at, port).1), uses);
        };
        rows.for_each_edge_use(|row, from, to, count| {
            let base = row * col_count;
            visit(
                base + from as usize,
                base + to as usize,
                count * u32::from(self.rows),
            );
        });
        col_banks.for_each_edge_use(|col, from, to, count| {
            visit(
                from as usize * col_count + col,
                to as usize * col_count + col,
                count * u32::from(self.cols),
            );
        });
        true
    }
}

/// One step along a 1D cycle from logical `a` toward logical `b`,
/// currently at logical `pa`: the next logical position and whether the
/// dateline (logical 0) has been crossed by this or any earlier step.
/// Mirrors the dense builder's `route_cycle`, whose class bump persists
/// from the first crossing on: going forward the walk has wrapped iff it
/// arrives at 0 now or already sits below its start; going backward iff
/// it leaves 0 now or already sits above its start.
fn cycle_step(a: usize, b: usize, pa: usize, len: usize) -> (usize, bool) {
    let forward = (b + len - a) % len;
    let backward = len - forward;
    if forward <= backward {
        let np = (pa + 1) % len;
        (np, np == 0 || pa < a)
    } else {
        let np = (pa + len - 1) % len;
        (np, pa == 0 || pa > a)
    }
}

/// The deterministic per-destination next-hop construction shared by the
/// dense `HopEscalation` reference and its compact form: one reverse BFS
/// per destination, then `port[dst · n + u]` = the first sorted neighbor
/// of `u` one step closer to `dst`. Returns the port table and the
/// number of VC classes (the maximum path length — class = hop index).
///
/// # Errors
///
/// Returns [`BuildRoutesError::Disconnected`] if some pair of tiles has
/// no path.
pub(super) fn hop_escalation_table(topology: &Topology) -> Result<(Vec<u8>, u8), BuildRoutesError> {
    let n = topology.num_tiles();
    let mut next_port = vec![0u8; n * n];
    let mut max_dist = 0u32;
    let mut dist = vec![u32::MAX; n];
    for dst in topology.grid().tiles() {
        dist.fill(u32::MAX);
        let mut queue = std::collections::VecDeque::new();
        dist[dst.index()] = 0;
        queue.push_back(dst);
        while let Some(t) = queue.pop_front() {
            for &(next, _) in topology.neighbors(t) {
                if dist[next.index()] == u32::MAX {
                    dist[next.index()] = dist[t.index()] + 1;
                    queue.push_back(next);
                }
            }
        }
        for u in topology.grid().tiles() {
            if u == dst {
                continue;
            }
            let du = dist[u.index()];
            if du == u32::MAX {
                return Err(BuildRoutesError::Disconnected {
                    reason: format!("no path from tile {} to tile {}", u.index(), dst.index()),
                });
            }
            max_dist = max_dist.max(du);
            let port = topology
                .neighbors(u)
                .iter()
                .position(|&(v, _)| dist[v.index()] == du - 1)
                .expect("BFS predecessor exists");
            next_port[dst.index() * n + u.index()] = u8::try_from(port).expect("radix fits u8");
        }
    }
    Ok((next_port, max_dist.clamp(1, u32::from(u8::MAX)) as u8))
}

/// Builds the degraded (post-fault) table behind
/// [`super::degraded_routes_with_components`]: one masked reverse BFS per
/// surviving destination over the surviving channels, keeping the
/// original topology's port numbering. Unreachable `(at, dst)` pairs get
/// [`super::NO_ROUTE`]; the second return value maps each tile to its
/// surviving component ([`super::NO_COMPONENT`] for dead tiles).
pub(super) fn build_degraded(
    topology: &Topology,
    alive_tile: &[bool],
    alive_channel: &[bool],
    num_vc_classes: u8,
) -> (Routes, Vec<u32>) {
    let n = topology.num_tiles();
    assert_eq!(alive_tile.len(), n, "one liveness bit per tile");
    assert_eq!(
        alive_channel.len(),
        topology.num_channels(),
        "one liveness bit per directed channel"
    );
    assert!(num_vc_classes >= 1, "at least one VC class");
    let csr = Csr::build(topology);
    let grid = topology.grid();
    // The sentinel must not collide with a real port.
    let max_degree = topology.max_degree();
    assert!(
        max_degree < usize::from(super::NO_ROUTE),
        "router radix {max_degree} collides with the NO_ROUTE sentinel"
    );
    // A directed channel survives only if both endpoints and the channel
    // itself are alive. Fault masks are symmetric (links and routers die
    // whole), so reachability is mutual within a component.
    let usable = |from: usize, to: usize, channel: usize| {
        alive_tile[from] && alive_tile[to] && alive_channel[channel]
    };
    for link in 0..topology.num_links() {
        debug_assert_eq!(
            alive_channel[link * 2],
            alive_channel[link * 2 + 1],
            "fault masks must kill both directions of a link"
        );
    }
    // Surviving components, labeled in first-seen (tile id) order.
    let mut components = vec![super::NO_COMPONENT; n];
    let mut next_component = 0u32;
    let mut stack = Vec::new();
    for start in 0..n {
        if !alive_tile[start] || components[start] != super::NO_COMPONENT {
            continue;
        }
        components[start] = next_component;
        stack.push(start);
        while let Some(t) = stack.pop() {
            for port in 0..csr.degree(t) {
                let (to, channel) = csr.entry(t, port as u32);
                let to = to as usize;
                if usable(t, to, channel as usize) && components[to] == super::NO_COMPONENT {
                    components[to] = next_component;
                    stack.push(to);
                }
            }
        }
        next_component += 1;
    }
    // Masked reverse BFS per surviving destination.
    let mut next_port = vec![super::NO_ROUTE; n * n];
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for dst in 0..n {
        if !alive_tile[dst] {
            continue;
        }
        dist.fill(u32::MAX);
        queue.clear();
        dist[dst] = 0;
        queue.push_back(dst);
        while let Some(t) = queue.pop_front() {
            // Relax u when the *forward* channel u → t survives.
            for &(u, link) in topology.neighbors(TileId::new(t as u32)) {
                let channel = topology.channel_from(u, link).id.index();
                if usable(u.index(), t, channel) && dist[u.index()] == u32::MAX {
                    dist[u.index()] = dist[t] + 1;
                    queue.push_back(u.index());
                }
            }
        }
        for u in 0..n {
            let du = dist[u];
            if u == dst || du == u32::MAX {
                continue;
            }
            let port = (0..csr.degree(u))
                .position(|p| {
                    let (v, channel) = csr.entry(u, p as u32);
                    usable(u, v as usize, channel as usize) && dist[v as usize] == du - 1
                })
                .expect("BFS predecessor exists");
            next_port[dst * n + u] = u8::try_from(port).expect("radix fits u8");
        }
    }
    let routes = Routes {
        n,
        algorithm: RoutingAlgorithm::HopEscalation,
        num_vc_classes,
        ports: csr,
        table: Table::NextHop(NextHopTable {
            rows: grid.rows(),
            cols: grid.cols(),
            kernel: Kernel::Degraded {
                next_port,
                max_class: num_vc_classes - 1,
            },
        }),
    };
    (routes, components)
}

/// Builds the compact next-hop table for `algorithm`.
pub(super) fn build_next_hop(
    topology: &Topology,
    algorithm: RoutingAlgorithm,
) -> Result<Routes, BuildRoutesError> {
    let grid = topology.grid();
    let n = topology.num_tiles();
    let (kernel, num_vc_classes) = match algorithm {
        RoutingAlgorithm::RowColumn => {
            let (rows, cols) = row_column_banks(topology)?;
            (Kernel::RowColumn { rows, cols }, CLASSES_PER_PHASE * 2)
        }
        RoutingAlgorithm::RingDateline => {
            let order_coords = generators::cycle_order_of(topology).ok_or_else(|| {
                BuildRoutesError::NotApplicable {
                    algorithm: RoutingAlgorithm::RingDateline,
                    reason: "topology is not a single cycle".to_owned(),
                }
            })?;
            let mut pos = vec![0u32; n];
            let mut order = vec![0u32; n];
            for (i, &coord) in order_coords.iter().enumerate() {
                let id = grid.id(coord).index();
                pos[id] = i as u32;
                order[i] = id as u32;
            }
            (Kernel::RingDateline { pos, order }, 2)
        }
        RoutingAlgorithm::TorusDateline => {
            let (row_cycle, col_cycle): (Vec<u16>, Vec<u16>) =
                if topology.kind() == TopologyKind::FoldedTorus {
                    (
                        generators::folded_cycle_order(grid.cols()),
                        generators::folded_cycle_order(grid.rows()),
                    )
                } else {
                    ((0..grid.cols()).collect(), (0..grid.rows()).collect())
                };
            let invert = |cycle: &[u16]| {
                let mut inv = vec![0u16; cycle.len()];
                for (logical, &phys) in cycle.iter().enumerate() {
                    inv[phys as usize] = logical as u16;
                }
                inv
            };
            let row_logical = invert(&row_cycle);
            let col_logical = invert(&col_cycle);
            (
                Kernel::TorusDateline {
                    row_cycle,
                    col_cycle,
                    row_logical,
                    col_logical,
                },
                4,
            )
        }
        RoutingAlgorithm::ECube => {
            if !grid.rows().is_power_of_two() || !grid.cols().is_power_of_two() {
                return Err(BuildRoutesError::NotApplicable {
                    algorithm: RoutingAlgorithm::ECube,
                    reason: "grid dimensions are not powers of two".to_owned(),
                });
            }
            let col_bits = grid.cols().trailing_zeros();
            let mut hid = vec![0u32; n];
            let mut by_hid = vec![0u32; n];
            for coord in grid.coords() {
                let h = ((generators::gray(coord.row) as u32) << col_bits)
                    | generators::gray(coord.col) as u32;
                let id = grid.id(coord).index();
                hid[id] = h;
                by_hid[h as usize] = id as u32;
            }
            (Kernel::ECube { hid, by_hid }, 1)
        }
        RoutingAlgorithm::HopEscalation => {
            let (next_port, classes) = hop_escalation_table(topology)?;
            (Kernel::HopEscalation { next_port }, classes)
        }
        RoutingAlgorithm::Hierarchical => return super::hier::build_hierarchical(topology),
    };
    Ok(Routes::new(
        topology,
        algorithm,
        num_vc_classes,
        Table::NextHop(NextHopTable {
            rows: grid.rows(),
            cols: grid.cols(),
            kernel,
        }),
    ))
}
