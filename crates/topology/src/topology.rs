//! The [`Topology`] graph: tiles connected by bidirectional links.
//!
//! A topology is a set of bidirectional links between tiles of a [`Grid`].
//! Each bidirectional link corresponds to two directed [`Channel`]s, which
//! is the granularity at which the simulator and the routing tables operate.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::grid::{Grid, TileCoord, TileId};

/// Identifier of a bidirectional link within a [`Topology`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct LinkId(u32);

impl LinkId {
    /// Creates a link id from a raw index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// The raw index into [`Topology::links`].
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Identifier of a directed channel. Each [`LinkId`] `l` yields channels
/// `2l` (from the lower-id endpoint to the higher) and `2l + 1` (reverse).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct ChannelId(u32);

impl ChannelId {
    /// Creates a channel id from a raw index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// The raw index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The bidirectional link this channel belongs to.
    #[must_use]
    pub const fn link(self) -> LinkId {
        LinkId::new(self.0 / 2)
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Typed construction failure of a [`Topology`] (or a [`Link`]).
///
/// [`Topology::try_new`] returns these; [`Topology::new`] panics with
/// their [`Display`](fmt::Display) rendering. CLI layers route them
/// through their usage-error path instead of unwinding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// Both endpoints of a link are the same tile (self-loops are not
    /// meaningful in a NoC).
    SelfLoop {
        /// The looping tile.
        tile: TileId,
    },
    /// A link references a tile outside the grid.
    LinkOutOfGrid {
        /// The offending link.
        link: Link,
        /// The grid it does not fit.
        grid: Grid,
    },
    /// The resulting graph is not connected (a NoC must provide
    /// connectivity between all tiles).
    Disconnected {
        /// The kind the topology was being built as.
        kind: TopologyKind,
        /// The grid it was being built on.
        grid: Grid,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SelfLoop { tile } => write!(f, "self-loop link at {tile}"),
            Self::LinkOutOfGrid { link, grid } => {
                write!(f, "link {link:?} outside {grid}")
            }
            Self::Disconnected { kind, grid } => {
                write!(f, "{kind} topology on {grid} is not connected")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A bidirectional link between two distinct tiles.
///
/// Links are stored with `a < b` (by tile id) so that a link has a unique
/// canonical representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Link {
    /// Lower-id endpoint.
    pub a: TileId,
    /// Higher-id endpoint.
    pub b: TileId,
}

impl Link {
    /// Canonicalizes a pair of endpoints into a link (`a < b`).
    ///
    /// # Panics
    ///
    /// Panics if both endpoints are the same tile (self-loops are not
    /// meaningful in a NoC).
    #[must_use]
    pub fn new(x: TileId, y: TileId) -> Self {
        Self::try_new(x, y).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Canonicalizes a pair of endpoints into a link (`a < b`).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::SelfLoop`] if both endpoints are the
    /// same tile.
    pub fn try_new(x: TileId, y: TileId) -> Result<Self, TopologyError> {
        if x == y {
            return Err(TopologyError::SelfLoop { tile: x });
        }
        Ok(if x < y {
            Self { a: x, b: y }
        } else {
            Self { a: y, b: x }
        })
    }

    /// The endpoint opposite to `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of this link.
    #[must_use]
    pub fn opposite(&self, from: TileId) -> TileId {
        if from == self.a {
            self.b
        } else if from == self.b {
            self.a
        } else {
            panic!("{from} is not an endpoint of link {self:?}")
        }
    }
}

/// A directed channel: one direction of a bidirectional [`Link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Channel {
    /// Channel identifier.
    pub id: ChannelId,
    /// Source tile.
    pub from: TileId,
    /// Destination tile.
    pub to: TileId,
}

/// The class of topology a [`Topology`] instance was generated as.
///
/// Carried along for reporting; all algorithms operate on the generic graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopologyKind {
    /// Hamiltonian-cycle ring (Fig. 1a).
    Ring,
    /// 2D mesh (Fig. 1b).
    Mesh,
    /// 2D torus with wrap-around links (Fig. 1c).
    Torus,
    /// Folded 2D torus: torus connectivity with interleaved placement
    /// avoiding long wrap links (Fig. 1d).
    FoldedTorus,
    /// Hypercube with Gray-code placement (Fig. 1e).
    Hypercube,
    /// SlimNoC based on MMS graphs (Fig. 1f).
    SlimNoc,
    /// Flattened butterfly: fully connected rows and columns (Fig. 1g).
    FlattenedButterfly,
    /// Ruche network: mesh plus fixed-length skip links (related work).
    Ruche,
    /// Sparse Hamming graph (the paper's contribution, Section III).
    SparseHamming,
    /// Anything assembled manually.
    Custom,
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::Ring => "Ring",
            Self::Mesh => "2D Mesh",
            Self::Torus => "2D Torus",
            Self::FoldedTorus => "Folded 2D Torus",
            Self::Hypercube => "Hypercube",
            Self::SlimNoc => "SlimNoC",
            Self::FlattenedButterfly => "Flattened Butterfly",
            Self::Ruche => "Ruche",
            Self::SparseHamming => "Sparse Hamming Graph",
            Self::Custom => "Custom",
        };
        f.write_str(name)
    }
}

/// The functional class of a tile — the heterogeneity axis of the
/// paper's MemPool validation (compute vs memory vs IO rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub enum TileClass {
    /// A processing-element tile (the default).
    #[default]
    Compute,
    /// A memory/bank tile.
    Memory,
    /// An IO/peripheral tile.
    Io,
}

impl fmt::Display for TileClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Compute => "compute",
            Self::Memory => "memory",
            Self::Io => "io",
        })
    }
}

impl std::str::FromStr for TileClass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "compute" => Ok(Self::Compute),
            "memory" => Ok(Self::Memory),
            "io" => Ok(Self::Io),
            other => Err(format!(
                "unknown tile class '{other}' (use compute|memory|io)"
            )),
        }
    }
}

/// Identifier of a die in a multi-die (chiplet) instantiation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct DieId(u16);

impl DieId {
    /// Creates a die id from a raw index.
    #[must_use]
    pub const fn new(index: u16) -> Self {
        Self(index)
    }

    /// The raw index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DieId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// Expanded-grid instantiation metadata carried by a [`Topology`] built
/// from a topology database: per-tile class and die membership, plus the
/// extra latency of die-boundary crossings.
///
/// The metadata is deliberately *outside* every structural fingerprint
/// (sweep plans and cell caches hash grid dimensions, links and
/// latencies) — it annotates the instantiated product for traffic
/// patterns and the floorplan model without invalidating existing
/// sweeps.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TopologyMeta {
    /// Per-tile class, row-major over the grid.
    tile_classes: Vec<TileClass>,
    /// Per-tile die membership, row-major over the grid.
    tile_dies: Vec<DieId>,
    /// Die names, indexed by [`DieId`].
    die_names: Vec<String>,
    /// Extra cycles a flit pays to cross a die boundary.
    boundary_latency: u32,
}

impl TopologyMeta {
    /// Assembles instantiation metadata.
    ///
    /// # Panics
    ///
    /// Panics if the class and die vectors disagree in length, or a die
    /// index is out of range of `die_names`.
    #[must_use]
    pub fn new(
        tile_classes: Vec<TileClass>,
        tile_dies: Vec<DieId>,
        die_names: Vec<String>,
        boundary_latency: u32,
    ) -> Self {
        assert_eq!(
            tile_classes.len(),
            tile_dies.len(),
            "per-tile class and die vectors must cover the same tiles"
        );
        assert!(
            tile_dies.iter().all(|d| d.index() < die_names.len()),
            "tile die out of range of the die table"
        );
        Self {
            tile_classes,
            tile_dies,
            die_names,
            boundary_latency,
        }
    }

    /// Number of dies.
    #[must_use]
    pub fn num_dies(&self) -> usize {
        self.die_names.len()
    }

    /// The name of a die.
    ///
    /// # Panics
    ///
    /// Panics if the die id is out of range.
    #[must_use]
    pub fn die_name(&self, die: DieId) -> &str {
        &self.die_names[die.index()]
    }

    /// Extra cycles a flit pays to cross a die boundary.
    #[must_use]
    pub fn boundary_latency(&self) -> u32 {
        self.boundary_latency
    }
}

/// A NoC topology: a connected graph of bidirectional links over an R×C
/// tile grid.
///
/// # Examples
///
/// ```
/// use shg_topology::{generators, Grid};
///
/// let mesh = generators::mesh(Grid::new(4, 4));
/// assert_eq!(mesh.num_tiles(), 16);
/// assert_eq!(mesh.num_links(), 24); // 2 × 4×3 mesh edges
/// assert_eq!(mesh.max_degree(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    grid: Grid,
    kind: TopologyKind,
    links: Vec<Link>,
    /// `adjacency[tile] = (neighbor, link)` pairs, sorted by neighbor id.
    adjacency: Vec<Vec<(TileId, LinkId)>>,
    /// Expanded-grid instantiation metadata (`None` for the flat
    /// homogeneous topologies the generators build directly).
    meta: Option<TopologyMeta>,
}

impl Topology {
    /// Builds a topology from a set of links.
    ///
    /// Duplicate links are merged; endpoints may be given in either order.
    ///
    /// # Panics
    ///
    /// Panics if a link references a tile outside the grid, if a link is a
    /// self-loop, or if the resulting graph is not connected (a NoC must
    /// provide connectivity between all tiles).
    #[must_use]
    pub fn new(grid: Grid, kind: TopologyKind, links: impl IntoIterator<Item = Link>) -> Self {
        Self::try_new(grid, kind, links).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a topology from a set of links.
    ///
    /// Duplicate links are merged; endpoints may be given in either order
    /// (also in a `Link` written field by field).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::SelfLoop`] if a link's endpoints are the
    /// same tile, [`TopologyError::LinkOutOfGrid`] if a link references a
    /// tile outside the grid, or [`TopologyError::Disconnected`] if the
    /// resulting graph is not connected (a NoC must provide connectivity
    /// between all tiles).
    pub fn try_new(
        grid: Grid,
        kind: TopologyKind,
        links: impl IntoIterator<Item = Link>,
    ) -> Result<Self, TopologyError> {
        let mut links: Vec<Link> = links.into_iter().collect();
        for link in &mut links {
            *link = Link::try_new(link.a, link.b)?;
        }
        links.sort_unstable();
        links.dedup();
        let mut degree = vec![0u32; grid.num_tiles()];
        for &link in &links {
            if link.b.index() >= grid.num_tiles() {
                return Err(TopologyError::LinkOutOfGrid { link, grid });
            }
            degree[link.a.index()] += 1;
            degree[link.b.index()] += 1;
        }
        // Links are sorted by `(a, b)`, so a tile receives its lower
        // neighbours (as `b`, in ascending `a`) before its higher ones (as
        // `a`, in ascending `b`): every list fills already sorted.
        let mut adjacency: Vec<Vec<(TileId, LinkId)>> = degree
            .iter()
            .map(|&d| Vec::with_capacity(d as usize))
            .collect();
        for (i, link) in links.iter().enumerate() {
            let id = LinkId::new(i as u32);
            adjacency[link.a.index()].push((link.b, id));
            adjacency[link.b.index()].push((link.a, id));
        }
        debug_assert!(adjacency.iter().all(|list| list.is_sorted()));
        let topology = Self {
            grid,
            kind,
            links,
            adjacency,
            meta: None,
        };
        if !topology.is_connected() {
            return Err(TopologyError::Disconnected { kind, grid });
        }
        Ok(topology)
    }

    /// The underlying tile grid.
    #[must_use]
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// The topology class this instance was generated as.
    #[must_use]
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Attaches expanded-grid instantiation metadata.
    ///
    /// # Panics
    ///
    /// Panics if the metadata does not cover exactly this grid's tiles.
    #[must_use]
    pub fn with_meta(mut self, meta: TopologyMeta) -> Self {
        assert_eq!(
            meta.tile_classes.len(),
            self.num_tiles(),
            "metadata must cover every tile of {}",
            self.grid
        );
        self.meta = Some(meta);
        self
    }

    /// Expanded-grid instantiation metadata, when this topology was
    /// materialized from a topology database.
    #[must_use]
    pub fn meta(&self) -> Option<&TopologyMeta> {
        self.meta.as_ref()
    }

    /// The functional class of a tile ([`TileClass::Compute`] for flat
    /// topologies without metadata).
    ///
    /// # Panics
    ///
    /// Panics if the tile is out of range.
    #[must_use]
    pub fn tile_class(&self, tile: TileId) -> TileClass {
        self.meta
            .as_ref()
            .map_or(TileClass::Compute, |m| m.tile_classes[tile.index()])
    }

    /// The die a tile belongs to (die 0 for flat topologies without
    /// metadata).
    ///
    /// # Panics
    ///
    /// Panics if the tile is out of range.
    #[must_use]
    pub fn tile_die(&self, tile: TileId) -> DieId {
        self.meta
            .as_ref()
            .map_or(DieId::new(0), |m| m.tile_dies[tile.index()])
    }

    /// Number of dies this topology spans (1 without metadata).
    #[must_use]
    pub fn num_dies(&self) -> usize {
        self.meta.as_ref().map_or(1, TopologyMeta::num_dies)
    }

    /// `true` if the link's endpoints sit on different dies.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn link_crosses_die(&self, id: LinkId) -> bool {
        let link = self.links[id.index()];
        self.tile_die(link.a) != self.tile_die(link.b)
    }

    /// Extra cycles a flit pays on die-boundary links (0 without
    /// metadata).
    #[must_use]
    pub fn boundary_latency(&self) -> u32 {
        self.meta.as_ref().map_or(0, TopologyMeta::boundary_latency)
    }

    /// Number of rows `R`.
    #[must_use]
    pub fn rows(&self) -> u16 {
        self.grid.rows()
    }

    /// Number of columns `C`.
    #[must_use]
    pub fn cols(&self) -> u16 {
        self.grid.cols()
    }

    /// Number of tiles.
    #[must_use]
    pub fn num_tiles(&self) -> usize {
        self.grid.num_tiles()
    }

    /// Number of bidirectional links.
    #[must_use]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of directed channels (twice the number of links).
    #[must_use]
    pub fn num_channels(&self) -> usize {
        self.links.len() * 2
    }

    /// The bidirectional links, sorted canonically.
    #[must_use]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Looks up a link by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn link(&self, id: LinkId) -> Link {
        self.links[id.index()]
    }

    /// The directed channel with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn channel(&self, id: ChannelId) -> Channel {
        let link = self.links[id.link().index()];
        let (from, to) = if id.index().is_multiple_of(2) {
            (link.a, link.b)
        } else {
            (link.b, link.a)
        };
        Channel { id, from, to }
    }

    /// The directed channel from `from` across `link`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of `link`.
    #[must_use]
    pub fn channel_from(&self, from: TileId, link: LinkId) -> Channel {
        let l = self.links[link.index()];
        let id = if from == l.a {
            ChannelId::new(link.index() as u32 * 2)
        } else if from == l.b {
            ChannelId::new(link.index() as u32 * 2 + 1)
        } else {
            panic!("{from} is not an endpoint of {link}")
        };
        Channel {
            id,
            from,
            to: l.opposite(from),
        }
    }

    /// Iterates over all directed channels.
    pub fn channels(&self) -> impl Iterator<Item = Channel> + '_ {
        (0..self.num_channels() as u32).map(|i| self.channel(ChannelId::new(i)))
    }

    /// Neighbors of `tile` with the connecting link, sorted by neighbor id.
    ///
    /// # Panics
    ///
    /// Panics if the tile is out of range.
    #[must_use]
    pub fn neighbors(&self, tile: TileId) -> &[(TileId, LinkId)] {
        &self.adjacency[tile.index()]
    }

    /// Degree (number of incident links) of `tile`. This equals the number
    /// of network ports of the tile's router.
    #[must_use]
    pub fn degree(&self, tile: TileId) -> usize {
        self.adjacency[tile.index()].len()
    }

    /// Maximum degree over all tiles — the *router radix* of Table I
    /// (network ports only, excluding the endpoint port).
    #[must_use]
    pub fn max_degree(&self) -> usize {
        (0..self.num_tiles())
            .map(|t| self.adjacency[t].len())
            .max()
            .unwrap_or(0)
    }

    /// Average degree over all tiles.
    #[must_use]
    pub fn avg_degree(&self) -> f64 {
        2.0 * self.num_links() as f64 / self.num_tiles() as f64
    }

    /// `true` if a link between `x` and `y` exists.
    #[must_use]
    pub fn has_link(&self, x: TileId, y: TileId) -> bool {
        self.adjacency[x.index()]
            .binary_search_by_key(&y, |&(n, _)| n)
            .is_ok()
    }

    /// Physical length of a link in tile units (Manhattan distance between
    /// the endpoints' grid positions).
    #[must_use]
    pub fn link_length(&self, id: LinkId) -> u32 {
        let link = self.links[id.index()];
        self.grid.manhattan(link.a, link.b)
    }

    /// `true` if the link stays within one row or one column of the grid
    /// (an *aligned* link in the sense of design principle ❷).
    #[must_use]
    pub fn link_aligned(&self, id: LinkId) -> bool {
        let link = self.links[id.index()];
        let (ca, cb) = (self.grid.coord(link.a), self.grid.coord(link.b));
        ca.same_row(cb) || ca.same_col(cb)
    }

    /// Coordinate of a tile (convenience for `self.grid().coord(tile)`).
    #[must_use]
    pub fn coord(&self, tile: TileId) -> TileCoord {
        self.grid.coord(tile)
    }

    /// Breadth-first hop distances from `source` to every tile.
    ///
    /// Unreachable tiles would be reported as `u32::MAX`, but constructed
    /// topologies are always connected.
    #[must_use]
    pub fn bfs_distances(&self, source: TileId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.num_tiles()];
        let mut queue = std::collections::VecDeque::new();
        dist[source.index()] = 0;
        queue.push_back(source);
        while let Some(t) = queue.pop_front() {
            let d = dist[t.index()];
            for &(n, _) in self.neighbors(t) {
                if dist[n.index()] == u32::MAX {
                    dist[n.index()] = d + 1;
                    queue.push_back(n);
                }
            }
        }
        dist
    }

    fn is_connected(&self) -> bool {
        if self.num_tiles() == 1 {
            return true;
        }
        let dist = self.bfs_distances(TileId::new(0));
        dist.iter().all(|&d| d != u32::MAX)
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {} ({} links)",
            self.kind,
            self.grid,
            self.num_links()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_topology() -> Topology {
        // 1×4 path: 0-1-2-3.
        let grid = Grid::new(1, 4);
        Topology::new(
            grid,
            TopologyKind::Custom,
            (0..3).map(|i| Link::new(TileId::new(i), TileId::new(i + 1))),
        )
    }

    #[test]
    fn link_canonicalizes_endpoints() {
        let l1 = Link::new(TileId::new(3), TileId::new(1));
        let l2 = Link::new(TileId::new(1), TileId::new(3));
        assert_eq!(l1, l2);
        assert_eq!(l1.a, TileId::new(1));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let _ = Link::new(TileId::new(2), TileId::new(2));
    }

    #[test]
    fn duplicate_links_are_merged() {
        let grid = Grid::new(1, 2);
        let t = Topology::new(
            grid,
            TopologyKind::Custom,
            vec![
                Link::new(TileId::new(0), TileId::new(1)),
                Link::new(TileId::new(1), TileId::new(0)),
            ],
        );
        assert_eq!(t.num_links(), 1);
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn disconnected_topology_panics() {
        let grid = Grid::new(1, 4);
        let _ = Topology::new(
            grid,
            TopologyKind::Custom,
            vec![Link::new(TileId::new(0), TileId::new(1))],
        );
    }

    #[test]
    fn channels_pair_up() {
        let t = path_topology();
        assert_eq!(t.num_channels(), 6);
        let c0 = t.channel(ChannelId::new(0));
        let c1 = t.channel(ChannelId::new(1));
        assert_eq!(c0.from, c1.to);
        assert_eq!(c0.to, c1.from);
    }

    #[test]
    fn channel_from_picks_direction() {
        let t = path_topology();
        let link = t.neighbors(TileId::new(1))[0].1;
        let fwd = t.channel_from(TileId::new(0), link);
        assert_eq!(fwd.from, TileId::new(0));
        assert_eq!(fwd.to, TileId::new(1));
        let bwd = t.channel_from(TileId::new(1), link);
        assert_eq!(bwd.from, TileId::new(1));
        assert_eq!(bwd.to, TileId::new(0));
    }

    #[test]
    fn bfs_distances_on_path() {
        let t = path_topology();
        let dist = t.bfs_distances(TileId::new(0));
        assert_eq!(dist, vec![0, 1, 2, 3]);
    }

    #[test]
    fn degree_and_has_link() {
        let t = path_topology();
        assert_eq!(t.degree(TileId::new(0)), 1);
        assert_eq!(t.degree(TileId::new(1)), 2);
        assert_eq!(t.max_degree(), 2);
        assert!(t.has_link(TileId::new(0), TileId::new(1)));
        assert!(!t.has_link(TileId::new(0), TileId::new(2)));
    }

    #[test]
    fn link_length_and_alignment() {
        let grid = Grid::new(2, 2);
        let t = Topology::new(
            grid,
            TopologyKind::Custom,
            vec![
                Link::new(TileId::new(0), TileId::new(1)), // same row
                Link::new(TileId::new(0), TileId::new(2)), // same col
                Link::new(TileId::new(0), TileId::new(3)), // diagonal
                Link::new(TileId::new(1), TileId::new(2)), // diagonal
            ],
        );
        let find = |a: u32, b: u32| {
            let want = Link::new(TileId::new(a), TileId::new(b));
            LinkId::new(t.links().iter().position(|&l| l == want).unwrap() as u32)
        };
        assert_eq!(t.link_length(find(0, 1)), 1);
        assert!(t.link_aligned(find(0, 1)));
        assert!(t.link_aligned(find(0, 2)));
        assert!(!t.link_aligned(find(0, 3)));
        assert_eq!(t.link_length(find(0, 3)), 2);
    }
}
