//! Step 5 — detailed routing in the grid of unit cells (Fig. 5e).
//!
//! Each channel-routed link is routed cell-by-cell from its source port to
//! its destination port with A*. Tiles are blocked; each unit cell can
//! carry exactly one horizontal and one vertical link without penalty. The
//! heuristic reduces both the number of collisions (multiple parallel
//! links in the same cell) and the link lengths, matching the paper's
//! description of the custom step-5 algorithm.
//!
//! Links between grid-adjacent tiles cross their (possibly zero-width)
//! gap directly and are handled analytically.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use shg_topology::{LinkId, Topology};

use crate::global_route::{longest_first, GlobalRouting, Segment};
use crate::params::{DetailedRouting as RoutingMode, ModelOptions};
use crate::unitcell::{Face, UnitGrid};

/// Cell-level route of one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LinkRoute {
    /// Cells entered by horizontal moves (`N^H_cell` of the latency
    /// formula).
    pub h_moves: u32,
    /// Cells entered by vertical moves (`N^V_cell`).
    pub v_moves: u32,
}

/// The outcome of detailed routing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetailedRoutes {
    /// Per-link cell route.
    pub routes: Vec<LinkRoute>,
    /// Cells carrying at least one horizontal wire segment (`N^H_cell` of
    /// the power formula).
    pub h_occupied_cells: usize,
    /// Cells carrying at least one vertical wire segment.
    pub v_occupied_cells: usize,
    /// Total over-capacity cell usages (a collision is a second or later
    /// same-direction link in one cell).
    pub collisions: u64,
}

impl DetailedRoutes {
    /// Routes every link of `topology` through `unit_grid`, using the
    /// global-routing `plans` to pick the tile face each link leaves
    /// through.
    ///
    /// Links are processed longest-first. In
    /// [`RoutingMode::CollisionAware`] mode, occupied cells cost extra; in
    /// [`RoutingMode::CongestionBlind`] mode the router simply takes
    /// shortest paths (the A2 ablation baseline).
    #[must_use]
    pub fn route(
        topology: &Topology,
        unit_grid: &UnitGrid,
        global: &GlobalRouting,
        options: &ModelOptions,
    ) -> Self {
        let ports = PortAssignment::compute(topology, unit_grid, global);
        let mut astar = AStar::new(unit_grid);
        let mut h_occ = vec![0u16; unit_grid.num_cells()];
        let mut v_occ = vec![0u16; unit_grid.num_cells()];
        let mut routes = vec![LinkRoute::default(); topology.num_links()];
        let penalty = collision_penalty(options);
        for id in longest_first(topology) {
            match ports.endpoints(id) {
                Endpoints::Direct => {
                    routes[id.index()] =
                        direct_route(topology, unit_grid, id, &mut h_occ, &mut v_occ);
                }
                Endpoints::Routed(from, to) => {
                    let path = astar.search(*from, *to, &h_occ, &v_occ, penalty);
                    let mut route = LinkRoute::default();
                    let mut prev_x = from.0;
                    for &cell in path.iter().rev() {
                        let cell = cell as usize;
                        let x = cell % unit_grid.cells_x;
                        if x != prev_x {
                            route.h_moves += 1;
                            h_occ[cell] += 1;
                        } else {
                            route.v_moves += 1;
                            v_occ[cell] += 1;
                        }
                        prev_x = x;
                    }
                    routes[id.index()] = route;
                }
            }
        }
        Self::summarize(routes, &h_occ, &v_occ, unit_grid.capacity())
    }

    /// Folds the final occupancy maps into the reported totals.
    fn summarize(routes: Vec<LinkRoute>, h_occ: &[u16], v_occ: &[u16], cap: u16) -> Self {
        // Normalize occupancy to scale-1 cell equivalents so that power
        // accounting is invariant under `cell_scale` coarsening.
        let cell_equivalents = |occ: &[u16]| -> usize {
            let total: u64 = occ.iter().map(|&o| o as u64).sum();
            (total as f64 / cap as f64).round() as usize
        };
        let collisions = h_occ
            .iter()
            .chain(v_occ.iter())
            .map(|&o| o.saturating_sub(cap) as u64)
            .sum();
        Self {
            routes,
            h_occupied_cells: cell_equivalents(h_occ),
            v_occupied_cells: cell_equivalents(v_occ),
            collisions,
        }
    }
}

/// Extra cost, in the tenths of a move [`MOVE_COST`] counts in, of each
/// link beyond a cell's capacity; zero makes the search plain shortest
/// path.
fn collision_penalty(options: &ModelOptions) -> u32 {
    match options.detailed_routing {
        RoutingMode::CollisionAware => (options.collision_penalty * 10.0).round() as u32,
        RoutingMode::CongestionBlind => 0,
    }
}

/// A direct link between grid-adjacent tiles crosses one gap straight.
fn direct_route(
    topology: &Topology,
    unit_grid: &UnitGrid,
    id: LinkId,
    h_occ: &mut [u16],
    v_occ: &mut [u16],
) -> LinkRoute {
    let grid = topology.grid();
    let link = topology.link(id);
    let (a, b) = (grid.coord(link.a), grid.coord(link.b));
    let rect_a = unit_grid.tile_rect(link.a);
    if a.row == b.row {
        // Crossing the vertical gap between the two columns.
        let gap = a.col.max(b.col);
        let width = unit_grid.v_gap_width(gap);
        let x0 = unit_grid.v_gap_start(gap);
        let y = (rect_a.y0 + rect_a.y1) / 2;
        for x in x0..x0 + width {
            h_occ[unit_grid.index(x, y)] += 1;
        }
        LinkRoute {
            h_moves: width as u32,
            v_moves: 0,
        }
    } else {
        let gap = a.row.max(b.row);
        let height = unit_grid.h_gap_height(gap);
        let y0 = unit_grid.h_gap_start(gap);
        let x = (rect_a.x0 + rect_a.x1) / 2;
        for y in y0..y0 + height {
            v_occ[unit_grid.index(x, y)] += 1;
        }
        LinkRoute {
            h_moves: 0,
            v_moves: height as u32,
        }
    }
}

/// How a link's endpoints map onto the cell grid.
enum Endpoints {
    /// Grid-adjacent link: crosses its gap directly, no A* needed.
    Direct,
    /// Channel-routed link with source and destination port cells.
    Routed((usize, usize), (usize, usize)),
}

/// Port cells for every link endpoint, derived from the global plan: a
/// link leaves its tile through the face adjacent to the channel its plan
/// starts in, which guarantees the face's gap is nonzero.
struct PortAssignment {
    cells: Vec<Endpoints>,
}

impl PortAssignment {
    fn compute(topology: &Topology, unit_grid: &UnitGrid, global: &GlobalRouting) -> Self {
        let grid = topology.grid();
        let face_idx = |f: Face| -> usize {
            match f {
                Face::North => 0,
                Face::South => 1,
                Face::East => 2,
                Face::West => 3,
            }
        };
        // Face of the source endpoint given the first plan segment, and of
        // the destination endpoint given the last segment.
        let src_face = |coord: shg_topology::TileCoord, seg: &Segment| -> Face {
            match *seg {
                Segment::Direct => unreachable!("direct links have no ports"),
                Segment::Horizontal { gap, .. } => {
                    if gap == coord.row {
                        Face::North
                    } else {
                        Face::South
                    }
                }
                Segment::Vertical { gap, .. } => {
                    if gap == coord.col {
                        Face::West
                    } else {
                        Face::East
                    }
                }
            }
        };
        // First pass: count ports per (tile, face) for slot spreading.
        let mut counts = vec![[0usize; 4]; topology.num_tiles()];
        let mut faces: Vec<Option<(Face, usize, Face, usize)>> =
            Vec::with_capacity(topology.num_links());
        for (i, link) in topology.links().iter().enumerate() {
            let plan = global.plan(LinkId::new(i as u32));
            if plan.len() == 1 && plan[0] == Segment::Direct {
                faces.push(None);
                continue;
            }
            let fa = src_face(grid.coord(link.a), plan.first().expect("nonempty plan"));
            let fb = src_face(grid.coord(link.b), plan.last().expect("nonempty plan"));
            let sa = counts[link.a.index()][face_idx(fa)];
            counts[link.a.index()][face_idx(fa)] += 1;
            let sb = counts[link.b.index()][face_idx(fb)];
            counts[link.b.index()][face_idx(fb)] += 1;
            faces.push(Some((fa, sa, fb, sb)));
        }
        let cells = topology
            .links()
            .iter()
            .zip(&faces)
            .map(|(link, assignment)| match assignment {
                None => Endpoints::Direct,
                Some((fa, sa, fb, sb)) => {
                    let ta = counts[link.a.index()][face_idx(*fa)];
                    let tb = counts[link.b.index()][face_idx(*fb)];
                    Endpoints::Routed(
                        unit_grid.port_cell(link.a, *fa, *sa, ta),
                        unit_grid.port_cell(link.b, *fb, *sb, tb),
                    )
                }
            })
            .collect();
        Self { cells }
    }

    fn endpoints(&self, id: LinkId) -> &Endpoints {
        &self.cells[id.index()]
    }
}

/// Search state of one cell, `[g, came, gen]`: valid when `gen` equals
/// the search's generation, `g` is the best score so far and `came` the
/// cell it was reached from. An array, not a struct, so that
/// `vec![[0; 3]; n]` is one zeroed allocation whose pages stay untouched
/// for cells no search ever reaches — tile interiors, most of the chip.
type CellState = [u32; 3];
const G: usize = 0;
const CAME: usize = 1;
const GEN: usize = 2;

/// Reusable A* state over the unit-cell grid: one per
/// [`DetailedRoutes::route`] call, shared by every link's search.
struct AStar {
    width: usize,
    height: usize,
    capacity: u16,
    /// `col_in_tile[x]` / `row_in_tile[y]`: the cell column / row lies in
    /// a tile strip. A cell is blocked iff both hold
    /// ([`UnitGrid::tile_strip_flags`]).
    col_in_tile: Vec<bool>,
    row_in_tile: Vec<bool>,
    cells: Vec<CellState>,
    current: u32,
    /// Open set, keyed by [`heap_key`].
    heap: BinaryHeap<Reverse<u64>>,
    /// The last search's path as cell indices, destination first.
    path: Vec<u32>,
}

const MOVE_COST: u32 = 10;

/// Open-set key `(f << 32) | cell`.
///
/// As `u64`s these compare exactly as the pairs `(f, cell)` do
/// lexicographically: `f` fills the high word, `cell` the low one, and
/// each fits 32 bits. A cell is pushed only when its g-score strictly
/// drops, so no two entries of one search share a key and the order is
/// total — which fixes a binary heap's pop sequence, hence which of
/// several equal-cost predecessors a cell keeps, hence the path. The
/// routes are therefore those of a `Reverse<(f, cell)>` tuple key, and
/// of any other key with this order.
fn heap_key(f: u32, cell: usize) -> Reverse<u64> {
    Reverse(u64::from(f) << 32 | cell as u64)
}

impl AStar {
    fn new(unit_grid: &UnitGrid) -> Self {
        assert!(
            u32::try_from(unit_grid.num_cells()).is_ok(),
            "cell indices must fit the low word of a heap key"
        );
        let (col_in_tile, row_in_tile) = unit_grid.tile_strip_flags();
        Self {
            width: unit_grid.cells_x,
            height: unit_grid.cells_y,
            capacity: unit_grid.capacity(),
            col_in_tile,
            row_in_tile,
            cells: vec![[0; 3]; unit_grid.num_cells()],
            current: 0,
            heap: BinaryHeap::new(),
            path: Vec::new(),
        }
    }

    /// Shortest (collision-penalized) path from `from` to `to`: the
    /// indices of the cells *after* `from`, in reverse (destination
    /// first). The slice is valid until the next search.
    ///
    /// # Panics
    ///
    /// Panics if no path exists — ports always sit in loaded (nonzero)
    /// channels, whose strips span the chip and intersect, so this
    /// indicates an internal inconsistency.
    fn search(
        &mut self,
        from: (usize, usize),
        to: (usize, usize),
        h_occ: &[u16],
        v_occ: &[u16],
        penalty: u32,
    ) -> &[u32] {
        self.path.clear();
        if from == to {
            return &self.path;
        }
        self.current += 1;
        self.heap.clear();
        let (w, h, current, capacity) = (self.width, self.height, self.current, self.capacity);
        let heuristic = |x: usize, y: usize| -> u32 {
            (x.abs_diff(to.0) + y.abs_diff(to.1)) as u32 * MOVE_COST
        };
        let start = from.1 * w + from.0;
        let goal = to.1 * w + to.0;
        self.cells[start] = [0, u32::MAX, current];
        self.heap.push(heap_key(heuristic(from.0, from.1), start));
        while let Some(Reverse(key)) = self.heap.pop() {
            let (f, node) = ((key >> 32) as u32, (key & 0xffff_ffff) as usize);
            let (x, y) = (node % w, node / w);
            let g_here = self.cells[node][G];
            if f > g_here + heuristic(x, y) {
                continue; // stale entry
            }
            if node == goal {
                let mut at = node;
                while at != start {
                    self.path.push(at as u32);
                    at = self.cells[at][CAME] as usize;
                }
                return &self.path;
            }
            let (cells, heap) = (&mut self.cells, &mut self.heap);
            let mut try_move = |nx: usize, ny: usize, ni: usize, occ: &[u16]| {
                let over = (occ[ni] + 1).saturating_sub(capacity) as u32;
                let ng = g_here + MOVE_COST + penalty * over;
                let cell = &mut cells[ni];
                if cell[GEN] != current || ng < cell[G] {
                    *cell = [ng, node as u32, current];
                    heap.push(heap_key(ng + heuristic(nx, ny), ni));
                }
            };
            // A neighbour is blocked iff its column and its row both lie
            // in tile strips; a move keeps one of the two coordinates.
            let (col_free, row_free) = (!self.col_in_tile[x], !self.row_in_tile[y]);
            if x + 1 < w && (row_free || !self.col_in_tile[x + 1]) {
                try_move(x + 1, y, node + 1, h_occ);
            }
            if x > 0 && (row_free || !self.col_in_tile[x - 1]) {
                try_move(x - 1, y, node - 1, h_occ);
            }
            if y + 1 < h && (col_free || !self.row_in_tile[y + 1]) {
                try_move(x, y + 1, node + w, v_occ);
            }
            if y > 0 && (col_free || !self.row_in_tile[y - 1]) {
                try_move(x, y - 1, node - w, v_occ);
            }
        }
        panic!("no route between cells {from:?} and {to:?}");
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::params::ArchParams;
    use crate::placement::TilePlacement;
    use crate::spacing::Spacings;
    use proptest::prelude::*;
    use shg_topology::db::TopologyDb;
    use shg_topology::{generators, Grid, Topology};
    use shg_units::{
        AspectRatio, BitsPerCycle, GateEquivalents, Hertz, RouterAreaModel, Technology, Transport,
    };

    fn params(grid: Grid) -> ArchParams {
        ArchParams {
            grid,
            endpoint_area: GateEquivalents::mega(2.0),
            endpoints_per_tile: 1,
            aspect_ratio: AspectRatio::square(),
            frequency: Hertz::giga(1.2),
            bandwidth: BitsPerCycle::new(512),
            technology: Technology::example_22nm(),
            transport: Transport::axi_like(),
            router_model: RouterAreaModel::input_queued(8, 32),
        }
    }

    /// Steps 1–4, then step 5 through `router`.
    fn route_with(
        topology: &Topology,
        options: &ModelOptions,
        router: fn(&Topology, &UnitGrid, &GlobalRouting, &ModelOptions) -> DetailedRoutes,
    ) -> (DetailedRoutes, UnitGrid) {
        let p = params(topology.grid());
        let placement = TilePlacement::compute(&p, topology);
        let global = GlobalRouting::route(topology, options.port_placement);
        let spacings = Spacings::compute(&p, &global.loads);
        let ug = UnitGrid::build(&p, options, &placement, &spacings);
        (router(topology, &ug, &global, options), ug)
    }

    fn route_all(topology: &Topology, options: &ModelOptions) -> (DetailedRoutes, UnitGrid) {
        route_with(topology, options, DetailedRoutes::route)
    }

    /// The textbook form of step 5, kept as the oracle for [`AStar`]:
    /// every neighbour probed through [`UnitGrid::is_blocked`], a fresh
    /// heap keyed by the tuple `(f, cell)` and fresh score tables per
    /// link, paths as coordinate pairs.
    fn reference_route(
        topology: &Topology,
        unit_grid: &UnitGrid,
        global: &GlobalRouting,
        options: &ModelOptions,
    ) -> DetailedRoutes {
        let ports = PortAssignment::compute(topology, unit_grid, global);
        let mut h_occ = vec![0u16; unit_grid.num_cells()];
        let mut v_occ = vec![0u16; unit_grid.num_cells()];
        let mut routes = vec![LinkRoute::default(); topology.num_links()];
        let penalty = collision_penalty(options);
        for id in longest_first(topology) {
            routes[id.index()] = match ports.endpoints(id) {
                Endpoints::Direct => direct_route(topology, unit_grid, id, &mut h_occ, &mut v_occ),
                Endpoints::Routed(from, to) => {
                    let mut route = LinkRoute::default();
                    let mut prev = *from;
                    for (x, y) in reference_search(unit_grid, *from, *to, &h_occ, &v_occ, penalty) {
                        if x != prev.0 {
                            route.h_moves += 1;
                            h_occ[unit_grid.index(x, y)] += 1;
                        } else {
                            route.v_moves += 1;
                            v_occ[unit_grid.index(x, y)] += 1;
                        }
                        prev = (x, y);
                    }
                    route
                }
            };
        }
        DetailedRoutes::summarize(routes, &h_occ, &v_occ, unit_grid.capacity())
    }

    /// The cells after `from` on the cheapest path to `to`, in order.
    fn reference_search(
        ug: &UnitGrid,
        from: (usize, usize),
        to: (usize, usize),
        h_occ: &[u16],
        v_occ: &[u16],
        penalty: u32,
    ) -> Vec<(usize, usize)> {
        let (w, h) = (ug.cells_x, ug.cells_y);
        let heuristic = |x: usize, y: usize| -> u32 {
            (x.abs_diff(to.0) + y.abs_diff(to.1)) as u32 * MOVE_COST
        };
        let mut g = vec![u32::MAX; ug.num_cells()];
        let mut came = vec![usize::MAX; ug.num_cells()];
        let mut heap: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
        let start = ug.index(from.0, from.1);
        g[start] = 0;
        heap.push(Reverse((heuristic(from.0, from.1), start)));
        while let Some(Reverse((f, node))) = heap.pop() {
            let (x, y) = (node % w, node / w);
            if f > g[node] + heuristic(x, y) {
                continue; // stale entry
            }
            if (x, y) == to {
                let mut path = Vec::new();
                let mut at = node;
                while at != start {
                    path.push((at % w, at / w));
                    at = came[at];
                }
                path.reverse();
                return path;
            }
            let mut neighbours = Vec::with_capacity(4);
            if x + 1 < w {
                neighbours.push((x + 1, y, h_occ));
            }
            if x > 0 {
                neighbours.push((x - 1, y, h_occ));
            }
            if y + 1 < h {
                neighbours.push((x, y + 1, v_occ));
            }
            if y > 0 {
                neighbours.push((x, y - 1, v_occ));
            }
            for (nx, ny, occ) in neighbours {
                if ug.is_blocked(nx, ny) {
                    continue;
                }
                let ni = ug.index(nx, ny);
                let over = (occ[ni] + 1).saturating_sub(ug.capacity()) as u32;
                let ng = g[node] + MOVE_COST + penalty * over;
                if ng < g[ni] {
                    g[ni] = ng;
                    came[ni] = node;
                    heap.push(Reverse((ng + heuristic(nx, ny), ni)));
                }
            }
        }
        panic!("no route between cells {from:?} and {to:?}");
    }

    /// Both routing modes at each of the cell scales the repo uses
    /// (1 default, 2 in tests, 6 in `customize`).
    fn all_options() -> Vec<ModelOptions> {
        let mut all = Vec::new();
        for detailed_routing in [RoutingMode::CollisionAware, RoutingMode::CongestionBlind] {
            for cell_scale in [1.0, 2.0, 6.0] {
                all.push(ModelOptions {
                    detailed_routing,
                    cell_scale,
                    ..ModelOptions::default()
                });
            }
        }
        all
    }

    fn assert_matches_reference(topology: &Topology, options: &ModelOptions) -> DetailedRoutes {
        let got = route_all(topology, options).0;
        let want = route_with(topology, options, reference_route).0;
        let what = format!(
            "{topology} {:?} scale {}",
            options.detailed_routing, options.cell_scale
        );
        assert_eq!(got.routes, want.routes, "{what}: routes");
        assert_eq!(got.h_occupied_cells, want.h_occupied_cells, "{what}");
        assert_eq!(got.v_occupied_cells, want.v_occupied_cells, "{what}");
        assert_eq!(got.collisions, want.collisions, "{what}: collisions");
        got
    }

    #[test]
    fn kernel_equals_the_reference_router_on_every_family() {
        let grid = Grid::new(8, 8);
        let two_die = TopologyDb::parse(
            "die/compute/6x5/shg:sr=3:sc=2,4;die/hbm/6x5/mesh;\
             region/hbm/r0..6/c0..5/memory/sc=2;boundary/every=2/latency=5",
        )
        .expect("db parses")
        .instantiate()
        .expect("db instantiates");
        let topologies = [
            generators::mesh(grid),
            generators::torus(grid),
            generators::folded_torus(grid),
            generators::flattened_butterfly(grid),
            generators::ruche(grid, 3).expect("valid factor"),
            generators::slim_noc(Grid::new(10, 5)).expect("50 tiles"),
            // Scenario (a) of the paper.
            generators::row_column_skip(
                grid,
                &[4].into_iter().collect(),
                &[2, 5].into_iter().collect(),
            )
            .expect("valid skips"),
            two_die,
        ];
        let mut collisions = 0;
        for topology in &topologies {
            for options in all_options() {
                collisions += assert_matches_reference(topology, &options).collisions;
            }
        }
        // The comparison is not vacuous: links did compete for cells.
        assert!(collisions > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn kernel_equals_the_reference_router_on_random_shgs(
            (grid, sr, sc) in (2u16..=10, 2u16..=10).prop_flat_map(|(r, c)| {
                let sr = proptest::collection::btree_set(2u16..c.max(3), 0..=c as usize);
                let sc = proptest::collection::btree_set(2u16..r.max(3), 0..=r as usize);
                (sr, sc).prop_map(move |(sr, sc)| {
                    let sr: BTreeSet<u16> = sr.into_iter().filter(|&x| x < c).collect();
                    let sc: BTreeSet<u16> = sc.into_iter().filter(|&x| x < r).collect();
                    (Grid::new(r, c), sr, sc)
                })
            }),
            blind in 0u8..2,
        ) {
            let topology = generators::row_column_skip(grid, &sr, &sc).expect("filtered");
            let options = ModelOptions {
                detailed_routing: if blind == 1 {
                    RoutingMode::CongestionBlind
                } else {
                    RoutingMode::CollisionAware
                },
                cell_scale: 2.0,
                ..ModelOptions::default()
            };
            assert_matches_reference(&topology, &options);
        }
    }

    #[test]
    fn mesh_routes_are_zero_length() {
        // A pure mesh has zero-width gaps: direct links cross for free.
        let mesh = generators::mesh(Grid::new(4, 4));
        let (routes, _) = route_all(&mesh, &ModelOptions::default());
        for route in &routes.routes {
            assert_eq!(route.h_moves + route.v_moves, 0);
        }
        assert_eq!(routes.collisions, 0);
    }

    #[test]
    fn skip_links_are_much_longer_than_mesh_links() {
        let grid = Grid::new(4, 4);
        let sr = [3].into_iter().collect();
        let sc = std::collections::BTreeSet::new();
        let shg = generators::row_column_skip(grid, &sr, &sc).expect("valid");
        let (routes, ug) = route_all(&shg, &ModelOptions::default());
        let tile_w = {
            let r = ug.tile_rect(shg_topology::TileId::new(0));
            (r.x1 - r.x0) as u32
        };
        for i in 0..shg.num_links() {
            let id = LinkId::new(i as u32);
            let total = routes.routes[i].h_moves + routes.routes[i].v_moves;
            if shg.link_length(id) == 3 {
                // Skip-3 links detour around two interior tiles.
                assert!(total >= 2 * tile_w, "skip link {i}: {total} cells");
            } else {
                assert!(total <= tile_w / 2, "mesh link {i}: {total} cells");
            }
        }
    }

    #[test]
    fn collision_aware_no_worse_than_congestion_blind() {
        let grid = Grid::new(8, 8);
        let sr = [2, 4].into_iter().collect();
        let sc = [2, 4].into_iter().collect();
        let shg = generators::row_column_skip(grid, &sr, &sc).expect("valid");
        let aware = route_all(&shg, &ModelOptions::default()).0;
        let blind = route_all(
            &shg,
            &ModelOptions {
                detailed_routing: RoutingMode::CongestionBlind,
                ..ModelOptions::default()
            },
        )
        .0;
        assert!(
            aware.collisions <= blind.collisions,
            "aware {} vs blind {}",
            aware.collisions,
            blind.collisions
        );
    }

    #[test]
    fn routes_are_deterministic() {
        let grid = Grid::new(4, 4);
        let torus = generators::torus(grid);
        let a = route_all(&torus, &ModelOptions::default()).0;
        let b = route_all(&torus, &ModelOptions::default()).0;
        assert_eq!(a, b);
    }

    #[test]
    fn torus_wrap_links_occupy_channels() {
        let torus = generators::torus(Grid::new(4, 4));
        let (routes, ug) = route_all(&torus, &ModelOptions::default());
        assert!(routes.h_occupied_cells > 0);
        assert!(routes.v_occupied_cells > 0);
        // Wrap links span roughly two interior tile widths.
        let tile = ug.tile_rect(shg_topology::TileId::new(0));
        let tile_w = (tile.x1 - tile.x0) as u32;
        let max_route = routes
            .routes
            .iter()
            .map(|r| r.h_moves + r.v_moves)
            .max()
            .expect("links exist");
        assert!(
            max_route >= 2 * tile_w,
            "longest wrap route {max_route} cells vs tile width {tile_w}"
        );
    }

    #[test]
    fn slimnoc_diagonals_route() {
        let slim = generators::slim_noc(Grid::new(10, 5)).expect("50 tiles");
        let (routes, _) = route_all(&slim, &ModelOptions::default());
        assert_eq!(routes.routes.len(), slim.num_links());
        // Diagonal links have both horizontal and vertical moves.
        let has_diag = routes.routes.iter().any(|r| r.h_moves > 0 && r.v_moves > 0);
        assert!(has_diag);
    }
}
