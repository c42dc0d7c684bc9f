//! Step 4 — discretization of the chip into same-sized unit cells
//! (Fig. 5d).
//!
//! A unit cell is sized to accommodate exactly one horizontal and one
//! vertical link: `H_C = f^H_wires→mm(f_bw→wires(B))` and
//! `W_C = f^V_wires→mm(f_bw→wires(B))`. The chip becomes a grid of cells
//! in which tiles are blocked rectangles and the inter-tile channels are
//! routable space.

use serde::{Deserialize, Serialize};

use shg_topology::{Grid, TileCoord, TileId};
use shg_units::{Mm, Mm2};

use crate::params::{ArchParams, ModelOptions};
use crate::placement::TilePlacement;
use crate::spacing::Spacings;

/// A rectangle of unit cells (`x0..x1` × `y0..y1`, half-open).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellRect {
    /// Leftmost cell column.
    pub x0: usize,
    /// Topmost cell row.
    pub y0: usize,
    /// One past the rightmost cell column.
    pub x1: usize,
    /// One past the bottommost cell row.
    pub y1: usize,
}

impl CellRect {
    /// Number of cells covered.
    #[must_use]
    pub fn cells(&self) -> usize {
        (self.x1 - self.x0) * (self.y1 - self.y0)
    }
}

/// The discretized chip: cell dimensions, strip layout, and blocked map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitGrid {
    /// Cell width `W_C`.
    pub cell_width: Mm,
    /// Cell height `H_C`.
    pub cell_height: Mm,
    /// Number of cell columns.
    pub cells_x: usize,
    /// Number of cell rows.
    pub cells_y: usize,
    grid: Grid,
    /// Starting cell column of each vertical gap `0..=C`.
    v_gap_x0: Vec<usize>,
    /// Cell width of each vertical gap.
    v_gap_w: Vec<usize>,
    /// Starting cell row of each horizontal gap `0..=R`.
    h_gap_y0: Vec<usize>,
    /// Cell height of each horizontal gap.
    h_gap_h: Vec<usize>,
    /// Starting cell column of each tile column.
    tile_x0: Vec<usize>,
    /// Starting cell row of each tile row.
    tile_y0: Vec<usize>,
    /// Tile block size in cells.
    tile_w: usize,
    tile_h: usize,
    /// Links each cell can carry per direction: 1 at `cell_scale = 1`,
    /// proportionally more for coarse cells.
    capacity: u16,
}

impl UnitGrid {
    /// Builds the cell grid from steps 1–3.
    ///
    /// Gaps that carry no links have zero width — their tiles abut, as on
    /// a real chip where a plain mesh needs no routing channels at all.
    #[must_use]
    pub fn build(
        params: &ArchParams,
        options: &ModelOptions,
        placement: &TilePlacement,
        spacings: &Spacings,
    ) -> Self {
        let wires = params.wires_per_link();
        let cell_height = params.technology.h_wires_to_mm(wires) * options.cell_scale;
        let cell_width = params.technology.v_wires_to_mm(wires) * options.cell_scale;
        let grid = params.grid;
        let to_cells_w = |mm: Mm| -> usize { (mm.value() / cell_width.value()).ceil() as usize };
        let to_cells_h = |mm: Mm| -> usize { (mm.value() / cell_height.value()).ceil() as usize };
        let tile_w = to_cells_w(placement.tile_width).max(1);
        let tile_h = to_cells_h(placement.tile_height).max(1);
        let v_gap_w: Vec<usize> = spacings.col_gaps.iter().map(|&s| to_cells_w(s)).collect();
        let h_gap_h: Vec<usize> = spacings.row_gaps.iter().map(|&s| to_cells_h(s)).collect();
        let mut v_gap_x0 = Vec::with_capacity(v_gap_w.len());
        let mut tile_x0 = Vec::with_capacity(grid.cols() as usize);
        let mut x = 0usize;
        for &gap in v_gap_w.iter().take(grid.cols() as usize) {
            v_gap_x0.push(x);
            x += gap;
            tile_x0.push(x);
            x += tile_w;
        }
        v_gap_x0.push(x);
        x += v_gap_w[grid.cols() as usize];
        let cells_x = x;
        let mut h_gap_y0 = Vec::with_capacity(h_gap_h.len());
        let mut tile_y0 = Vec::with_capacity(grid.rows() as usize);
        let mut y = 0usize;
        for &gap in h_gap_h.iter().take(grid.rows() as usize) {
            h_gap_y0.push(y);
            y += gap;
            tile_y0.push(y);
            y += tile_h;
        }
        h_gap_y0.push(y);
        y += h_gap_h[grid.rows() as usize];
        let cells_y = y;
        Self {
            cell_width,
            cell_height,
            cells_x,
            cells_y,
            grid,
            v_gap_x0,
            v_gap_w,
            h_gap_y0,
            h_gap_h,
            tile_x0,
            tile_y0,
            tile_w,
            tile_h,
            capacity: options.cell_scale.round().max(1.0) as u16,
        }
    }

    /// Links each cell can carry per direction without a collision.
    #[must_use]
    pub fn capacity(&self) -> u16 {
        self.capacity
    }

    /// Total number of unit cells (`N_cell`).
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.cells_x * self.cells_y
    }

    /// Area of one unit cell (`A_C = H_C · W_C`).
    #[must_use]
    pub fn cell_area(&self) -> Mm2 {
        self.cell_width * self.cell_height
    }

    /// Total chip area (`A_tot = N_cell · A_C`).
    #[must_use]
    pub fn total_area(&self) -> Mm2 {
        self.cell_area() * self.num_cells() as f64
    }

    /// Chip width in mm.
    #[must_use]
    pub fn chip_width(&self) -> Mm {
        self.cell_width * self.cells_x as f64
    }

    /// Chip height in mm.
    #[must_use]
    pub fn chip_height(&self) -> Mm {
        self.cell_height * self.cells_y as f64
    }

    /// The blocked rectangle of a tile.
    ///
    /// # Panics
    ///
    /// Panics if the tile id is out of range.
    #[must_use]
    pub fn tile_rect(&self, tile: TileId) -> CellRect {
        let coord = self.grid.coord(tile);
        let x0 = self.tile_x0[coord.col as usize];
        let y0 = self.tile_y0[coord.row as usize];
        CellRect {
            x0,
            y0,
            x1: x0 + self.tile_w,
            y1: y0 + self.tile_h,
        }
    }

    /// Number of cells covered by tiles (`N^L_cell`, the logic cells).
    #[must_use]
    pub fn logic_cells(&self) -> usize {
        self.grid.num_tiles() * self.tile_w * self.tile_h
    }

    /// `true` if the cell at `(x, y)` lies inside a tile block.
    #[must_use]
    pub fn is_blocked(&self, x: usize, y: usize) -> bool {
        let in_tile_strip = |starts: &[usize], size: usize, v: usize| -> bool {
            // Strips are sorted; find the strip containing v.
            match starts.binary_search(&v) {
                Ok(_) => true,
                Err(0) => false,
                Err(i) => v < starts[i - 1] + size,
            }
        };
        in_tile_strip(&self.tile_x0, self.tile_w, x) && in_tile_strip(&self.tile_y0, self.tile_h, y)
    }

    /// [`UnitGrid::is_blocked`] in table form, for the step-5 search loop:
    /// per cell column and per cell row, whether it lies in a tile strip.
    /// A cell is blocked iff both its column's and its row's flag hold.
    pub(crate) fn tile_strip_flags(&self) -> (Vec<bool>, Vec<bool>) {
        let flags = |len: usize, starts: &[usize], size: usize| -> Vec<bool> {
            let mut in_tile = vec![false; len];
            for &start in starts {
                in_tile[start..start + size].fill(true);
            }
            in_tile
        };
        (
            flags(self.cells_x, &self.tile_x0, self.tile_w),
            flags(self.cells_y, &self.tile_y0, self.tile_h),
        )
    }

    /// Cell index for `(x, y)` into flat occupancy arrays.
    #[must_use]
    pub fn index(&self, x: usize, y: usize) -> usize {
        y * self.cells_x + x
    }

    /// Width in cells of vertical gap `g ∈ 0..=C`.
    #[must_use]
    pub fn v_gap_width(&self, gap: u16) -> usize {
        self.v_gap_w[gap as usize]
    }

    /// Height in cells of horizontal gap `g ∈ 0..=R`.
    #[must_use]
    pub fn h_gap_height(&self, gap: u16) -> usize {
        self.h_gap_h[gap as usize]
    }

    /// First cell column of vertical gap `g`.
    #[must_use]
    pub fn v_gap_start(&self, gap: u16) -> usize {
        self.v_gap_x0[gap as usize]
    }

    /// First cell row of horizontal gap `g`.
    #[must_use]
    pub fn h_gap_start(&self, gap: u16) -> usize {
        self.h_gap_y0[gap as usize]
    }

    /// The port cell of `tile` on `face`, at `slot` of `slots` evenly
    /// spread along the face. The cell lies in the adjacent gap, touching
    /// the tile.
    ///
    /// # Panics
    ///
    /// Panics if `slot ≥ slots`, if `slots == 0`, or if the adjacent gap
    /// has zero width (only faces toward loaded channels have ports).
    #[must_use]
    pub fn port_cell(&self, tile: TileId, face: Face, slot: usize, slots: usize) -> (usize, usize) {
        assert!(slot < slots && slots > 0, "slot {slot} of {slots}");
        let coord = self.grid.coord(tile);
        let gap_size = match face {
            Face::North => self.h_gap_h[coord.row as usize],
            Face::South => self.h_gap_h[coord.row as usize + 1],
            Face::West => self.v_gap_w[coord.col as usize],
            Face::East => self.v_gap_w[coord.col as usize + 1],
        };
        assert!(
            gap_size > 0,
            "tile {tile} face {face:?}: adjacent gap has zero width"
        );
        let rect = self.tile_rect(tile);
        let spread =
            |lo: usize, size: usize| -> usize { lo + (size * (slot + 1)) / (slots + 1).max(1) };
        match face {
            Face::North => {
                let gap = coord.row as usize;
                let y = self.h_gap_y0[gap] + self.h_gap_h[gap] - 1;
                (spread(rect.x0, self.tile_w).min(rect.x1 - 1), y)
            }
            Face::South => {
                let gap = coord.row as usize + 1;
                let y = self.h_gap_y0[gap];
                (spread(rect.x0, self.tile_w).min(rect.x1 - 1), y)
            }
            Face::West => {
                let gap = coord.col as usize;
                let x = self.v_gap_x0[gap] + self.v_gap_w[gap] - 1;
                (x, spread(rect.y0, self.tile_h).min(rect.y1 - 1))
            }
            Face::East => {
                let gap = coord.col as usize + 1;
                let x = self.v_gap_x0[gap];
                (x, spread(rect.y0, self.tile_h).min(rect.y1 - 1))
            }
        }
    }

    /// The face of `from` that points toward `to` (dominant axis;
    /// horizontal wins ties so aligned row links use east/west).
    #[must_use]
    pub fn facing(&self, from: TileCoord, to: TileCoord) -> Face {
        let dr = to.row as i32 - from.row as i32;
        let dc = to.col as i32 - from.col as i32;
        if dc.abs() >= dr.abs() {
            if dc >= 0 {
                Face::East
            } else {
                Face::West
            }
        } else if dr > 0 {
            Face::South
        } else {
            Face::North
        }
    }
}

/// A face of a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Face {
    /// Toward row 0.
    North,
    /// Toward row R−1.
    South,
    /// Toward column C−1.
    East,
    /// Toward column 0.
    West,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_route::GlobalRouting;
    use crate::params::PortPlacement;
    use shg_topology::{generators, Grid};
    use shg_units::{
        AspectRatio, BitsPerCycle, GateEquivalents, Hertz, RouterAreaModel, Technology, Transport,
    };

    fn setup(grid: Grid) -> (ArchParams, ModelOptions) {
        (
            ArchParams {
                grid,
                endpoint_area: GateEquivalents::mega(35.0),
                endpoints_per_tile: 1,
                aspect_ratio: AspectRatio::square(),
                frequency: Hertz::giga(1.2),
                bandwidth: BitsPerCycle::new(512),
                technology: Technology::example_22nm(),
                transport: Transport::axi_like(),
                router_model: RouterAreaModel::input_queued(8, 32),
            },
            ModelOptions::default(),
        )
    }

    /// A grid whose channels all have a fixed nonzero spacing.
    fn build_with_channels(grid: Grid) -> UnitGrid {
        let (params, options) = setup(grid);
        let mesh = generators::mesh(grid);
        let placement = TilePlacement::compute(&params, &mesh);
        let spacings = Spacings {
            row_gaps: vec![Mm::new(0.2); grid.rows() as usize + 1],
            col_gaps: vec![Mm::new(0.2); grid.cols() as usize + 1],
        };
        UnitGrid::build(&params, &options, &placement, &spacings)
    }

    /// The grid of `topology`, its gaps sized by its own channel loads.
    fn build_routed(topology: &shg_topology::Topology) -> UnitGrid {
        let (params, options) = setup(topology.grid());
        let placement = TilePlacement::compute(&params, topology);
        let routing = GlobalRouting::route(topology, PortPlacement::Optimized);
        let spacings = Spacings::compute(&params, &routing.loads);
        UnitGrid::build(&params, &options, &placement, &spacings)
    }

    /// A mesh grid: no channel loads, so all gaps are zero-width.
    fn build_mesh(grid: Grid) -> UnitGrid {
        build_routed(&generators::mesh(grid))
    }

    #[test]
    fn strips_tile_the_chip_exactly() {
        let ug = build_with_channels(Grid::new(4, 4));
        let tile = ug.tile_rect(TileId::new(0));
        let expected_x: usize = ug.v_gap_w.iter().sum::<usize>() + 4 * (tile.x1 - tile.x0);
        assert_eq!(ug.cells_x, expected_x);
    }

    #[test]
    fn mesh_gaps_are_zero_width() {
        let ug = build_mesh(Grid::new(4, 4));
        for g in 0..=4 {
            assert_eq!(ug.v_gap_width(g), 0);
            assert_eq!(ug.h_gap_height(g), 0);
        }
        // The chip is then exactly the tiles.
        assert_eq!(ug.num_cells(), ug.logic_cells());
    }

    #[test]
    fn logic_cells_match_tile_rects() {
        let ug = build_with_channels(Grid::new(4, 4));
        let total: usize = (0..16).map(|i| ug.tile_rect(TileId::new(i)).cells()).sum();
        assert_eq!(ug.logic_cells(), total);
    }

    #[test]
    fn blocked_inside_tiles_free_in_gaps() {
        let ug = build_with_channels(Grid::new(4, 4));
        let rect = ug.tile_rect(TileId::new(5));
        assert!(ug.is_blocked(rect.x0, rect.y0));
        assert!(ug.is_blocked(rect.x1 - 1, rect.y1 - 1));
        // Cell just left of the tile is in a gap.
        assert!(!ug.is_blocked(rect.x0 - 1, rect.y0));
        // Origin is the chip-corner gap.
        assert!(!ug.is_blocked(0, 0));
    }

    #[test]
    fn strip_flags_agree_with_is_blocked_on_every_cell() {
        let grid = Grid::new(4, 4);
        // Row skips only: horizontal channels open up, every vertical gap
        // stays zero-width — next to all-zero and all-nonzero gaps.
        let row_skips =
            generators::row_column_skip(grid, &[2].into_iter().collect(), &Default::default())
                .expect("valid skips");
        for ug in [
            build_mesh(grid),
            build_routed(&row_skips),
            build_with_channels(grid),
        ] {
            let (col_in_tile, row_in_tile) = ug.tile_strip_flags();
            assert_eq!(
                (col_in_tile.len(), row_in_tile.len()),
                (ug.cells_x, ug.cells_y)
            );
            for (y, &in_tile_row) in row_in_tile.iter().enumerate() {
                for (x, &in_tile_col) in col_in_tile.iter().enumerate() {
                    assert_eq!(
                        in_tile_col && in_tile_row,
                        ug.is_blocked(x, y),
                        "cell ({x}, {y})"
                    );
                }
            }
        }
    }

    #[test]
    fn port_cells_are_unblocked_and_adjacent() {
        let ug = build_with_channels(Grid::new(4, 4));
        for tile in (0..16).map(TileId::new) {
            let rect = ug.tile_rect(tile);
            for face in [Face::North, Face::South, Face::East, Face::West] {
                let (x, y) = ug.port_cell(tile, face, 0, 2);
                assert!(!ug.is_blocked(x, y), "{tile:?} {face:?} port blocked");
                // The port touches the tile rectangle.
                let touches = match face {
                    Face::North => y + 1 == rect.y0,
                    Face::South => y == rect.y1,
                    Face::West => x + 1 == rect.x0,
                    Face::East => x == rect.x1,
                };
                assert!(touches, "{tile:?} {face:?} port at ({x},{y}) not adjacent");
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero width")]
    fn port_on_zero_width_gap_panics() {
        let ug = build_mesh(Grid::new(4, 4));
        let _ = ug.port_cell(TileId::new(5), Face::North, 0, 1);
    }

    #[test]
    fn facing_prefers_dominant_axis() {
        let ug = build_with_channels(Grid::new(4, 4));
        let a = TileCoord::new(0, 0);
        assert_eq!(ug.facing(a, TileCoord::new(0, 3)), Face::East);
        assert_eq!(ug.facing(a, TileCoord::new(3, 0)), Face::South);
        assert_eq!(ug.facing(TileCoord::new(3, 3), a), Face::West);
        assert_eq!(ug.facing(TileCoord::new(3, 0), a), Face::North);
    }

    #[test]
    fn chip_area_is_consistent() {
        let ug = build_with_channels(Grid::new(8, 8));
        let area = ug.total_area().value();
        let wh = ug.chip_width().value() * ug.chip_height().value();
        assert!((area - wh).abs() < 1e-6);
        // A 64-tile KNC-like chip should be in the several-hundred-mm² range.
        assert!(area > 300.0 && area < 2000.0, "chip area {area} mm²");
    }

    #[test]
    fn cell_scale_coarsens_grid() {
        let grid = Grid::new(4, 4);
        let (params, mut options) = setup(grid);
        let mesh = generators::mesh(grid);
        let placement = TilePlacement::compute(&params, &mesh);
        let spacings = Spacings {
            row_gaps: vec![Mm::new(0.2); 5],
            col_gaps: vec![Mm::new(0.2); 5],
        };
        let fine = UnitGrid::build(&params, &options, &placement, &spacings);
        options.cell_scale = 2.0;
        let coarse = UnitGrid::build(&params, &options, &placement, &spacings);
        assert!(coarse.num_cells() < fine.num_cells());
    }
}
