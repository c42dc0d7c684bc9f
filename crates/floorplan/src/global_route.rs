//! Step 2 — global routing in the grid of tiles (Fig. 5b).
//!
//! Links cannot be routed over tiles (tiles occupy all metal layers,
//! Section II-A), so every link is assigned to the channels between rows
//! and columns of tiles. Wire routing is NP-complete; like real VLSI flows
//! the model uses a greedy heuristic: links are routed longest-first, each
//! choosing the candidate channel assignment that adds the least
//! congestion.
//!
//! Channel conventions:
//!
//! * *Horizontal channel* `g ∈ 0..=R` runs above grid row `g` (channel `R`
//!   is below the last row). Horizontal wires in it consume vertical space,
//!   so its height is set by `f^H_wires→mm` in step 3.
//! * *Vertical channel* `g ∈ 0..=C` runs left of grid column `g`.
//!
//! A link between grid-adjacent tiles crosses the single gap between them
//! directly and loads no channel. A skip link along a row must detour
//! around the tiles in between: it runs in a horizontal channel above or
//! below its row, loading the channel at every tile-column position it
//! passes over. Diagonal links (SlimNoC) take an L through one horizontal
//! and one vertical channel.

use serde::{Deserialize, Serialize};

use shg_topology::{LinkId, Topology};

use crate::params::PortPlacement;

/// One straight run of a link inside a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Segment {
    /// Direct hop across the gap between two grid-adjacent tiles.
    Direct,
    /// Run in horizontal channel `gap`, passing over tile columns
    /// `c_start..=c_end`.
    Horizontal {
        /// Channel index `0..=R`.
        gap: u16,
        /// First tile column passed over.
        c_start: u16,
        /// Last tile column passed over.
        c_end: u16,
    },
    /// Run in vertical channel `gap`, passing over tile rows
    /// `r_start..=r_end`.
    Vertical {
        /// Channel index `0..=C`.
        gap: u16,
        /// First tile row passed over.
        r_start: u16,
        /// Last tile row passed over.
        r_end: u16,
    },
}

/// Per-channel, per-position parallel link counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelLoads {
    /// `horizontal[g][c]`: links running in horizontal channel `g` over
    /// tile column `c`.
    pub horizontal: Vec<Vec<u32>>,
    /// `vertical[g][r]`: links running in vertical channel `g` over tile
    /// row `r`.
    pub vertical: Vec<Vec<u32>>,
}

impl ChannelLoads {
    fn new(rows: u16, cols: u16) -> Self {
        Self {
            horizontal: vec![vec![0; cols as usize]; rows as usize + 1],
            vertical: vec![vec![0; rows as usize]; cols as usize + 1],
        }
    }

    /// Maximum parallel links in horizontal channel `g` (the `N_L` of the
    /// step-3 spacing formula).
    #[must_use]
    pub fn max_horizontal(&self, gap: u16) -> u32 {
        self.horizontal[gap as usize]
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Maximum parallel links in vertical channel `g`.
    #[must_use]
    pub fn max_vertical(&self, gap: u16) -> u32 {
        self.vertical[gap as usize]
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    fn apply(&mut self, segment: Segment, delta: u32) {
        match segment {
            Segment::Direct => {}
            Segment::Horizontal {
                gap,
                c_start,
                c_end,
            } => {
                for c in c_start..=c_end {
                    self.horizontal[gap as usize][c as usize] += delta;
                }
            }
            Segment::Vertical {
                gap,
                r_start,
                r_end,
            } => {
                for r in r_start..=r_end {
                    self.vertical[gap as usize][r as usize] += delta;
                }
            }
        }
    }

    fn cost(&self, segments: &[Segment]) -> u64 {
        let mut cost = 0u64;
        for segment in segments {
            match *segment {
                Segment::Direct => {}
                Segment::Horizontal {
                    gap,
                    c_start,
                    c_end,
                } => {
                    for c in c_start..=c_end {
                        // Quadratic-ish congestion cost: prefer spreading.
                        cost += 1 + self.horizontal[gap as usize][c as usize] as u64;
                    }
                }
                Segment::Vertical {
                    gap,
                    r_start,
                    r_end,
                } => {
                    for r in r_start..=r_end {
                        cost += 1 + self.vertical[gap as usize][r as usize] as u64;
                    }
                }
            }
        }
        cost
    }
}

/// The global routing of every link plus the resulting channel loads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalRouting {
    /// `segments[offsets[l]..offsets[l + 1]]` = channel segments of link
    /// `l` (see [`GlobalRouting::plan`]).
    offsets: Vec<u32>,
    segments: Vec<Segment>,
    /// Channel congestion after routing all links.
    pub loads: ChannelLoads,
}

impl GlobalRouting {
    /// Greedily routes all links of `topology`.
    ///
    /// # Examples
    ///
    /// ```
    /// use shg_floorplan::{GlobalRouting, PortPlacement};
    /// use shg_topology::{generators, Grid};
    ///
    /// let mesh = generators::mesh(Grid::new(4, 4));
    /// let routing = GlobalRouting::route(&mesh, PortPlacement::Optimized);
    /// // Mesh links are all direct: no channel is loaded.
    /// assert_eq!(routing.loads.max_horizontal(1), 0);
    /// ```
    #[must_use]
    pub fn route(topology: &Topology, placement: PortPlacement) -> Self {
        let grid = topology.grid();
        let mut loads = ChannelLoads::new(grid.rows(), grid.cols());
        // Every candidate plan of a link has the same number of
        // segments, so the plans' slots are fixed before any is chosen.
        let mut offsets = Vec::with_capacity(topology.num_links() + 1);
        offsets.push(0u32);
        for i in 0..topology.num_links() as u32 {
            let len = Candidates::of(topology, LinkId::new(i), placement).len;
            offsets.push(offsets[i as usize] + len as u32);
        }
        let mut segments = vec![Segment::Direct; offsets[topology.num_links()] as usize];
        for id in longest_first(topology) {
            let candidates = Candidates::of(topology, id, placement);
            let best = candidates
                .plans()
                .min_by_key(|plan| loads.cost(plan))
                .expect("at least one candidate plan");
            for &segment in best {
                loads.apply(segment, 1);
            }
            let slot = offsets[id.index()] as usize..offsets[id.index() + 1] as usize;
            segments[slot].copy_from_slice(best);
        }
        Self {
            offsets,
            segments,
            loads,
        }
    }

    /// The channel segments of `link`'s chosen plan.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn plan(&self, link: LinkId) -> &[Segment] {
        &self.segments[self.offsets[link.index()] as usize..self.offsets[link.index() + 1] as usize]
    }

    /// Estimated wire length of a link's plan in *tile pitches*: channel
    /// runs count the tile columns/rows they pass over, direct hops count
    /// as one gap crossing. The detailed router (step 5) refines this.
    #[must_use]
    pub fn plan_span(&self, link: LinkId) -> u32 {
        self.plan(link)
            .iter()
            .map(|segment| match *segment {
                Segment::Direct => 1,
                Segment::Horizontal { c_start, c_end, .. } => u32::from(c_end - c_start) + 1,
                Segment::Vertical { r_start, r_end, .. } => u32::from(r_end - r_start) + 1,
            })
            .sum()
    }
}

/// The order steps 2 and 5 route links in: longest first (they have the
/// fewest routing choices), ties by link id.
pub(crate) fn longest_first(topology: &Topology) -> Vec<LinkId> {
    let mut order: Vec<LinkId> = (0..topology.num_links() as u32).map(LinkId::new).collect();
    order.sort_by_cached_key(|&id| std::cmp::Reverse(topology.link_length(id)));
    order
}

/// Most segments one plan has (the north-only detour).
const MAX_SEGMENTS: usize = 3;
/// Most candidate plans one link has (a diagonal link's L-shapes).
const MAX_CANDIDATES: usize = 8;

/// The candidate channel assignments of one link, held inline: `count`
/// plans of `len` segments each (a link's plans all have one length).
struct Candidates {
    plans: [[Segment; MAX_SEGMENTS]; MAX_CANDIDATES],
    count: usize,
    len: usize,
}

impl Candidates {
    fn push(&mut self, plan: &[Segment]) {
        debug_assert!(self.count == 0 || plan.len() == self.len);
        self.plans[self.count][..plan.len()].copy_from_slice(plan);
        self.len = plan.len();
        self.count += 1;
    }

    /// The plans, in enumeration order.
    fn plans(&self) -> impl Iterator<Item = &[Segment]> {
        self.plans[..self.count]
            .iter()
            .map(|plan| &plan[..self.len])
    }

    /// Enumerates the candidate channel assignments for one link.
    fn of(topology: &Topology, id: LinkId, placement: PortPlacement) -> Self {
        let grid = topology.grid();
        let link = topology.link(id);
        let (a, b) = (grid.coord(link.a), grid.coord(link.b));
        let (c1, c2) = (a.col.min(b.col), a.col.max(b.col));
        let (r1, r2) = (a.row.min(b.row), a.row.max(b.row));
        let horizontal = |gap, c_start, c_end| Segment::Horizontal {
            gap,
            c_start,
            c_end,
        };
        let vertical = |gap, r_start, r_end| Segment::Vertical {
            gap,
            r_start,
            r_end,
        };
        let mut candidates = Self {
            plans: [[Segment::Direct; MAX_SEGMENTS]; MAX_CANDIDATES],
            count: 0,
            len: 0,
        };
        match placement {
            PortPlacement::Optimized if a.manhattan(b) == 1 => {
                candidates.push(&[Segment::Direct]);
            }
            PortPlacement::Optimized if a.row == b.row => {
                // Row skip link: above (gap = row) or below (gap = row+1),
                // passing over the strictly-interior tile columns.
                for gap in [a.row, a.row + 1] {
                    candidates.push(&[horizontal(gap, c1 + 1, c2 - 1)]);
                }
            }
            PortPlacement::Optimized if a.col == b.col => {
                for gap in [a.col, a.col + 1] {
                    candidates.push(&[vertical(gap, r1 + 1, r2 - 1)]);
                }
            }
            PortPlacement::Optimized => {
                // Diagonal link: L-shapes. Horizontal-first from a's row to
                // b's column, then vertical to b's row — and the transposed
                // order.
                for h_gap in [a.row, a.row + 1] {
                    for v_gap in [b.col, b.col + 1] {
                        candidates.push(&[horizontal(h_gap, c1, c2), vertical(v_gap, r1, r2)]);
                    }
                }
                for v_gap in [a.col, a.col + 1] {
                    for h_gap in [b.row, b.row + 1] {
                        candidates.push(&[vertical(v_gap, r1, r2), horizontal(h_gap, c1, c2)]);
                    }
                }
            }
            // Every wire leaves through the north face: route via the
            // channel above the source row, then (if needed) the left
            // vertical channel, then the channel above the target row.
            PortPlacement::NorthOnly if r1 == r2 => {
                candidates.push(&[horizontal(r1, c1, c2)]);
            }
            PortPlacement::NorthOnly => {
                candidates.push(&[
                    horizontal(r1, c1, c2),
                    vertical(c2, r1, r2 - 1),
                    horizontal(r2, c2, c2),
                ]);
            }
        }
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shg_topology::{generators, Grid};

    #[test]
    fn mesh_routes_entirely_direct() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let routing = GlobalRouting::route(&mesh, PortPlacement::Optimized);
        for i in 0..mesh.num_links() as u32 {
            assert_eq!(routing.plan(LinkId::new(i)), [Segment::Direct]);
        }
        for g in 0..=4 {
            assert_eq!(routing.loads.max_horizontal(g), 0);
            assert_eq!(routing.loads.max_vertical(g), 0);
        }
    }

    #[test]
    fn skip_links_balance_above_below() {
        // 1×8 row with skip distance 4: the spans overlap, so the greedy
        // router should spread them across the two horizontal channels
        // (above and below the row).
        let grid = Grid::new(1, 8);
        let sr = [4].into_iter().collect();
        let sc = std::collections::BTreeSet::new();
        let t = generators::row_column_skip(grid, &sr, &sc).expect("valid");
        let routing = GlobalRouting::route(&t, PortPlacement::Optimized);
        let above = routing.loads.max_horizontal(0);
        let below = routing.loads.max_horizontal(1);
        assert!(above > 0 && below > 0, "greedy should use both channels");
        assert!((above as i64 - below as i64).abs() <= 1);
    }

    #[test]
    fn torus_wrap_links_load_channels() {
        let torus = generators::torus(Grid::new(4, 4));
        let routing = GlobalRouting::route(&torus, PortPlacement::Optimized);
        let total_h: u32 = (0..=4).map(|g| routing.loads.max_horizontal(g)).sum();
        let total_v: u32 = (0..=4).map(|g| routing.loads.max_vertical(g)).sum();
        assert!(total_h > 0 && total_v > 0);
    }

    #[test]
    fn north_only_is_more_congested() {
        let grid = Grid::new(8, 8);
        let sr = [4].into_iter().collect();
        let sc = [2, 5].into_iter().collect();
        let shg = generators::row_column_skip(grid, &sr, &sc).expect("valid");
        let optimized = GlobalRouting::route(&shg, PortPlacement::Optimized);
        let north = GlobalRouting::route(&shg, PortPlacement::NorthOnly);
        let max_load = |r: &GlobalRouting| -> u32 {
            let h = (0..=8).map(|g| r.loads.max_horizontal(g)).max().unwrap();
            let v = (0..=8).map(|g| r.loads.max_vertical(g)).max().unwrap();
            h.max(v)
        };
        assert!(
            max_load(&north) > max_load(&optimized),
            "north-only {} vs optimized {}",
            max_load(&north),
            max_load(&optimized)
        );
    }

    #[test]
    fn diagonal_links_get_l_routes() {
        let slim = generators::slim_noc(Grid::new(16, 8)).expect("128 tiles");
        let routing = GlobalRouting::route(&slim, PortPlacement::Optimized);
        let has_l = (0..slim.num_links() as u32).any(|i| routing.plan(LinkId::new(i)).len() == 2);
        assert!(has_l, "SlimNoC cross links should take L-shaped routes");
    }

    #[test]
    fn plan_span_reflects_link_length() {
        let grid = Grid::new(1, 8);
        let sr = [4].into_iter().collect();
        let sc = std::collections::BTreeSet::new();
        let t = generators::row_column_skip(grid, &sr, &sc).expect("valid");
        let routing = GlobalRouting::route(&t, PortPlacement::Optimized);
        for (i, _) in t.links().iter().enumerate() {
            let id = shg_topology::LinkId::new(i as u32);
            if t.link_length(id) == 4 {
                // Skip-4 link passes over 3 interior tiles.
                assert_eq!(routing.plan_span(id), 3);
            }
        }
    }
}
