//! Hierarchical routing tables for multi-die topologies.
//!
//! Multi-die networks stitched from a [`TopologyDb`] spec are not
//! globally row/column complete: seam links only exist on a subset of
//! rows, so the flat row-column decomposition (`RowColumn`) rejects
//! them, and the dense per-pair fallback (`HopEscalation`) needs a VC
//! class per hop — more classes than VCs on anything big. This form
//! routes in at most three 1D phases instead:
//!
//! 1. **column** — ride the source column to the nearest *through row*,
//! 2. **through row** — a row whose 1D line connects every column pair
//!    (seam rows qualify: seam links are row-aligned), cross to the
//!    destination column,
//! 3. **column** — ride the destination column to the destination row.
//!
//! Pairs whose source row already connects their columns skip phase 1
//! and use their own row. Every phase is a hop-minimal bounded-reversal
//! 1D walk from its line's bank in a [`LineBanks`]; VC classes are
//! banked per phase (`A₁ | B | A₃` consecutive class ranges), so classes escalate
//! strictly across phases and by reversal count within one. Phases use
//! disjoint channel sets per line and classes never decrease along any
//! path, which keeps the channel × class dependency graph acyclic — the
//! equivalence suite additionally checks `is_deadlock_free` on sampled
//! databases. Class count is `A₁ + B + A₃` where each term is 1 + the
//! worst reversal count actually stored for that phase — bounded by the
//! dies' internal connectivity, not by network diameter.
//!
//! [`TopologyDb`]: crate::db::TopologyDb

use crate::topology::Topology;

use super::line::{row_col_adjacency, LineBanks};
use super::next_hop::Csr;
use super::{BuildRoutesError, HopTable, Routes, RoutingAlgorithm, Table};

/// A hierarchical three-phase routing table (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub(super) struct HierTable {
    cols: u16,
    /// One bank per *distinct* row (column) adjacency: a multi-die part
    /// repeats a handful of lines across its rows and columns.
    row_banks: LineBanks,
    col_banks: LineBanks,
    /// Nearest through row of each row (ties break toward lower rows).
    through: Vec<u16>,
    /// First VC class of the through-row phase (phase 1 starts at 0).
    p2_base: u8,
    /// First VC class of the destination-column phase.
    p3_base: u8,
}

impl HopTable for HierTable {
    /// O(1) apart from the port map lookup.
    fn port_and_class(
        &self,
        ports: &Csr,
        at: usize,
        src: usize,
        dst: usize,
        hop: usize,
    ) -> (u32, u8) {
        let (next, class) = self.step(src, dst, hop);
        (ports.port_of(at, next as u32), class)
    }

    /// O(1): sums 2–3 list lengths.
    fn hop_count(&self, src: usize, dst: usize) -> Option<usize> {
        let cols = self.cols as usize;
        let (sr, sc) = (src / cols, src % cols);
        let (dr, dc) = (dst / cols, dst % cols);
        Some(match self.row_banks.line(sr).list(sc as u16, dc as u16) {
            Some(row) => row.len() + self.col_list_len(dc, sr, dr),
            None => {
                let g = self.through[sr];
                self.col_list_len(sc, sr, g as usize)
                    + self
                        .row_banks
                        .line(g as usize)
                        .list(sc as u16, dc as u16)
                        .expect("through row connects every column pair")
                        .len()
                    + self.col_list_len(dc, g as usize, dr)
            }
        })
    }

    fn bytes(&self) -> usize {
        self.row_banks.bytes() + self.col_banks.bytes() + self.through.len() * 2
    }
}

impl HierTable {
    fn col_list_len(&self, col: usize, from_row: usize, to_row: usize) -> usize {
        self.col_banks
            .line(col)
            .list(from_row as u16, to_row as u16)
            .expect("columns are fully connected")
            .len()
    }

    /// `(next tile, VC class)` of the `hop`-th hop of `src → dst`.
    fn step(&self, src: usize, dst: usize, hop: usize) -> (usize, u8) {
        let cols = self.cols as usize;
        let (sr, sc) = (src / cols, src % cols);
        let (dr, dc) = (dst / cols, dst % cols);
        if let Some(row) = self.row_banks.line(sr).list(sc as u16, dc as u16) {
            // Two phases: own row, then destination column.
            if hop < row.len() {
                let mv = row[hop];
                return (sr * cols + mv.to_pos as usize, self.p2_base + mv.reversals);
            }
            let col = self
                .col_banks
                .line(dc)
                .list(sr as u16, dr as u16)
                .expect("columns are fully connected");
            let mv = col[hop - row.len()];
            return (mv.to_pos as usize * cols + dc, self.p3_base + mv.reversals);
        }
        // Three phases via the nearest through row.
        let g = self.through[sr] as usize;
        let up = self
            .col_banks
            .line(sc)
            .list(sr as u16, g as u16)
            .expect("columns are fully connected");
        if hop < up.len() {
            let mv = up[hop];
            return (mv.to_pos as usize * cols + sc, mv.reversals);
        }
        let row = self
            .row_banks
            .line(g)
            .list(sc as u16, dc as u16)
            .expect("through row connects every column pair");
        let k = hop - up.len();
        if k < row.len() {
            let mv = row[k];
            return (g * cols + mv.to_pos as usize, self.p2_base + mv.reversals);
        }
        let down = self
            .col_banks
            .line(dc)
            .list(g as u16, dr as u16)
            .expect("columns are fully connected");
        let mv = down[k - row.len()];
        (mv.to_pos as usize * cols + dc, self.p3_base + mv.reversals)
    }
}

/// Builds the hierarchical table, or [`BuildRoutesError::NotApplicable`]
/// when the topology has a non-axis-aligned link, a disconnected
/// column, or (while some row is incomplete) no through row at all.
pub(super) fn build_hierarchical(topology: &Topology) -> Result<Routes, BuildRoutesError> {
    let not_applicable = |reason: String| BuildRoutesError::NotApplicable {
        algorithm: RoutingAlgorithm::Hierarchical,
        reason,
    };
    let grid = topology.grid();
    let (row_adj, col_adj) = row_col_adjacency(topology).map_err(&not_applicable)?;
    let (row_banks, col_banks) = (LineBanks::build(&row_adj), LineBanks::build(&col_adj));
    if let Some(c) = col_banks.first_disconnected() {
        return Err(not_applicable(format!(
            "column {c} is disconnected between some rows"
        )));
    }
    let through_rows: Vec<u16> = (0..grid.rows())
        .filter(|&r| row_banks.line(r as usize).fully_connected())
        .collect();
    if through_rows.is_empty() {
        return Err(not_applicable(
            "no row connects every column pair".to_owned(),
        ));
    }
    // Nearest through row per row; scanning the smaller distance (and
    // the lower row at equal distance) first makes ties deterministic.
    let through: Vec<u16> = (0..grid.rows())
        .map(|r| {
            (0..grid.rows())
                .flat_map(|d| {
                    r.checked_sub(d)
                        .into_iter()
                        .chain((d > 0 && r + d < grid.rows()).then_some(r + d))
                })
                .find(|&t| row_banks.line(t as usize).fully_connected())
                .expect("at least one through row exists")
        })
        .collect();
    // Class bank widths. Phase 1 only carries (row → its through row)
    // column rides, so its width reflects only those lists; phases 2/3
    // use whole-bank worst cases.
    let mut p1_classes = 0u8;
    for r in 0..grid.rows() {
        if row_banks.line(r as usize).fully_connected() {
            continue;
        }
        for c in 0..grid.cols() {
            let max_rev = col_banks
                .line(c as usize)
                .list(r, through[r as usize])
                .expect("columns are fully connected")
                .iter()
                .map(|mv| mv.reversals)
                .max()
                .unwrap_or(0);
            p1_classes = p1_classes.max(max_rev + 1);
        }
    }
    let p2_classes = 1 + row_banks.max_reversals();
    let p3_classes = 1 + col_banks.max_reversals();
    let num_vc_classes = p1_classes + p2_classes + p3_classes;
    Ok(Routes::new(
        topology,
        RoutingAlgorithm::Hierarchical,
        num_vc_classes,
        Table::Hier(HierTable {
            cols: grid.cols(),
            row_banks,
            col_banks,
            through,
            p2_base: p1_classes,
            p3_base: p1_classes + p2_classes,
        }),
    ))
}

#[cfg(test)]
mod tests {
    use super::super::line::LineBank;
    use super::*;
    use crate::db::TopologyDb;

    #[test]
    fn shared_banks_equal_each_lines_own_build() {
        // Two dies, a region rule that rewires half of one die's rows and
        // seams on every other row: several distinct row and column
        // adjacencies, most of them repeated.
        let db = TopologyDb::parse(
            "die/l/6x4/shg:sr=2:sc=2;die/r/6x5/mesh;\
             region/r/r0..3/c0..5/memory/sc=2;boundary/every=2/latency=3",
        )
        .expect("parses");
        let topology = db.instantiate().expect("instantiates");
        let routes = build_hierarchical(&topology).expect("hierarchical routes");
        let Table::Hier(table) = &routes.table else {
            panic!("hierarchical builder returned another table form");
        };
        let (row_adj, col_adj) = row_col_adjacency(&topology).expect("axis-aligned links");
        for (banks, lines) in [(&table.row_banks, &row_adj), (&table.col_banks, &col_adj)] {
            for (line, adjacency) in lines.iter().enumerate() {
                assert_eq!(banks.line(line), &LineBank::build(adjacency), "line {line}");
            }
        }
        let mut distinct_rows = row_adj.clone();
        distinct_rows.dedup();
        assert!(
            distinct_rows.len() > 1,
            "the part must not collapse to one row adjacency"
        );
    }
}
