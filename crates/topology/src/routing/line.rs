//! Shared 1D (single row / single column) routing machinery: hop-minimal
//! move lists with bounded direction reversals, and the all-pairs "line
//! bank" the compact table forms store instead of materialized paths.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::grid::TileCoord;
use crate::topology::Topology;

use super::{BuildRoutesError, RoutingAlgorithm};

/// Maximum direction reversals a 1D phase may take; each reversal
/// escalates the VC class, which keeps the per-phase channel dependency
/// graph acyclic.
pub(super) const MAX_REVERSALS: u8 = 2;
/// VC classes one 1D phase consumes (`reversals ∈ 0..=MAX_REVERSALS`).
pub(super) const CLASSES_PER_PHASE: u8 = MAX_REVERSALS + 1;

/// A 1D move along a row or column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Move1D {
    pub(super) to_pos: u16,
    pub(super) reversals: u8,
}

/// One line's 1D adjacency in compressed-row form: per position, the
/// positions it links to, in ascending order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct LineAdjacency {
    /// `targets[offsets[p]..offsets[p + 1]]` are position `p`'s links.
    offsets: Vec<u32>,
    targets: Vec<u16>,
}

impl LineAdjacency {
    /// The adjacency of row `line` (`along_row`) or of column `line`
    /// from the topology's neighbour lists. A tile's neighbours are
    /// sorted by id and ids are row-major, so the ones on its line come
    /// out in ascending position.
    fn of_line(topology: &Topology, line: u16, along_row: bool) -> Self {
        let grid = topology.grid();
        let positions = if along_row { grid.cols() } else { grid.rows() };
        let tile = |pos: u16| {
            grid.id(if along_row {
                TileCoord::new(line, pos)
            } else {
                TileCoord::new(pos, line)
            })
        };
        let position_on_line = |neighbor: TileCoord| {
            if along_row {
                (neighbor.row == line).then_some(neighbor.col)
            } else {
                (neighbor.col == line).then_some(neighbor.row)
            }
        };
        let mut offsets = Vec::with_capacity(positions as usize + 1);
        let mut targets =
            Vec::with_capacity((0..positions).map(|pos| topology.degree(tile(pos))).sum());
        offsets.push(0);
        for pos in 0..positions {
            targets.extend(
                topology
                    .neighbors(tile(pos))
                    .iter()
                    .filter_map(|&(neighbor, _)| position_on_line(grid.coord(neighbor))),
            );
            offsets.push(u32::try_from(targets.len()).expect("line adjacency fits u32"));
        }
        Self { offsets, targets }
    }

    /// Number of positions on the line.
    fn positions(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The positions `pos` links to, ascending.
    fn neighbors(&self, pos: u16) -> &[u16] {
        let pos = pos as usize;
        &self.targets[self.offsets[pos] as usize..self.offsets[pos + 1] as usize]
    }
}

/// Dijkstra over one line's `(position, direction)` states with
/// lexicographic `(hops, reversals)` cost, finding hop-minimal 1D paths
/// with at most [`MAX_REVERSALS`] direction changes. Its heap and
/// per-state arrays are reused from one source position to the next.
struct PathSearch {
    /// Best `(hops, reversals)` per state.
    best: Vec<(u32, u8)>,
    /// The state each state was reached from.
    parent: Vec<Option<(u16, u8)>>,
    heap: BinaryHeap<Reverse<(u32, u8, u16, u8)>>,
    from: u16,
}

/// State index of `(pos, dir)`, dir 0 = none yet, 1 = increasing,
/// 2 = decreasing.
fn state(pos: u16, dir: u8) -> usize {
    pos as usize * 3 + dir as usize
}

impl PathSearch {
    fn new(positions: usize) -> Self {
        Self {
            best: vec![(u32::MAX, u8::MAX); positions * 3],
            parent: vec![None; positions * 3],
            heap: BinaryHeap::new(),
            from: 0,
        }
    }

    /// Runs the search from `from` over `adjacency`.
    fn run(&mut self, adjacency: &LineAdjacency, from: u16) {
        let Self {
            best, parent, heap, ..
        } = self;
        self.from = from;
        best.fill((u32::MAX, u8::MAX));
        parent.fill(None);
        heap.clear();
        best[state(from, 0)] = (0, 0);
        heap.push(Reverse((0u32, 0u8, from, 0u8)));
        while let Some(Reverse((hops, revs, pos, dir))) = heap.pop() {
            if (hops, revs) > best[state(pos, dir)] {
                continue;
            }
            for &next in adjacency.neighbors(pos) {
                let ndir = if next > pos { 1 } else { 2 };
                let nrevs = if dir != 0 && ndir != dir {
                    revs + 1
                } else {
                    revs
                };
                if nrevs > MAX_REVERSALS {
                    continue;
                }
                let cost = (hops + 1, nrevs);
                if cost < best[state(next, ndir)] {
                    best[state(next, ndir)] = cost;
                    parent[state(next, ndir)] = Some((pos, dir));
                    heap.push(Reverse((hops + 1, nrevs, next, ndir)));
                }
            }
        }
    }

    /// Appends the last search's path to `target` to `moves` and returns
    /// `true`, or leaves `moves` as it was and returns `false` when the
    /// search did not reach `target`. The path from the source to itself
    /// is empty.
    fn append_path(&self, target: u16, moves: &mut Vec<Move1D>) -> bool {
        if target == self.from {
            return true;
        }
        // Best terminal state for this target (increasing on a tie).
        let dir = if self.best[state(target, 2)] < self.best[state(target, 1)] {
            2
        } else {
            1
        };
        if self.best[state(target, dir)].0 == u32::MAX {
            return false;
        }
        // Walk parents back to the source, then reverse the appended run.
        let start = moves.len();
        let (mut pos, mut d) = (target, dir);
        while pos != self.from || d != 0 {
            let Some((ppos, pdir)) = self.parent[state(pos, d)] else {
                moves.truncate(start);
                return false;
            };
            // Reversal count at this state, relative to the parent.
            moves.push(Move1D {
                to_pos: pos,
                reversals: self.best[state(pos, d)].1,
            });
            pos = ppos;
            d = pdir;
        }
        moves[start..].reverse();
        true
    }
}

/// All-pairs 1D move lists of one line (one row or one column),
/// flattened into a single arena: `positions²` `(offset, len)` slots
/// over one `Vec<Move1D>`. The compact table forms index these banks at
/// query time instead of materializing per-pair paths; the moves are
/// exactly what [`PathSearch`] finds, so a path reassembled from a bank
/// is identical to the dense builder's.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct LineBank {
    positions: usize,
    offsets: Vec<u32>,
    /// `u16::MAX` marks an unreachable pair.
    lens: Vec<u16>,
    moves: Vec<Move1D>,
    /// Maximum reversal count over every stored move.
    pub(super) max_reversals: u8,
}

const UNREACHABLE: u16 = u16::MAX;

impl LineBank {
    /// Builds the bank from the line's 1D adjacency (one [`PathSearch`]
    /// per source position), each path written straight into the arena.
    pub(super) fn build(adjacency: &LineAdjacency) -> Self {
        let positions = adjacency.positions();
        let mut offsets = vec![0u32; positions * positions];
        let mut lens = vec![UNREACHABLE; positions * positions];
        // Every pair of distinct positions is at least one move apart.
        let mut moves = Vec::with_capacity(positions * positions.saturating_sub(1));
        let mut search = PathSearch::new(positions);
        for from in 0..positions as u16 {
            search.run(adjacency, from);
            for to in 0..positions as u16 {
                let slot = from as usize * positions + to as usize;
                let start = moves.len();
                if search.append_path(to, &mut moves) {
                    offsets[slot] = u32::try_from(start).expect("bank arena fits u32");
                    lens[slot] = u16::try_from(moves.len() - start).expect("1D path fits u16");
                }
            }
        }
        let max_reversals = moves.iter().map(|mv| mv.reversals).max().unwrap_or(0);
        Self {
            positions,
            offsets,
            lens,
            moves,
            max_reversals,
        }
    }

    /// The move list from `from` to `to`, or `None` when the line cannot
    /// connect them (within the reversal bound).
    pub(super) fn list(&self, from: u16, to: u16) -> Option<&[Move1D]> {
        let slot = from as usize * self.positions + to as usize;
        let len = self.lens[slot];
        if len == UNREACHABLE {
            return None;
        }
        let offset = self.offsets[slot] as usize;
        Some(&self.moves[offset..offset + len as usize])
    }

    /// How many of the bank's all-pairs move lists step along each
    /// directed 1D edge, as `(from, to, count)` in ascending `(from, to)`
    /// order, unused edges left out: one walk of every stored list.
    ///
    /// # Panics
    ///
    /// Panics if some pair is unreachable.
    pub(super) fn edge_uses(&self) -> Vec<(u16, u16, u32)> {
        let positions = self.positions;
        let mut counts = vec![0u32; positions * positions];
        for from in 0..positions as u16 {
            for to in 0..positions as u16 {
                let mut at = from as usize;
                for mv in self.list(from, to).expect("line connected") {
                    counts[at * positions + mv.to_pos as usize] += 1;
                    at = mv.to_pos as usize;
                }
            }
        }
        counts
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(edge, &count)| ((edge / positions) as u16, (edge % positions) as u16, count))
            .collect()
    }

    /// `true` when every ordered pair of positions is connected.
    pub(super) fn fully_connected(&self) -> bool {
        self.lens.iter().all(|&len| len != UNREACHABLE)
    }

    /// Approximate resident heap bytes.
    pub(super) fn bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.lens.len() * std::mem::size_of::<u16>()
            + self.moves.len() * std::mem::size_of::<Move1D>()
    }
}

/// The banks of one family of parallel lines (every row, or every
/// column), storing one [`LineBank`] per *distinct* adjacency: a bank is
/// a function of its line's adjacency alone, and regular topologies
/// repeat it (every row of a sparse Hamming graph has the same one), so
/// building and storing it per line would redo identical Dijkstra
/// sweeps.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct LineBanks {
    banks: Vec<LineBank>,
    /// Index into `banks` of each line.
    bank_of: Vec<u32>,
}

impl LineBanks {
    /// Builds the banks of `lines` (one adjacency per line).
    pub(super) fn build(lines: &[LineAdjacency]) -> Self {
        let mut distinct: Vec<&LineAdjacency> = Vec::new();
        let bank_of = lines
            .iter()
            .map(|adjacency| {
                let bank = distinct
                    .iter()
                    .position(|&seen| seen == adjacency)
                    .unwrap_or_else(|| {
                        distinct.push(adjacency);
                        distinct.len() - 1
                    });
                bank as u32
            })
            .collect();
        Self {
            banks: distinct.iter().map(|adj| LineBank::build(adj)).collect(),
            bank_of,
        }
    }

    /// The bank of line `line`.
    pub(super) fn line(&self, line: usize) -> &LineBank {
        &self.banks[self.bank_of[line] as usize]
    }

    /// Visits `(line, from, to, count)` for every directed 1D edge of
    /// every line, `count` being [`LineBank::edge_uses`] of the line's
    /// bank: each distinct bank is walked once, and its counts are
    /// replayed onto every line that shares it.
    pub(super) fn for_each_edge_use(&self, mut f: impl FnMut(usize, u16, u16, u32)) {
        let uses: Vec<_> = self.banks.iter().map(LineBank::edge_uses).collect();
        for (line, &bank) in self.bank_of.iter().enumerate() {
            for &(from, to, count) in &uses[bank as usize] {
                f(line, from, to, count);
            }
        }
    }

    /// Maximum reversal count over every line's stored moves.
    pub(super) fn max_reversals(&self) -> u8 {
        self.banks
            .iter()
            .map(|bank| bank.max_reversals)
            .max()
            .unwrap_or(0)
    }

    /// The first line that cannot connect some pair of its positions.
    pub(super) fn first_disconnected(&self) -> Option<usize> {
        self.bank_of
            .iter()
            .position(|&bank| !self.banks[bank as usize].fully_connected())
    }

    /// Approximate resident heap bytes.
    pub(super) fn bytes(&self) -> usize {
        self.banks.iter().map(LineBank::bytes).sum::<usize>()
            + self.bank_of.len() * std::mem::size_of::<u32>()
    }
}

/// The row and column banks [`RoutingAlgorithm::RowColumn`] routes from —
/// the one 1D-path construction behind both its dense and its next-hop
/// table.
///
/// # Errors
///
/// Returns [`BuildRoutesError::NotApplicable`] when a link is not
/// row/column aligned or a row or column is not connected within itself.
pub(super) fn row_column_banks(
    topology: &Topology,
) -> Result<(LineBanks, LineBanks), BuildRoutesError> {
    let not_applicable = |reason: String| BuildRoutesError::NotApplicable {
        algorithm: RoutingAlgorithm::RowColumn,
        reason,
    };
    let (row_adj, col_adj) = row_col_adjacency(topology).map_err(not_applicable)?;
    let (rows, cols) = (LineBanks::build(&row_adj), LineBanks::build(&col_adj));
    if let Some(r) = rows.first_disconnected() {
        return Err(not_applicable(format!(
            "row {r} is disconnected between some columns"
        )));
    }
    if let Some(c) = cols.first_disconnected() {
        return Err(not_applicable(format!(
            "column {c} is disconnected between some rows"
        )));
    }
    Ok((rows, cols))
}

/// Per-row and per-column 1D adjacency (positions are columns for rows,
/// rows for columns), extracted from the topology's neighbour lists.
///
/// # Errors
///
/// Returns the first offending link (in link order) rendered as a string
/// when any link is not row/column aligned (the row/column
/// decompositions only apply then).
pub(super) fn row_col_adjacency(
    topology: &Topology,
) -> Result<(Vec<LineAdjacency>, Vec<LineAdjacency>), String> {
    let grid = topology.grid();
    if let Some(link) = topology.links().iter().find(|link| {
        let (ca, cb) = (grid.coord(link.a), grid.coord(link.b));
        !ca.same_row(cb) && !ca.same_col(cb)
    }) {
        let (ca, cb) = (grid.coord(link.a), grid.coord(link.b));
        return Err(format!("link {ca} ↔ {cb} is not row/column aligned"));
    }
    let rows = (0..grid.rows())
        .map(|r| LineAdjacency::of_line(topology, r, true))
        .collect();
    let cols = (0..grid.cols())
        .map(|c| LineAdjacency::of_line(topology, c, false))
        .collect();
    Ok((rows, cols))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The adjacency of a line of `positions` mesh links plus `skips`.
    fn line(positions: u16, skips: &[(u16, u16)]) -> LineAdjacency {
        let mut lists = vec![Vec::new(); positions as usize];
        let links = (1..positions)
            .map(|p| (p - 1, p))
            .chain(skips.iter().copied());
        for (a, b) in links {
            lists[a as usize].push(b);
            lists[b as usize].push(a);
        }
        let mut offsets = vec![0];
        let mut targets = Vec::new();
        for mut list in lists {
            list.sort_unstable();
            targets.extend(list);
            offsets.push(targets.len() as u32);
        }
        LineAdjacency { offsets, targets }
    }

    #[test]
    fn edge_uses_count_every_stored_move() {
        let bank = LineBank::build(&line(7, &[(0, 3), (2, 6)]));
        let mut counts = std::collections::BTreeMap::new();
        for from in 0..7 {
            for to in 0..7 {
                let mut at = from;
                for mv in bank.list(from, to).expect("connected") {
                    *counts.entry((at, mv.to_pos)).or_insert(0u32) += 1;
                    at = mv.to_pos;
                }
            }
        }
        let expected: Vec<_> = counts.into_iter().map(|((a, b), n)| (a, b, n)).collect();
        assert_eq!(bank.edge_uses(), expected);
    }

    #[test]
    fn lines_sharing_a_bank_replay_its_edge_uses() {
        // Lines 0 and 2 share a bank, as do lines 1 and 4; line 3 has its own.
        let (plain, skip, other) = (line(6, &[]), line(6, &[(0, 3)]), line(6, &[(1, 5)]));
        let lines = vec![skip.clone(), plain.clone(), skip, other, plain];
        let banks = LineBanks::build(&lines);
        assert_eq!(banks.banks.len(), 3);
        assert_eq!(banks.bank_of, [0, 1, 0, 2, 1]);
        let mut visits = vec![Vec::new(); lines.len()];
        banks.for_each_edge_use(|line, from, to, count| visits[line].push((from, to, count)));
        for (line, adjacency) in lines.iter().enumerate() {
            assert_eq!(
                visits[line],
                LineBank::build(adjacency).edge_uses(),
                "line {line}"
            );
        }
    }
}
