//! The dense test oracle: every path materialized as `Vec<Hop>`.
//!
//! These builders are the semantic ground truth — the compact forms in
//! [`super::next_hop`] must reconstruct bit-identical paths and answer
//! the same per-hop `(out port, VC class)` queries, which the
//! equivalence suite enforces (row-column paths are materialized from
//! the very line banks the compact form queries, so there the two cannot
//! differ in their 1D moves). Dense tables cost O(n² · hops) memory
//! (multi-GB at 10k tiles), so only tests and timing comparisons build
//! them; no production consumer does.

use crate::generators;
use crate::grid::{TileCoord, TileId};
use crate::topology::{Topology, TopologyKind};

use super::line::{row_column_banks, CLASSES_PER_PHASE, MAX_REVERSALS};
use super::next_hop::{hop_escalation_table, Csr};
use super::{BuildRoutesError, Hop, HopTable, Routes, RoutingAlgorithm, Table};

/// Every `src → dst` path, stored at `paths[src · n + dst]`.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct DenseTable {
    n: usize,
    paths: Vec<Vec<Hop>>,
}

impl DenseTable {
    fn path(&self, src: usize, dst: usize) -> &[Hop] {
        &self.paths[src * self.n + dst]
    }
}

impl HopTable for DenseTable {
    fn port_and_class(
        &self,
        ports: &Csr,
        at: usize,
        src: usize,
        dst: usize,
        hop: usize,
    ) -> (u32, u8) {
        let hop = self.path(src, dst)[hop];
        (ports.port_of(at, hop.to.index() as u32), hop.vc_class)
    }

    /// The stored hop itself, so a walk of the oracle returns exactly
    /// what its builder materialized.
    fn hop_at(&self, _ports: &Csr, _at: usize, src: usize, dst: usize, hop: usize) -> Hop {
        self.path(src, dst)[hop]
    }

    fn hop_count(&self, src: usize, dst: usize) -> Option<usize> {
        Some(self.path(src, dst).len())
    }

    fn bytes(&self) -> usize {
        self.paths.len() * std::mem::size_of::<Vec<Hop>>()
            + self
                .paths
                .iter()
                .map(|p| p.capacity() * std::mem::size_of::<Hop>())
                .sum::<usize>()
    }
}

/// Builds the dense table of `algorithm` (never
/// [`RoutingAlgorithm::Hierarchical`], which has no dense form).
pub(super) fn build(
    topology: &Topology,
    algorithm: RoutingAlgorithm,
) -> Result<Routes, BuildRoutesError> {
    let (paths, num_vc_classes) = match algorithm {
        RoutingAlgorithm::RowColumn => row_column(topology)?,
        RoutingAlgorithm::RingDateline => ring_dateline(topology)?,
        RoutingAlgorithm::TorusDateline => torus_dateline(topology)?,
        RoutingAlgorithm::ECube => ecube(topology)?,
        RoutingAlgorithm::HopEscalation => hop_escalation(topology)?,
        RoutingAlgorithm::Hierarchical => unreachable!("the hierarchical table has no dense form"),
    };
    let n = topology.num_tiles();
    Ok(Routes::new(
        topology,
        algorithm,
        num_vc_classes,
        Table::Dense(DenseTable { n, paths }),
    ))
}

/// One algorithm's paths (`paths[src · n + dst]`) and VC class count.
type Paths = (Vec<Vec<Hop>>, u8);

// ---------------------------------------------------------------------------
// Row-column routing (mesh, sparse Hamming, flattened butterfly, Ruche).
// ---------------------------------------------------------------------------

fn row_column(topology: &Topology) -> Result<Paths, BuildRoutesError> {
    let grid = topology.grid();
    let (row_banks, col_banks) = row_column_banks(topology)?;
    let n = topology.num_tiles();
    let mut paths = vec![Vec::new(); n * n];
    for src_coord in grid.coords() {
        let src = grid.id(src_coord);
        for dst_col in 0..grid.cols() {
            // Row phase within the source row, shared by the whole
            // destination column.
            let mut row_hops = Vec::new();
            let mut turn = src;
            for mv in row_banks
                .line(src_coord.row as usize)
                .list(src_coord.col, dst_col)
                .expect("row connected")
            {
                let next = grid.id(TileCoord::new(src_coord.row, mv.to_pos));
                let class = mv.reversals.min(MAX_REVERSALS);
                row_hops.push(make_hop(topology, turn, next, class));
                turn = next;
            }
            for dst_row in 0..grid.rows() {
                let dst = grid.id(TileCoord::new(dst_row, dst_col));
                if dst == src {
                    continue;
                }
                // Column phase within the destination column.
                let col_moves = col_banks
                    .line(dst_col as usize)
                    .list(src_coord.row, dst_row)
                    .expect("column connected");
                let mut hops = Vec::with_capacity(row_hops.len() + col_moves.len());
                hops.extend_from_slice(&row_hops);
                let mut at = turn;
                for mv in col_moves {
                    let next = grid.id(TileCoord::new(mv.to_pos, dst_col));
                    let class = CLASSES_PER_PHASE + mv.reversals.min(MAX_REVERSALS);
                    hops.push(make_hop(topology, at, next, class));
                    at = next;
                }
                paths[src.index() * n + dst.index()] = hops;
            }
        }
    }
    Ok((paths, CLASSES_PER_PHASE * 2))
}

fn make_hop(topology: &Topology, from: TileId, to: TileId, vc_class: u8) -> Hop {
    let (_, link) = topology
        .neighbors(from)
        .iter()
        .find(|&&(n, _)| n == to)
        .copied()
        .unwrap_or_else(|| panic!("no link {from} → {to}"));
    let channel = topology.channel_from(from, link);
    Hop {
        channel: channel.id,
        to,
        vc_class,
    }
}

// ---------------------------------------------------------------------------
// Ring routing with a dateline.
// ---------------------------------------------------------------------------

fn ring_dateline(topology: &Topology) -> Result<Paths, BuildRoutesError> {
    let grid = topology.grid();
    let order =
        generators::cycle_order_of(topology).ok_or_else(|| BuildRoutesError::NotApplicable {
            algorithm: RoutingAlgorithm::RingDateline,
            reason: "topology is not a single cycle".to_owned(),
        })?;
    let n = topology.num_tiles();
    // position of each tile along the cycle
    let mut pos = vec![0usize; n];
    for (i, &coord) in order.iter().enumerate() {
        pos[grid.id(coord).index()] = i;
    }
    let mut paths = vec![Vec::new(); n * n];
    for src in grid.tiles() {
        for dst in grid.tiles() {
            if src == dst {
                continue;
            }
            let (ps, pd) = (pos[src.index()], pos[dst.index()]);
            let forward = (pd + n - ps) % n;
            let backward = n - forward;
            let step: isize = if forward <= backward { 1 } else { -1 };
            let mut hops = Vec::new();
            let mut at = src;
            let mut p = ps as isize;
            let mut class = 0u8;
            while at != dst {
                let np = (p + step).rem_euclid(n as isize) as usize;
                // Crossing the dateline (cycle position 0 boundary) bumps
                // the VC class.
                if (step == 1 && np == 0) || (step == -1 && p == 0) {
                    class = 1;
                }
                let next = grid.id(order[np]);
                hops.push(make_hop(topology, at, next, class));
                at = next;
                p = np as isize;
            }
            paths[src.index() * n + dst.index()] = hops;
        }
    }
    Ok((paths, 2))
}

// ---------------------------------------------------------------------------
// Torus routing: dimension order over row/column cycles with datelines.
// ---------------------------------------------------------------------------

fn torus_dateline(topology: &Topology) -> Result<Paths, BuildRoutesError> {
    let grid = topology.grid();
    let (rows, cols) = (grid.rows() as usize, grid.cols() as usize);
    // The cycle order of each row/column in *physical positions*: natural
    // order for the torus, interleaved order for the folded torus.
    let (row_cycle, col_cycle): (Vec<u16>, Vec<u16>) =
        if topology.kind() == TopologyKind::FoldedTorus {
            (
                generators::folded_cycle_order(grid.cols()),
                generators::folded_cycle_order(grid.rows()),
            )
        } else {
            ((0..grid.cols()).collect(), (0..grid.rows()).collect())
        };
    // Logical index of each physical position along its cycle.
    let invert = |cycle: &[u16]| {
        let mut inv = vec![0usize; cycle.len()];
        for (logical, &phys) in cycle.iter().enumerate() {
            inv[phys as usize] = logical;
        }
        inv
    };
    let row_logical = invert(&row_cycle);
    let col_logical = invert(&col_cycle);
    let n = topology.num_tiles();
    let mut paths = vec![Vec::new(); n * n];
    // Route along a 1D cycle from logical position a to b, shorter way,
    // bumping the class when wrapping past logical 0.
    let route_cycle = |a: usize, b: usize, len: usize| -> Vec<(usize, bool)> {
        if len <= 1 || a == b {
            return Vec::new();
        }
        let forward = (b + len - a) % len;
        let backward = len - forward;
        let step_fwd = forward <= backward;
        let mut moves = Vec::new();
        let mut p = a;
        while p != b {
            let np = if step_fwd {
                (p + 1) % len
            } else {
                (p + len - 1) % len
            };
            let crossed = (step_fwd && np == 0) || (!step_fwd && p == 0);
            moves.push((np, crossed));
            p = np;
        }
        moves
    };
    for src_coord in grid.coords() {
        let src = grid.id(src_coord);
        for dst_coord in grid.coords() {
            let dst = grid.id(dst_coord);
            if src == dst {
                continue;
            }
            let mut hops = Vec::new();
            let mut at = src;
            let mut class = 0u8;
            // Row dimension first (move along the row cycle).
            let a = row_logical[src_coord.col as usize];
            let b = row_logical[dst_coord.col as usize];
            for (logical, crossed) in route_cycle(a, b, cols) {
                if crossed {
                    class = 1;
                }
                let next = grid.id(TileCoord::new(src_coord.row, row_cycle[logical]));
                hops.push(make_hop(topology, at, next, class));
                at = next;
            }
            // Column dimension second.
            class = 2;
            let a = col_logical[src_coord.row as usize];
            let b = col_logical[dst_coord.row as usize];
            for (logical, crossed) in route_cycle(a, b, rows) {
                if crossed {
                    class = 3;
                }
                let next = grid.id(TileCoord::new(col_cycle[logical], dst_coord.col));
                hops.push(make_hop(topology, at, next, class));
                at = next;
            }
            paths[src.index() * n + dst.index()] = hops;
        }
    }
    Ok((paths, 4))
}

// ---------------------------------------------------------------------------
// Hypercube e-cube routing.
// ---------------------------------------------------------------------------

fn ecube(topology: &Topology) -> Result<Paths, BuildRoutesError> {
    let grid = topology.grid();
    if !grid.rows().is_power_of_two() || !grid.cols().is_power_of_two() {
        return Err(BuildRoutesError::NotApplicable {
            algorithm: RoutingAlgorithm::ECube,
            reason: "grid dimensions are not powers of two".to_owned(),
        });
    }
    let col_bits = grid.cols().trailing_zeros();
    let hid = |coord: TileCoord| -> u32 {
        ((generators::gray(coord.row) as u32) << col_bits) | generators::gray(coord.col) as u32
    };
    let mut by_hid = vec![TileId::new(0); grid.num_tiles()];
    for coord in grid.coords() {
        by_hid[hid(coord) as usize] = grid.id(coord);
    }
    let n = topology.num_tiles();
    let mut paths = vec![Vec::new(); n * n];
    for src_coord in grid.coords() {
        let src = grid.id(src_coord);
        for dst_coord in grid.coords() {
            let dst = grid.id(dst_coord);
            if src == dst {
                continue;
            }
            let mut hops = Vec::new();
            let mut at = src;
            let mut h = hid(src_coord);
            let target = hid(dst_coord);
            // Fix differing bits from least to most significant.
            while h != target {
                let bit = (h ^ target).trailing_zeros();
                h ^= 1 << bit;
                let next = by_hid[h as usize];
                hops.push(make_hop(topology, at, next, 0));
                at = next;
            }
            paths[src.index() * n + dst.index()] = hops;
        }
    }
    Ok((paths, 1))
}

// ---------------------------------------------------------------------------
// Generic minimal routing with hop-index VC escalation.
// ---------------------------------------------------------------------------

/// Materializes the per-destination next-hop construction (see
/// [`hop_escalation_table`]) into dense paths, so the dense reference and
/// the compact form share one deterministic tie-break and reconstruct
/// identical paths.
fn hop_escalation(topology: &Topology) -> Result<Paths, BuildRoutesError> {
    let n = topology.num_tiles();
    let (next_port, num_vc_classes) = hop_escalation_table(topology)?;
    let mut paths = vec![Vec::new(); n * n];
    for src in topology.grid().tiles() {
        for dst in topology.grid().tiles() {
            if dst == src {
                continue;
            }
            let mut hops = Vec::new();
            let mut at = src;
            while at != dst {
                let port = next_port[dst.index() * n + at.index()] as usize;
                let (to, _) = topology.neighbors(at)[port];
                let mut hop = make_hop(topology, at, to, 0);
                hop.vc_class = hops.len().min(u8::MAX as usize) as u8;
                hops.push(hop);
                at = to;
            }
            paths[src.index() * n + dst.index()] = hops;
        }
    }
    Ok((paths, num_vc_classes))
}
