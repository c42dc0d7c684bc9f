//! The generic row/column skip-link construction (Section III-b of the
//! paper) and the Ruche network special case.
//!
//! Starting from a 2D mesh, for every row `r`, every `x ∈ SR` and every
//! `1 ≤ i ≤ C − x`, a link `T(r,i) ↔ T(r,i+x)` is added; columns are
//! handled symmetrically with `SC`. All resulting topologies are subgraphs
//! of the 2D Hamming graph — hence *sparse Hamming graphs*.
//!
//! This module provides the raw construction; the first-class
//! `SparseHammingConfig` API (validation, design-space enumeration,
//! customization) lives in the `shg-core` crate.

use std::collections::BTreeSet;

use crate::grid::{Grid, TileCoord};
use crate::topology::{Link, Topology, TopologyKind};

/// Error returned when skip-link parameters are out of range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkipLinkError {
    /// A row skip `x ∈ SR` violates `2 ≤ x < C`.
    RowSkipOutOfRange {
        /// Offending skip distance.
        skip: u16,
        /// Number of grid columns.
        cols: u16,
    },
    /// A column skip `x ∈ SC` violates `2 ≤ x < R`.
    ColSkipOutOfRange {
        /// Offending skip distance.
        skip: u16,
        /// Number of grid rows.
        rows: u16,
    },
}

impl std::fmt::Display for SkipLinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::RowSkipOutOfRange { skip, cols } => {
                write!(f, "row skip {skip} outside 2 ≤ x < C = {cols}")
            }
            Self::ColSkipOutOfRange { skip, rows } => {
                write!(f, "column skip {skip} outside 2 ≤ x < R = {rows}")
            }
        }
    }
}

impl std::error::Error for SkipLinkError {}

/// Builds the sparse-Hamming construction: a mesh plus skip links of
/// distances `sr` along rows and `sc` along columns.
///
/// `SR = {}` and `SC = {}` yield the mesh; `SR = {2…C−1}`,
/// `SC = {2…R−1}` yield the flattened butterfly.
///
/// # Errors
///
/// Returns [`SkipLinkError`] if any skip distance is outside the valid
/// interval `[2, C)` (rows) or `[2, R)` (columns).
///
/// # Examples
///
/// ```
/// use shg_topology::{generators, Grid};
///
/// // Scenario (a) of the paper: SR = {4}, SC = {2, 5} on 8×8 tiles.
/// let shg = generators::row_column_skip(
///     Grid::new(8, 8),
///     &[4].into_iter().collect(),
///     &[2, 5].into_iter().collect(),
/// )
/// .expect("valid skips");
/// assert!(shg.num_links() > generators::mesh(Grid::new(8, 8)).num_links());
/// ```
pub fn row_column_skip(
    grid: Grid,
    sr: &BTreeSet<u16>,
    sc: &BTreeSet<u16>,
) -> Result<Topology, SkipLinkError> {
    if let Some(&skip) = sr.iter().find(|&&x| x < 2 || x >= grid.cols()) {
        return Err(SkipLinkError::RowSkipOutOfRange {
            skip,
            cols: grid.cols(),
        });
    }
    if let Some(&skip) = sc.iter().find(|&&x| x < 2 || x >= grid.rows()) {
        return Err(SkipLinkError::ColSkipOutOfRange {
            skip,
            rows: grid.rows(),
        });
    }
    let kind = if sr.is_empty() && sc.is_empty() {
        TopologyKind::Mesh
    } else {
        TopologyKind::SparseHamming
    };
    Ok(Topology::new(grid, kind, skip_links(grid, sr, sc)))
}

/// The link set of the construction (mesh base plus skip links).
fn skip_links(grid: Grid, sr: &BTreeSet<u16>, sc: &BTreeSet<u16>) -> Vec<Link> {
    // Mesh base: distance-1 links. Skip links: distances from SR / SC.
    let row_dists = || std::iter::once(1).chain(sr.iter().copied());
    let col_dists = || std::iter::once(1).chain(sc.iter().copied());
    let span = |len: u16, x: u16| usize::from(len.saturating_sub(x));
    let count = usize::from(grid.rows()) * row_dists().map(|x| span(grid.cols(), x)).sum::<usize>()
        + usize::from(grid.cols()) * col_dists().map(|x| span(grid.rows(), x)).sum::<usize>();
    let mut links = Vec::with_capacity(count);
    for r in 0..grid.rows() {
        for x in row_dists() {
            for i in 0..grid.cols().saturating_sub(x) {
                links.push(Link::new(
                    grid.id(TileCoord::new(r, i)),
                    grid.id(TileCoord::new(r, i + x)),
                ));
            }
        }
    }
    for c in 0..grid.cols() {
        for x in col_dists() {
            for i in 0..grid.rows().saturating_sub(x) {
                links.push(Link::new(
                    grid.id(TileCoord::new(i, c)),
                    grid.id(TileCoord::new(i + x, c)),
                ));
            }
        }
    }
    debug_assert_eq!(links.len(), count);
    links
}

/// Builds a Ruche network \[41\]: a mesh plus skip links of one fixed length
/// (the *ruche factor*) in both dimensions.
///
/// Ruche networks are the subfamily of sparse Hamming graphs with
/// `SR = SC = {factor}`; the paper positions sparse Hamming graphs as
/// their superset with a much larger configuration space.
///
/// # Errors
///
/// Returns [`SkipLinkError`] if the factor is out of range for the grid.
///
/// # Examples
///
/// ```
/// use shg_topology::{generators, Grid};
///
/// let ruche = generators::ruche(Grid::new(8, 8), 3).expect("factor 3 fits");
/// assert_eq!(ruche.max_degree(), 8);
/// ```
pub fn ruche(grid: Grid, factor: u16) -> Result<Topology, SkipLinkError> {
    let set: BTreeSet<u16> = [factor].into_iter().collect();
    let topology = row_column_skip(grid, &set, &set)?;
    Ok(Topology::new(
        grid,
        TopologyKind::Ruche,
        topology.links().iter().copied(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{flattened_butterfly, mesh};
    use crate::metrics;

    fn set(values: &[u16]) -> BTreeSet<u16> {
        values.iter().copied().collect()
    }

    #[test]
    fn empty_sets_give_mesh() {
        let grid = Grid::new(4, 4);
        let shg = row_column_skip(grid, &set(&[]), &set(&[])).expect("mesh");
        let m = mesh(grid);
        assert_eq!(shg.links(), m.links());
        assert_eq!(shg.kind(), TopologyKind::Mesh);
    }

    #[test]
    fn full_sets_give_flattened_butterfly() {
        let grid = Grid::new(4, 4);
        let shg = row_column_skip(grid, &set(&[2, 3]), &set(&[2, 3])).expect("full");
        let fb = flattened_butterfly(grid);
        assert_eq!(shg.links(), fb.links());
    }

    #[test]
    fn scenario_a_parameters() {
        // SR = {4}, SC = {2, 5} on 8×8 (paper Fig. 6a).
        let grid = Grid::new(8, 8);
        let shg = row_column_skip(grid, &set(&[4]), &set(&[2, 5])).expect("scenario a");
        // Links: mesh 2·8·7 = 112, row skips 8·(8−4) = 32,
        // col skips 8·(8−2) + 8·(8−5) = 48 + 24 = 72.
        assert_eq!(shg.num_links(), 112 + 32 + 72);
        assert!(metrics::diameter(&shg) < metrics::diameter(&mesh(grid)));
    }

    #[test]
    fn skip_out_of_range_is_rejected() {
        let grid = Grid::new(4, 8);
        assert!(matches!(
            row_column_skip(grid, &set(&[8]), &set(&[])),
            Err(SkipLinkError::RowSkipOutOfRange { skip: 8, cols: 8 })
        ));
        assert!(matches!(
            row_column_skip(grid, &set(&[]), &set(&[1])),
            Err(SkipLinkError::ColSkipOutOfRange { skip: 1, rows: 4 })
        ));
    }

    #[test]
    fn all_links_are_aligned() {
        let grid = Grid::new(8, 8);
        let shg = row_column_skip(grid, &set(&[3, 5]), &set(&[2])).expect("valid");
        for i in 0..shg.num_links() {
            assert!(shg.link_aligned(crate::LinkId::new(i as u32)));
        }
    }

    #[test]
    fn diameter_shrinks_monotonically_with_more_skips() {
        let grid = Grid::new(8, 8);
        let d0 = metrics::diameter(&row_column_skip(grid, &set(&[]), &set(&[])).unwrap());
        let d1 = metrics::diameter(&row_column_skip(grid, &set(&[4]), &set(&[])).unwrap());
        let d2 = metrics::diameter(&row_column_skip(grid, &set(&[4]), &set(&[4])).unwrap());
        let d3 = metrics::diameter(&row_column_skip(grid, &set(&[2, 4]), &set(&[2, 4])).unwrap());
        assert!(d0 >= d1 && d1 >= d2 && d2 >= d3);
        assert!(d3 < d0);
    }

    #[test]
    fn ruche_is_sparse_hamming_subfamily() {
        let grid = Grid::new(8, 8);
        let ruche_net = ruche(grid, 3).expect("factor 3");
        let shg = row_column_skip(grid, &set(&[3]), &set(&[3])).expect("same");
        assert_eq!(ruche_net.links(), shg.links());
        assert_eq!(ruche_net.kind(), TopologyKind::Ruche);
    }
}
