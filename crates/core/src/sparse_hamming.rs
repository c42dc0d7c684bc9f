//! The sparse Hamming graph configuration — the paper's contribution #2.
//!
//! A sparse Hamming graph over an `R × C` grid is defined by two sets
//! (Section III-b):
//!
//! * `SR ⊆ {x ∈ ℕ | 2 ≤ x < C}` — row skip distances,
//! * `SC ⊆ {x ∈ ℕ | 2 ≤ x < R}` — column skip distances.
//!
//! `SR = SC = ∅` is the 2D mesh; the full sets give the flattened
//! butterfly; everything in between trades cost for performance. The
//! design space has `2^(R+C−4)` configurations (Table I).

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use shg_topology::generators::{self, SkipLinkError};
use shg_topology::{Grid, Topology};

/// A validated sparse Hamming graph configuration.
///
/// # Examples
///
/// ```
/// use shg_core::SparseHammingConfig;
///
/// // Paper scenario (a): 8×8 tiles, SR = {4}, SC = {2, 5}.
/// let config = SparseHammingConfig::new(8, 8, [4], [2, 5])?;
/// let topology = config.build();
/// assert_eq!(topology.num_tiles(), 64);
/// assert!(config.num_extra_links() > 0);
/// # Ok::<(), shg_topology::generators::SkipLinkError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SparseHammingConfig {
    grid: Grid,
    sr: BTreeSet<u16>,
    sc: BTreeSet<u16>,
}

impl SparseHammingConfig {
    /// Creates a configuration, validating the skip sets against the grid.
    ///
    /// # Errors
    ///
    /// Returns [`SkipLinkError`] if any skip distance is outside `[2, C)`
    /// for rows or `[2, R)` for columns.
    pub fn new(
        rows: u16,
        cols: u16,
        sr: impl IntoIterator<Item = u16>,
        sc: impl IntoIterator<Item = u16>,
    ) -> Result<Self, SkipLinkError> {
        let grid = Grid::new(rows, cols);
        let sr: BTreeSet<u16> = sr.into_iter().collect();
        let sc: BTreeSet<u16> = sc.into_iter().collect();
        // Validate by performing a (cheap) construction.
        let _ = generators::row_column_skip(grid, &sr, &sc)?;
        Ok(Self { grid, sr, sc })
    }

    /// The mesh configuration (`SR = SC = ∅`) — customization step 1.
    #[must_use]
    pub fn mesh(rows: u16, cols: u16) -> Self {
        Self {
            grid: Grid::new(rows, cols),
            sr: BTreeSet::new(),
            sc: BTreeSet::new(),
        }
    }

    /// The densest configuration — the flattened butterfly.
    #[must_use]
    pub fn flattened_butterfly(rows: u16, cols: u16) -> Self {
        Self {
            grid: Grid::new(rows, cols),
            sr: (2..cols).collect(),
            sc: (2..rows).collect(),
        }
    }

    /// The underlying grid.
    #[must_use]
    pub fn grid(&self) -> Grid {
        self.grid
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

    /// The row skip set `SR`.
    #[must_use]
    pub fn sr(&self) -> &BTreeSet<u16> {
        &self.sr
    }

    /// The column skip set `SC`.
    #[must_use]
    pub fn sc(&self) -> &BTreeSet<u16> {
        &self.sc
    }

    /// `true` for the mesh configuration.
    #[must_use]
    pub fn is_mesh(&self) -> bool {
        self.sr.is_empty() && self.sc.is_empty()
    }

    /// `true` for the flattened-butterfly configuration.
    #[must_use]
    pub fn is_flattened_butterfly(&self) -> bool {
        self.sr.len() == (self.cols() as usize).saturating_sub(2)
            && self.sc.len() == (self.rows() as usize).saturating_sub(2)
    }

    /// Number of links added on top of the mesh base.
    #[must_use]
    pub fn num_extra_links(&self) -> usize {
        let row_links: usize = self
            .sr
            .iter()
            .map(|&x| self.rows() as usize * (self.cols() as usize - x as usize))
            .sum();
        let col_links: usize = self
            .sc
            .iter()
            .map(|&x| self.cols() as usize * (self.rows() as usize - x as usize))
            .sum();
        row_links + col_links
    }

    /// Builds the topology: of kind [`Mesh`] for the mesh,
    /// [`SparseHamming`] for every other configuration —
    /// the densest included, so routing and reporting treat the whole
    /// family uniformly.
    ///
    /// [`Mesh`]: shg_topology::TopologyKind::Mesh
    /// [`SparseHamming`]: shg_topology::TopologyKind::SparseHamming
    #[must_use]
    pub fn build(&self) -> Topology {
        generators::row_column_skip(self.grid, &self.sr, &self.sc)
            .expect("configuration was validated at construction")
    }

    /// All configurations reachable by adding one skip distance — the
    /// neighborhood explored by the customization strategy (Section V-a,
    /// step 4: "change the parameters SR and SC such that the
    /// insufficiencies are eliminated").
    #[must_use]
    pub fn grow_moves(&self) -> Vec<Self> {
        let mut moves = Vec::new();
        for x in 2..self.cols() {
            if !self.sr.contains(&x) {
                let mut next = self.clone();
                next.sr.insert(x);
                moves.push(next);
            }
        }
        for x in 2..self.rows() {
            if !self.sc.contains(&x) {
                let mut next = self.clone();
                next.sc.insert(x);
                moves.push(next);
            }
        }
        moves
    }

    /// All configurations reachable by removing one skip distance.
    #[must_use]
    pub fn shrink_moves(&self) -> Vec<Self> {
        let mut moves = Vec::new();
        for &x in &self.sr {
            let mut next = self.clone();
            next.sr.remove(&x);
            moves.push(next);
        }
        for &x in &self.sc {
            let mut next = self.clone();
            next.sc.remove(&x);
            moves.push(next);
        }
        moves
    }

    /// Size of the design space for a grid: `2^(R+C−4)` (Table I).
    #[must_use]
    pub fn design_space_size(rows: u16, cols: u16) -> u128 {
        let exponent = (rows as u32 + cols as u32).saturating_sub(4);
        1u128 << exponent.min(127)
    }
}

impl fmt::Display for SparseHammingConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let set = |s: &BTreeSet<u16>| -> String {
            let items: Vec<String> = s.iter().map(u16::to_string).collect();
            format!("{{{}}}", items.join(", "))
        };
        write!(
            f,
            "SHG {}x{} SR={} SC={}",
            self.rows(),
            self.cols(),
            set(&self.sr),
            set(&self.sc)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shg_topology::{metrics, TopologyKind};

    #[test]
    fn scenario_configs_are_valid() {
        // The four configurations from Fig. 6.
        assert!(SparseHammingConfig::new(8, 8, [4], [2, 5]).is_ok());
        assert!(SparseHammingConfig::new(8, 8, [2, 4], [2, 4]).is_ok());
        assert!(SparseHammingConfig::new(16, 8, [3], [2, 5]).is_ok());
        assert!(SparseHammingConfig::new(16, 8, [2, 4], [2, 4]).is_ok());
    }

    #[test]
    fn invalid_skip_is_rejected() {
        assert!(SparseHammingConfig::new(8, 8, [8], []).is_err());
        assert!(SparseHammingConfig::new(8, 8, [], [1]).is_err());
    }

    #[test]
    fn mesh_and_butterfly_extremes() {
        let mesh = SparseHammingConfig::mesh(8, 8);
        assert!(mesh.is_mesh());
        assert_eq!(mesh.num_extra_links(), 0);
        let fb = SparseHammingConfig::flattened_butterfly(8, 8);
        assert!(fb.is_flattened_butterfly());
        let fb_topology = fb.build();
        let reference = shg_topology::generators::flattened_butterfly(Grid::new(8, 8));
        assert_eq!(fb_topology.links(), reference.links());
        assert_eq!(metrics::diameter(&fb_topology), 2);
    }

    #[test]
    fn extra_link_count_matches_construction() {
        let config = SparseHammingConfig::new(8, 8, [4], [2, 5]).expect("valid");
        let mesh_links = SparseHammingConfig::mesh(8, 8).build().num_links();
        assert_eq!(
            config.build().num_links(),
            mesh_links + config.num_extra_links()
        );
    }

    #[test]
    fn grow_moves_cover_all_missing_skips() {
        let config = SparseHammingConfig::new(8, 8, [4], [2, 5]).expect("valid");
        // 6 possible SR values minus 1 present, 6 SC minus 2 present.
        assert_eq!(config.grow_moves().len(), 5 + 4);
        for next in config.grow_moves() {
            assert_eq!(
                next.sr().len() + next.sc().len(),
                config.sr().len() + config.sc().len() + 1
            );
        }
    }

    #[test]
    fn shrink_moves_invert_grow_moves() {
        let config = SparseHammingConfig::new(8, 8, [4], [2]).expect("valid");
        let shrunk = config.shrink_moves();
        assert_eq!(shrunk.len(), 2);
        for s in &shrunk {
            assert!(s.grow_moves().contains(&config));
        }
    }

    #[test]
    fn design_space_matches_table1() {
        assert_eq!(SparseHammingConfig::design_space_size(8, 8), 1 << 12);
        assert_eq!(SparseHammingConfig::design_space_size(16, 8), 1 << 20);
        assert_eq!(SparseHammingConfig::design_space_size(2, 2), 1);
    }

    #[test]
    fn display_is_readable() {
        let config = SparseHammingConfig::new(8, 8, [4], [2, 5]).expect("valid");
        assert_eq!(config.to_string(), "SHG 8x8 SR={4} SC={2, 5}");
    }

    #[test]
    fn build_equals_the_skip_construction() {
        // Mesh, sparse Hamming graphs and the flattened butterfly: the
        // topology has the construction's links and neighbours, and every
        // configuration but the mesh is of the SparseHamming kind.
        let grid = Grid::new(6, 5);
        let configs = [
            SparseHammingConfig::mesh(6, 5),
            SparseHammingConfig::new(6, 5, [3], []).expect("valid"),
            SparseHammingConfig::new(6, 5, [2, 4], [2, 5]).expect("valid"),
            SparseHammingConfig::flattened_butterfly(6, 5),
        ];
        for config in &configs {
            let built = config.build();
            let reference =
                generators::row_column_skip(grid, config.sr(), config.sc()).expect("valid skips");
            assert_eq!(built.links(), reference.links(), "{config}");
            for tile in grid.tiles() {
                assert_eq!(built.neighbors(tile), reference.neighbors(tile), "{config}");
            }
            let kind = if config.is_mesh() {
                TopologyKind::Mesh
            } else {
                TopologyKind::SparseHamming
            };
            assert_eq!(built.kind(), kind, "{config}");
            assert_eq!(
                built,
                Topology::new(grid, kind, reference.links().iter().copied())
            );
        }
    }

    #[test]
    fn build_kind_is_sparse_hamming() {
        let config = SparseHammingConfig::new(8, 8, [4], []).expect("valid");
        assert_eq!(config.build().kind(), TopologyKind::SparseHamming);
        assert_eq!(
            SparseHammingConfig::mesh(4, 4).build().kind(),
            TopologyKind::Mesh
        );
    }
}
