//! Approximate floorplanning and link routing for NoC cost prediction.
//!
//! This crate implements the five-step model of Section IV-B of the Sparse
//! Hamming Graph paper (Fig. 4/5). It bridges the gap between fast but
//! coarse high-level models and accurate but slow low-level (RTL) models
//! by estimating implementation details — channel spacing, wire lengths,
//! collisions — from an approximate floorplan:
//!
//! 1. [`TilePlacement`] — tile area estimate and placement in the R×C grid,
//! 2. [`GlobalRouting`] — greedy global routing in the grid of tiles,
//! 3. [`Spacings`] — estimation of spacing between rows and columns,
//! 4. [`UnitGrid`] — discretization of the chip into same-sized unit cells,
//! 5. [`DetailedRoutes`] — detailed routing in the grid of unit cells.
//!
//! The combined outputs are the NoC's **area overhead**, **power
//! consumption** and **per-link latencies** ([`NocEstimates`]); the
//! latencies annotate the topology fed to the cycle-accurate simulator.
//!
//! [`predict`] runs the steps in two stages. [`Screen::compute`] runs
//! steps 1–4, which already fix the chip area ([`ChipArea`]: the area
//! reads only the unit grid). [`Screen::finish`] runs step 5, the A*
//! link routing over unit cells and most of a prediction's cost, and
//! assembles power and latencies from it. A caller that ranks many
//! topologies by area first (the customization loop) can stop after the
//! screen for the ones that cannot win.
//!
//! # Examples
//!
//! ```
//! use shg_floorplan::{predict, ArchParams, ModelOptions};
//! use shg_topology::{generators, Grid};
//! use shg_units::{
//!     AspectRatio, BitsPerCycle, GateEquivalents, Hertz, RouterAreaModel, Technology,
//!     Transport,
//! };
//!
//! let params = ArchParams {
//!     grid: Grid::new(8, 8),
//!     endpoint_area: GateEquivalents::mega(35.0),
//!     endpoints_per_tile: 1,
//!     aspect_ratio: AspectRatio::square(),
//!     frequency: Hertz::giga(1.2),
//!     bandwidth: BitsPerCycle::new(512),
//!     technology: Technology::example_22nm(),
//!     transport: Transport::axi_like(),
//!     router_model: RouterAreaModel::input_queued(8, 32),
//! };
//! let mesh = generators::mesh(params.grid);
//! let prediction = predict(&params, &mesh, &ModelOptions::default());
//! assert!(prediction.estimates.area_overhead < 0.15);
//! ```

mod detailed_route;
mod estimate;
mod global_route;
mod params;
mod placement;
mod spacing;
mod unitcell;

pub use detailed_route::{DetailedRoutes, LinkRoute};
pub use estimate::{ChipArea, NocEstimates};
pub use global_route::{ChannelLoads, GlobalRouting, Segment};
pub use params::{ArchParams, DetailedRouting, ModelOptions, PortPlacement};
pub use placement::TilePlacement;
pub use spacing::Spacings;
pub use unitcell::{CellRect, Face, UnitGrid};

use serde::{Deserialize, Serialize};
use shg_topology::Topology;

/// The full output of one model run: every intermediate step plus the
/// final estimates, exposed per C-INTERMEDIATE so that callers (e.g. the
/// ablation benches) can inspect channel loads or routing collisions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Step 1 output.
    pub placement: TilePlacement,
    /// Step 2 output.
    pub global: GlobalRouting,
    /// Step 3 output.
    pub spacings: Spacings,
    /// Step 4 output.
    pub unit_grid: UnitGrid,
    /// Step 5 output.
    pub detailed: DetailedRoutes,
    /// Final area/power/latency estimates.
    pub estimates: NocEstimates,
}

/// Steps 1–4 of the model and the chip area they fix: everything of a
/// [`Prediction`] but the detailed routes and the estimates that depend
/// on them (power, link lengths and latencies, collisions).
#[derive(Debug, Clone, PartialEq)]
pub struct Screen {
    /// Step 1 output.
    pub placement: TilePlacement,
    /// Step 2 output.
    pub global: GlobalRouting,
    /// Step 3 output.
    pub spacings: Spacings,
    /// Step 4 output.
    pub unit_grid: UnitGrid,
    /// The chip area of `unit_grid`, equal to the finished estimates'.
    pub area: ChipArea,
}

impl Screen {
    /// Runs steps 1–4 on a topology.
    ///
    /// # Panics
    ///
    /// Panics if `params.grid` and the topology's grid differ.
    #[must_use]
    pub fn compute(params: &ArchParams, topology: &Topology, options: &ModelOptions) -> Self {
        assert_eq!(
            params.grid,
            topology.grid(),
            "parameter grid and topology grid must agree"
        );
        let placement = TilePlacement::compute(params, topology);
        let global = GlobalRouting::route(topology, options.port_placement);
        let spacings = Spacings::compute(params, &global.loads);
        let unit_grid = UnitGrid::build(params, options, &placement, &spacings);
        let area = ChipArea::compute(params, &unit_grid);
        Self {
            placement,
            global,
            spacings,
            unit_grid,
            area,
        }
    }

    /// Runs step 5 over this screen's unit grid and global routes, and
    /// assembles the final estimates. `params`, `topology` and `options`
    /// must be the ones the screen was computed from.
    #[must_use]
    pub fn finish(
        &self,
        params: &ArchParams,
        topology: &Topology,
        options: &ModelOptions,
    ) -> (DetailedRoutes, NocEstimates) {
        let detailed = DetailedRoutes::route(topology, &self.unit_grid, &self.global, options);
        let mut estimates = NocEstimates::compute(params, &self.unit_grid, &detailed);
        // Expanded-grid instantiations annotate die-crossing links; the
        // floorplan model charges them the database's boundary-crossing
        // latency on top of the wire-length estimate. Flat topologies carry
        // no metadata, so their latencies (and every downstream cell
        // fingerprint) are untouched.
        let boundary = topology.boundary_latency();
        if boundary > 0 {
            for (i, latency) in estimates.link_latencies.iter_mut().enumerate() {
                if topology.link_crosses_die(shg_topology::LinkId::new(i as u32)) {
                    *latency += shg_units::Cycles::new(u64::from(boundary));
                }
            }
        }
        (detailed, estimates)
    }
}

/// Runs the full five-step model on a topology: [`Screen::compute`], then
/// [`Screen::finish`].
///
/// # Examples
///
/// See the [crate-level documentation](crate).
#[must_use]
pub fn predict(params: &ArchParams, topology: &Topology, options: &ModelOptions) -> Prediction {
    let screen = Screen::compute(params, topology, options);
    let (detailed, estimates) = screen.finish(params, topology, options);
    let Screen {
        placement,
        global,
        spacings,
        unit_grid,
        area: _,
    } = screen;
    Prediction {
        placement,
        global,
        spacings,
        unit_grid,
        detailed,
        estimates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shg_topology::{generators, Grid};
    use shg_units::{
        AspectRatio, BitsPerCycle, GateEquivalents, Hertz, RouterAreaModel, Technology, Transport,
    };

    fn params(grid: Grid) -> ArchParams {
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
        }
    }

    #[test]
    fn cost_ordering_matches_figure_6() {
        // Fig. 6a cost panel: mesh < torus ≲ sparse Hamming (customized)
        // < flattened butterfly in area overhead.
        let grid = Grid::new(8, 8);
        let p = params(grid);
        let options = ModelOptions::default();
        let mesh = predict(&p, &generators::mesh(grid), &options);
        let torus = predict(&p, &generators::torus(grid), &options);
        let sr = [4].into_iter().collect();
        let sc = [2, 5].into_iter().collect();
        let shg = predict(
            &p,
            &generators::row_column_skip(grid, &sr, &sc).expect("scenario a"),
            &options,
        );
        let fb = predict(&p, &generators::flattened_butterfly(grid), &options);
        let (m, t, s, f) = (
            mesh.estimates.area_overhead,
            torus.estimates.area_overhead,
            shg.estimates.area_overhead,
            fb.estimates.area_overhead,
        );
        assert!(m < t, "mesh {m} < torus {t}");
        assert!(t < s, "torus {t} < shg {s}");
        assert!(s < f, "shg {s} < fb {f}");
    }

    #[test]
    #[should_panic(expected = "must agree")]
    fn grid_mismatch_panics() {
        let p = params(Grid::new(4, 4));
        let mesh = generators::mesh(Grid::new(8, 8));
        let _ = predict(&p, &mesh, &ModelOptions::default());
    }

    #[test]
    fn prediction_is_deterministic() {
        let grid = Grid::new(4, 4);
        let p = params(grid);
        let torus = generators::torus(grid);
        let a = predict(&p, &torus, &ModelOptions::default());
        let b = predict(&p, &torus, &ModelOptions::default());
        assert_eq!(a.estimates, b.estimates);
    }

    #[test]
    fn the_screen_fixes_the_finished_area() {
        let grid = Grid::new(8, 8);
        let p = params(grid);
        let options = ModelOptions::default();
        for topology in [
            generators::mesh(grid),
            generators::torus(grid),
            generators::flattened_butterfly(grid),
        ] {
            let screen = Screen::compute(&p, &topology, &options);
            let prediction = predict(&p, &topology, &options);
            let estimates = &prediction.estimates;
            let area = screen.area;
            assert_eq!(area.total_area, estimates.total_area, "{topology}");
            assert_eq!(area.area_no_noc, estimates.area_no_noc, "{topology}");
            assert_eq!(
                area.area_overhead.to_bits(),
                estimates.area_overhead.to_bits(),
                "{topology}"
            );
            assert_eq!(
                screen.finish(&p, &topology, &options).1,
                prediction.estimates
            );
        }
    }

    #[test]
    fn boundary_latency_is_charged_on_die_crossing_links_only() {
        use shg_topology::db::TopologyDb;
        use shg_topology::LinkId;

        let spec = |latency: u32| {
            format!("die a 4x4 mesh; die b 4x4 mesh; boundary every=2 latency={latency}")
        };
        let with = TopologyDb::parse(&spec(7)).unwrap().instantiate().unwrap();
        let without = TopologyDb::parse(&spec(0)).unwrap().instantiate().unwrap();
        assert_eq!(with.links(), without.links());
        let p = params(with.grid());
        let options = ModelOptions::default();
        let charged = predict(&p, &with, &options).estimates.link_latencies;
        let base = predict(&p, &without, &options).estimates.link_latencies;
        let mut crossings = 0;
        for i in 0..with.num_links() {
            let id = LinkId::new(i as u32);
            if with.link_crosses_die(id) {
                crossings += 1;
                assert_eq!(charged[i], base[i] + shg_units::Cycles::new(7), "{id}");
            } else {
                assert_eq!(charged[i], base[i], "{id}");
            }
        }
        assert_eq!(crossings, 2);
    }
}
