//! Model outputs: area overhead, power consumption and per-link latencies
//! (Section IV-B.2.b–d of the paper).

use serde::{Deserialize, Serialize};

use shg_topology::LinkId;
use shg_units::{Cycles, Mm, Mm2, Watts};

use crate::detailed_route::DetailedRoutes;
use crate::params::ArchParams;
use crate::placement::TilePlacement;
use crate::unitcell::UnitGrid;

/// The chip area with and without the NoC (Section IV-B.2.b). Step 4
/// fixes it: it reads only the unit grid's total area, so it is known
/// before step 5 routes a single link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipArea {
    /// Total chip area `A_tot = N_cell · A_C`.
    pub total_area: Mm2,
    /// Area of the chip without a NoC, `A_noNoC = f_GE→mm²(N_T · A_E)`.
    pub area_no_noc: Mm2,
    /// NoC area overhead `(A_tot − A_noNoC) / A_tot`, in `[0, 1)`.
    pub area_overhead: f64,
}

impl ChipArea {
    /// The area of `unit_grid`'s chip — the one area formula behind both
    /// [`crate::Screen`] and [`NocEstimates::compute`].
    #[must_use]
    pub fn compute(params: &ArchParams, unit_grid: &UnitGrid) -> Self {
        let total_area = unit_grid.total_area();
        let area_no_noc = params
            .technology
            .ge_to_mm2(params.endpoint_area * params.grid.num_tiles() as f64);
        let area_overhead = (total_area.value() - area_no_noc.value()) / total_area.value();
        Self {
            total_area,
            area_no_noc,
            area_overhead,
        }
    }
}

/// The cost and link-latency estimates of the floorplan model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NocEstimates {
    /// Total chip area `A_tot = N_cell · A_C`.
    pub total_area: Mm2,
    /// Area of the chip without a NoC, `A_noNoC = f_GE→mm²(N_T · A_E)`.
    pub area_no_noc: Mm2,
    /// NoC area overhead `(A_tot − A_noNoC) / A_tot`, in `[0, 1)`.
    pub area_overhead: f64,
    /// Total chip power `P_tot`.
    pub total_power: Watts,
    /// Chip power without a NoC, `P_noNoC`.
    pub power_no_noc: Watts,
    /// NoC power `P_NoC = P_tot − P_noNoC`.
    pub noc_power: Watts,
    /// Physical wire length of every link.
    pub link_lengths: Vec<Mm>,
    /// Pipeline latency of every link in cycles (≥ 1).
    pub link_latencies: Vec<Cycles>,
    /// Detailed-routing collisions (over-capacity cell usages).
    pub collisions: u64,
}

impl NocEstimates {
    /// Assembles the final estimates from the five model steps.
    #[must_use]
    pub fn compute(params: &ArchParams, unit_grid: &UnitGrid, detailed: &DetailedRoutes) -> Self {
        let tech = &params.technology;
        let cell_area = unit_grid.cell_area();
        let ChipArea {
            total_area,
            area_no_noc,
            area_overhead,
        } = ChipArea::compute(params, unit_grid);
        // Power (Section IV-B.2.c).
        let logic_area = cell_area * unit_grid.logic_cells() as f64;
        let wire_cells = detailed.h_occupied_cells + detailed.v_occupied_cells;
        let wire_area = cell_area * (wire_cells as f64 / 2.0);
        let total_power = tech.logic_power(logic_area) + tech.wire_power(wire_area);
        let power_no_noc = tech.logic_power(area_no_noc);
        let noc_power = Watts::new((total_power.value() - power_no_noc.value()).max(0.0));
        // Link latency (Section IV-B.2.d).
        let link_lengths: Vec<Mm> = detailed
            .routes
            .iter()
            .map(|route| {
                unit_grid.cell_width * route.h_moves as f64
                    + unit_grid.cell_height * route.v_moves as f64
            })
            .collect();
        let link_latencies = link_lengths
            .iter()
            .map(|&len| tech.wire_latency(len, params.frequency))
            .collect();
        Self {
            total_area,
            area_no_noc,
            area_overhead,
            total_power,
            power_no_noc,
            noc_power,
            link_lengths,
            link_latencies,
            collisions: detailed.collisions,
        }
    }

    /// Latency of a specific link.
    ///
    /// # Panics
    ///
    /// Panics if the link id is out of range.
    #[must_use]
    pub fn link_latency(&self, link: LinkId) -> Cycles {
        self.link_latencies[link.index()]
    }

    /// The longest link latency.
    #[must_use]
    pub fn max_link_latency(&self) -> Cycles {
        self.link_latencies
            .iter()
            .copied()
            .max()
            .unwrap_or(Cycles::one())
    }

    /// Mean link latency in cycles.
    #[must_use]
    pub fn mean_link_latency(&self) -> f64 {
        if self.link_latencies.is_empty() {
            return 0.0;
        }
        self.link_latencies
            .iter()
            .map(|c| c.value() as f64)
            .sum::<f64>()
            / self.link_latencies.len() as f64
    }

    /// Router area from step 1, re-exposed for reporting: callers keep the
    /// [`TilePlacement`]; this type stores only the chip-level outputs.
    #[must_use]
    pub fn router_share_of_tile(placement: &TilePlacement) -> f64 {
        placement.router_area.value() / placement.tile_area.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detailed_route::DetailedRoutes;
    use crate::global_route::GlobalRouting;
    use crate::params::ModelOptions;
    use crate::spacing::Spacings;
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

    fn estimate(topology: &shg_topology::Topology) -> NocEstimates {
        let p = params(topology.grid());
        let options = ModelOptions::default();
        let placement = TilePlacement::compute(&p, topology);
        let global = GlobalRouting::route(topology, options.port_placement);
        let spacings = Spacings::compute(&p, &global.loads);
        let ug = UnitGrid::build(&p, &options, &placement, &spacings);
        let detailed = DetailedRoutes::route(topology, &ug, &global, &options);
        let _ = &placement;
        NocEstimates::compute(&p, &ug, &detailed)
    }

    #[test]
    fn mesh_overhead_is_small() {
        let est = estimate(&generators::mesh(Grid::new(8, 8)));
        assert!(
            est.area_overhead > 0.0 && est.area_overhead < 0.15,
            "mesh overhead {}",
            est.area_overhead
        );
    }

    #[test]
    fn flattened_butterfly_costs_more_than_mesh() {
        let grid = Grid::new(8, 8);
        let mesh = estimate(&generators::mesh(grid));
        let fb = estimate(&generators::flattened_butterfly(grid));
        assert!(fb.area_overhead > mesh.area_overhead);
        assert!(fb.noc_power > mesh.noc_power);
    }

    #[test]
    fn all_link_latencies_at_least_one_cycle() {
        let est = estimate(&generators::torus(Grid::new(8, 8)));
        assert!(est.link_latencies.iter().all(|c| c.value() >= 1));
    }

    #[test]
    fn torus_wrap_links_are_slower_than_mesh_links() {
        let grid = Grid::new(8, 8);
        let torus = generators::torus(grid);
        let est = estimate(&torus);
        let mut wrap_latency = 0;
        let mut unit_latency = u64::MAX;
        for i in 0..torus.num_links() {
            let id = LinkId::new(i as u32);
            let lat = est.link_latencies[i].value();
            if torus.link_length(id) > 1 {
                wrap_latency = wrap_latency.max(lat);
            } else {
                unit_latency = unit_latency.min(lat);
            }
        }
        assert!(
            wrap_latency > unit_latency,
            "wrap {wrap_latency} vs unit {unit_latency}"
        );
    }

    #[test]
    fn power_decomposition_is_consistent() {
        let est = estimate(&generators::mesh(Grid::new(4, 4)));
        let sum = est.power_no_noc.value() + est.noc_power.value();
        assert!((sum - est.total_power.value()).abs() < 1e-9);
    }

    #[test]
    fn knc_chip_power_is_plausible() {
        // A KNC-like chip burned ~150–300 W; the logic power of the
        // no-NoC baseline should land in that range.
        let est = estimate(&generators::mesh(Grid::new(8, 8)));
        let p = est.power_no_noc.value();
        assert!(p > 100.0 && p < 400.0, "baseline power {p} W");
    }
}
