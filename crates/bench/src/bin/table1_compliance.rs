//! E1 — regenerates Table I: compliance of NoC topologies with the four
//! design principles, computed from topology structure.
//!
//! Run with: `cargo run --release -p shg-bench --bin table1_compliance`

use shg_core::{report, Scenario, SparseHammingConfig};
use shg_topology::compliance;

fn main() {
    shg_bench::reject_retired_flags();
    for (grid_name, scenario) in [
        ("8x8 (64 tiles)", Scenario::knc_a()),
        ("16x8 (128 tiles)", Scenario::knc_c()),
    ] {
        let grid = scenario.params.grid;
        let shg = scenario.shg.build();
        println!("=== Table I — computed compliance matrix, {grid_name} ===");
        println!("(SHG instance: {})\n", scenario.shg);
        let rows = compliance::table1(grid, Some(&shg));
        println!("{}", report::compliance_table(&rows));
        // The paper reports intervals for the SHG family; print the two
        // extremes for reference.
        let mesh_row =
            compliance::analyze(&SparseHammingConfig::mesh(grid.rows(), grid.cols()).build());
        let fb_row = compliance::analyze(
            &SparseHammingConfig::flattened_butterfly(grid.rows(), grid.cols()).build(),
        );
        println!(
            "SHG family intervals: radix [{}, {}], diameter [{}, {}], configurations {}\n",
            mesh_row.router_radix,
            fb_row.router_radix,
            fb_row.diameter,
            mesh_row.diameter,
            SparseHammingConfig::design_space_size(grid.rows(), grid.cols()),
        );
    }
    println!(
        "Paper reference (Table I): ring radix 2 / diameter RC/2; mesh 4 / R+C-2;\n\
         torus and folded torus 4 / R/2+C/2; hypercube log2(RC) / log2(RC);\n\
         SlimNoC ~sqrt(RC) / 2; flattened butterfly R+C-2 / 2;\n\
         sparse Hamming graph [4, R+C-2] / [2, R+C-2] with 2^(R+C-4) configurations."
    );
}
