//! E2 — regenerates Table III: toolchain validation against the published
//! MemPool implementation results.
//!
//! Run with: `cargo run --release -p shg-bench --bin table3_mempool`

use shg_core::{report, MempoolReference, Toolchain};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    shg_bench::reject_retired_flags();
    let reference = MempoolReference::new();
    let toolchain = Toolchain {
        sim: reference.sim.clone(),
        ..Toolchain::default()
    };
    let eval = toolchain.evaluate(&reference.params, &reference.topology())?;

    println!("=== Table III — MemPool validation ===");
    println!(
        "Stand-in: {} at {:.0} MHz ({} tiles × {:.1} MGE)\n",
        reference.topology(),
        reference.params.frequency.value() / 1e6,
        reference.params.grid.num_tiles(),
        reference.params.endpoint_area.as_mega(),
    );
    println!(
        "{:<12} {:>12} {:>12} {:<8} {:>9}",
        "Metric", "Published", "Predicted", "Unit", "Error"
    );
    println!("{}", "-".repeat(58));
    println!(
        "{}",
        report::validation_row(
            "Area",
            reference.correct_area_mm2,
            eval.total_area.value(),
            "mm2"
        )
    );
    println!(
        "{}",
        report::validation_row(
            "Power",
            reference.correct_power_w,
            eval.total_power.value(),
            "W"
        )
    );
    println!(
        "{}",
        report::validation_row(
            "Latency",
            reference.correct_latency_cycles,
            eval.zero_load_latency,
            "cycles"
        )
    );
    println!(
        "{}",
        report::validation_row(
            "Throughput",
            reference.correct_throughput * 100.0,
            eval.saturation_throughput * 100.0,
            "%"
        )
    );
    println!(
        "\nPaper's Table III for comparison: area 21.16 → 24.26 mm² (15%),\n\
         power 1.55 → 1.447 W (7%), latency 5 → 10 cycles (100%),\n\
         throughput 38% → 25% (34%). The latency over-estimation is the\n\
         expected artifact of the ≥1-cycle-per-router/link assumption on a\n\
         latency-optimized design (Section IV-C)."
    );
    // The paper's 4-cycle correction: 1 injection + 3 routers.
    let corrected = eval.zero_load_latency - 4.0;
    println!(
        "With the paper's 4-cycle correction: {:.1} cycles ({:.0}% off).",
        corrected,
        ((corrected - reference.correct_latency_cycles) / reference.correct_latency_cycles * 100.0)
            .abs()
    );
    Ok(())
}
