//! Allocator calls of screening one customization candidate.
//!
//! `customize` builds and [screens](Toolchain::screen) every single-skip
//! neighbour of every step, so what one candidate costs the allocator
//! bounds how much of the design space a run can afford. This binary
//! counts, on one thread, the allocator calls (`alloc`, `alloc_zeroed`
//! and `realloc`) of `config.build()` plus `Toolchain::screen` for three
//! configurations on the `customize_20x20` benchmark inputs (scenario
//! (a)'s architecture on a 20×20 grid, `cell_scale` 6.0, analytic mode)
//! and holds each count within a factor of two of its pin: a change that
//! doubles a count fails, and so does one that halves it without
//! lowering the pin.
//!
//! The same counter pins the two set-up costs a sweep pays per cell: a
//! [`Network::reset`] allocates nothing, where [`Network::new`] builds
//! every router, and the compact routing table of a 32×32 mesh keeps its
//! allocator calls and its exact size (a table that stored per-pair
//! paths would grow it by orders of magnitude).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use shg_core::{PerformanceMode, Scenario, SparseHammingConfig, Toolchain};
use shg_floorplan::{ArchParams, ModelOptions};
use shg_sim::{Network, SimConfig, TrafficPattern};
use shg_topology::{generators, routing, Grid};
use shg_units::Cycles;

/// The system allocator, counting the calls of the current thread.
struct Counting;

thread_local! {
    /// Allocator calls made by this thread so far. Const-initialized and
    /// without a destructor, so reading it never allocates.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // A thread being torn down has no counter left; its calls are not
    // the measured ones.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The `customize_20x20` benchmark's architecture and toolchain.
fn inputs() -> (Toolchain, ArchParams) {
    let mut params = Scenario::knc_a().params;
    params.grid = Grid::new(20, 20);
    let toolchain = Toolchain {
        model_options: ModelOptions {
            cell_scale: 6.0,
            ..ModelOptions::default()
        },
        mode: PerformanceMode::Analytic,
        ..Toolchain::default()
    };
    (toolchain, params)
}

/// Runs `f` and returns its value with the allocator calls it made on
/// this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let value = f();
    (value, CALLS.with(Cell::get) - before)
}

/// Asserts that `count` is within a factor of two of `pin`.
fn assert_near_pin(what: &str, count: u64, pin: u64) {
    assert!(
        count < 2 * pin && 2 * count > pin,
        "{what}: {count} allocator calls against a pin of {pin}; \
         re-pin only for an understood change"
    );
}

/// Allocator calls of building `config` and screening it, on this thread.
fn screen_calls(toolchain: &Toolchain, params: &ArchParams, config: &SparseHammingConfig) -> u64 {
    counted(|| {
        let topology = config.build();
        let screening = toolchain
            .screen(params, &topology)
            .expect("candidate routes");
        (topology, screening)
    })
    .1
}

#[test]
fn screening_a_candidate_keeps_its_allocator_calls() {
    let (toolchain, params) = inputs();
    let config = |sr: &[u16], sc: &[u16]| {
        SparseHammingConfig::new(20, 20, sr.iter().copied(), sc.iter().copied())
            .expect("valid skips")
    };
    // (configuration, pinned allocator calls)
    let cases = [
        (SparseHammingConfig::mesh(20, 20), 589),
        (config(&[2], &[]), 591),
        (config(&[2, 5, 19], &[4, 18]), 596),
    ];
    // One pass first, so one-time initialisation is not counted.
    let _ = screen_calls(&toolchain, &params, &cases[0].0);
    let counts: Vec<u64> = cases
        .iter()
        .map(|(config, _)| screen_calls(&toolchain, &params, config))
        .collect();
    for ((config, pin), count) in cases.iter().zip(&counts) {
        assert_near_pin(&format!("{config} (all counts: {counts:?})"), *count, *pin);
    }
}

#[test]
fn resetting_a_network_allocates_nothing() {
    let fb = generators::flattened_butterfly(Grid::new(16, 16));
    let routes = routing::default_routes(&fb).expect("FB routes");
    let latencies = vec![Cycles::one(); fb.num_links()];
    let config = SimConfig {
        warmup: 500,
        measure: 2_000,
        drain_limit: 6_000,
        ..SimConfig::default()
    };
    let (mut network, new_calls) = counted(|| Network::new(&fb, &routes, &latencies, config));
    let _ = network.run(0.01, TrafficPattern::UniformRandom);
    let ((), reset_calls) = counted(|| network.reset(1));
    assert_eq!(
        reset_calls, 0,
        "Network::reset of a run 16×16 flattened butterfly must reuse its storage"
    );
    assert_near_pin("Network::new, 16×16 flattened butterfly", new_calls, 5_901);
}

#[test]
fn compact_routes_of_a_32x32_mesh_keep_their_size() {
    let mesh = generators::mesh(Grid::new(32, 32));
    let (routes, calls) = counted(|| routing::default_routes(&mesh).expect("mesh routes"));
    assert_eq!(
        routes.table_bytes(),
        135_684,
        "the 32×32 mesh's compact table changed size"
    );
    assert_near_pin("default_routes, 32×32 mesh", calls, 161);
}
