//! Fixed calibration loops, so numbers from two runners can be put on
//! one scale and a run whose machine changed speed under it is flagged.

use std::hint::black_box;
use std::time::Instant;

/// Millions of iterations per second of a fixed integer mix (xorshift,
/// multiply, add — a dependent chain, so one core's scalar speed).
pub fn loop_mops() -> f64 {
    const ITERATIONS: u64 = 60_000_000;
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    let mut sum = 0u64;
    for i in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum = sum.wrapping_add(x.wrapping_mul(i | 1));
    }
    black_box(sum);
    ITERATIONS as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// GB/s of a 64 MB walk touching one word per 64-byte line, four passes
/// (far beyond any cache here, so it follows memory, not the core).
pub fn mem_gbps() -> f64 {
    const WORDS: usize = 64 * 1024 * 1024 / 8;
    const PASSES: usize = 4;
    let mut buffer = vec![1u64; WORDS];
    let start = Instant::now();
    let mut sum = 0u64;
    for pass in 0..PASSES {
        for i in (0..WORDS).step_by(8) {
            sum = sum.wrapping_add(buffer[i]);
            buffer[i] = sum ^ pass as u64;
        }
    }
    black_box((sum, &buffer));
    // Each touched word pulls its whole 64-byte line.
    (PASSES * WORDS * 8) as f64 / start.elapsed().as_secs_f64() / 1e9
}
