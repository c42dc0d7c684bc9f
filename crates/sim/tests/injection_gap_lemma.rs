//! The two lemmas event-driven injection rests on, as property tests:
//!
//! 1. **Bit-identity** — the event calendar and a per-cycle countdown
//!    scan, consuming the same per-tile streams through the same
//!    geometric sampler, produce identical fire schedules and leave the
//!    streams in identical states, for any tile count, probability
//!    (including the `rate == 0` and `packet_prob >= 1` edges) and
//!    horizon: skipping the tiles that do not fire changes nothing.
//! 2. **Distributional equivalence** — the gap sampler's one-draw
//!    inversion reproduces the Bernoulli failure-run law
//!    `P[gap = k] = (1−p)^k · p` that per-cycle draws realize, so
//!    replacing the legacy per-cycle Bernoulli stream changes no
//!    traffic statistic (the network-level statistical suite checks the
//!    end-to-end consequence).

use proptest::prelude::*;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use shg_sim::{geometric_gap, tile_stream_seed, Injector};

/// The reference process: count failed per-cycle Bernoulli draws until
/// the first success. Caps at `limit` to bound the test for tiny `p`.
fn bernoulli_gap(rng: &mut SmallRng, p: f64, limit: u64) -> Option<u64> {
    let mut gap = 0u64;
    loop {
        if rng.gen::<f64>() < p {
            return Some(gap);
        }
        gap += 1;
        if gap > limit {
            return None;
        }
    }
}

/// The per-cycle reference for the calendar: every tile counts its
/// sampled gap down by one each cycle and fires at zero, drawing the
/// next gap from its stream after the caller's destination draw.
struct Countdown {
    streams: Vec<SmallRng>,
    /// Cycles until each tile fires; `None` for one that never does.
    left: Vec<Option<u64>>,
    p: f64,
}

impl Countdown {
    fn new(seed: u64, tiles: usize, p: f64) -> Self {
        let mut streams: Vec<SmallRng> = (0..tiles as u32)
            .map(|t| SmallRng::seed_from_u64(tile_stream_seed(seed, t)))
            .collect();
        let left = streams
            .iter_mut()
            .map(|rng| geometric_gap(rng, p))
            .collect();
        Self { streams, left, p }
    }

    fn fire(&mut self, mut fire: impl FnMut(usize, &mut SmallRng)) {
        for (t, left) in self.left.iter_mut().enumerate() {
            match left {
                Some(0) => {
                    fire(t, &mut self.streams[t]);
                    *left = geometric_gap(&mut self.streams[t], self.p);
                }
                Some(cycles) => *cycles -= 1,
                None => {}
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lemma 1: identical fire schedules, identical stream states. The
    /// probe draw inside the callback doubles as the destination draw a
    /// real pattern would take, so it also proves the streams agree at
    /// the moment destinations are sampled.
    #[test]
    fn calendar_and_countdown_scan_are_bit_identical(
        seed in 0u64..1_000_000,
        tiles in 1usize..24,
        p in 0.0f64..1.1,
        cycles in 1u64..300,
    ) {
        let mut scan = Countdown::new(seed, tiles, p);
        let mut event = Injector::new(seed, tiles, p, cycles);
        for now in 0..cycles {
            let mut a = Vec::new();
            let mut b = Vec::new();
            scan.fire(|t, rng| a.push((t, rng.next_u64())));
            event.fire_at(now, |t, rng| {
                b.push((t, rng.next_u64()));
                true
            });
            prop_assert_eq!(a, b, "cycle {} of {} (p {}): schedules diverge", now, cycles, p);
        }
    }

    /// Lemma 1 edge: `rate == 0` fires nothing, `packet_prob >= 1`
    /// fires every tile every cycle — on the calendar and the countdown.
    #[test]
    fn degenerate_probabilities_fire_never_or_always(
        seed in 0u64..1_000_000,
        tiles in 1usize..16,
    ) {
        let mut silent = Injector::new(seed, tiles, 0.0, 50);
        let mut saturated = Injector::new(seed, tiles, 1.0, 50);
        let mut silent_scan = Countdown::new(seed, tiles, 0.0);
        let mut saturated_scan = Countdown::new(seed, tiles, 1.0);
        for now in 0..50 {
            silent.fire_at(now, |t, _| panic!("tile {t} fired at rate 0"));
            silent_scan.fire(|t, _| panic!("tile {t} fired at rate 0 in the countdown"));
            let (mut fired, mut fired_scan) = (Vec::new(), Vec::new());
            saturated.fire_at(now, |t, _| {
                fired.push(t);
                true
            });
            saturated_scan.fire(|t, _| fired_scan.push(t));
            prop_assert_eq!(&fired, &(0..tiles).collect::<Vec<_>>(), "cycle {}", now);
            prop_assert_eq!(&fired_scan, &fired, "cycle {}", now);
        }
    }

    /// Lemma 2: the sampler's gaps follow the same law as Bernoulli
    /// failure runs — compared on the empirical mean (within a few
    /// standard errors) and on the zero-gap frequency (≈ p).
    #[test]
    fn gap_distribution_matches_bernoulli_failure_runs(
        seed in 0u64..1_000_000,
        p in 0.02f64..0.9,
    ) {
        let n = 4_000u32;
        let mut sampler_rng = SmallRng::seed_from_u64(seed);
        let mut bernoulli_rng = SmallRng::seed_from_u64(seed ^ 0xdead_beef);
        let mut sampler_sum = 0u64;
        let mut bernoulli_sum = 0u64;
        let mut sampler_zeros = 0u32;
        for _ in 0..n {
            let g = geometric_gap(&mut sampler_rng, p).expect("p > 0");
            sampler_sum += g;
            sampler_zeros += u32::from(g == 0);
            bernoulli_sum += bernoulli_gap(&mut bernoulli_rng, p, 1 << 24).expect("p >= 0.02");
        }
        let sampler_mean = sampler_sum as f64 / f64::from(n);
        let bernoulli_mean = bernoulli_sum as f64 / f64::from(n);
        // Two independent empirical means, each with standard error
        // σ/√n where σ = √(1−p)/p; allow 8 combined standard errors.
        let tolerance = 8.0 * (2.0f64).sqrt() * (1.0 - p).sqrt() / (p * f64::from(n).sqrt());
        prop_assert!(
            (sampler_mean - bernoulli_mean).abs() <= tolerance.max(0.01),
            "p {}: sampler mean {} vs bernoulli mean {} (tolerance {})",
            p, sampler_mean, bernoulli_mean, tolerance
        );
        let zero_rate = f64::from(sampler_zeros) / f64::from(n);
        let zero_tolerance = 8.0 * (p * (1.0 - p) / f64::from(n)).sqrt();
        prop_assert!(
            (zero_rate - p).abs() <= zero_tolerance.max(0.005),
            "p {}: zero-gap rate {} should approximate p", p, zero_rate
        );
    }

    /// Per-tile stream seeds derive from `(root, tile)` alone and never
    /// collide across the tiles of one run or between nearby roots.
    #[test]
    fn tile_seeds_never_collide(root in 0u64..1_000_000, tiles in 2u32..512) {
        let mut seen = std::collections::HashSet::new();
        for t in 0..tiles {
            prop_assert!(
                seen.insert(tile_stream_seed(root, t)),
                "collision at tile {} of root {}", t, root
            );
        }
        prop_assert!(
            !seen.contains(&tile_stream_seed(root + 1, 0)),
            "adjacent root collides with root {}'s tiles", root
        );
    }
}
