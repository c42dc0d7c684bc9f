//! Injection scheduling: per-tile RNG streams, the geometric-gap
//! sampler, the event-driven injection calendar and parked sources.
//!
//! # Per-tile streams
//!
//! Every tile owns a private [`SmallRng`] seeded by
//! [`tile_stream_seed`]`(config.seed, tile)`. Decoupling the sources'
//! traffic processes (the BookSim methodology) is what makes injection
//! *schedule-independent*: how often, when, or in which order the
//! simulator looks at a tile can no longer perturb any other tile's
//! arrivals, so an event-driven scheduler can skip idle tiles — and a
//! backlogged tile can be drawn late — without changing a single
//! statistic.
//!
//! # The gap process
//!
//! Each tile's arrivals form a Bernoulli process with per-cycle success
//! probability `p`; its inter-arrival gaps are geometric.
//! [`geometric_gap`] samples a gap directly by inversion —
//! `⌊ln(1−u)/ln(1−p)⌋` for one uniform draw `u` — so a tile consumes
//! **one draw per packet** instead of one draw per cycle. That is the
//! whole speedup: at the low rates that dominate load-curve sweeps,
//! Phase A's cost drops from O(N) RNG draws per cycle to O(arrivals).
//! The sampled distribution is exactly the Bernoulli failure-run law
//! (`P[gap = k] = (1−p)^k · p`); the gap-lemma property tests pin it
//! against per-cycle draws.
//!
//! A tile's stream is consumed in a fixed order: the first gap, then
//! per packet its destination draw followed by the gap to the next
//! arrival.
//!
//! # The event calendar
//!
//! The [`Injector`] keeps each scheduled tile in a min-heap keyed by
//! its next firing cycle, so Phase A visits only the tiles that fire,
//! in ascending tile order within a cycle. Its fire schedule is the one
//! a per-cycle scan counting every tile's gap down by one would
//! produce: both consume the same per-tile streams through the same
//! sampler in the same order. The gap-lemma property tests
//! (`tests/injection_gap_lemma.rs`) pin the calendar against such a
//! countdown.
//!
//! # Parked sources
//!
//! A tile's injection port is an unbounded queue in the model, but the
//! router only ever holds the packet at its front (see the router's
//! "Source queue" notes). When a tile fires while that packet is still
//! leaving, the caller of [`Injector::fire_at`] **parks** it instead of
//! drawing the new packet: the tile leaves the calendar, and its
//! pending packet stays a creation cycle plus a stream positioned at
//! that packet's destination draw — O(1) state, however long the
//! backlog grows. When the injection buffer frees,
//! the injector draws the pending packets in stream order until one
//! has somewhere to go; once the next arrival lies in the future the
//! tile returns to the calendar. A packet drawn late keeps the fault
//! state of its creation cycle: whether it was routable is judged
//! against the components in force then.
//!
//! This is exact. Each tile still consumes its own stream in the same
//! order (destination, then gap), and a FIFO of eagerly drawn packets
//! would have held them in exactly that order; the buffer is refilled
//! at the same point of the cycle the FIFO's front would have moved up;
//! and a parked tile always has a busy injection buffer, so no router
//! enters or leaves the active set at a different cycle. Work and
//! memory now follow the packets that actually leave a source: an
//! overloaded tile no longer pays a calendar pop and push and a queued
//! descriptor for every packet it will never send. What a statistic
//! needs of the packets still parked when the measurement window
//! closes is counted by walking a copy of the stream, and a fault that
//! discards a backlog walks the stream itself. Since the streams fix
//! every arrival before the run starts, a saturation probe walks copies
//! of all of them up front to know the window's final offered load.
//!
//! An earlier `SharedScan` policy drew every tile's arrivals from one
//! stream shared by all tiles. A parked packet of such a stream cannot
//! be drawn later without perturbing every other tile, so it would have
//! kept an eager packet queue alive beside the lazy sources; it was
//! removed together with that queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The SplitMix64 finalizer: the avalanche both seed derivations in
/// this crate ([`tile_stream_seed`] and the sweep engine's per-point
/// `derive_seed`) fold their inputs through.
pub(crate) fn splitmix64_mix(mut state: u64) -> u64 {
    state = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    state = (state ^ (state >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    state ^ (state >> 31)
}

/// Derives tile `tile`'s private stream seed from the run's root seed
/// (SplitMix64-style finalizer, same family as the sweep engine's
/// per-point derivation). Depends only on `(root, tile)`, never on
/// scheduling — the property the sweep determinism tests rely on.
#[must_use]
pub fn tile_stream_seed(root: u64, tile: u32) -> u64 {
    splitmix64_mix(
        root.wrapping_add(0xa076_1d64_78bd_642f)
            .wrapping_add(u64::from(tile).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
    )
}

/// Sentinel cycle for tiles that never fire again.
const NEVER: u64 = u64::MAX;

/// Samples the geometric gap to a tile's next injection attempt: the
/// number of silent cycles before the next success of its per-cycle
/// Bernoulli(`p`) arrival process, i.e. `P[gap = k] = (1−p)^k · p`.
///
/// Sampled by inversion from **one** uniform draw —
/// `⌊ln(1−u)/ln(1−p)⌋` with `ln_1p` for precision at small `p` — so a
/// tile's stream advances once per packet, not once per cycle. A gap
/// of `0` is exactly as likely as one Bernoulli success (`u < p`).
///
/// Returns `None` for `p <= 0` (the tile never injects and the stream
/// is left untouched). For `p >= 1` the gap is always `Some(0)`
/// without consuming the stream (every cycle fires).
///
/// # Examples
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use shg_sim::geometric_gap;
///
/// let mut rng = SmallRng::seed_from_u64(7);
/// assert!(geometric_gap(&mut rng, 0.1).is_some());
/// assert_eq!(geometric_gap(&mut rng, 0.0), None);
/// assert_eq!(geometric_gap(&mut rng, 1.0), Some(0));
/// ```
pub fn geometric_gap<R: Rng>(rng: &mut R, p: f64) -> Option<u64> {
    GapSampler::new(p).sample(rng)
}

/// [`geometric_gap`] with `ln(1−p)` precomputed — the form the
/// injector uses, since `p` is fixed for a whole run. Bit-identical to
/// the free function: the division sees the same operand values.
#[derive(Debug, Clone, Copy)]
struct GapSampler {
    /// `ln(1−p)` (negative), `0.0` for "never", `f64::NEG_INFINITY`
    /// effectively means "every cycle" but is short-circuited.
    ln_q: f64,
    p: f64,
}

impl GapSampler {
    fn new(p: f64) -> Self {
        // ln(1−p) via ln_1p: accurate down to subnormal `p`, where
        // `(1.0 - p).ln()` would round to zero and divide away the gap
        // entirely.
        let ln_q = if (0.0..1.0).contains(&p) {
            (-p).ln_1p()
        } else {
            0.0
        };
        Self { ln_q, p }
    }

    #[inline]
    fn sample<R: Rng>(self, rng: &mut R) -> Option<u64> {
        if self.p <= 0.0 {
            return None;
        }
        if self.p >= 1.0 {
            return Some(0);
        }
        let u: f64 = rng.gen();
        // Casting saturates, so gaps past any horizon are simply
        // "very large".
        Some(((-u).ln_1p() / self.ln_q) as u64)
    }

    /// The cycle of the next arrival whose gap starts counting at cycle
    /// `from`: `from + gap`, or [`NEVER`] for a tile that never fires
    /// (or fires past any representable cycle).
    #[inline]
    fn arrival_from<R: Rng>(self, rng: &mut R, from: u64) -> u64 {
        self.sample(rng)
            .and_then(|gap| from.checked_add(gap))
            .unwrap_or(NEVER)
    }
}

/// The per-run injection engine: owns the per-tile RNG streams and
/// decides, cycle by cycle, which tiles attempt an injection.
///
/// Public so the gap-lemma property tests can drive Phase A in
/// isolation; a simulation builds one per run.
#[derive(Debug)]
pub struct Injector {
    streams: Vec<SmallRng>,
    sampler: GapSampler,
    /// Each tile's next arrival cycle: when a scheduled tile fires, or
    /// the creation cycle of a parked tile's pending packet ([`NEVER`]
    /// once no arrival is left). A tile is parked exactly while this
    /// lies before the first cycle whose Phase A has not run yet.
    next: Vec<u64>,
    /// Min-heap of `(next_injection_cycle, tile)` over the scheduled
    /// tiles; popping in ascending `(cycle, tile)` order visits the
    /// tiles due in a cycle in ascending tile order.
    calendar: BinaryHeap<Reverse<(u64, usize)>>,
    /// No event is scheduled past this cycle: the run is over by then,
    /// so the dropped tiles cannot affect any statistic.
    horizon: u64,
}

impl Injector {
    /// Builds the engine for one run. `horizon` is the last cycle the
    /// run can reach (`measure_end + drain_limit`); the calendar never
    /// schedules past it.
    #[must_use]
    pub fn new(seed: u64, tiles: usize, packet_prob: f64, horizon: u64) -> Self {
        let sampler = GapSampler::new(packet_prob);
        let mut streams: Vec<SmallRng> = (0..tiles)
            .map(|t| SmallRng::seed_from_u64(tile_stream_seed(seed, t as u32)))
            .collect();
        let next: Vec<u64> = streams
            .iter_mut()
            .map(|rng| sampler.arrival_from(rng, 0))
            .collect();
        let mut injector = Self {
            streams,
            sampler,
            next,
            calendar: BinaryHeap::with_capacity(tiles),
            horizon,
        };
        for t in 0..tiles {
            injector.schedule(t);
        }
        injector
    }

    /// Puts tile `t` on the calendar at its next arrival — unless that
    /// lies past the horizon, where the run cannot reach it.
    fn schedule(&mut self, t: usize) {
        if self.next[t] <= self.horizon {
            self.calendar.push(Reverse((self.next[t], t)));
        }
    }

    /// Calls `fire(tile, stream)` for every tile that attempts an
    /// injection at cycle `now`, in ascending tile order. The callback
    /// either draws the packet's destination from the stream and
    /// returns `true`, or returns `false` without touching the stream
    /// to **park** the tile: the packet stays pending at `now`, and the
    /// tile fires no more until the simulator has drawn it (see the
    /// module's "Parked sources").
    ///
    /// Must be called once per cycle with consecutive `now` values: a
    /// tile due in a skipped cycle would fire late.
    pub fn fire_at(&mut self, now: u64, mut fire: impl FnMut(usize, &mut SmallRng) -> bool) {
        while let Some(&Reverse((cycle, t))) = self.calendar.peek() {
            if cycle > now {
                break;
            }
            self.calendar.pop();
            let rng = &mut self.streams[t];
            if fire(t, rng) {
                // The next gap starts counting from `now + 1`.
                self.next[t] = self.sampler.arrival_from(rng, now + 1);
                self.schedule(t);
            }
        }
    }

    /// Draws parked tile `tile`'s pending packets created before cycle
    /// `from` — the first cycle whose Phase A has not run — in stream
    /// order: `take(created, stream)` draws one packet's destination
    /// and returns whether it found somewhere to go. Stops after the
    /// first packet taken while the tile stays parked (its next arrival
    /// is also due), or once the next arrival lies at or after `from`,
    /// where the tile is scheduled again. A no-op for a tile that is
    /// not parked.
    pub(crate) fn draw_parked(
        &mut self,
        tile: usize,
        from: u64,
        mut take: impl FnMut(u64, &mut SmallRng) -> bool,
    ) {
        while self.next[tile] < from {
            let created = self.next[tile];
            let rng = &mut self.streams[tile];
            let took = take(created, rng);
            let next = self.sampler.arrival_from(rng, created + 1);
            self.next[tile] = next;
            if next >= from {
                self.schedule(tile);
                return;
            }
            if took {
                return;
            }
        }
    }

    /// Draws every pending packet of parked tile `tile` created before
    /// cycle `from`, handing each to `discard(created, stream)`, and
    /// schedules the tile at its first arrival from `from` on — for a
    /// fault that discards the tile's backlog at the top of cycle
    /// `from`. A no-op for a tile that is not parked.
    pub(crate) fn flush_parked(
        &mut self,
        tile: usize,
        from: u64,
        mut discard: impl FnMut(u64, &mut SmallRng),
    ) {
        self.draw_parked(tile, from, |created, rng| {
            discard(created, rng);
            false
        });
    }

    /// Walks parked tile `tile`'s pending packets created before cycle
    /// `until` on a copy of its stream, handing each to
    /// `visit(created, stream)` at the stream position
    /// [`Injector::draw_parked`] will draw it from — the tile's own
    /// stream and schedule are left untouched.
    pub(crate) fn walk_parked(
        &self,
        tile: usize,
        until: u64,
        mut visit: impl FnMut(u64, &mut SmallRng),
    ) {
        let mut rng = self.streams[tile].clone();
        let mut created = self.next[tile];
        while created < until {
            visit(created, &mut rng);
            created = self.sampler.arrival_from(&mut rng, created + 1);
        }
    }

    /// `true` if `tile` is parked with a packet created before `from`,
    /// the first cycle whose Phase A has not run.
    #[must_use]
    pub(crate) fn is_parked(&self, tile: usize, from: u64) -> bool {
        self.next[tile] < from
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn tile_seeds_are_distinct_and_stable() {
        let root = 0x5eed_1234;
        let seeds: Vec<u64> = (0..1024).map(|t| tile_stream_seed(root, t)).collect();
        let unique: std::collections::HashSet<&u64> = seeds.iter().collect();
        assert_eq!(unique.len(), seeds.len(), "per-tile seeds collide");
        assert_eq!(
            seeds,
            (0..1024)
                .map(|t| tile_stream_seed(root, t))
                .collect::<Vec<u64>>()
        );
        assert_ne!(
            tile_stream_seed(root, 0),
            tile_stream_seed(root ^ 1, 0),
            "root seed must matter"
        );
    }

    #[test]
    fn gap_sampler_edge_cases() {
        let mut rng = SmallRng::seed_from_u64(3);
        let before = rng.clone();
        assert_eq!(geometric_gap(&mut rng, 0.0), None, "p = 0 never fires");
        assert_eq!(geometric_gap(&mut rng, -0.5), None);
        for p in [1.0, 2.0] {
            assert_eq!(
                geometric_gap(&mut rng, p),
                Some(0),
                "p >= 1 fires every cycle"
            );
        }
        assert_eq!(
            rng, before,
            "degenerate probabilities must not consume the stream"
        );
    }

    #[test]
    fn gap_zero_is_exactly_one_bernoulli_success() {
        // Inversion maps u < p to gap 0 — the same event as a single
        // per-cycle Bernoulli success on the same draw.
        for p in [0.001, 0.05, 0.5, 0.97] {
            let mut hits = 0u32;
            let mut zeros = 0u32;
            let mut a = SmallRng::seed_from_u64(11);
            let mut b = a.clone();
            for _ in 0..10_000 {
                if a.gen::<f64>() < p {
                    hits += 1;
                }
                if geometric_gap(&mut b, p) == Some(0) {
                    zeros += 1;
                }
            }
            assert_eq!(hits, zeros, "p {p}: same stream, same zero-gap count");
        }
    }

    #[test]
    fn tiny_probabilities_yield_huge_gaps_not_zero() {
        // Regression for the `(1.0 - p).ln()` precision trap: with p
        // below one ulp of 1.0, a naive formula degenerates to gap 0
        // for every draw (the tile would fire every cycle).
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..64 {
            let gap = geometric_gap(&mut rng, 1e-18).expect("p > 0");
            assert!(
                gap > 1_000_000,
                "gap {gap} is implausibly small for p = 1e-18"
            );
        }
    }

    #[test]
    fn event_driven_fires_every_cycle_at_unit_probability() {
        let tiles = 4usize;
        let mut event = Injector::new(1, tiles, 1.0, 10);
        for now in 0..10 {
            let mut fired = Vec::new();
            event.fire_at(now, |t, _| {
                fired.push(t);
                true
            });
            assert_eq!(fired, vec![0, 1, 2, 3], "cycle {now}");
        }
    }

    #[test]
    fn zero_rate_never_fires_under_any_policy() {
        let mut injector = Injector::new(5, 8, 0.0, 100);
        for now in 0..100 {
            injector.fire_at(now, |t, _| panic!("tile {t} fired at rate 0"));
        }
    }

    #[test]
    fn mean_gap_tracks_the_geometric_mean() {
        // E[gap] = (1−p)/p; sanity that inversion lands on the right
        // distribution (the proptest suite compares against Bernoulli
        // failure runs in depth).
        let p = 0.02f64;
        let mut rng = SmallRng::seed_from_u64(21);
        let n = 20_000;
        let total: u64 = (0..n)
            .map(|_| geometric_gap(&mut rng, p).expect("p > 0"))
            .sum();
        let mean = total as f64 / f64::from(n);
        let expected = (1.0 - p) / p;
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "mean {mean} vs expected {expected}"
        );
    }

    /// Every arrival `(tile, created cycle, destination draw)` of an
    /// injector that never parks, in stream order per tile.
    fn eager_arrivals(p: f64, tiles: usize, cycles: u64) -> Vec<(usize, u64, u64)> {
        let mut injector = Injector::new(7, tiles, p, cycles);
        let mut arrivals = Vec::new();
        for now in 0..cycles {
            injector.fire_at(now, |t, rng| {
                arrivals.push((t, now, rng.next_u64()));
                true
            });
        }
        arrivals.sort_by_key(|&(t, created, _)| (t, created));
        arrivals
    }

    /// Cycles a packet holds the injection buffer: mostly a few, now and
    /// then a long stall that backs a tile up even at low rates.
    fn hold(lcg: &mut u64) -> u64 {
        *lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let r = *lcg >> 33;
        if r.is_multiple_of(8) {
            100 + r % 200
        } else {
            1 + r % 6
        }
    }

    /// A toy source on top of the injector, as the network drives it:
    /// each tile's injection buffer holds one packet for [`hold`]
    /// cycles, a quarter of the draws have no destination, a fault
    /// discards every backlog at the top of `cycles / 3`, and the
    /// measurement window closes after cycle `cycles / 2`. Returns every
    /// arrival drawn by any path, and the `(tile, cycle)` fires taken
    /// and parked.
    #[allow(clippy::type_complexity)]
    fn parking_run(
        p: f64,
        tiles: usize,
        cycles: u64,
        reference: &[(usize, u64, u64)],
    ) -> (Vec<(usize, u64, u64)>, Vec<(usize, u64)>, Vec<(usize, u64)>) {
        let (flush_at, window_end) = (cycles / 3, cycles / 2);
        let mut injector = Injector::new(7, tiles, p, cycles);
        // `Some(cycle)`: the buffer is busy and frees in Phase C of `cycle`.
        let mut frees_at: Vec<Option<u64>> = vec![None; tiles];
        let mut lcg = 0x2545_f491_4f6c_dd1d_u64;
        let (mut drawn, mut taken, mut parked) = (Vec::new(), Vec::new(), Vec::new());
        for now in 0..cycles {
            if now == flush_at {
                for (t, frees) in frees_at.iter_mut().enumerate() {
                    *frees = None;
                    injector.flush_parked(t, now, |created, rng| {
                        drawn.push((t, created, rng.next_u64()));
                    });
                    assert!(!injector.is_parked(t, now));
                }
            }
            // Phase A.
            injector.fire_at(now, |t, rng| {
                if frees_at[t].is_some() {
                    parked.push((t, now));
                    return false;
                }
                taken.push((t, now));
                let draw = rng.next_u64();
                drawn.push((t, now, draw));
                if !draw.is_multiple_of(4) {
                    frees_at[t] = Some(now + hold(&mut lcg) - 1);
                }
                true
            });
            // Phase C: buffers free, parked packets move up.
            for (t, frees) in frees_at.iter_mut().enumerate() {
                if *frees != Some(now) {
                    continue;
                }
                *frees = None;
                injector.draw_parked(t, now + 1, |created, rng| {
                    let draw = rng.next_u64();
                    drawn.push((t, created, draw));
                    if draw.is_multiple_of(4) {
                        return false;
                    }
                    *frees = Some(now + hold(&mut lcg));
                    true
                });
            }
            for (t, frees) in frees_at.iter().enumerate() {
                assert!(
                    !injector.is_parked(t, now + 1) || frees.is_some(),
                    "tile {t} parked behind a free buffer at cycle {now}"
                );
            }
            if now + 1 == window_end {
                // The catch-up walk sees exactly the packets the real
                // draws will produce, and moves nothing.
                let before = format!("{injector:?}");
                for t in 0..tiles {
                    let start = injector.next[t];
                    let mut walked = Vec::new();
                    injector.walk_parked(t, window_end, |created, rng| {
                        walked.push((t, created, rng.next_u64()));
                    });
                    let expected: Vec<_> = reference
                        .iter()
                        .copied()
                        .filter(|&(u, c, _)| u == t && c >= start && c < window_end)
                        .collect();
                    assert_eq!(walked, expected, "p {p} tile {t}");
                }
                assert_eq!(
                    format!("{injector:?}"),
                    before,
                    "the walk moved the injector"
                );
            }
        }
        // Packets still parked at the end would be drawn past the run.
        for t in 0..tiles {
            injector.flush_parked(t, cycles, |created, rng| {
                drawn.push((t, created, rng.next_u64()));
            });
        }
        (drawn, taken, parked)
    }

    #[test]
    fn parked_tiles_draw_late_but_in_stream_order() {
        let (tiles, cycles) = (16usize, 2_400u64);
        for p in [0.004, 0.3, 1.0] {
            let reference = eager_arrivals(p, tiles, cycles);
            let (mut drawn, taken, parked) = parking_run(p, tiles, cycles, &reference);
            assert!(!parked.is_empty(), "p {p}: no tile ever parked");
            drawn.sort_by_key(|&(t, created, _)| (t, created));
            assert_eq!(drawn, reference, "p {p}: arrivals differ");
            // A tile fires (takes or parks) only at its own arrival
            // cycles, and fires again once its backlog is drawn.
            let arrivals: Vec<(usize, u64)> = reference.iter().map(|&(t, c, _)| (t, c)).collect();
            for fire in taken.iter().chain(&parked) {
                assert!(
                    arrivals.binary_search(fire).is_ok(),
                    "p {p}: fire {fire:?} is off the arrival schedule"
                );
            }
            assert!(taken.len() + parked.len() < arrivals.len(), "p {p}");
            assert!(
                parked
                    .iter()
                    .any(|&(t, cycle)| taken.iter().any(|&(u, c)| u == t && c > cycle)),
                "p {p}: no parked tile was ever scheduled again"
            );
        }
    }
}
