//! Performance measurement: zero-load latency and saturation throughput.
//!
//! These are the two performance outputs of the paper's prediction
//! toolchain (Fig. 3): BookSim-style measurements driven by the
//! floorplan model's per-link latency estimates.

use serde::{Deserialize, Serialize};

use shg_topology::{routing::Routes, ChannelId, Topology};
use shg_units::Cycles;

use crate::config::SimConfig;
use crate::network::Network;
use crate::stats::SimOutcome;
use crate::traffic::TrafficPattern;

/// The performance estimate of a NoC: the two metrics of Fig. 6's
/// performance panel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Performance {
    /// Zero-load latency in cycles (average over all tile pairs).
    pub zero_load_latency: f64,
    /// Saturation throughput as a fraction of injection capacity
    /// (flits per node per cycle; 1.0 = 100%).
    pub saturation_throughput: f64,
}

/// Analytic zero-load latency: the average, over all ordered tile pairs,
/// of the path's accumulated router and link delay plus the packet
/// serialization delay.
///
/// Matches the simulator's timing model: each hop costs the link's
/// floorplan latency plus the router pipeline overhead, and the tail flit
/// trails the head by `packet_len − 1` cycles.
///
/// # Examples
///
/// ```
/// use shg_sim::{zero_load_latency, SimConfig};
/// use shg_topology::{generators, routing, Grid};
/// use shg_units::Cycles;
///
/// let mesh = generators::mesh(Grid::new(4, 4));
/// let routes = routing::default_routes(&mesh).expect("routes");
/// let lats = vec![Cycles::one(); mesh.num_links()];
/// let zll = zero_load_latency(&mesh, &routes, &lats, &SimConfig::default());
/// assert!(zll > 0.0);
/// ```
///
/// The delay sum is linear in [`Routes::channel_loads`], so this is
/// [`zero_load_latency_from_loads`] over one accumulation pass of the
/// table — O(n · (rows + cols)) list walks on row-column next-hop tables,
/// one pair-by-pair pass on every other kernel and form.
#[must_use]
pub fn zero_load_latency(
    topology: &Topology,
    routes: &Routes,
    link_latencies: &[Cycles],
    config: &SimConfig,
) -> f64 {
    zero_load_latency_from_loads(
        topology,
        &routes.channel_loads(topology),
        link_latencies,
        config,
    )
}

/// [`zero_load_latency`] of any routing whose per-channel path counts
/// are `channel_loads` ([`Routes::channel_loads`]): each path crossing a
/// channel pays that hop's delay once, so a caller that needs the loads
/// anyway (the analytic saturation bound) walks its table only once.
#[must_use]
pub fn zero_load_latency_from_loads(
    topology: &Topology,
    channel_loads: &[u32],
    link_latencies: &[Cycles],
    config: &SimConfig,
) -> f64 {
    let n = topology.num_tiles() as u64;
    let pairs = n * n.saturating_sub(1);
    if pairs == 0 {
        return 0.0;
    }
    let hop_delay: u64 = channel_loads
        .iter()
        .enumerate()
        .map(|(channel, &load)| {
            let link = ChannelId::new(channel as u32).link();
            u64::from(load)
                * (link_latencies[link.index()].value() + u64::from(config.router_overhead))
        })
        .sum();
    // Every pair's packet also pays its serialization delay.
    let total = hop_delay + pairs * u64::from(config.packet_len - 1);
    total as f64 / pairs as f64
}

/// Measures zero-load latency by simulating at a very low injection rate.
/// Useful to cross-validate [`zero_load_latency`].
#[must_use]
pub fn measured_zero_load_latency(
    topology: &Topology,
    routes: &Routes,
    link_latencies: &[Cycles],
    config: &SimConfig,
    pattern: TrafficPattern,
) -> f64 {
    let mut network = Network::new(topology, routes, link_latencies, config.clone());
    network.run(0.005, pattern).avg_packet_latency
}

/// Options for the saturation-throughput search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaturationSearch {
    /// Accepted/offered slack for stability (e.g. 0.05 = 95%), in
    /// `[0, 1)`.
    pub slack: f64,
    /// A run also counts as saturated when its mean latency exceeds this
    /// multiple of the zero-load latency; positive, `+∞` for no latency
    /// criterion.
    pub latency_factor: f64,
    /// Binary-search resolution in flits/node/cycle, in `(0, 1]`.
    pub resolution: f64,
}

impl Default for SaturationSearch {
    fn default() -> Self {
        Self {
            slack: 0.05,
            latency_factor: 4.0,
            resolution: 0.01,
        }
    }
}

/// Finds the saturation throughput by binary search over the injection
/// rate: the highest rate (as a fraction of injection capacity) at which
/// the network still keeps up with the offered load.
///
/// # Panics
///
/// Panics unless `0 < search.resolution <= 1`, `0 <= search.slack < 1`
/// and `search.latency_factor > 0` (`+∞` allowed, NaN refused).
#[must_use]
pub fn saturation_throughput(
    topology: &Topology,
    routes: &Routes,
    link_latencies: &[Cycles],
    config: &SimConfig,
    pattern: TrafficPattern,
    search: SaturationSearch,
) -> f64 {
    let zll = zero_load_latency(topology, routes, link_latencies, config);
    saturation_search(
        topology,
        routes,
        link_latencies,
        config,
        pattern,
        search,
        zll,
    )
}

/// The binary search behind [`saturation_throughput`], given the
/// zero-load latency `zll` its latency criterion scales. Each probe is a
/// fresh network asked only whether it [sustains](Network::sustains) the
/// rate, so from its first measured cycle on a probe stops once its
/// accepted throughput can no longer catch up or its mean latency can
/// no longer come in under `zll × search.latency_factor`; an overloaded
/// probe is never drained. The answer is bit-identical to judging
/// completed runs.
///
/// # Panics
///
/// Panics unless `0 < search.resolution <= 1`, `0 <= search.slack < 1`
/// and `search.latency_factor > 0` (`+∞` allowed, NaN refused).
#[must_use]
pub fn saturation_search(
    topology: &Topology,
    routes: &Routes,
    link_latencies: &[Cycles],
    config: &SimConfig,
    pattern: TrafficPattern,
    search: SaturationSearch,
    zll: f64,
) -> f64 {
    assert!(
        search.slack >= 0.0 && search.slack < 1.0,
        "saturation search slack {} is not in [0, 1)",
        search.slack
    );
    assert!(
        search.latency_factor > 0.0,
        "saturation search latency factor {} is not positive",
        search.latency_factor
    );
    bisect_rate(search.resolution, |rate| {
        Network::new(topology, routes, link_latencies, config.clone()).sustains(
            rate,
            pattern,
            search.slack,
            zll * search.latency_factor,
        )
    })
}

/// The length of the prefix of `0..n` that `accepts` accepts, found by
/// bisection: each probe asks `accepts` about the lower midpoint of the
/// indices still undecided, so at most ⌈log₂(n + 1)⌉ indices are
/// probed, each at most once.
///
/// The answer is exact when the accepted indices form a prefix (every
/// index below an accepted one is accepted). When they do not, it is
/// still the end of *some* accepted run that the probes saw: an
/// accepted index `i − 1` (or `i = 0`) followed by a rejected index
/// `i` (or `i = n`), though not necessarily the first or the last such.
pub(crate) fn bisect_prefix(n: usize, mut accepts: impl FnMut(usize) -> bool) -> usize {
    // Indices below `lo` are taken as accepted, `hi` and above as not.
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if accepts(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The highest rate in `[0, 1]` that `stable_at` accepts, to within
/// `resolution`, assuming it accepts a prefix of the interval.
///
/// The rate 1.0 is probed first. Otherwise the answer is bisected
/// ([`bisect_prefix`]) on the dyadic grid `k / 2^m`, whose step `2^-m`
/// is the coarsest power of two not above `resolution` (and not below
/// `2^-52`): every grid rate is exact in an `f64`, and the probes are
/// the midpoints a real-valued bisection of `[0, 1]` takes, in the
/// same order.
///
/// # Panics
///
/// Panics unless `0 < resolution <= 1`.
fn bisect_rate(resolution: f64, mut stable_at: impl FnMut(f64) -> bool) -> f64 {
    assert!(
        resolution > 0.0 && resolution <= 1.0,
        "saturation search resolution {resolution} is not in (0, 1]"
    );
    let (mut steps, mut step) = (1usize, 1.0f64);
    while step > resolution && steps < 1 << 52 {
        steps *= 2;
        step /= 2.0;
    }
    // The capacity itself might be sustainable (e.g. neighbor traffic).
    if stable_at(1.0) {
        return 1.0;
    }
    // Index `i` is the rate `(i + 1) / 2^m`, strictly between 0 and 1.
    let sustained = bisect_prefix(steps - 1, |i| stable_at((i + 1) as f64 * step));
    sustained as f64 * step
}

/// Convenience: full performance measurement (analytic zero-load latency
/// plus saturation search, which reuses that latency instead of
/// recomputing it).
///
/// # Panics
///
/// Panics unless `0 < search.resolution <= 1`, `0 <= search.slack < 1`
/// and `search.latency_factor > 0` (`+∞` allowed, NaN refused).
#[must_use]
pub fn measure_performance(
    topology: &Topology,
    routes: &Routes,
    link_latencies: &[Cycles],
    config: &SimConfig,
    pattern: TrafficPattern,
    search: SaturationSearch,
) -> Performance {
    let zll = zero_load_latency(topology, routes, link_latencies, config);
    Performance {
        zero_load_latency: zll,
        saturation_throughput: saturation_search(
            topology,
            routes,
            link_latencies,
            config,
            pattern,
            search,
            zll,
        ),
    }
}

/// Sweeps the injection rate and reports one [`SimOutcome`] per point —
/// the classic latency-vs-offered-load curve. A thin wrapper over the
/// sweep engine ([`crate::sweep::load_curve`]), so the points run in
/// parallel and carry the engine's per-point derived seeds.
#[must_use]
pub fn load_sweep(
    topology: &Topology,
    routes: &Routes,
    link_latencies: &[Cycles],
    config: &SimConfig,
    pattern: TrafficPattern,
    rates: &[f64],
) -> Vec<SimOutcome> {
    crate::sweep::load_curve(
        "load-sweep",
        topology,
        routes.clone(),
        link_latencies.to_vec(),
        config,
        pattern,
        rates,
    )
    .points
    .into_iter()
    .map(|p| p.outcome)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shg_topology::{generators, routing, Grid};

    fn unit_latencies(t: &Topology) -> Vec<Cycles> {
        vec![Cycles::one(); t.num_links()]
    }

    #[test]
    fn analytic_zll_matches_hand_computation_for_mesh() {
        // 2×2 mesh, unit links, overhead 1, packets of 2 flits:
        // per-hop cost 2; avg hops = (8×1 + 4×2)/12 = 4/3;
        // ZLL = 4/3·2 + 1 = 11/3.
        let mesh = generators::mesh(Grid::new(2, 2));
        let routes = routing::default_routes(&mesh).expect("routes");
        let config = SimConfig {
            router_overhead: 1,
            packet_len: 2,
            ..SimConfig::default()
        };
        let zll = zero_load_latency(&mesh, &routes, &unit_latencies(&mesh), &config);
        assert!((zll - 11.0 / 3.0).abs() < 1e-9, "zll {zll}");
    }

    #[test]
    fn measured_zll_close_to_analytic() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let routes = routing::default_routes(&mesh).expect("routes");
        let lats = unit_latencies(&mesh);
        let config = SimConfig::fast_test();
        let analytic = zero_load_latency(&mesh, &routes, &lats, &config);
        let measured = measured_zero_load_latency(
            &mesh,
            &routes,
            &lats,
            &config,
            TrafficPattern::UniformRandom,
        );
        // Low-rate simulation includes minor queueing; allow 25% slack.
        assert!(
            (measured - analytic).abs() / analytic < 0.25,
            "analytic {analytic} vs measured {measured}"
        );
    }

    #[test]
    fn saturation_ordering_fb_above_mesh_above_ring() {
        let grid = Grid::new(4, 4);
        let config = SimConfig::fast_test();
        let search = SaturationSearch {
            resolution: 0.02,
            ..SaturationSearch::default()
        };
        let sat = |t: &Topology| {
            let routes = routing::default_routes(t).expect("routes");
            saturation_throughput(
                t,
                &routes,
                &unit_latencies(t),
                &config,
                TrafficPattern::UniformRandom,
                search,
            )
        };
        let ring = sat(&generators::ring(grid));
        let mesh = sat(&generators::mesh(grid));
        let fb = sat(&generators::flattened_butterfly(grid));
        assert!(fb > mesh && mesh > ring, "fb {fb} mesh {mesh} ring {ring}");
        assert!(ring > 0.0, "even a ring moves some traffic");
    }

    /// The search as it ran before probes could stop early: every probe
    /// a complete run, judged on its outcome.
    fn saturation_over_full_runs(
        topology: &Topology,
        routes: &Routes,
        link_latencies: &[Cycles],
        config: &SimConfig,
        pattern: TrafficPattern,
        search: SaturationSearch,
    ) -> f64 {
        let zll = zero_load_latency(topology, routes, link_latencies, config);
        bisect_rate(search.resolution, |rate| {
            let outcome =
                Network::new(topology, routes, link_latencies, config.clone()).run(rate, pattern);
            outcome.keeps_up(search.slack)
                && outcome.avg_packet_latency <= zll * search.latency_factor
        })
    }

    #[test]
    fn early_stopping_probes_leave_the_search_result_bit_identical() {
        let grid = Grid::new(4, 4);
        let searches = [
            SaturationSearch::default(),
            // A limit that queueing latency, not throughput, decides.
            SaturationSearch {
                latency_factor: 1.5,
                resolution: 0.02,
                ..SaturationSearch::default()
            },
            // No latency limit: throughput alone decides.
            SaturationSearch {
                latency_factor: f64::INFINITY,
                resolution: 0.125,
                ..SaturationSearch::default()
            },
        ];
        for topology in [
            generators::mesh(grid),
            generators::ring(grid),
            generators::flattened_butterfly(grid),
        ] {
            let routes = routing::default_routes(&topology).expect("routes");
            let lats = unit_latencies(&topology);
            for (pattern, packet_len) in [
                (TrafficPattern::UniformRandom, 4),
                (TrafficPattern::Hotspot(30), 1),
            ] {
                let config = SimConfig {
                    packet_len,
                    ..SimConfig::fast_test()
                };
                for search in searches {
                    let fast =
                        saturation_throughput(&topology, &routes, &lats, &config, pattern, search);
                    let full = saturation_over_full_runs(
                        &topology, &routes, &lats, &config, pattern, search,
                    );
                    assert_eq!(
                        fast.to_bits(),
                        full.to_bits(),
                        "{topology} {pattern} len {packet_len} {search:?}"
                    );
                }
            }
        }
    }

    /// `saturation_search` on a 2×2 mesh with `search`; it panics before
    /// any probe runs.
    fn search_with(search: SaturationSearch) -> f64 {
        let mesh = generators::mesh(Grid::new(2, 2));
        let routes = routing::default_routes(&mesh).expect("routes");
        let lats = unit_latencies(&mesh);
        let config = SimConfig::fast_test();
        let pattern = TrafficPattern::UniformRandom;
        saturation_search(&mesh, &routes, &lats, &config, pattern, search, 10.0)
    }

    #[test]
    #[should_panic(expected = "slack 1 is not in [0, 1)")]
    fn a_slack_of_one_panics_instead_of_accepting_every_rate() {
        let _ = search_with(SaturationSearch {
            slack: 1.0,
            ..SaturationSearch::default()
        });
    }

    #[test]
    #[should_panic(expected = "slack -0.05 is not in [0, 1)")]
    fn a_negative_slack_panics() {
        let _ = search_with(SaturationSearch {
            slack: -0.05,
            ..SaturationSearch::default()
        });
    }

    #[test]
    #[should_panic(expected = "slack NaN is not in [0, 1)")]
    fn a_nan_slack_panics() {
        let _ = search_with(SaturationSearch {
            slack: f64::NAN,
            ..SaturationSearch::default()
        });
    }

    #[test]
    #[should_panic(expected = "latency factor NaN is not positive")]
    fn a_nan_latency_factor_panics_instead_of_answering_zero() {
        let _ = search_with(SaturationSearch {
            latency_factor: f64::NAN,
            ..SaturationSearch::default()
        });
    }

    #[test]
    #[should_panic(expected = "latency factor 0 is not positive")]
    fn a_zero_latency_factor_panics() {
        let _ = search_with(SaturationSearch {
            latency_factor: 0.0,
            ..SaturationSearch::default()
        });
    }

    /// The rates `bisect_rate` probes, in order, and its answer.
    fn probed_rates(resolution: f64, accepts: impl Fn(f64) -> bool) -> (Vec<f64>, f64) {
        let mut probed = Vec::new();
        let rate = bisect_rate(resolution, |rate| {
            probed.push(rate);
            accepts(rate)
        });
        (probed, rate)
    }

    #[test]
    fn bisect_rate_probes_a_pinned_sequence() {
        let below_037: fn(f64) -> bool = |rate| rate <= 0.37;
        let to_037 = [1.0, 0.5, 0.25, 0.375, 0.3125, 0.34375, 0.359375, 0.3671875];
        let down = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125];
        for (resolution, halvings) in [(0.01, 7), (0.02, 6), (0.1, 4), (1.0 / 128.0, 7)] {
            let probes = halvings + 1;
            for (accepts, expected, answer) in [
                (below_037, &to_037[..probes], to_037[probes - 1]),
                (|_| true, &[1.0][..], 1.0),
                (|_| false, &down[..probes], 0.0),
            ] {
                let (probed, rate) = probed_rates(resolution, accepts);
                assert_eq!(probed, expected, "resolution {resolution}");
                assert_eq!(rate.to_bits(), answer.to_bits(), "resolution {resolution}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "resolution 0 is not in (0, 1]")]
    fn a_zero_resolution_panics_instead_of_hanging() {
        let _ = bisect_rate(0.0, |rate| rate <= 0.37);
    }

    #[test]
    #[should_panic(expected = "resolution NaN is not in (0, 1]")]
    fn a_nan_resolution_panics() {
        let _ = bisect_rate(f64::NAN, |rate| rate <= 0.37);
    }

    #[test]
    fn a_tiny_resolution_stops_at_the_finest_exact_grid() {
        let mut probes = 0;
        let rate = bisect_rate(f64::MIN_POSITIVE, |rate| {
            probes += 1;
            rate <= 0.37
        });
        assert_eq!(probes, 53);
        assert!(rate <= 0.37 && 0.37 - rate < 0.5f64.powi(52), "{rate}");
    }

    #[test]
    fn bisect_prefix_finds_every_prefix_within_the_probe_bound() {
        for n in 0..40usize {
            let bound = (usize::BITS - n.leading_zeros()) as usize; // ⌈log₂(n + 1)⌉
            for len in 0..=n {
                let mut probed = Vec::new();
                let got = bisect_prefix(n, |i| {
                    probed.push(i);
                    i < len
                });
                assert_eq!(got, len, "n {n}");
                assert!(probed.len() <= bound, "n {n} len {len}: {probed:?}");
                assert!(probed.iter().all(|&i| i < n), "n {n}: {probed:?}");
            }
        }
    }

    #[test]
    fn load_sweep_latency_is_monotonic_until_saturation() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let routes = routing::default_routes(&mesh).expect("routes");
        let lats = unit_latencies(&mesh);
        let outcomes = load_sweep(
            &mesh,
            &routes,
            &lats,
            &SimConfig::fast_test(),
            TrafficPattern::UniformRandom,
            &[0.02, 0.1, 0.2],
        );
        assert!(outcomes[0].avg_packet_latency <= outcomes[1].avg_packet_latency + 1.0);
        assert!(outcomes[1].avg_packet_latency <= outcomes[2].avg_packet_latency + 1.0);
    }
}
