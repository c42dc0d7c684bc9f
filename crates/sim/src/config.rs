//! Simulator configuration.

use serde::{Deserialize, Serialize};

use crate::fault::FaultPlan;

/// Microarchitectural and run-control parameters of the simulator.
///
/// Defaults match the paper's evaluation setup: input-queued routers with
/// 8 virtual channels and 32-flit buffers (Section V-b).
///
/// # Examples
///
/// ```
/// use shg_sim::SimConfig;
///
/// let config = SimConfig::default();
/// assert_eq!(config.num_vcs, 8);
/// assert_eq!(config.buffer_depth, 32);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Virtual channels per input port.
    pub num_vcs: u8,
    /// Buffer depth per virtual channel, in flits.
    pub buffer_depth: u16,
    /// Packet length in flits.
    pub packet_len: u16,
    /// Extra per-hop router pipeline cycles added to every link's latency
    /// (allocation and traversal take one implicit cycle; realistic
    /// input-queued routers add 2–3 more for RC/VA/SA stages).
    pub router_overhead: u32,
    /// Warm-up cycles before measurement starts.
    pub warmup: u64,
    /// Measurement window in cycles.
    pub measure: u64,
    /// Maximum drain cycles after measurement; exceeding this marks the
    /// run unstable.
    pub drain_limit: u64,
    /// RNG seed for traffic generation. Every tile's private stream
    /// derives from it ([`crate::tile_stream_seed`]), so one seed still
    /// pins the whole run.
    pub seed: u64,
    /// Deterministic mid-run fault injection (see [`FaultPlan`]). The
    /// default empty plan simulates bit-identically to a fault-free
    /// build; a non-empty plan kills links/routers at its scheduled
    /// cycles and reroutes over the surviving subgraph.
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            num_vcs: 8,
            buffer_depth: 32,
            packet_len: 4,
            router_overhead: 2,
            warmup: 5_000,
            measure: 10_000,
            drain_limit: 30_000,
            seed: 0x5eed_1234,
            faults: FaultPlan::default(),
        }
    }
}

impl SimConfig {
    /// A faster configuration for unit tests: smaller buffers and windows.
    #[must_use]
    pub fn fast_test() -> Self {
        Self {
            num_vcs: 8,
            buffer_depth: 8,
            packet_len: 2,
            router_overhead: 1,
            warmup: 500,
            measure: 1_500,
            drain_limit: 6_000,
            seed: 42,
            faults: FaultPlan::default(),
        }
    }

    /// The virtual channels available to a VC class: classes partition the
    /// VC space as evenly as possible.
    ///
    /// # Panics
    ///
    /// Panics if there are more classes than virtual channels.
    #[must_use]
    pub fn vc_range(&self, class: u8, num_classes: u8) -> std::ops::Range<u8> {
        assert!(
            num_classes <= self.num_vcs,
            "{num_classes} VC classes need at least that many VCs, have {}",
            self.num_vcs
        );
        let v = self.num_vcs as u32;
        let c = num_classes as u32;
        let lo = (class as u32 * v) / c;
        let hi = ((class as u32 + 1) * v) / c;
        lo as u8..hi as u8
    }

    /// Asserts that the run's last possible cycle fits the `u32`
    /// creation stamp flits carry.
    pub(crate) fn assert_cycles_fit_u32(&self) {
        let last = self
            .warmup
            .checked_add(self.measure)
            .and_then(|end| end.checked_add(self.drain_limit));
        assert!(
            last.is_some_and(|last| last <= u64::from(u32::MAX)),
            "warmup + measure + drain_limit must fit 32 bits, got {} + {} + {}",
            self.warmup,
            self.measure,
            self.drain_limit
        );
    }
}

/// [`SimConfig::vc_range`] of every VC class, tabulated once per
/// network so VC allocation reads a grant's range instead of dividing
/// for it. Indexed by class; shared by both engines.
#[derive(Debug)]
pub(crate) struct VcClassTable {
    /// First VC of the class's range.
    pub(crate) start: Vec<u8>,
    /// Number of VCs in the range (at least one).
    pub(crate) len: Vec<u8>,
    /// Bitmask of the range's VCs.
    pub(crate) mask: Vec<u64>,
}

impl VcClassTable {
    /// Tabulates the `num_classes` (at least one) ranges of `config`.
    ///
    /// # Panics
    ///
    /// Panics if there are more classes than VCs, or more than 64 VCs
    /// (the allocators' per-port VC bitmasks are one `u64`).
    pub(crate) fn new(config: &SimConfig, num_classes: u8) -> Self {
        assert!(
            config.num_vcs <= 64,
            "the allocator's VC bitmasks support at most 64 VCs per port, got {}",
            config.num_vcs
        );
        let classes = num_classes.max(1);
        let ranges = (0..classes).map(|class| config.vc_range(class, classes));
        let (mut start, mut len, mut mask) = (Vec::new(), Vec::new(), Vec::new());
        for range in ranges {
            start.push(range.start);
            len.push(range.len() as u8);
            mask.push((u64::MAX >> (64 - range.len())) << range.start);
        }
        Self { start, len, mask }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vc_ranges_partition_the_vc_space() {
        let config = SimConfig::default();
        for num_classes in 1..=8u8 {
            let mut covered = Vec::new();
            for class in 0..num_classes {
                let range = config.vc_range(class, num_classes);
                assert!(!range.is_empty(), "class {class}/{num_classes} empty");
                covered.extend(range);
            }
            assert_eq!(covered.len(), 8, "classes {num_classes}");
            let unique: std::collections::HashSet<_> = covered.iter().collect();
            assert_eq!(unique.len(), 8, "overlap with {num_classes} classes");
        }
    }

    #[test]
    fn six_classes_on_eight_vcs() {
        // Row-column routing uses 6 classes; the two spare VCs land in
        // some classes.
        let config = SimConfig::default();
        let sizes: Vec<usize> = (0..6).map(|c| config.vc_range(c, 6).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 8);
        assert!(sizes.iter().all(|&s| s >= 1));
    }

    #[test]
    fn class_table_tabulates_vc_range() {
        for num_vcs in [1u8, 3, 8, 64] {
            let config = SimConfig {
                num_vcs,
                ..SimConfig::default()
            };
            for classes in 1..=num_vcs.min(9) {
                let table = VcClassTable::new(&config, classes);
                for class in 0..classes {
                    let range = config.vc_range(class, classes);
                    let c = class as usize;
                    assert_eq!(table.start[c], range.start);
                    assert_eq!(table.len[c] as usize, range.len());
                    let expected = range.fold(0u64, |m, v| m | 1 << v);
                    assert_eq!(
                        table.mask[c], expected,
                        "{num_vcs} VCs, class {class}/{classes}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must fit 32 bits")]
    fn clock_beyond_u32_is_rejected() {
        let config = SimConfig {
            drain_limit: u64::from(u32::MAX),
            ..SimConfig::default()
        };
        config.assert_cycles_fit_u32();
    }

    #[test]
    #[should_panic(expected = "VC classes")]
    fn too_many_classes_panics() {
        let config = SimConfig::default();
        let _ = config.vc_range(0, 9);
    }
}
