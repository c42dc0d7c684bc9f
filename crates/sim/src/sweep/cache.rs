//! The cell-result cache: a content-addressed on-disk store of
//! completed sweep cells, keyed by a **per-cell** fingerprint — so a
//! re-run or a *widened* grid (new rates, new patterns, new cases)
//! re-simulates only the cells whose inputs actually changed, while
//! every unchanged cell is answered from disk.
//!
//! # Per-cell vs. per-plan identity
//!
//! The plan fingerprint ([`super::SweepPlan::fingerprint`]) digests the
//! *whole* experiment, so any grid change invalidates a journal — by
//! design: the journal is the crash-consistency layer of one execution.
//! The cache key instead digests only what one cell's outcome can
//! depend on:
//!
//! * the case: its name, grid shape, link list, per-link latencies
//!   and routing table,
//! * the cell's traffic pattern and injection rate,
//! * the per-point [`SimConfig`] — which carries the **derived** seed
//!   (a function of the root seed and the cell's grid coordinates) and
//!   every simulator knob that affects outcomes, including the fault
//!   plan.
//!
//! Appending a rate, a pattern or a case leaves the surviving cells'
//! coordinates — and therefore their derived seeds and fingerprints —
//! unchanged, so they hit; a cell whose coordinates shifted gets a new
//! seed, a new fingerprint, and an honest re-simulation. A warm run's
//! [`super::SweepResult::to_json`] is byte-identical to a cold run's:
//! entries store the point's canonical JSON and are re-read through the
//! same raw-text-number parser the journal uses.
//!
//! # Robustness
//!
//! Entries are single JSON lines written to a temporary file and
//! renamed into place. On load, anything anomalous — a torn write
//! (missing trailing newline), a fingerprint mismatch, a recorded
//! point that disagrees with the requested cell — is treated as a
//! miss: the cell is recomputed and the entry overwritten. A cache can
//! therefore be shared between concurrent runs, deleted at any time,
//! or corrupted arbitrarily without ever poisoning a result. Stores
//! are best-effort: an unwritable cache degrades to simulation with a
//! one-time warning instead of failing a long sweep.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use serde_json::Value;

use super::experiment::SweepCase;
use super::journal::point_from_value;
use super::plan::fnv_bytes;
use super::result::SweepPoint;
use crate::config::SimConfig;
use crate::traffic::TrafficPattern;

/// The entry format tag (each entry line's `format` field).
const FORMAT: &str = "shg-cell-cache";
/// Bump to invalidate every existing entry on a format or keying
/// change (the version is folded into the fingerprint, so old entries
/// simply stop being addressed).
const VERSION: u64 = 3;

/// Digest of everything about a [`SweepCase`] that a cell's outcome
/// can depend on: name, grid shape, links, per-link latencies and the
/// **routing semantics** — [`SweepCase::annotated`] accepts arbitrary
/// routes, so two cases over the same topology routed differently
/// must not share entries. The routing fold is the table's
/// *semantic* digest (algorithm, not storage form): paths are a
/// deterministic function of the links — already folded above — and
/// the algorithm, and the dense and next-hop forms of one algorithm
/// produce bit-identical paths, so switching forms keeps warm cache
/// entries while switching algorithms invalidates them. Computed once
/// per case (the experiment memoizes it) and shared by all its cells.
#[must_use]
pub(crate) fn case_digest(case: &SweepCase<'_>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    fnv_bytes(&mut hash, case.name.bytes());
    fnv_bytes(&mut hash, u64::from(case.topology.rows()).to_le_bytes());
    fnv_bytes(&mut hash, u64::from(case.topology.cols()).to_le_bytes());
    for link in case.topology.links() {
        fnv_bytes(&mut hash, (link.a.index() as u64).to_le_bytes());
        fnv_bytes(&mut hash, (link.b.index() as u64).to_le_bytes());
    }
    for latency in &case.link_latencies {
        fnv_bytes(&mut hash, latency.value().to_le_bytes());
    }
    fnv_bytes(&mut hash, [case.routes.num_vc_classes()]);
    fnv_bytes(&mut hash, case.routes.semantic_digest().to_le_bytes());
    hash
}

/// The content address of one cell: the case digest plus the cell's
/// pattern, rate and per-point configuration (which carries the
/// derived seed). `config` must be the per-point config — root config
/// with the cell's derived seed installed — exactly what the simulator
/// will be handed.
#[must_use]
pub(crate) fn cell_fingerprint(
    case_digest: u64,
    config: &SimConfig,
    pattern: TrafficPattern,
    rate: f64,
) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    fnv_bytes(&mut hash, VERSION.to_le_bytes());
    fnv_bytes(&mut hash, case_digest.to_le_bytes());
    let config_json = serde_json::to_string(config).expect("config serializes");
    fnv_bytes(&mut hash, config_json.bytes());
    let pattern_json = serde_json::to_string(&pattern).expect("pattern serializes");
    fnv_bytes(&mut hash, pattern_json.bytes());
    fnv_bytes(&mut hash, rate.to_bits().to_le_bytes());
    hash
}

/// Cache effectiveness counters of one execution (not persisted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Cells answered from the cache.
    pub cached: u64,
    /// Cells simulated (cache misses, including invalidated entries).
    pub simulated: u64,
}

/// A content-addressed on-disk store of completed sweep cells. Attach
/// to an experiment with [`crate::Experiment::with_cache`]; every
/// execution path (`run_parallel`, `run_cells`, shards, journaled
/// resume) then consults it per cell.
///
/// Lookups and stores are lock-free (entries live in distinct files
/// named by their fingerprint) and safe under concurrent runs sharing
/// one directory.
#[derive(Debug)]
pub struct CellCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    store_warned: AtomicBool,
}

impl CellCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            store_warned: AtomicBool::new(false),
        })
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Hit/miss counters since this handle was opened. `simulated`
    /// counts exactly the cells the owning experiment computed itself —
    /// the counter the widened-grid ("delta only") assertions read.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            cached: self.hits.load(Ordering::Relaxed),
            simulated: self.misses.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.json"))
    }

    /// Looks a cell up and counts the outcome. Any anomaly — missing
    /// or torn file, foreign format, fingerprint mismatch, a recorded
    /// point that does not describe the requested cell — is a miss.
    pub(crate) fn load(
        &self,
        fingerprint: u64,
        case: &str,
        pattern: TrafficPattern,
        rate: f64,
        seed: u64,
    ) -> Option<SweepPoint> {
        let loaded = self.read_entry(fingerprint, case, pattern, rate, seed);
        match loaded {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        loaded
    }

    fn read_entry(
        &self,
        fingerprint: u64,
        case: &str,
        pattern: TrafficPattern,
        rate: f64,
        seed: u64,
    ) -> Option<SweepPoint> {
        let text = std::fs::read_to_string(self.entry_path(fingerprint)).ok()?;
        // A complete entry ends with its newline; anything else is a
        // torn write left by a kill and must be recomputed.
        let line = text.strip_suffix('\n')?;
        if line.contains('\n') {
            return None;
        }
        let value: Value = line.parse().ok()?;
        if value.get("format")?.as_str()? != FORMAT
            || value.get("version")?.as_u64()? != VERSION
            || value.get("fingerprint")?.as_u64()? != fingerprint
        {
            return None;
        }
        let point = point_from_value(value.get("point")?).ok()?;
        // A fingerprint collision or a stale entry under a reused
        // address must never be merged: the recorded cell has to be
        // exactly the requested one, bit for bit.
        let matches = point.case == case
            && point.pattern == pattern
            && point.rate.to_bits() == rate.to_bits()
            && point.seed == seed;
        matches.then_some(point)
    }

    /// Stores a computed cell, best-effort: the entry is written to a
    /// writer-unique temporary file and renamed into place, so
    /// concurrent writers cannot tear each other's entries. Failures
    /// warn once and are otherwise ignored — the cache is an
    /// accelerator, never a correctness dependency.
    pub(crate) fn store(&self, fingerprint: u64, point: &SweepPoint) {
        if let Err(e) = self.try_store(fingerprint, point) {
            if !self.store_warned.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "[cell-cache] warning: cannot write {} ({e}); continuing without storing",
                    self.dir.display()
                );
            }
        }
    }

    fn try_store(&self, fingerprint: u64, point: &SweepPoint) -> std::io::Result<()> {
        // The tmp name must be unique per *store*, not just per
        // process: two threads resolving the same fingerprint (or two
        // coordinated requests overlapping on one cache) would
        // otherwise interleave `fs::write` calls on one path — and the
        // failed-rename cleanup below could unlink the other writer's
        // live tmp file. A process-wide counter disambiguates stores
        // within the process; the pid disambiguates across processes.
        static STORE_SEQ: AtomicU64 = AtomicU64::new(0);
        let point_json = serde_json::to_string(point).expect("point serializes");
        let line = format!(
            "{{\"format\":\"{FORMAT}\",\"version\":{VERSION},\
             \"fingerprint\":{fingerprint},\"point\":{point_json}}}\n"
        );
        let tmp = self.dir.join(format!(
            "{fingerprint:016x}.tmp.{}.{}",
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, line)?;
        let result = std::fs::rename(&tmp, self.entry_path(fingerprint));
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{FaultStats, SimOutcome};

    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("shg_cell_cache_unit_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_point() -> SweepPoint {
        SweepPoint {
            case: "mesh".to_owned(),
            pattern: TrafficPattern::Hotspot(20),
            rate: 0.062_5,
            seed: 0x5eed,
            outcome: SimOutcome {
                offered_rate: 0.1,
                accepted_rate: 1.0 / 3.0,
                avg_packet_latency: 30.25,
                p50_packet_latency: 28.0,
                p99_packet_latency: 70.5,
                max_packet_latency: 80.0,
                measured_packets: 12_345,
                stable: true,
                cycles: 20_000,
                faults: FaultStats::default(),
            },
        }
    }

    #[test]
    fn store_then_load_roundtrips_and_counts() {
        let dir = scratch_dir("roundtrip");
        let cache = CellCache::open(&dir).expect("opens");
        let point = sample_point();
        let fp = 0xfeed_beef_u64;
        assert!(cache
            .load(fp, "mesh", point.pattern, point.rate, point.seed)
            .is_none());
        cache.store(fp, &point);
        let loaded = cache
            .load(fp, "mesh", point.pattern, point.rate, point.seed)
            .expect("hit");
        assert_eq!(loaded, point);
        assert_eq!(
            cache.stats(),
            CacheStats {
                cached: 1,
                simulated: 1
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_identity_and_torn_entries_are_misses() {
        let dir = scratch_dir("mismatch");
        let cache = CellCache::open(&dir).expect("opens");
        let point = sample_point();
        let fp = 7u64;
        cache.store(fp, &point);
        // Wrong seed / rate / pattern / case: stale, never merged.
        assert!(cache
            .load(fp, "mesh", point.pattern, point.rate, 1)
            .is_none());
        assert!(cache
            .load(fp, "mesh", point.pattern, 0.5, point.seed)
            .is_none());
        assert!(cache
            .load(fp, "mesh", TrafficPattern::Tornado, point.rate, point.seed)
            .is_none());
        assert!(cache
            .load(fp, "torus", point.pattern, point.rate, point.seed)
            .is_none());
        // Wrong fingerprint address: content records fp 7.
        std::fs::copy(cache.entry_path(fp), cache.entry_path(8)).expect("copy");
        assert!(cache
            .load(8, "mesh", point.pattern, point.rate, point.seed)
            .is_none());
        // Torn write: strip the trailing newline.
        let path = cache.entry_path(fp);
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, text.trim_end()).expect("write");
        assert!(cache
            .load(fp, "mesh", point.pattern, point.rate, point.seed)
            .is_none());
        // Garbage is a miss, not an error.
        std::fs::write(&path, "not json\n").expect("write");
        assert!(cache
            .load(fp, "mesh", point.pattern, point.rate, point.seed)
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_of_one_fingerprint_never_tear_or_unlink() {
        // Regression for the shared `{fp}.tmp.{pid}` path: two threads
        // storing the same fingerprint simultaneously used to
        // interleave writes through ONE tmp file, and a failed rename's
        // cleanup could unlink the other thread's live tmp. With
        // per-store tmp names, every round must leave a loadable entry
        // and no stray tmp files.
        let dir = scratch_dir("concurrent");
        let cache = CellCache::open(&dir).expect("opens");
        let point = sample_point();
        let fp = 0xc0_ffee_u64;
        let rounds = 200;
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..rounds {
                        barrier.wait();
                        cache.store(fp, &point);
                    }
                });
            }
        });
        let loaded = cache
            .load(fp, "mesh", point.pattern, point.rate, point.seed)
            .expect("entry survives the race");
        assert_eq!(loaded, point);
        let stray: Vec<String> = std::fs::read_dir(&dir)
            .expect("readable")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp."))
            .collect();
        assert!(stray.is_empty(), "leftover tmp files: {stray:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_tracks_every_outcome_input() {
        let config = SimConfig::fast_test();
        let base = cell_fingerprint(1, &config, TrafficPattern::UniformRandom, 0.1);
        assert_eq!(
            base,
            cell_fingerprint(1, &config, TrafficPattern::UniformRandom, 0.1),
            "deterministic"
        );
        assert_ne!(
            base,
            cell_fingerprint(2, &config, TrafficPattern::UniformRandom, 0.1)
        );
        assert_ne!(
            base,
            cell_fingerprint(1, &config, TrafficPattern::Transpose, 0.1)
        );
        assert_ne!(
            base,
            cell_fingerprint(1, &config, TrafficPattern::UniformRandom, 0.2)
        );
        let other_seed = SimConfig {
            seed: 43,
            ..config.clone()
        };
        assert_ne!(
            base,
            cell_fingerprint(1, &other_seed, TrafficPattern::UniformRandom, 0.1)
        );
        let other_depth = SimConfig {
            buffer_depth: 16,
            ..config
        };
        assert_ne!(
            base,
            cell_fingerprint(1, &other_depth, TrafficPattern::UniformRandom, 0.1)
        );
    }
}
