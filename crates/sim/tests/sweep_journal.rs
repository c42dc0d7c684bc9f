//! Kill-and-resume regression for the sweep journal: a shard journal
//! interrupted at any prefix and resumed must reproduce the
//! uninterrupted journal byte-for-byte, and the merged result must
//! match the single-shot sweep; a journal written under a different
//! plan (changed spec) must be rejected with a clear error.

use std::path::{Path, PathBuf};

use shg_sim::sweep::{
    read_journal, run_sweep, CoordError, CoordProgress, Executors, JournalError, JournalSink,
    ProgressFn,
};
use shg_sim::{Experiment, ShardSpec, SimConfig, SweepResult, SweepSpec, TrafficPattern};
use shg_topology::{generators, Grid, Topology};

/// One shard of `experiment` run locally into the journal at `path`,
/// reporting `(cells done, shard cells)`.
fn journaled(
    experiment: &Experiment<'_>,
    shard: ShardSpec,
    path: &Path,
    resume: bool,
    mut progress: impl FnMut(usize, usize) + Send,
) -> Result<SweepResult, CoordError> {
    let mut report = |p: CoordProgress| progress(p.cells_done, p.cells_total);
    let journal = JournalSink {
        path,
        resume,
        durable: false,
    };
    let progress = Some(&mut report as ProgressFn<'_>);
    run_sweep(experiment, shard, Executors::Local, Some(journal), progress).map(|(r, _)| r)
}

/// A scratch file path unique to this test process and name; removed by
/// [`Scratch::drop`].
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "shg_sweep_journal_{}_{name}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        Self(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn mesh() -> Topology {
    generators::mesh(Grid::new(4, 4))
}

fn experiment(topology: &Topology) -> Experiment<'_> {
    let spec = SweepSpec::new(SimConfig::fast_test())
        .rates([0.02, 0.1, 0.3])
        .patterns([TrafficPattern::UniformRandom, TrafficPattern::Hotspot(20)]);
    Experiment::new(spec)
        .with_unit_latency_case("mesh", topology)
        .expect("mesh routes")
}

#[test]
fn journaled_shard_matches_run_shard_and_merges_to_single_shot() {
    let mesh = mesh();
    let experiment = experiment(&mesh);
    let single = experiment.run_parallel().to_json();
    let mut journals = Vec::new();
    let scratches: Vec<Scratch> = (0..3)
        .map(|i| Scratch::new(&format!("merge_shard{i}")))
        .collect();
    for (i, scratch) in scratches.iter().enumerate() {
        let shard = ShardSpec::new(i as u32, 3);
        let result = journaled(&experiment, shard, &scratch.0, false, |_, _| {}).expect("runs");
        let in_memory = experiment.run_shard(shard);
        assert_eq!(
            result.points,
            in_memory
                .entries
                .iter()
                .map(|(_, p)| p.clone())
                .collect::<Vec<_>>(),
            "journaled execution computes the same points"
        );
        let journal = read_journal(&scratch.0).expect("journal reads back");
        assert_eq!(journal, in_memory, "journal round trip is lossless");
        journals.push(journal);
    }
    let merged = SweepResult::merge(journals).expect("journals merge");
    assert_eq!(merged.to_json(), single, "3-shard journals == single shot");
}

#[test]
fn resume_from_any_prefix_reproduces_the_journal_bytes() {
    let mesh = mesh();
    let experiment = experiment(&mesh);
    let shard = ShardSpec::new(0, 2);
    let full = Scratch::new("resume_full");
    let uninterrupted = journaled(&experiment, shard, &full.0, false, |_, _| {}).expect("runs");
    let full_bytes = std::fs::read(&full.0).expect("journal exists");
    let text = String::from_utf8(full_bytes.clone()).expect("utf8");
    let lines: Vec<&str> = text.lines().collect();
    let cells = lines.len() - 1; // header + one line per cell

    let mut progress_calls = Vec::new();
    for keep in 0..=cells {
        // A journal killed after `keep` completed cells: header +
        // prefix of entry lines.
        let partial = Scratch::new(&format!("resume_keep{keep}"));
        let prefix: String = lines[..=keep].iter().flat_map(|l| [l, "\n"]).collect();
        std::fs::write(&partial.0, &prefix).expect("write partial");
        let resumed = journaled(&experiment, shard, &partial.0, true, |done, total| {
            progress_calls.push((done, total));
        })
        .expect("resume runs");
        assert_eq!(
            std::fs::read(&partial.0).expect("resumed journal"),
            full_bytes,
            "resume from {keep}/{cells} cells reproduces the journal bytes"
        );
        assert_eq!(resumed, uninterrupted, "resumed result matches");
    }
    // Progress reporting counts cells done out of the shard total.
    assert!(progress_calls
        .iter()
        .all(|&(done, total)| done <= total && total == cells));
    assert!(progress_calls.contains(&(cells, cells)));

    // A torn final line (killed mid-write) is discarded and recomputed.
    let torn = Scratch::new("resume_torn");
    let mut prefix: String = lines[..=1].iter().flat_map(|l| [l, "\n"]).collect();
    prefix.push_str(&lines[2][..lines[2].len() / 2]);
    std::fs::write(&torn.0, &prefix).expect("write torn");
    let resumed = journaled(&experiment, shard, &torn.0, true, |_, _| {}).expect("resumes");
    assert_eq!(std::fs::read(&torn.0).expect("journal"), full_bytes);
    assert_eq!(resumed, uninterrupted);

    // Killed during the header write itself: nothing is recoverable,
    // so resume recreates the journal instead of dead-ending.
    let torn_header = Scratch::new("resume_torn_header");
    std::fs::write(&torn_header.0, &lines[0][..lines[0].len() / 2]).expect("write torn header");
    let resumed =
        journaled(&experiment, shard, &torn_header.0, true, |_, _| {}).expect("recreates");
    assert_eq!(std::fs::read(&torn_header.0).expect("journal"), full_bytes);
    assert_eq!(resumed, uninterrupted);
}

#[test]
fn resume_rejects_a_changed_plan_with_a_clear_error() {
    let mesh = mesh();
    let scratch = Scratch::new("fingerprint");
    let original = experiment(&mesh);
    journaled(&original, ShardSpec::SOLO, &scratch.0, false, |_, _| {}).expect("runs");

    // Same case, different spec (one extra rate) — a different plan.
    let changed_spec = Experiment::new(
        SweepSpec::new(SimConfig::fast_test())
            .rates([0.02, 0.1, 0.3, 0.4])
            .patterns([TrafficPattern::UniformRandom, TrafficPattern::Hotspot(20)]),
    )
    .with_unit_latency_case("mesh", &mesh)
    .expect("mesh routes");
    let err = journaled(&changed_spec, ShardSpec::SOLO, &scratch.0, true, |_, _| {})
        .expect_err("changed spec must not resume");
    assert!(
        matches!(
            err,
            CoordError::Journal(JournalError::FingerprintMismatch { .. })
        ),
        "{err}"
    );
    let message = err.to_string();
    assert!(
        message.contains("fingerprint") && message.contains("changed"),
        "error names the cause: {message}"
    );

    // Same plan, different shard assignment — also rejected.
    let err = journaled(&original, ShardSpec::new(0, 2), &scratch.0, true, |_, _| {})
        .expect_err("different shard must not resume");
    assert!(
        matches!(err, CoordError::Journal(JournalError::ShardMismatch { .. })),
        "{err}"
    );
    assert!(err.to_string().contains("shard 1/2"), "{err}");
}

#[test]
fn read_journal_rejects_a_corrupted_cell_id() {
    // A bit-flip that keeps the JSON well-formed must not merge as
    // silently misplaced data: the header's recorded plan shape lets
    // the reader re-enumerate the exact cell sequence and reject it.
    let mesh = mesh();
    let experiment = experiment(&mesh);
    let scratch = Scratch::new("tampered");
    journaled(
        &experiment,
        ShardSpec::new(0, 2),
        &scratch.0,
        false,
        |_, _| {},
    )
    .expect("runs");
    let text = std::fs::read_to_string(&scratch.0).expect("journal");
    assert!(text.contains("\"rate\":2"), "cell (0,0,2) is in shard 1/2");
    let tampered = text.replacen("\"rate\":2", "\"rate\":9", 1);
    std::fs::write(&scratch.0, tampered).expect("tamper");
    let err = read_journal(&scratch.0).expect_err("corrupt cell id");
    assert!(matches!(err, JournalError::NotAPrefix { .. }), "{err}");
    assert!(err.to_string().contains("canonical order"), "{err}");
}

#[test]
fn merge_of_an_unfinished_journal_reports_missing_cells() {
    let mesh = mesh();
    let experiment = experiment(&mesh);
    let scratch = Scratch::new("unfinished");
    journaled(&experiment, ShardSpec::SOLO, &scratch.0, false, |_, _| {}).expect("runs");
    let text = std::fs::read_to_string(&scratch.0).expect("journal");
    let truncated: String = text.lines().take(3).flat_map(|l| [l, "\n"]).collect();
    std::fs::write(&scratch.0, truncated).expect("truncate");
    let journal = read_journal(&scratch.0).expect("prefix journals parse");
    let err = SweepResult::merge(vec![journal]).expect_err("incomplete");
    assert!(
        err.to_string().contains("a shard is missing or unfinished"),
        "{err}"
    );
}
