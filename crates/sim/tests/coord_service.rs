//! Correctness suite for sweep-as-a-service: a loopback coordinator
//! driving a 3-worker fleet over TCP must reproduce the single-shot
//! bytes exactly — through chunk dispatch, work stealing, a worker
//! dying mid-chunk, a shared on-disk cell cache hammered by all four
//! processes' worth of threads at once, and warm duplicate requests
//! answered without simulating anything.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};

use shg_sim::sweep::{
    connect_with_backoff, run_sweep, serve_worker, CoordError, CoordSummary, Executors, Fleet,
    JournalSink, WorkerLink,
};
use shg_sim::{
    CellCache, Experiment, ShardSpec, SimConfig, SweepResult, SweepSpec, TrafficPattern,
};
use shg_topology::{generators, Grid, Topology};

/// A scratch directory unique to this test process and name; removed
/// on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("shg_coord_service_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("scratch dir");
        Self(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds the experiment both sides of the wire must derive from the
/// same opaque params — the only supported key is `rates`, a
/// comma-separated list forwarded as the user typed it.
fn build_experiment<'a>(
    params: &[(String, String)],
    mesh: &'a Topology,
    torus: &'a Topology,
    cache_dir: Option<&Path>,
) -> Result<Experiment<'a>, String> {
    let mut rates = vec![0.02, 0.1];
    for (key, value) in params {
        match key.as_str() {
            "rates" => {
                rates = value
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<f64>()
                            .map_err(|e| format!("rate '{s}': {e}"))
                    })
                    .collect::<Result<Vec<f64>, String>>()?;
            }
            other => return Err(format!("unknown param '{other}'")),
        }
    }
    let spec = SweepSpec::new(SimConfig::fast_test())
        .rates(rates)
        .patterns([TrafficPattern::UniformRandom, TrafficPattern::Hotspot(20)]);
    let mut experiment = Experiment::new(spec)
        .with_unit_latency_case("mesh", mesh)
        .map_err(|e| format!("mesh routes: {e:?}"))?
        .with_unit_latency_case("torus", torus)
        .map_err(|e| format!("torus routes: {e:?}"))?;
    if let Some(dir) = cache_dir {
        experiment.set_cache(CellCache::open(dir).map_err(|e| format!("cache: {e}"))?);
    }
    Ok(experiment)
}

/// One request of `experiment` across `links`, in chunks of
/// `chunk_size` cells, streaming a solo journal to `journal` when given.
fn coordinated(
    experiment: &Experiment<'_>,
    request_id: u64,
    params: &[(String, String)],
    links: &mut Vec<WorkerLink>,
    journal: Option<&Path>,
    chunk_size: Option<usize>,
) -> Result<(SweepResult, CoordSummary), CoordError> {
    let fleet = Fleet {
        request_id,
        params,
        workers: links,
        chunk_size,
    };
    let journal = journal.map(|path| JournalSink {
        path,
        resume: false,
        durable: false,
    });
    run_sweep(
        experiment,
        ShardSpec::SOLO,
        Executors::Fleet(fleet),
        journal,
        None,
    )
}

/// Spawns a protocol-speaking worker thread that connects to `addr`
/// and serves until shutdown or EOF.
fn spawn_worker(addr: SocketAddr, cache_dir: Option<PathBuf>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("worker connects");
        let mut reader = stream.try_clone().expect("stream clones");
        let mut writer = stream;
        let mesh = generators::mesh(Grid::new(4, 4));
        let torus = generators::torus(Grid::new(4, 4));
        serve_worker(&mut reader, &mut writer, |params| {
            build_experiment(params, &mesh, &torus, cache_dir.as_deref())
        })
        .expect("worker serve loop");
    })
}

/// Accepts `count` worker connections as [`WorkerLink`]s.
fn accept_workers(listener: &TcpListener, count: usize) -> Vec<WorkerLink> {
    (0..count)
        .map(|i| {
            let (stream, _) = listener.accept().expect("worker connection");
            WorkerLink::from_tcp(format!("worker-{i}"), stream).expect("stream clones")
        })
        .collect()
}

fn shutdown_fleet(mut links: Vec<WorkerLink>, handles: Vec<std::thread::JoinHandle<()>>) {
    for link in &mut links {
        link.shutdown();
    }
    drop(links);
    for handle in handles {
        handle.join().expect("worker thread");
    }
}

#[test]
fn coordinated_fleet_matches_single_shot_bytes_and_journal() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let torus = generators::torus(Grid::new(4, 4));
    let scratch = ScratchDir::new("fleet_bytes");
    let params = vec![("rates".to_owned(), "0.02,0.05,0.08".to_owned())];

    let experiment = build_experiment(&params, &mesh, &torus, None).expect("builds");
    let reference = experiment.run_parallel().to_json();
    let reference_journal = scratch.0.join("reference.jsonl");
    let journal = JournalSink {
        path: &reference_journal,
        resume: false,
        durable: false,
    };
    let _ = run_sweep(
        &experiment,
        ShardSpec::SOLO,
        Executors::Local,
        Some(journal),
        None,
    )
    .expect("reference journal run");

    let listener = TcpListener::bind("127.0.0.1:0").expect("listener");
    let addr = listener.local_addr().expect("addr");
    let handles: Vec<_> = (0..3).map(|_| spawn_worker(addr, None)).collect();
    let mut links = accept_workers(&listener, 3);

    // chunk_size 1 forces 12 chunks over 3 workers, so the tail is
    // stolen in practice; correctness must not depend on it.
    let chunk_size = Some(1);
    let coord_journal = scratch.0.join("coordinated.jsonl");
    let (result, summary) = coordinated(
        &experiment,
        1,
        &params,
        &mut links,
        Some(&coord_journal),
        chunk_size,
    )
    .expect("coordinated run");

    assert_eq!(result.to_json(), reference, "fleet bytes differ");
    assert_eq!(
        std::fs::read(&coord_journal).expect("coordinated journal"),
        std::fs::read(&reference_journal).expect("reference journal"),
        "streamed journal differs from the solo journal"
    );
    assert_eq!(
        (summary.cells, summary.cached, summary.dispatched),
        (12, 0, 12)
    );
    assert_eq!(summary.chunks, 12);
    assert_eq!(summary.lost_workers, 0);
    assert_eq!(links.len(), 3, "all workers survive");

    // The fleet stays attached: a second request over the same links.
    let (again, _) =
        coordinated(&experiment, 2, &params, &mut links, None, chunk_size).expect("second request");
    assert_eq!(again.to_json(), reference);
    shutdown_fleet(links, handles);
}

#[test]
fn shared_cache_contention_and_warm_duplicate_requests() {
    // Satellite of the tmp-collision bugfix: a coordinator and three
    // workers all pointed at ONE cache directory, overlapping grids,
    // stores racing from every side. No lost cells, no corrupt
    // entries, no stray tmp files — and a duplicate request must be
    // answered entirely from the shared cache without a single cell
    // dispatched.
    let mesh = generators::mesh(Grid::new(4, 4));
    let torus = generators::torus(Grid::new(4, 4));
    let scratch = ScratchDir::new("shared_cache");
    let cache_dir = scratch.0.join("cells");

    let listener = TcpListener::bind("127.0.0.1:0").expect("listener");
    let addr = listener.local_addr().expect("addr");
    let handles: Vec<_> = (0..3)
        .map(|_| spawn_worker(addr, Some(cache_dir.clone())))
        .collect();
    let mut links = accept_workers(&listener, 3);
    let chunk_size = Some(1);

    // Request 1: the narrow grid, fully cold.
    let narrow = vec![("rates".to_owned(), "0.02,0.05".to_owned())];
    let narrow_exp = build_experiment(&narrow, &mesh, &torus, Some(&cache_dir)).expect("builds");
    let (narrow_result, narrow_summary) =
        coordinated(&narrow_exp, 1, &narrow, &mut links, None, chunk_size).expect("narrow request");
    assert_eq!((narrow_summary.cached, narrow_summary.dispatched), (0, 8));
    assert_eq!(
        narrow_result.to_json(),
        build_experiment(&narrow, &mesh, &torus, None)
            .expect("builds")
            .run_parallel()
            .to_json()
    );

    // Request 2: a widened, overlapping grid — the overlap is served
    // from the shared cache, only the delta is dispatched.
    let wide = vec![("rates".to_owned(), "0.02,0.05,0.08".to_owned())];
    let wide_exp = build_experiment(&wide, &mesh, &torus, Some(&cache_dir)).expect("builds");
    let (wide_result, wide_summary) =
        coordinated(&wide_exp, 2, &wide, &mut links, None, chunk_size).expect("wide request");
    assert_eq!((wide_summary.cached, wide_summary.dispatched), (8, 4));
    let wide_reference = build_experiment(&wide, &mesh, &torus, None)
        .expect("builds")
        .run_parallel()
        .to_json();
    assert_eq!(wide_result.to_json(), wide_reference);

    // Request 3: an exact duplicate — answered warm, the fleet never
    // hears about it.
    let warm_exp = build_experiment(&wide, &mesh, &torus, Some(&cache_dir)).expect("builds");
    let (warm_result, warm_summary) =
        coordinated(&warm_exp, 3, &wide, &mut links, None, chunk_size).expect("warm request");
    assert_eq!(warm_result.to_json(), wide_reference);
    assert_eq!((warm_summary.cached, warm_summary.dispatched), (12, 0));
    let stats = warm_exp.cache().expect("cache").stats();
    assert_eq!(
        (stats.cached, stats.simulated),
        (12, 0),
        "simulated != 0 on a warm duplicate"
    );

    // The racing stores left the directory clean: every entry loads,
    // nothing torn, no tmp files.
    let names: Vec<String> = std::fs::read_dir(&cache_dir)
        .expect("cache dir lists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().all(|n| !n.contains(".tmp.")),
        "stray tmp files: {names:?}"
    );
    assert_eq!(names.len(), 12, "one entry per distinct cell");
    shutdown_fleet(links, handles);
}

/// A writer that serves `frames` whole protocol frames, then fails
/// every further write — a worker whose connection dies cleanly at a
/// frame boundary.
struct FailAfter<W: Write> {
    inner: W,
    frames_left: usize,
}

impl<W: Write> Write for FailAfter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.frames_left == 0 {
            return Err(std::io::ErrorKind::BrokenPipe.into());
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.frames_left == 0 {
            return Err(std::io::ErrorKind::BrokenPipe.into());
        }
        self.inner.flush()?;
        self.frames_left -= 1;
        Ok(())
    }
}

/// Spawns a worker that answers its handshake plus `chunks` chunk
/// replies, then drops its connection mid-request.
fn spawn_flaky_worker(addr: SocketAddr, chunks: usize) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("worker connects");
        let mut reader = stream.try_clone().expect("stream clones");
        let mut writer = FailAfter {
            inner: stream,
            frames_left: 1 + chunks,
        };
        let mesh = generators::mesh(Grid::new(4, 4));
        let torus = generators::torus(Grid::new(4, 4));
        // The serve loop dies on the injected write error — expected.
        let _ = serve_worker(&mut reader, &mut writer, |params| {
            build_experiment(params, &mesh, &torus, None)
        });
    })
}

#[test]
fn dead_workers_chunks_are_requeued_and_finish_elsewhere() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let torus = generators::torus(Grid::new(4, 4));
    let params = vec![("rates".to_owned(), "0.02,0.05,0.08".to_owned())];
    let experiment = build_experiment(&params, &mesh, &torus, None).expect("builds");
    let reference = experiment.run_parallel().to_json();

    let listener = TcpListener::bind("127.0.0.1:0").expect("listener");
    let addr = listener.local_addr().expect("addr");
    let mut handles = vec![spawn_flaky_worker(addr, 1)];
    handles.extend((0..2).map(|_| spawn_worker(addr, None)));
    let mut links = accept_workers(&listener, 3);

    let chunk_size = Some(1);
    let (result, summary) = coordinated(&experiment, 1, &params, &mut links, None, chunk_size)
        .expect("run survives a dead worker");
    assert_eq!(result.to_json(), reference, "requeued cells drifted");
    assert_eq!(summary.lost_workers, 1);
    assert_eq!(links.len(), 2, "the dead worker is culled from the fleet");
    shutdown_fleet(links, handles);
}

#[test]
fn losing_every_worker_is_a_hard_error_not_a_hang() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let torus = generators::torus(Grid::new(4, 4));
    let params = vec![("rates".to_owned(), "0.02,0.05,0.08".to_owned())];
    let experiment = build_experiment(&params, &mesh, &torus, None).expect("builds");

    let listener = TcpListener::bind("127.0.0.1:0").expect("listener");
    let addr = listener.local_addr().expect("addr");
    let handle = spawn_flaky_worker(addr, 1);
    let mut links = accept_workers(&listener, 1);

    let chunk_size = Some(1);
    let error = coordinated(&experiment, 1, &params, &mut links, None, chunk_size)
        .expect_err("no fleet left");
    assert!(
        matches!(error, CoordError::AllWorkersLost { remaining_cells } if remaining_cells > 0),
        "unexpected error: {error}"
    );
    assert!(links.is_empty());
    handle.join().expect("worker thread");
}

/// Spawns a worker that dials with [`connect_with_backoff`] — it may
/// start before any coordinator is listening and must retry until one
/// appears.
fn spawn_patient_worker(addr: SocketAddr) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let stream = connect_with_backoff(&addr.to_string(), std::time::Duration::from_secs(30))
            .expect("worker outlasts the coordinator's late start");
        let mut reader = stream.try_clone().expect("stream clones");
        let mut writer = stream;
        let mesh = generators::mesh(Grid::new(4, 4));
        let torus = generators::torus(Grid::new(4, 4));
        serve_worker(&mut reader, &mut writer, |params| {
            build_experiment(params, &mesh, &torus, None)
        })
        .expect("worker serve loop");
    })
}

#[test]
fn workers_started_before_the_coordinator_retry_until_it_listens() {
    let mesh = generators::mesh(Grid::new(4, 4));
    let torus = generators::torus(Grid::new(4, 4));
    let params = vec![("rates".to_owned(), "0.02,0.05,0.08".to_owned())];
    let experiment = build_experiment(&params, &mesh, &torus, None).expect("builds");
    let reference = experiment.run_parallel().to_json();

    // Reserve a port, then close the listener again: the workers start
    // first, against an address nobody is listening on yet.
    let addr = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe listener");
        probe.local_addr().expect("addr")
    };
    let handles: Vec<_> = (0..3).map(|_| spawn_patient_worker(addr)).collect();
    // Long enough that every worker's first dial has failed and the
    // fleet is deep in its backoff loop before the door opens.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let listener = TcpListener::bind(addr).expect("late coordinator listener");
    let mut links = accept_workers(&listener, 3);

    let chunk_size = Some(1);
    let (result, summary) = coordinated(&experiment, 1, &params, &mut links, None, chunk_size)
        .expect("coordinated run");
    assert_eq!(result.to_json(), reference, "late-start fleet drifted");
    assert_eq!(summary.lost_workers, 0);
    shutdown_fleet(links, handles);
}

#[test]
fn backoff_returns_the_last_error_once_patience_is_spent() {
    let addr = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe listener");
        probe.local_addr().expect("addr")
    };
    let patience = std::time::Duration::from_millis(150);
    let start = std::time::Instant::now();
    let error = connect_with_backoff(&addr.to_string(), patience)
        .expect_err("nobody ever listens on the probe port");
    assert!(
        start.elapsed() >= patience,
        "gave up after {:?}, before the patience window closed",
        start.elapsed()
    );
    // The error is the real connect failure, not a synthetic timeout.
    assert_ne!(error.kind(), std::io::ErrorKind::TimedOut);
}

#[test]
fn a_worker_building_a_different_plan_aborts_the_request() {
    // A worker that interprets the params differently (here: ignores
    // them) computes a different plan fingerprint; the handshake must
    // refuse to mix its results in.
    let mesh = generators::mesh(Grid::new(4, 4));
    let torus = generators::torus(Grid::new(4, 4));
    let params = vec![("rates".to_owned(), "0.02,0.05,0.08".to_owned())];
    let experiment = build_experiment(&params, &mesh, &torus, None).expect("builds");

    let listener = TcpListener::bind("127.0.0.1:0").expect("listener");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("worker connects");
        let mut reader = stream.try_clone().expect("stream clones");
        let mut writer = stream;
        let mesh = generators::mesh(Grid::new(4, 4));
        let torus = generators::torus(Grid::new(4, 4));
        let _ = serve_worker(&mut reader, &mut writer, |_params| {
            build_experiment(&[], &mesh, &torus, None)
        });
    });
    let mut links = accept_workers(&listener, 1);

    let error = coordinated(&experiment, 1, &params, &mut links, None, None)
        .expect_err("fingerprints disagree");
    assert!(
        matches!(error, CoordError::FingerprintMismatch { .. }),
        "unexpected error: {error}"
    );
    drop(links);
    handle.join().expect("worker thread");
}
