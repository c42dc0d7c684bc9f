//! Child processes measured from outside: wall time from `Instant`,
//! CPU time and peak resident set of the whole process tree from
//! `wait4`'s `rusage`.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// `struct rusage` as 64-bit Linux lays it out: two `timeval`s, then
/// fourteen `long`s of which only the first (`ru_maxrss`, KiB) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    // std already links libc; this is its only symbol the harness needs
    // that std does not wrap (std's `wait` discards the rusage).
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child cost.
#[derive(Debug, Clone)]
pub struct ChildRun {
    /// `true` when the child exited with status 0.
    pub ok: bool,
    /// Spawn to reaped, seconds.
    pub wall_s: f64,
    /// User + system seconds of the child and every descendant it reaped.
    pub cpu_s: f64,
    /// Largest resident set of any process in that tree, MB.
    pub peak_rss_mb: f64,
    /// Everything the child wrote to stdout.
    pub stdout: String,
    /// Seconds from spawn at which each stdout line arrived.
    pub line_at_s: Vec<f64>,
}

/// Reaps `child` with `wait4`, returning `(exited 0, cpu seconds, peak MB)`.
fn reap(child: Child) -> (bool, f64, f64) {
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are live, writable and laid out as the
    // kernel expects for the whole call; the pid is a child of this
    // process that nothing else waits on (the `Child` is consumed here
    // and std never reaps a child it was not asked to wait for).
    let pid = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    assert_eq!(pid, child.id() as i32, "wait4 reaps the spawned child");
    let seconds = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    // WIFEXITED && WEXITSTATUS == 0 is exactly "status word is zero".
    (
        status == 0,
        seconds(usage.utime) + seconds(usage.stime),
        usage.maxrss as f64 / 1024.0,
    )
}

/// Runs `command` to completion. `requests` are written to its stdin one
/// at a time: the next line is sent only once a stdout line starting
/// with `request <n> done:` has been read (the closed loop of one
/// client), then stdin is closed. stderr goes to `stderr_log`.
pub fn run(command: &mut Command, requests: &[String], stderr_log: &Path) -> ChildRun {
    let log = std::fs::File::create(stderr_log).expect("stderr log is creatable");
    let start = Instant::now();
    let mut child = command
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(log)
        .spawn()
        .unwrap_or_else(|e| panic!("spawning {:?}: {e}", command.get_program()));
    let mut stdin = child.stdin.take();
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut stdout = String::new();
    let mut line_at_s = Vec::new();
    let mut pending = requests.iter();
    let mut awaiting = 0usize;
    let mut send_next = |stdin: &mut Option<std::process::ChildStdin>, awaiting: &mut usize| {
        match pending.next() {
            Some(line) => {
                let pipe = stdin.as_mut().expect("stdin open while requests remain");
                writeln!(pipe, "{line}").expect("child reads its stdin");
                pipe.flush().expect("stdin flushes");
                *awaiting += 1;
            }
            None => drop(stdin.take()), // EOF: the child finishes up
        }
    };
    send_next(&mut stdin, &mut awaiting);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("child stdout is UTF-8") == 0 {
            break;
        }
        line_at_s.push(start.elapsed().as_secs_f64());
        stdout.push_str(&line);
        if line.starts_with(&format!("request {awaiting} done:")) {
            send_next(&mut stdin, &mut awaiting);
        }
    }
    drop(stdin);
    let mut rest = String::new();
    let _ = reader.read_to_string(&mut rest);
    let (ok, cpu_s, peak_rss_mb) = reap(child);
    ChildRun {
        ok,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s,
        peak_rss_mb,
        stdout,
        line_at_s,
    }
}
