//! Child processes: the shipped binaries are the system under test, so
//! every end-to-end number is taken from a real child process.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs,
/// the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    _times: [i64; 4],
    maxrss: i64,
    _rest: [i64; 13],
}

// Declared directly, as `mmapfile.rs` declares `mmap`: the workspace
// vendors no libc crate. `wait4` reaps one child and reports *its* peak
// RSS; `RUSAGE_CHILDREN` would be a running max over every child.
extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

const EINTR: i32 = 4;

/// First argument that turns `bench_e2e` into a reaper for one child.
///
/// A child's `ru_maxrss` also counts the memory of the process that
/// spawned it (Linux folds the pre-`exec` address space into the peak),
/// and the benchmark holds whole traces in memory. So every timed child is
/// spawned by a fresh `bench_e2e --reap EXE ARGS...`, which is small; it
/// runs the child with inherited stdio, reaps it with `wait4`, and reports
/// the status, peak RSS and wall as its last stderr line.
pub const REAP_FLAG: &str = "--reap";
const REAP_TAG: &str = "bench_e2e-reaped";

/// How a reaped child ended.
#[derive(Debug, Clone)]
pub struct Exit {
    /// Exit code; `None` when a signal killed the child.
    pub code: Option<i32>,
    /// Spawn to reap.
    pub wall_s: f64,
    /// The child's own `ru_maxrss`.
    pub peak_rss_bytes: u64,
    pub stdout: String,
    pub stderr: String,
}

impl Exit {
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }

    /// One-line reason for a failed child, for error messages.
    pub fn describe(&self) -> String {
        let tail = self.stderr.lines().last().unwrap_or("").trim();
        match self.code {
            Some(c) => format!("exit {c}: {tail}"),
            None => format!("killed by a signal: {tail}"),
        }
    }
}

/// Block until child `pid` exits; returns its wait status and rusage.
fn reap(pid: u32) -> std::io::Result<(i32, RUsage)> {
    let pid = i32::try_from(pid).map_err(|_| std::io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut ru = RUsage {
        _times: [0; 4],
        maxrss: 0,
        _rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `ru` are live, writable, correctly sized
        // locals for the whole call, and `pid` is our own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            return Ok((status, ru));
        }
        let err = std::io::Error::last_os_error();
        if err.raw_os_error() != Some(EINTR) {
            return Err(err);
        }
    }
}

/// The reaper mode's `main`: `args` is the child's program and arguments.
pub fn reap_main(args: &[String]) -> ExitCode {
    let Some((exe, rest)) = args.split_first() else {
        eprintln!("usage: bench_e2e {REAP_FLAG} EXE [ARGS...]");
        return ExitCode::from(2);
    };
    let t0 = Instant::now();
    let outcome = Command::new(exe)
        .args(rest)
        .spawn()
        .and_then(|child| reap(child.id()));
    match outcome {
        Ok((status, ru)) => {
            let nanos = t0.elapsed().as_nanos();
            eprintln!("{REAP_TAG} {status} {} {nanos}", ru.maxrss);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{exe}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run `cmd` to completion under a reaper, capturing its output, wall
/// time and peak RSS.
pub fn run(cmd: &Command) -> Result<Exit, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut reaper = Command::new(me);
    reaper
        .arg(REAP_FLAG)
        .arg(cmd.get_program())
        .args(cmd.get_args());
    for (key, value) in cmd.get_envs() {
        match value {
            Some(v) => reaper.env(key, v),
            None => reaper.env_remove(key),
        };
    }
    if let Some(dir) = cmd.get_current_dir() {
        reaper.current_dir(dir);
    }
    let out = reaper
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn reaper: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    let (stderr, tag) = stderr
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stderr.trim_end()));
    let fields: Vec<i64> = tag
        .strip_prefix(REAP_TAG)
        .map(|t| {
            t.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    let [status, maxrss_kib, nanos] = fields[..] else {
        return Err(format!("running {:?} failed: {tag}", cmd.get_program()));
    };
    let status = status as i32;
    Ok(Exit {
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        wall_s: nanos as f64 / 1e9,
        peak_rss_bytes: maxrss_kib.max(0) as u64 * 1024,
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: stderr.to_string(),
    })
}

/// Run `cmd` and fail unless it exits 0.
pub fn run_ok(cmd: &Command) -> Result<Exit, String> {
    let exit = run(cmd)?;
    if exit.success() {
        Ok(exit)
    } else {
        Err(format!(
            "{:?} failed: {}",
            cmd.get_program(),
            exit.describe()
        ))
    }
}

/// Where cargo puts release binaries for this checkout.
fn release_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("release")
}

/// Build the shipped CLI and daemon from the checkout in the working
/// directory; returns their paths.
pub fn build_binaries() -> Result<(PathBuf, PathBuf), String> {
    if !Path::new("src/bin/adjstream_cli.rs").is_file() {
        return Err("run from the root of an adjstream checkout".into());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--offline", "--locked"])
        .args(["--bin", "adjstream_cli", "--bin", "adjstreamd"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build failed: {status}"));
    }
    let dir = release_dir();
    Ok((dir.join("adjstream_cli"), dir.join("adjstreamd")))
}

/// `VmHWM` (peak resident set) of a live process, in bytes.
pub fn vm_hwm_bytes(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}
