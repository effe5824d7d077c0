//! Child-process plumbing: locating and building the shipped binaries,
//! spawning them with a scrubbed environment, and reaping them with
//! their peak resident set size.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// Thread-count overrides the library reads from the environment; a
/// value inherited from the caller's shell would silently change what
/// every workload measures.
pub const SCRUBBED_ENV: &[&str] = &["TITR_REPLAY_THREADS", "TITR_SWEEP_THREADS"];

/// The benchmark's own directory, relative to the repository root.
pub const BENCH_DIR: &str = "crates/bench/src/bin/titbench";

/// The repository root: the nearest ancestor of the working directory
/// that holds this benchmark's directory and the crates it builds.
pub fn repo_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    cwd.ancestors()
        .find(|d| d.join(BENCH_DIR).is_dir() && d.join("crates/core/Cargo.toml").is_file())
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} is not inside the tit-replay repository", cwd.display()))
}

/// Cargo's target directory for the root workspace (`CARGO_TARGET_DIR`
/// is taken relative to the root, where the build below runs).
pub fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    }
}

/// Paths of the three shipped binaries every workload drives.
pub struct Bins {
    pub titreplay: PathBuf,
    pub titrace_gen: PathBuf,
    pub titserved: PathBuf,
}

impl Bins {
    /// Builds the shipped binaries in release mode (a no-op when they
    /// are current) and returns where cargo put them. Only the two
    /// packages that own them are selected, so they get their default
    /// features — what a user's `cargo install` would produce.
    pub fn build(root: &Path) -> Result<Bins, String> {
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .current_dir(root)
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["-p", "tit-replay", "-p", "titserved"])
            .args([
                "--bin",
                "titreplay",
                "--bin",
                "titrace-gen",
                "--bin",
                "titserved",
            ])
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building the shipped binaries failed ({status})"));
        }
        let release = target_dir(root).join("release");
        let bins = Bins {
            titreplay: release.join("titreplay"),
            titrace_gen: release.join("titrace-gen"),
            titserved: release.join("titserved"),
        };
        for b in [&bins.titreplay, &bins.titrace_gen, &bins.titserved] {
            if !b.is_file() {
                return Err(format!("cargo did not produce {}", b.display()));
            }
        }
        Ok(bins)
    }
}

/// A command for one of the shipped binaries: scrubbed environment,
/// silent standard streams.
pub fn command(program: &Path) -> Command {
    let mut cmd = Command::new(program);
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    pub success: bool,
    /// Peak resident set size in MiB (`ru_maxrss`).
    pub peak_rss_mib: f64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct timeval` / `struct rusage` of 64-bit Linux: two timevals
    /// followed by fourteen longs, `ru_maxrss` (KiB) first among them.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub ru_utime: [i64; 2],
        pub ru_stime: [i64; 2],
        pub ru_maxrss: i64,
        pub rest: [i64; 13],
    }

    extern "C" {
        pub fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    }
}

/// Waits for `child` and returns its exit status together with its
/// peak RSS, which `std::process` does not expose.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn reap(child: Child) -> io::Result<Exit> {
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut usage = sys::Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable, and laid out
        // as wait4(2) expects on 64-bit Linux; `pid` is a child of this
        // process that nothing else waits on (`child` is consumed here
        // and `Child` does not reap on drop).
        let r = unsafe { sys::wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    drop(child);
    Ok(Exit {
        // Exited normally (no terminating signal) with code 0.
        success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        peak_rss_mib: usage.ru_maxrss as f64 / 1024.0,
    })
}

/// Other platforms have no portable per-child peak RSS; the metric
/// reads 0 there.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn reap(mut child: Child) -> io::Result<Exit> {
    Ok(Exit {
        success: child.wait()?.success(),
        peak_rss_mib: 0.0,
    })
}

/// This process's own peak RSS in MiB (`VmHWM`), 0 where `/proc` does
/// not say. A child's `ru_maxrss` starts from its parent's size at
/// spawn, so this is the floor under a `peak_rss_mb` measured now.
pub fn own_peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs `cmd` to completion; returns spawn-to-exit seconds and the exit.
pub fn run(cmd: &mut Command) -> io::Result<(f64, Exit)> {
    let started = Instant::now();
    let exit = reap(cmd.spawn()?)?;
    Ok((started.elapsed().as_secs_f64(), exit))
}

/// Runs `cmd`, turning a spawn failure or a non-zero exit into an error
/// naming the command.
pub fn run_ok(cmd: &mut Command) -> Result<(), String> {
    match run(cmd) {
        Ok((_, exit)) if exit.success => Ok(()),
        Ok(_) => Err(format!("{cmd:?} failed")),
        Err(e) => Err(format!("{cmd:?}: {e}")),
    }
}
