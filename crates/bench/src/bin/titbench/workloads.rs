//! The seven workloads: what they generate, how the CLI is driven over
//! them, and how each sample's output is checked.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

use crate::manifest::{self, Expected, Facts, Golden};
use crate::proc::{self, Bins};

/// Calibrated instruction rate passed to every replay (`--rate 2e9`).
pub const RATE: f64 = 2e9;

// Iteration counts are sized so one timed sample takes roughly one
// second on a 2-core host: the harness contract caps a whole run
// (set-up repeats + warm-up + measuring) near 20 s, and the rule is to
// shrink iterations, never the sample count. Structure (ranks, classes,
// message sizes) is what the issue names; only the lengths are shorter.
const LU_C64_STEPS: u32 = 12;
const LU_B64_STEPS: u32 = 40;
const LU_B16_STEPS: u32 = 20;
const ALLREDUCE_ITERS: u32 = 3;
const HALO_ITERS: u32 = 3000;

/// The generated input set a workload replays. Workloads of one family
/// share the same files, so their set-up cost is the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inputs {
    /// NAS LU class C on 64 ranks: merged text plus its packed `.titb`.
    LuC64,
    /// NAS LU class B on 64 ranks, written as `.titb` directly.
    LuB64,
    /// 128-rank compute/`Allreduce` loop, text.
    Allreduce,
    /// 128 ranks in 16 cabinets exchanging halos on per-cabinet rings, text.
    Halo,
    /// NAS LU class B on 16 ranks, `.titb` (the service's trace).
    LuB16,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Smpi,
    Msg,
}

/// One named workload. `engine`, `threads` and `cache` are the CLI
/// flags the sample passes *and* what the traced run mirrors through
/// the library, so the two cannot drift apart.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub inputs: Inputs,
    pub trace_file: &'static str,
    pub ranks: u32,
    pub engine: Engine,
    /// `--threads N`; `None` leaves the CLI default (1).
    pub threads: Option<usize>,
    /// `false` passes `--no-cache` (no `.titb` side-car read or written).
    pub cache: bool,
    /// Another workload that must produce the same manifest once the
    /// ingestion/threading fields are dropped.
    pub sibling: Option<&'static str>,
}

pub const SERVE_SWEEP: &str = "serve.sweep";
/// The workload whose traced run also replays with simulated-time spans
/// recorded (`obs.spans_overhead_ratio`).
pub const SPANS_OVERHEAD_ON: &str = "lu-c64.titb";
/// The workload whose traced run also replays at 2 threads
/// (`replay.parallel_t2_*`): the one with more than one island.
pub const PARALLEL_FIGURE_ON: &str = "halo-p128.text";

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "lu-c64.text",
        why: "the paper's LU trace, cold from merged text: text decode plus smpi point-to-point matching",
        inputs: Inputs::LuC64,
        trace_file: "lu-c64.txt",
        ranks: 64,
        engine: Engine::Smpi,
        threads: None,
        cache: false,
        sibling: Some("lu-c64.titb"),
    },
    Workload {
        name: SPANS_OVERHEAD_ON,
        why: "same trace packed to .titb: ingest is ~0, so it isolates the replay engine",
        inputs: Inputs::LuC64,
        trace_file: "lu-c64.titb",
        ranks: 64,
        engine: Engine::Smpi,
        threads: None,
        cache: true,
        sibling: Some("lu-c64.titb.t2"),
    },
    Workload {
        name: "lu-c64.titb.t2",
        why: "same file with --threads 2: LU never certifies, so the delta to lu-c64.titb is the plan-and-fall-back cost",
        inputs: Inputs::LuC64,
        trace_file: "lu-c64.titb",
        ranks: 64,
        engine: Engine::Smpi,
        threads: Some(2),
        cache: true,
        sibling: Some("lu-c64.titb"),
    },
    Workload {
        name: "lu-b64.msg",
        why: "LU class B under --engine msg: the only workload where msgsim does the work",
        inputs: Inputs::LuB64,
        trace_file: "lu-b64.titb",
        ranks: 64,
        engine: Engine::Msg,
        threads: None,
        cache: true,
        sibling: None,
    },
    Workload {
        name: "allreduce-p128",
        why: "128-rank Allreduce loop from a tiny file with default flags: netmodel sharing and FEL churn dominate",
        inputs: Inputs::Allreduce,
        trace_file: "allreduce-p128.txt",
        ranks: 128,
        engine: Engine::Smpi,
        threads: None,
        cache: true,
        sibling: None,
    },
    Workload {
        name: PARALLEL_FIGURE_ON,
        why: "non-blocking halo rings in 16 cabinets from cold text: highest ingest share, Irecv/Isend/WaitAll path, 16 islands",
        inputs: Inputs::Halo,
        trace_file: "halo-p128.txt",
        ranks: 128,
        engine: Engine::Smpi,
        threads: Some(1),
        cache: false,
        sibling: None,
    },
    Workload {
        name: SERVE_SWEEP,
        why: "real titserved child asked 8 platform candidates then the same sweep repeatedly: memo and HTTP path",
        inputs: Inputs::LuB16,
        trace_file: "lu-b16.titb",
        ranks: 16,
        engine: Engine::Smpi,
        threads: None,
        cache: true,
        sibling: None,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the one place `--seed` turns into input parameters.
pub fn splitmix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Message size of the synthetic workloads: 64 KiB plus a seeded
/// multiple of 8 below 8 KiB. Always at or above the eager threshold
/// and always five digits, so neither the protocol nor the file size
/// depends on the seed.
fn seeded_bytes(seed: u64) -> u64 {
    65536 + 8 * (splitmix(seed, 1) % 1024)
}

impl Inputs {
    /// File `titrace-gen --out` writes for this family.
    fn generated_file(self) -> &'static str {
        match self {
            Inputs::LuC64 => "lu-c64.txt",
            Inputs::LuB64 => "lu-b64.titb",
            Inputs::Allreduce => "allreduce-p128.txt",
            Inputs::Halo => "halo-p128.txt",
            Inputs::LuB16 => "lu-b16.titb",
        }
    }

    /// Platform spec `titrace-gen` writes next to the trace.
    pub fn platform_file(self) -> String {
        format!("{}.platform.json", self.generated_file())
    }

    /// Regenerates the family's files in `dir` with the shipped tools:
    /// `titrace-gen` for the trace and platform spec, `titreplay trace
    /// pack` for the `.titb` of LU C-64. Nothing is reused from an
    /// earlier call.
    pub fn generate(self, bins: &Bins, dir: &Path, seed: u64) -> Result<(), String> {
        let out = dir.join(self.generated_file());
        let mut gen = proc::command(&bins.titrace_gen);
        match self {
            Inputs::LuC64 => gen.args(lu_args("C", 64, LU_C64_STEPS, seed)),
            Inputs::LuB64 => gen
                .args(lu_args("B", 64, LU_B64_STEPS, seed))
                .arg("--binary"),
            Inputs::LuB16 => gen
                .args(lu_args("B", 16, LU_B16_STEPS, seed))
                .arg("--binary"),
            Inputs::Allreduce => gen.args(synthetic_args("allreduce", ALLREDUCE_ITERS, seed)),
            Inputs::Halo => gen.args(synthetic_args("halo", HALO_ITERS, seed)),
        };
        gen.arg("--out").arg(&out);
        proc::run_ok(&mut gen)?;
        if self == Inputs::LuC64 {
            let mut pack = proc::command(&bins.titreplay);
            pack.args(["trace", "pack"])
                .arg(&out)
                .arg(dir.join("lu-c64.titb"))
                .args(["--ranks", "64"]);
            proc::run_ok(&mut pack)?;
        }
        Ok(())
    }
}

fn lu_args(class: &str, procs: u32, steps: u32, seed: u64) -> Vec<String> {
    [
        "--class",
        class,
        "--procs",
        &procs.to_string(),
        "--steps",
        &steps.to_string(),
        "--seed",
        &seed.to_string(),
    ]
    .map(String::from)
    .to_vec()
}

fn synthetic_args(workload: &str, iters: u32, seed: u64) -> Vec<String> {
    [
        "--workload",
        workload,
        "--procs",
        "128",
        "--steps",
        &iters.to_string(),
        "--bytes",
        &seeded_bytes(seed).to_string(),
    ]
    .map(String::from)
    .to_vec()
}

impl Workload {
    pub fn trace_path(&self, dir: &Path) -> PathBuf {
        dir.join(self.trace_file)
    }

    pub fn platform_path(&self, dir: &Path) -> PathBuf {
        dir.join(self.inputs.platform_file())
    }

    /// Reads the trace file once, untimed, so every timed operation
    /// finds it in the page cache. Without this the cache state depends
    /// on how long ago the file was last read — the full set leaves
    /// seconds between two samples of one workload, a single-workload
    /// run does not — and a cold read triples the text ingest time.
    pub fn warm_inputs(&self, dir: &Path) {
        if let Ok(mut file) = std::fs::File::open(self.trace_path(dir)) {
            let _ = std::io::copy(&mut file, &mut std::io::sink());
        }
    }

    /// `titreplay --platform P --trace T --ranks R --rate 2e9 [flags]
    /// --manifest M`, exactly as a user would type it, on the platform
    /// spec `titrace-gen` wrote.
    pub fn replay_command(&self, bins: &Bins, dir: &Path, manifest: &Path) -> Command {
        self.replay_command_on(bins, dir, &self.platform_path(dir), manifest)
    }

    /// [`Workload::replay_command`] on another platform spec.
    pub fn replay_command_on(
        &self,
        bins: &Bins,
        dir: &Path,
        platform: &Path,
        manifest: &Path,
    ) -> Command {
        let mut cmd = proc::command(&bins.titreplay);
        cmd.arg("--platform")
            .arg(platform)
            .arg("--trace")
            .arg(self.trace_path(dir))
            .args(["--ranks", &self.ranks.to_string(), "--rate", "2e9"]);
        if !self.cache {
            cmd.arg("--no-cache");
        }
        if let Some(t) = self.threads {
            cmd.args(["--threads", &t.to_string()]);
        }
        if self.engine == Engine::Msg {
            cmd.args(["--engine", "msg"]);
        }
        cmd.arg("--manifest").arg(manifest);
        cmd
    }
}

/// One timed operation's outcome.
#[derive(Debug, Default)]
pub struct Sample {
    pub wall_s: f64,
    pub peak_rss_mib: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed or checks did not hold (empty = all good).
    pub errors: Vec<String>,
    /// Facts of the manifests this sample produced.
    pub facts: Vec<Facts>,
}

impl Sample {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }
}

/// Compares `facts` with the checked-in goldens of `workload`.
pub fn check_goldens(
    expected: Option<&Expected>,
    workload: &str,
    facts: &[Facts],
) -> Result<(), String> {
    let Some(expected) = expected else {
        return Ok(());
    };
    let goldens = expected
        .get(workload)
        .ok_or_else(|| format!("expected.json has no entry for {workload}"))?;
    let got: Vec<Golden> = facts.iter().map(Facts::golden).collect();
    if got == goldens {
        Ok(())
    } else {
        Err(format!(
            "{workload}: output differs from expected.json: got {got:?}, expected {goldens:?}"
        ))
    }
}

/// A replay workload with its inputs on disk and its reference outputs
/// taken, ready to be sampled.
pub struct ReplayRun<'a> {
    pub workload: &'static Workload,
    bins: &'a Bins,
    dir: PathBuf,
    expected: Option<&'a Expected>,
    /// The sibling variant's manifest (one untimed run).
    sibling: Option<Value>,
    /// The first sample's manifest; later samples must repeat it.
    first: Option<Value>,
}

impl<'a> ReplayRun<'a> {
    pub fn prepare(
        workload: &'static Workload,
        bins: &'a Bins,
        dir: &Path,
        expected: Option<&'a Expected>,
    ) -> Result<ReplayRun<'a>, String> {
        let sibling = match workload.sibling {
            None => None,
            Some(name) => {
                let sib = find(name).ok_or_else(|| format!("unknown sibling {name}"))?;
                let path = dir.join(format!("manifest-{}-ref.json", sib.name));
                proc::run_ok(&mut sib.replay_command(bins, dir, &path))?;
                Some(read_manifest(&path)?)
            }
        };
        Ok(ReplayRun {
            workload,
            bins,
            dir: dir.to_path_buf(),
            expected,
            sibling,
            first: None,
        })
    }

    /// One operation: spawn the CLI, wait for it, check what it wrote.
    pub fn sample(&mut self) -> Sample {
        let mut s = Sample {
            attempted: 1,
            ..Sample::default()
        };
        let path = self
            .dir
            .join(format!("manifest-{}.json", self.workload.name));
        let _ = std::fs::remove_file(&path);
        self.workload.warm_inputs(&self.dir);
        let mut cmd = self.workload.replay_command(self.bins, &self.dir, &path);
        match proc::run(&mut cmd) {
            Ok((wall_s, exit)) => {
                s.wall_s = wall_s;
                s.peak_rss_mib = exit.peak_rss_mib;
                if !exit.success {
                    s.fail(format!("{cmd:?} exited with failure"));
                    return s;
                }
            }
            Err(e) => {
                s.fail(format!("{cmd:?}: {e}"));
                return s;
            }
        }
        if let Err(e) = self.check(&path, &mut s) {
            s.fail(e);
        }
        s
    }

    fn check(&mut self, path: &Path, s: &mut Sample) -> Result<(), String> {
        let name = self.workload.name;
        let manifest = read_manifest(path)?;
        let facts = Facts::of(&manifest)?;
        s.facts.push(facts);
        check_goldens(self.expected, name, &[facts])?;
        if let Some(sibling) = &self.sibling {
            manifest::same_modulo(&manifest, sibling, manifest::DROP_VARIANT).map_err(|d| {
                format!(
                    "{name}: manifest differs from {} at {d}",
                    self.workload.sibling.unwrap_or("sibling")
                )
            })?;
        }
        match &self.first {
            None => self.first = Some(manifest),
            Some(first) => manifest::same_modulo(&manifest, first, manifest::DROP_WALL)
                .map_err(|d| format!("{name}: manifest changed between samples at {d}"))?,
        }
        Ok(())
    }
}

pub fn read_manifest(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read manifest {}: {e}", path.display()))?;
    manifest::parse(&text)
}
