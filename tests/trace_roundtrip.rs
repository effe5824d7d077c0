//! Property tests of the trace artifact across crate boundaries:
//! generator → acquisition → text/binary formats → parser → replay.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use tit_replay::prelude::*;
use tit_replay::titrace::{binfmt, files, parse, stream, validate, write};

/// Strategy: a small LU instance configuration.
fn arb_lu() -> impl Strategy<Value = LuConfig> {
    (0u32..3, 2u32..6).prop_map(|(c, log_p)| {
        let class = [LuClass::S, LuClass::W, LuClass::A][c as usize];
        LuConfig::new(class, 1 << log_p).with_steps(2)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any acquired LU trace survives the text round-trip exactly and
    /// validates cleanly.
    #[test]
    fn acquired_trace_roundtrips(lu in arb_lu(), seed in 0u64..1000) {
        let acq = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, seed);
        prop_assert!(validate::validate(&acq.trace).is_empty());
        let text = write::to_string(&acq.trace);
        let back = parse::parse_merged(&text, lu.procs).unwrap();
        prop_assert_eq!(back, acq.trace);
    }

    /// text ⇄ binary ⇄ Trace agree on any acquired trace: the binary
    /// encoding is lossless.
    #[test]
    fn acquired_trace_survives_binary_ingestion(lu in arb_lu(), seed in 0u64..1000) {
        let acq = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, seed);
        let path = std::env::temp_dir()
            .join(format!("titr-rt-bin-{}-{seed}-{}.titb", lu.label(), std::process::id()));
        binfmt::write_file(&acq.trace, &path, None).unwrap();
        let titb = binfmt::TitbFile::open(&path, lu.procs).unwrap();
        let from_bin = stream::load_trace(&TraceInput::OpenBinary(Arc::new(titb)), lu.procs).unwrap();
        std::fs::remove_file(&path).unwrap();
        prop_assert_eq!(&from_bin, &acq.trace);
        prop_assert_eq!(write::to_string(&from_bin), write::to_string(&acq.trace));
    }

    /// Replay is bit-identical whether the trace is ingested from
    /// memory, merged text, a split description, or the binary format.
    #[test]
    fn replay_is_identical_across_ingestion_paths(lu in arb_lu(), seed in 0u64..1000) {
        let trace = Arc::new(
            acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, seed).trace,
        );
        let dir = std::env::temp_dir()
            .join(format!("titr-rt-{}-{seed}-{}", lu.label(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let merged = dir.join("lu.trace");
        files::write_merged(&trace, &merged).unwrap();
        let desc = files::write_split(&trace, &dir, "lu").unwrap();
        let bin = dir.join("lu.titb");
        binfmt::write_file(&trace, &bin, None).unwrap();
        let platform = tit_replay::platform::clusters::graphene();
        let cfg = ReplayConfig::improved(2e9);
        let ranks = trace.ranks();
        let run = |input: &TraceInput| {
            replay_input_observed(&platform, input, ranks, &cfg, false).unwrap()
        };
        let base = run(&TraceInput::Memory(Arc::clone(&trace)));
        for input in [
            TraceInput::MergedText(merged),
            TraceInput::Description(desc),
            TraceInput::Binary(bin),
        ] {
            let r = run(&input);
            prop_assert_eq!(r.time().to_bits(), base.time().to_bits(),
                "{:?}: {} != {}", input, r.time(), base.time());
            prop_assert_eq!(&r.rank_times, &base.rank_times, "{:?}", input);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Replay of any valid LU trace terminates (no deadlock) on both
    /// engines, and higher calibrated rates never slow it down.
    #[test]
    fn replay_terminates_and_is_monotone(lu in arb_lu(), seed in 0u64..1000) {
        let trace = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, seed).trace;
        let input = TraceInput::Memory(Arc::new(trace));
        let platform = tit_replay::platform::clusters::graphene();
        for engine in [ReplayEngine::Msg, ReplayEngine::Smpi] {
            let at = |rate| {
                let config = ReplayConfig { engine, ..ReplayConfig::improved(rate) };
                replay_input_observed(&platform, &input, lu.procs, &config, false).unwrap()
            };
            let (slow, fast) = (at(1e9), at(4e9));
            prop_assert!(slow.time() > 0.0);
            prop_assert!(fast.time() <= slow.time() * (1.0 + 1e-9),
                "{engine:?}: rate 4e9 slower ({} vs {})", fast.time(), slow.time());
        }
    }

    /// Counter inflation is never negative in expectation: instrumented
    /// acquisitions measure at least the coarse volume (up to jitter).
    #[test]
    fn instrumented_counters_dominate_coarse(lu in arb_lu()) {
        let coarse = acquire(lu.sources(), Instrumentation::Coarse, CompilerOpt::O0, 1);
        for mode in [Instrumentation::Minimal, Instrumentation::legacy_default()] {
            let inst = acquire(lu.sources(), mode, CompilerOpt::O0, 1);
            let c: f64 = coarse.rank_counters.iter().sum();
            let i: f64 = inst.rank_counters.iter().sum();
            prop_assert!(i > c * 0.995, "{mode:?} measured less than coarse");
        }
    }

    /// The emulated time is invariant under re-runs (determinism) and
    /// strictly positive for any instance.
    #[test]
    fn emulation_determinism(lu in arb_lu()) {
        let tb = Testbed::graphene();
        let a = tb.run_lu(&lu, Instrumentation::None, CompilerOpt::O3).unwrap();
        let b = tb.run_lu(&lu, Instrumentation::None, CompilerOpt::O3).unwrap();
        prop_assert!(a.time() > 0.0);
        prop_assert_eq!(a.time(), b.time());
        prop_assert_eq!(a.rank_times, b.rank_times);
    }
}

/// `write_to` → streaming decode gives back every `compute` amount of
/// LU B-8 with the same bits: the decoder's fast path must round the
/// 17-digit mantissas exactly as `f64::from_str` does.
#[test]
fn lu_compute_amounts_survive_the_text_format_bit_for_bit() {
    let lu = LuConfig::new(LuClass::B, 8).with_steps(10);
    let trace = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace;
    let path = std::env::temp_dir().join(format!("titr-rt-bits-{}.trace", std::process::id()));
    let mut file = std::fs::File::create(&path).unwrap();
    write::write_to(&trace, &mut file).unwrap();
    drop(file);
    let back = stream::load_trace(&TraceInput::MergedText(path.clone()), lu.procs).unwrap();
    std::fs::remove_file(&path).unwrap();
    let amounts = |t: &Trace| -> Vec<u64> {
        t.iter()
            .flat_map(|(_, actions)| actions)
            .filter_map(|a| match a {
                Action::Compute { amount } => Some(amount.to_bits()),
                _ => None,
            })
            .collect()
    };
    assert!(amounts(&trace).len() > 1000);
    assert_eq!(amounts(&back), amounts(&trace));
    assert_eq!(back, trace);
}

/// Runs `titreplay` with `args`; returns whether it succeeded and its
/// stderr.
fn titreplay(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_titreplay"))
        .args(args)
        .output()
        .unwrap();
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn arg(path: &Path) -> &str {
    path.to_str().unwrap()
}

/// Every trace is read one way. `load_trace` gives the same `Trace` for
/// LU S-4 in each of the seven input kinds. And a split trace whose
/// fragment holds an overlong line, or a line of another rank, is refused
/// by `inspect`, `trace pack`, `--validate` and the replay alike, each
/// with the replay's message and none with a panic.
#[test]
fn one_reader_one_set_of_errors() {
    let dir = std::env::temp_dir().join(format!("titr-rt-one-reader-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let lu = LuConfig::new(LuClass::S, 4).with_steps(2);
    let trace = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace;
    let ranks = lu.procs;
    let merged = dir.join("lu.trace");
    files::write_merged(&trace, &merged).unwrap();
    let one_entry = dir.join("one.desc");
    std::fs::write(&one_entry, "lu.trace\n").unwrap();
    let split = files::write_split(&trace, &dir, "lu").unwrap();
    let bin = dir.join("lu.titb");
    binfmt::write_file(&trace, &bin, None).unwrap();
    let opened_text = stream::TextFile::open(&merged, ranks).unwrap();
    let opened_bin = binfmt::TitbFile::open(&bin, ranks).unwrap();
    for input in [
        TraceInput::Memory(Arc::new(trace.clone())),
        TraceInput::MergedText(merged.clone()),
        TraceInput::OpenText(Arc::new(opened_text)),
        TraceInput::Description(one_entry),
        TraceInput::Description(split.clone()),
        TraceInput::Binary(bin),
        TraceInput::OpenBinary(Arc::new(opened_bin)),
    ] {
        assert_eq!(
            stream::load_trace(&input, ranks).unwrap(),
            trace,
            "{input:?}"
        );
    }

    let platform = dir.join("platform.json");
    let spec = r#"{"name": "flat", "kind": {"Flat": {"nodes": 4, "host_speed": 1e9,
        "cores": 1, "cache_bytes": 1048576, "link_bandwidth": 1.25e8,
        "link_latency": 2.5e-5, "backbone_bandwidth": 1.25e9, "backbone_latency": 5e-6}}}"#;
    std::fs::write(&platform, spec).unwrap();
    let fragment = dir.join("lu.rank1.trace");
    let clean = std::fs::read_to_string(&fragment).unwrap();
    let (first, rest) = clean.split_once('\n').unwrap();
    let long_line = format!("p1 compute 1{}", " ".repeat(70_000));
    for (fault, want) in [
        (
            long_line.as_str(),
            "line 2: line exceeds 65536 bytes".to_string(),
        ),
        (
            "p0 init",
            format!(
                "{}: line 2 belongs to rank p0 but the file is assigned to rank p1",
                fragment.display()
            ),
        ),
    ] {
        std::fs::write(&fragment, format!("{first}\n{fault}\n{rest}")).unwrap();
        let ranks = ranks.to_string();
        let out: PathBuf = dir.join("packed.titb");
        let replay = [
            "--platform",
            arg(&platform),
            "--trace",
            arg(&split),
            "--ranks",
            &ranks,
            "--rate",
            "2e9",
        ];
        let validate = [&replay[..], &["--validate"]].concat();
        let inspect = ["inspect", "--trace", arg(&split), "--ranks", &ranks];
        let pack = ["trace", "pack", arg(&split), arg(&out), "--ranks", &ranks];
        for args in [&replay[..], &validate, &inspect, &pack] {
            let (ok, stderr) = titreplay(args);
            assert!(!ok, "{args:?} succeeded on a faulty fragment");
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            assert!(
                stderr.contains(&want),
                "{args:?}: wanted {want:?}, got {stderr}"
            );
        }
        assert!(!out.exists(), "a refused pack leaves no file");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Length and FNV-1a of `bytes`.
fn fingerprint(bytes: &[u8]) -> (usize, u64) {
    let mut fnv = binfmt::Fnv1a::new();
    fnv.update(bytes);
    (bytes.len(), fnv.digest())
}

/// The writers' output is pinned byte for byte: the whole line grammar
/// (rank prefixes, keywords, integers, shortest floats) of LU B-8 and of
/// a `titrace-gen` halo trace hash to what the `core::fmt` writer this
/// encoder replaced produced, and their `titrace-gen --binary` payloads
/// (from byte 28 on: the header's checksum, block table and the
/// payload) to what the rank-by-rank `.titb` writer produced. `trace
/// unpack` of the LU `.titb` gives back the LU text.
#[test]
fn written_text_is_pinned() {
    const LU_TEXT: (usize, u64) = (1_975_363, 0x1b35_1767_bcea_11ce);
    let lu = LuConfig::new(LuClass::B, 8).with_steps(10);
    let trace = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace;
    assert_eq!(fingerprint(write::to_string(&trace).as_bytes()), LU_TEXT);

    let dir = std::env::temp_dir().join(format!("titr-rt-pinned-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let gen = |out: &Path, args: &[&str]| {
        let (code, stderr) = run_bin(
            env!("CARGO_BIN_EXE_titrace-gen"),
            &[args, &["--out", arg(out)]].concat(),
        );
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        std::fs::read(out).unwrap()
    };
    let halo = ["--workload", "halo", "--procs", "16"];
    let halo = [&halo[..], &["--steps", "20", "--bytes", "4096"]].concat();
    let lu = [
        "--class", "B", "--procs", "8", "--steps", "10", "--seed", "1",
    ];
    assert_eq!(
        fingerprint(&gen(&dir.join("halo16.trace"), &halo)),
        (32_572, 0xea5c_b0fa_51db_506b)
    );
    fn binary<'a>(args: &[&'a str]) -> Vec<&'a str> {
        [args, &["--binary"]].concat()
    }
    assert_eq!(
        fingerprint(&gen(&dir.join("halo16.titb"), &binary(&halo))[28..]),
        (7_144, 0xb6c4_a07a_35f6_f99e)
    );
    let lu_titb = dir.join("lu-b8.titb");
    assert_eq!(
        fingerprint(&gen(&lu_titb, &binary(&lu))[28..]),
        (537_646, 0x8c20_8faf_54f1_b59d)
    );
    assert_eq!(fingerprint(&gen(&dir.join("lu-b8.trace"), &lu)), LU_TEXT);
    let unpacked = dir.join("lu-b8.unpacked.trace");
    let (code, stderr) = run_bin(
        env!("CARGO_BIN_EXE_titreplay"),
        &["trace", "unpack", arg(&lu_titb), arg(&unpacked)],
    );
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(fingerprint(&std::fs::read(&unpacked).unwrap()), LU_TEXT);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Runs the binary at `bin` with `args`; returns its exit code and
/// stderr.
fn run_bin(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Bad arguments fail closed: an unparsable or unusable value is a
/// usage error (exit 2) naming the flag, and a platform spec that
/// cannot be written, or an `inspect --threads` nothing would read, is
/// an error naming its cause (exit 1).
#[test]
fn bad_arguments_fail_closed() {
    let dir = std::env::temp_dir().join(format!("titr-rt-bad-args-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let gen = env!("CARGO_BIN_EXE_titrace-gen");
    let out = dir.join("lu.trace");
    let lu = ["--class", "S", "--procs", "2", "--out", arg(&out)];
    // Each bad input, with the flag its usage error names. A value that
    // parses but makes a trace no replay accepts (no ranks, an LU
    // instance that cannot exist) is refused the same way.
    for (bad, flag) in [
        (&["--steps", "abc"][..], "--steps"),
        (&["--seed", "xyz"], "--seed"),
        (&["--steps", "abc", "--seed", "xyz"], "--steps"),
        (&["--procs", "two"], "--procs"),
        (&["--class", "Z"], "--class"),
        (&["--bytes", "-1"], "--bytes"),
        (&["--procs", "3"], "--procs"),
        (&["--procs", "0"], "--procs"),
        (&["--steps", "0"], "--steps"),
        (&["--steps", "1"], "--steps"),
        (&["--workload", "halo", "--procs", "0"], "--procs"),
        (&["--workload", "allreduce", "--procs", "0"], "--procs"),
    ] {
        let args = [&lu[..], bad].concat();
        let (code, stderr) = run_bin(gen, &args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(!out.exists(), "{args:?} wrote a trace");
        let spec = dir.join("lu.trace.platform.json");
        assert!(!spec.exists(), "{args:?} wrote a platform spec");
    }

    // The platform spec's path is a directory: the trace is written, the
    // spec is not, and the run says so.
    let spec = dir.join("lu.trace.platform.json");
    std::fs::create_dir_all(&spec).unwrap();
    let (code, stderr) = run_bin(gen, &[&lu[..], &["--steps", "2"]].concat());
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("cannot write {}", spec.display())),
        "{stderr}"
    );
    assert!(
        !stderr.contains(&format!("wrote {}", spec.display())),
        "{stderr}"
    );

    // The trace's own path is a directory.
    let (code, stderr) = run_bin(gen, &["--class", "S", "--procs", "2", "--out", arg(&dir)]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("cannot write"), "{stderr}");

    let rep = env!("CARGO_BIN_EXE_titreplay");
    let inspect = ["inspect", "--trace", arg(&out), "--ranks", "2"];
    let (code, stderr) = run_bin(rep, &inspect);
    assert_eq!(code, Some(0), "{stderr}");
    for (bad, want) in [
        (
            &["--threads", "abc"][..],
            "--threads expects a thread count",
        ),
        (&["--threads", "2"], "inspect --threads needs --profile"),
        (&["--rate", "3e9"], "inspect --rate needs --profile"),
        (
            &["--rate", "nan", "--profile"],
            "--rate expects a positive finite rate",
        ),
    ] {
        let args = [&inspect[..], bad].concat();
        let (code, stderr) = run_bin(rep, &args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
    }

    // A replay's unparsable or unusable flag value is a usage error that
    // names the flag, before any file is read.
    for (flag, value) in [
        ("--threads", "abc"),
        ("--threads", "-1"),
        ("--ranks", "two"),
        ("--rate", "nan"),
        ("--rate", "inf"),
        ("--rate", "0"),
        ("--rate", "-1"),
        ("--rate", "fast"),
    ] {
        let mut args = vec!["--platform", arg(&spec), "--trace", arg(&out)];
        for (f, v) in [("--ranks", "2"), ("--rate", "2e9")] {
            if f != flag {
                args.extend([f, v]);
            }
        }
        args.extend([flag, value]);
        let (code, stderr) = run_bin(rep, &args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        let named = format!("titreplay: {flag} expects");
        assert!(stderr.contains(&named), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
