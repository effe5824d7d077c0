//! A sequential replay of text decodes it on a helper thread
//! (`titrace::ahead`); these tests pin that the replay still meets
//! exactly the stream it would decode itself: the same results as the
//! `.titb` of the same trace, which decodes inline, and the same error
//! as every other reader of a damaged file.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

use tit_replay::prelude::*;
use tit_replay::replay;
use tit_replay::titrace::{binfmt, files, stream};

/// A fresh directory for one test case.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("titr-ahead-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A valid trace of `ranks` ranks: `init`, one phase per entry of
/// `phases` — `(kind, bytes, amount)` picks computes, a non-blocking
/// ring, blocking pairs, an allreduce or a rooted broadcast — then
/// `finalize`.
fn phased_trace(ranks: u32, phases: &[(u8, u64, f64)]) -> Trace {
    let mut trace = Trace::new(ranks);
    for r in 0..ranks {
        trace.push(Rank(r), Action::Init);
    }
    for &(kind, bytes, amount) in phases {
        for r in 0..ranks {
            let (left, right) = (Rank((r + ranks - 1) % ranks), Rank((r + 1) % ranks));
            let mut push = |a| trace.push(Rank(r), a);
            match kind % 5 {
                0 => push(Action::Compute {
                    amount: amount * f64::from(r + 1),
                }),
                1 => {
                    push(Action::Irecv { src: left, bytes });
                    push(Action::Isend { dst: right, bytes });
                    push(Action::WaitAll);
                }
                2 if r % 2 == 0 && r + 1 < ranks => push(Action::Send { dst: right, bytes }),
                2 if r % 2 == 1 => push(Action::Recv { src: left, bytes }),
                2 => push(Action::Compute { amount }),
                3 => push(Action::Allreduce { bytes }),
                _ => push(Action::Bcast {
                    bytes,
                    root: Rank((bytes % u64::from(ranks)) as u32),
                }),
            }
        }
    }
    for r in 0..ranks {
        trace.push(Rank(r), Action::Finalize);
    }
    trace
}

/// `--metrics` and the manifest (its wall time and input signature
/// fixed) of one replay.
fn outputs(
    platform: &Platform,
    input: &TraceInput,
    ranks: u32,
    config: &ReplayConfig,
) -> (String, String) {
    let report = replay_input_observed(platform, input, ranks, config, false).unwrap();
    let manifest = replay::manifest(platform, "", config, &report, 0.0);
    (report.metrics.to_json(), manifest.to_json())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Text the writer emits, replayed sequentially (decoded ahead), and
    /// its `.titb` (decoded inline) give byte-equal metrics and
    /// manifests, on both engines. Phases run long enough that every
    /// rank crosses many hand-off batches.
    #[test]
    fn text_decoded_ahead_replays_as_its_titb(
        ranks in 2u32..9,
        phases in proptest::collection::vec((0u8..5, 0u64..200_000, 1.0f64..1e7), 1..80),
        msg in 0u8..2,
    ) {
        let dir = fresh_dir("prop");
        let trace = phased_trace(ranks, &phases);
        let text = dir.join("t.trace");
        let bin = dir.join("t.titb");
        files::write_merged(&trace, &text).unwrap();
        binfmt::write_file(&trace, &bin, None).unwrap();
        let platform = tit_replay::platform::clusters::graphene();
        let config = ReplayConfig {
            engine: if msg == 1 { ReplayEngine::Msg } else { ReplayEngine::Smpi },
            threads: 1,
            ..ReplayConfig::improved(2e9)
        };
        let from_text = outputs(&platform, &TraceInput::MergedText(text), ranks, &config);
        let from_bin = outputs(&platform, &TraceInput::Binary(bin), ranks, &config);
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(from_text, from_bin);
    }
}

/// A damaged line deep in one rank's stream, far past the batches the
/// helper decodes first, fails the sequential replay with the message
/// `trace pack` gives for the file, under that rank.
#[test]
fn a_damaged_line_deep_in_a_rank_fails_as_trace_pack_does() {
    let dir = fresh_dir("damaged");
    let ranks = 4;
    let phases: Vec<(u8, u64, f64)> = (0..400u32).map(|i| ((i % 5) as u8, 4096, 1e5)).collect();
    let clean = dir.join("clean.trace");
    files::write_merged(&phased_trace(ranks, &phases), &clean).unwrap();
    let text = std::fs::read_to_string(&clean).unwrap();
    let rank2: Vec<usize> = (text.lines().enumerate())
        .filter(|(_, l)| l.starts_with("p2 "))
        .map(|(i, _)| i)
        .collect();
    let bad_line = rank2[rank2.len() * 3 / 4];
    let damaged: String = (text.lines().enumerate())
        .map(|(i, l)| match i == bad_line {
            true => "p2 compute 1e5 trailing\n".to_string(),
            false => format!("{l}\n"),
        })
        .collect();
    let path = dir.join("damaged.trace");
    std::fs::write(&path, damaged).unwrap();

    let input = TraceInput::MergedText(path.clone());
    let packed = dir.join("damaged.titb");
    let pack = binfmt::write_sources(stream::open_sources(&input, ranks).unwrap(), &packed, None)
        .unwrap()
        .unwrap_err()
        .to_string();
    assert!(
        pack.contains(&format!("line {}", bad_line + 1)),
        "pack: {pack}"
    );
    let platform = tit_replay::platform::clusters::graphene();
    for engine in [ReplayEngine::Smpi, ReplayEngine::Msg] {
        let config = ReplayConfig {
            engine,
            threads: 1,
            ..ReplayConfig::improved(2e9)
        };
        let err = replay_input_observed(&platform, &input, ranks, &config, false).unwrap_err();
        assert_eq!(
            err,
            format!("rank p2 trace stream failed: {pack}"),
            "{engine:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The helper reports how long the replay waited for it, and the island
/// engine and `.titb` inputs, which decode inline, report nothing.
#[test]
fn only_a_sequential_text_replay_reports_decode_waits() {
    let dir = fresh_dir("profile");
    let ranks = 8;
    let phases: Vec<(u8, u64, f64)> = (0..200u32).map(|i| ((i % 2) as u8, 4096, 1e5)).collect();
    let trace = Arc::new(phased_trace(ranks, &phases));
    let text = dir.join("t.trace");
    let bin = dir.join("t.titb");
    files::write_merged(&trace, &text).unwrap();
    binfmt::write_file(&trace, &bin, None).unwrap();
    let platform = tit_replay::platform::clusters::graphene();
    let at = |threads| ReplayConfig {
        threads,
        ..ReplayConfig::improved(2e9)
    };
    let profile = |input: &TraceInput, threads| {
        let report = replay_input_observed(&platform, input, ranks, &at(threads), false).unwrap();
        report.profile
    };
    let ahead = profile(&TraceInput::MergedText(text.clone()), 1);
    assert!(
        ahead.decode_parks >= 1,
        "the helper parks at least at the end"
    );
    assert!(ahead.decode_wait_s >= 0.0);
    assert!(ahead.to_json().contains("\"decode_parks\": "));
    for (input, threads) in [
        (TraceInput::Binary(bin), 1),
        (TraceInput::Memory(trace), 1),
        (TraceInput::MergedText(text), 2),
    ] {
        let p = profile(&input, threads);
        assert_eq!((p.decode_wait_s, p.decode_parks), (0.0, 0), "{input:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
