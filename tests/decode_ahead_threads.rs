//! No thread outlives a replay. A sequential replay of text decodes on a
//! helper thread; a replay that fails at once, while that thread is
//! still decoding far ahead of it, must stop and join it before it
//! returns. This binary holds one test, so the process's thread count
//! moves only with the replay.

use tit_replay::prelude::*;
use tit_replay::titrace::files;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

#[test]
fn an_early_deadlock_leaves_no_thread_behind() {
    let dir = std::env::temp_dir().join(format!("titr-ahead-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Ranks 0 and 1 open with rendezvous sends to each other, a deadlock
    // the replay finds at its first events; every rank has thousands of
    // actions after that for the helper to decode.
    let ranks = 64;
    let mut trace = Trace::new(ranks);
    for r in 0..ranks {
        trace.push(Rank(r), Action::Init);
        if r < 2 {
            let peer = Rank(1 - r);
            trace.push(
                Rank(r),
                Action::Send {
                    dst: peer,
                    bytes: 1 << 20,
                },
            );
            trace.push(
                Rank(r),
                Action::Recv {
                    src: peer,
                    bytes: 1 << 20,
                },
            );
        }
        for i in 0..2000 {
            trace.push(
                Rank(r),
                Action::Compute {
                    amount: 1e3 + f64::from(i),
                },
            );
        }
        trace.push(Rank(r), Action::Finalize);
    }
    let path = dir.join("deadlock.trace");
    files::write_merged(&trace, &path).unwrap();
    drop(trace);
    let platform = tit_replay::platform::clusters::graphene();
    let config = ReplayConfig {
        threads: 1,
        ..ReplayConfig::improved(2e9)
    };
    let input = TraceInput::MergedText(path);

    let before = threads();
    for _ in 0..5 {
        let err = replay_input_observed(&platform, &input, ranks, &config, false).unwrap_err();
        assert!(err.contains("deadlock"), "{err}");
        assert!(err.contains("rank 0: send to 1"), "{err}");
        assert_eq!(threads(), before, "a thread outlived the replay");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
