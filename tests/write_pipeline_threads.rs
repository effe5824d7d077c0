//! No thread outlives a trace write. The text and `.titb` writers encode
//! ranks on worker threads; a write that fails, or whose source panics,
//! while the workers are still encoding later ranks must join them all
//! before it returns. This binary holds one test, so the process's
//! thread count moves only with the writes.

use std::path::Path;

use tit_replay::prelude::*;
use tit_replay::titrace::{binfmt, files};

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

/// Rank `rank` of a long trace that fails (or panics) at action 1 000
/// of rank 1.
struct Faulty {
    rank: u32,
    next: u64,
    panics: bool,
}

impl ActionSource for Faulty {
    fn next_action(&mut self) -> Result<Option<Action>, SourceError> {
        self.next += 1;
        if self.rank == 1 && self.next == 1_000 {
            if self.panics {
                panic!("rank 1 cannot go on");
            }
            return Err(SourceError::WaitWithoutRequest { index: 999 });
        }
        Ok((self.next <= 100_000).then_some(Action::Compute {
            amount: 1e3 + self.next as f64 / 3.0,
        }))
    }
}

fn faulty(ranks: u32, panics: bool) -> Vec<Faulty> {
    (0..ranks)
        .map(|rank| Faulty {
            rank,
            next: 0,
            panics,
        })
        .collect()
}

#[test]
fn a_failed_write_leaves_no_thread_behind() {
    let dir = std::env::temp_dir().join(format!("titr-write-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let text = dir.join("faulty.trace");
    let titb = dir.join("faulty.titb");
    let absent = |p: &Path| assert!(!p.exists(), "{} was left behind", p.display());

    let before = threads();
    for _ in 0..5 {
        for panics in [false, true] {
            let want = if panics {
                "the action source panicked: rank 1 cannot go on"
            } else {
                "action 999 waits with no outstanding request"
            };
            let e = files::write_merged_sources(faulty(16, panics), &text)
                .unwrap()
                .unwrap_err();
            assert_eq!(e.to_string(), want);
            absent(&text);
            assert_eq!(threads(), before, "a thread outlived the text write");
            let e = binfmt::write_sources(faulty(16, panics), &titb, None)
                .unwrap()
                .unwrap_err();
            assert_eq!(e.to_string(), want);
            absent(&titb);
            assert_eq!(threads(), before, "a thread outlived the .titb write");
        }
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "a temp file was left"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
