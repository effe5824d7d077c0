//! Parsing the text trace format.
//!
//! Accepts the output of [`crate::write`] plus common variants: rank tokens
//! with or without the `p` prefix, blank lines, and `#` comments. Parsing
//! a merged file demultiplexes lines into per-rank streams by their rank
//! prefix.
//!
//! [`parse_merged`] is a thin wrapper over the zero-copy byte decoder in
//! [`crate::stream`], so both paths accept exactly the same language by
//! construction.

use crate::{stream, Trace};

/// A parse failure, with 1-based line number and explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line where the failure occurred (1-based).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a merged trace file containing the actions of `ranks` processes.
/// Lines may appear in any order; each rank's relative order is preserved.
pub fn parse_merged(text: &str, ranks: u32) -> Result<Trace, ParseError> {
    stream::parse_merged_bytes(text.as_bytes(), ranks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write;
    use crate::{Action, Rank};

    #[test]
    fn parses_paper_snippet() {
        let text = "p0 compute 956140\np0 send p1 1240\np0 compute 2110\np0 send p2 1240\np0 compute 3821\n";
        let t = parse_merged(text, 3).unwrap();
        assert_eq!(t.actions(Rank(0)).len(), 5);
        assert_eq!(t.actions(Rank(0))[0], Action::Compute { amount: 956140.0 });
        assert_eq!(
            t.actions(Rank(0))[1],
            Action::Send {
                dst: Rank(1),
                bytes: 1240
            }
        );
    }

    #[test]
    fn accepts_bare_integer_ranks_and_comments() {
        let text = "# acquired 2012-10-05\n\n0 compute 10\n0 send 1 64\n1 recv 0 64\n";
        let t = parse_merged(text, 2).unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn rejects_unknown_verb() {
        let e = parse_merged("p0 teleport 3\n", 1).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("teleport"));
    }

    #[test]
    fn rejects_out_of_range_rank() {
        let e = parse_merged("p9 compute 1\n", 2).unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn rejects_missing_argument() {
        let e = parse_merged("p0 send p1\n", 2).unwrap_err();
        assert!(e.message.contains("missing size"));
    }

    #[test]
    fn rejects_trailing_tokens() {
        let e = parse_merged("p0 wait now\n", 1).unwrap_err();
        assert!(e.message.contains("trailing"));
    }

    #[test]
    fn rejects_negative_compute() {
        let e = parse_merged("p0 compute -5\n", 1).unwrap_err();
        assert!(e.message.contains("out of range") || e.message.contains("invalid"));
    }

    /// Loads per-rank fragment files (one per rank, as a distributed
    /// acquisition writes them) through a `.desc` description.
    fn load_fragments(tag: &str, fragments: &[&str]) -> Result<Trace, crate::files::FileError> {
        let dir = std::env::temp_dir().join(format!("titrace-parse-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut desc = String::new();
        for (r, text) in fragments.iter().enumerate() {
            std::fs::write(dir.join(format!("r{r}.trace")), text).unwrap();
            desc.push_str(&format!("r{r}.trace\n"));
        }
        std::fs::write(dir.join("t.desc"), desc).unwrap();
        let input = crate::TraceInput::Description(dir.join("t.desc"));
        let loaded = stream::load_trace(&input, fragments.len() as u32);
        std::fs::remove_dir_all(&dir).unwrap();
        loaded
    }

    #[test]
    fn per_rank_fragments() {
        let frags = [
            "p0 init\np0 send p1 8\np0 finalize\n",
            "p1 init\np1 recv p0 8\np1 finalize\n",
        ];
        let t = load_fragments("frags", &frags).unwrap();
        assert_eq!(t.ranks(), 2);
        assert_eq!(
            t.actions(Rank(1))[1],
            Action::Recv {
                src: Rank(0),
                bytes: 8
            }
        );
    }

    #[test]
    fn per_rank_fragment_with_wrong_rank_fails() {
        let frags = ["p1 init\n", "p1 init\n"];
        assert!(load_fragments("wrong-rank", &frags).is_err());
    }

    #[test]
    fn roundtrip_all_action_kinds() {
        let mut t = Trace::new(3);
        let actions = vec![
            Action::Init,
            Action::Compute { amount: 12345.0 },
            Action::Send {
                dst: Rank(1),
                bytes: 100,
            },
            Action::Isend {
                dst: Rank(2),
                bytes: 200,
            },
            Action::Recv {
                src: Rank(1),
                bytes: 300,
            },
            Action::Irecv {
                src: Rank(2),
                bytes: 400,
            },
            Action::Wait,
            Action::WaitAll,
            Action::Barrier,
            Action::Bcast {
                bytes: 8,
                root: Rank(0),
            },
            Action::Reduce {
                bytes: 16,
                root: Rank(1),
            },
            Action::Allreduce { bytes: 40 },
            Action::Alltoall { bytes: 64 },
            Action::Gather {
                bytes: 32,
                root: Rank(2),
            },
            Action::Allgather { bytes: 24 },
            Action::Finalize,
        ];
        for a in &actions {
            t.push(Rank(0), *a);
        }
        let text = write::to_string(&t);
        let back = parse_merged(&text, 3).unwrap();
        assert_eq!(back.actions(Rank(0)), t.actions(Rank(0)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::write;
    use crate::{Action, Rank};
    use proptest::prelude::*;

    fn arb_action(ranks: u32) -> impl Strategy<Value = Action> {
        let r = 0..ranks;
        prop_oneof![
            Just(Action::Init),
            Just(Action::Finalize),
            (0u64..=1u64 << 48).prop_map(|a| Action::Compute { amount: a as f64 }),
            (r.clone(), 0u64..1 << 30).prop_map(|(d, b)| Action::Send {
                dst: Rank(d),
                bytes: b
            }),
            (r.clone(), 0u64..1 << 30).prop_map(|(d, b)| Action::Isend {
                dst: Rank(d),
                bytes: b
            }),
            (r.clone(), 0u64..1 << 30).prop_map(|(s, b)| Action::Recv {
                src: Rank(s),
                bytes: b
            }),
            (r.clone(), 0u64..1 << 30).prop_map(|(s, b)| Action::Irecv {
                src: Rank(s),
                bytes: b
            }),
            Just(Action::Wait),
            Just(Action::WaitAll),
            Just(Action::Barrier),
            (0u64..1 << 20, r.clone()).prop_map(|(b, ro)| Action::Bcast {
                bytes: b,
                root: Rank(ro)
            }),
            (0u64..1 << 20, r.clone()).prop_map(|(b, ro)| Action::Reduce {
                bytes: b,
                root: Rank(ro)
            }),
            (0u64..1 << 20).prop_map(|b| Action::Allreduce { bytes: b }),
            (0u64..1 << 20).prop_map(|b| Action::Alltoall { bytes: b }),
            (0u64..1 << 20, r).prop_map(|(b, ro)| Action::Gather {
                bytes: b,
                root: Rank(ro)
            }),
            (0u64..1 << 20).prop_map(|b| Action::Allgather { bytes: b }),
        ]
    }

    proptest! {
        /// write → parse is the identity on arbitrary traces.
        #[test]
        fn roundtrip(actions in proptest::collection::vec(arb_action(4), 0..200)) {
            let mut t = Trace::new(4);
            for (i, a) in actions.iter().enumerate() {
                t.push(Rank((i % 4) as u32), *a);
            }
            let text = write::to_string(&t);
            let back = parse_merged(&text, 4).unwrap();
            prop_assert_eq!(back, t);
        }
    }
}

#[cfg(test)]
mod fuzz {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The parser never panics on arbitrary input: every line either
        /// parses or yields a structured error.
        #[test]
        fn parser_is_total_on_arbitrary_text(text in "\\PC*") {
            let _ = parse_merged(&text, 8);
        }

        /// Arbitrary whitespace-separated token soup is likewise safe.
        #[test]
        fn parser_is_total_on_token_soup(
            tokens in proptest::collection::vec("[a-z0-9p\\-\\.]{0,12}", 0..40),
        ) {
            let line = tokens.join(" ");
            let _ = stream::parse_line_bytes(line.as_bytes(), 1);
        }
    }
}
