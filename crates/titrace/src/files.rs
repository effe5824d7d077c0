//! On-disk trace layouts.
//!
//! The paper's replay tool takes "a single parameter, a file that lists
//! the names of the trace files to associate to each process. If this
//! file contains a single entry, all the processes will look for the
//! actions they have to perform into the same trace." This module
//! implements both layouts:
//!
//! * **merged** — one file holding every rank's actions (rank prefixes
//!   disambiguate);
//! * **split** — one file per rank plus a *description file* listing
//!   them, one path per line (the natural output of a distributed
//!   acquisition where every process writes locally).
//!
//! Description entries are either all *implicit* (line order assigns
//! ranks 0, 1, …) or all *explicit* (`pK path` pins a file to rank K,
//! in any order); the entries are validated — duplicate ranks,
//! non-contiguous explicit assignments, and duplicate paths are
//! rejected with the description file named in the error. Split files
//! load in parallel over the ingest worker pool, and a parse failure
//! names the fragment that failed, not the description file.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use crate::stream::{self, parse_line_bytes};
use crate::{binfmt, parse, write, Action, Rank, Trace};

/// Errors raised by file operations.
#[derive(Debug)]
pub enum FileError {
    /// Underlying I/O failure, with the offending path.
    Io(PathBuf, io::Error),
    /// Trace text failed to parse — the path is the file that failed
    /// (for a split layout, the fragment, not the description file).
    Parse(PathBuf, parse::ParseError),
    /// Binary trace data failed to decode.
    Bin(PathBuf, binfmt::BinError),
    /// The description file is malformed.
    Description(PathBuf, String),
}

impl std::fmt::Display for FileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            FileError::Parse(p, e) => write!(f, "{}: {e}", p.display()),
            FileError::Bin(p, e) => write!(f, "{}: {e}", p.display()),
            FileError::Description(p, msg) => {
                write!(f, "{}: trace description: {msg}", p.display())
            }
        }
    }
}

impl std::error::Error for FileError {}

/// Writes the whole trace as one merged file, streaming through a
/// buffered writer (no whole-trace `String`).
///
/// # Errors
/// Propagates I/O failures.
pub fn write_merged(trace: &Trace, path: &Path) -> Result<(), FileError> {
    let io_err = |e: io::Error| FileError::Io(path.to_path_buf(), e);
    let mut out = io::BufWriter::new(fs::File::create(path).map_err(io_err)?);
    write::write_to(trace, &mut out).map_err(io_err)?;
    out.flush().map_err(io_err)
}

/// Writes one file per rank under `dir` (`<stem>.rank<k>.trace`) plus a
/// description file `<stem>.desc` listing them in rank order. Returns
/// the description file's path. Each rank streams through its own
/// buffered writer.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_split(trace: &Trace, dir: &Path, stem: &str) -> Result<PathBuf, FileError> {
    fs::create_dir_all(dir).map_err(|e| FileError::Io(dir.to_path_buf(), e))?;
    let desc_path = dir.join(format!("{stem}.desc"));
    let mut desc = fs::File::create(&desc_path).map_err(|e| FileError::Io(desc_path.clone(), e))?;
    for r in 0..trace.ranks() {
        let name = format!("{stem}.rank{r}.trace");
        let path = dir.join(&name);
        let io_err = |e: io::Error| FileError::Io(path.clone(), e);
        let mut out = io::BufWriter::new(fs::File::create(&path).map_err(io_err)?);
        write::write_rank_to(trace, Rank(r), &mut out).map_err(io_err)?;
        out.flush().map_err(io_err)?;
        writeln!(desc, "{name}").map_err(|e| FileError::Io(desc_path.clone(), e))?;
    }
    Ok(desc_path)
}

/// Loads a merged trace file for `ranks` processes (the streaming
/// decoder — see [`stream::load_merged`]).
///
/// # Errors
/// Propagates I/O and parse failures.
pub fn read_merged(path: &Path, ranks: u32) -> Result<Trace, FileError> {
    stream::load_merged(path, ranks)
}

/// Parses and validates a description file into `(rank, path)` entries,
/// sorted by rank. Relative paths resolve against the description
/// file's directory.
///
/// Entries are one per line; blank lines and `#` comments are skipped.
/// A line is either a bare path (implicit: line order assigns ranks
/// 0, 1, …) or `pK <path>` (explicit). The two styles cannot be mixed.
/// A single implicit entry denotes a merged trace serving all ranks.
///
/// # Errors
/// I/O failures, mixed styles, duplicate/out-of-range/non-contiguous
/// rank assignments, duplicate paths, or an entry-count mismatch.
pub fn description_entries(path: &Path, ranks: u32) -> Result<Vec<(Rank, PathBuf)>, FileError> {
    let desc_err = |msg: String| FileError::Description(path.to_path_buf(), msg);
    let text = fs::read_to_string(path).map_err(|e| FileError::Io(path.to_path_buf(), e))?;
    let base = path.parent().unwrap_or(Path::new("."));
    let mut explicit: Vec<(Rank, &str)> = Vec::new();
    let mut implicit: Vec<&str> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `pK <path>` pins the entry to rank K; a lone `pK` token stays
        // a (strange but legal) bare path.
        let mut split = line.splitn(2, char::is_whitespace);
        let first = split.next().expect("non-empty line has a first token");
        let rest = split.next().map(str::trim).filter(|r| !r.is_empty());
        match (parse_rank_token(first), rest) {
            (Some(rank), Some(p)) => explicit.push((rank, p)),
            _ => implicit.push(line),
        }
        if !explicit.is_empty() && !implicit.is_empty() {
            return Err(desc_err(format!(
                "line {}: explicit `pK path` entries cannot be mixed with bare paths",
                i + 1
            )));
        }
    }
    let resolve = |p: &str| {
        let p = Path::new(p);
        if p.is_absolute() {
            p.to_path_buf()
        } else {
            base.join(p)
        }
    };
    let entries: Vec<(Rank, PathBuf)> = if explicit.is_empty() {
        match implicit.len() {
            0 => return Err(desc_err("no trace files listed".into())),
            1 => vec![(Rank(0), resolve(implicit[0]))],
            n if n as u32 == ranks => implicit
                .iter()
                .enumerate()
                .map(|(r, p)| (Rank(r as u32), resolve(p)))
                .collect(),
            n => {
                return Err(desc_err(format!(
                    "{n} trace files listed for {ranks} ranks (need 1 or {ranks})"
                )))
            }
        }
    } else {
        if explicit.len() as u32 != ranks {
            return Err(desc_err(format!(
                "{} explicit entries for {ranks} ranks (need exactly {ranks})",
                explicit.len()
            )));
        }
        let mut seen = vec![false; ranks as usize];
        for (rank, _) in &explicit {
            if rank.0 >= ranks {
                return Err(desc_err(format!(
                    "rank {rank} out of range (trace has {ranks} ranks)"
                )));
            }
            if std::mem::replace(&mut seen[rank.as_usize()], true) {
                return Err(desc_err(format!("rank {rank} assigned twice")));
            }
        }
        if let Some(missing) = seen.iter().position(|s| !s) {
            return Err(desc_err(format!(
                "rank assignments are not contiguous: rank p{missing} has no trace file"
            )));
        }
        let mut entries: Vec<(Rank, PathBuf)> =
            explicit.into_iter().map(|(r, p)| (r, resolve(p))).collect();
        entries.sort_by_key(|(r, _)| *r);
        entries
    };
    if entries.len() > 1 {
        let mut paths: Vec<&PathBuf> = entries.iter().map(|(_, p)| p).collect();
        paths.sort();
        if let Some(w) = paths.windows(2).find(|w| w[0] == w[1]) {
            return Err(desc_err(format!(
                "trace file {} listed twice",
                w[0].display()
            )));
        }
    }
    Ok(entries)
}

fn parse_rank_token(tok: &str) -> Option<Rank> {
    tok.strip_prefix('p')?.parse::<u32>().ok().map(Rank)
}

/// Reads one rank's split fragment, checking every line's rank prefix.
fn read_fragment(path: &Path, rank: Rank) -> Result<Vec<Action>, FileError> {
    let bytes = fs::read(path).map_err(|e| FileError::Io(path.to_path_buf(), e))?;
    let mut actions = Vec::new();
    let mut line = 0usize;
    for raw in bytes.split(|&b| b == b'\n') {
        line += 1;
        match parse_line_bytes(raw, line) {
            Ok(None) => {}
            Ok(Some((r, a))) => {
                if r != rank {
                    return Err(FileError::Parse(
                        path.to_path_buf(),
                        parse::ParseError {
                            line,
                            message: format!(
                                "fragment for rank {rank} contains a line for rank {r}"
                            ),
                        },
                    ));
                }
                actions.push(a);
            }
            Err(e) => return Err(FileError::Parse(path.to_path_buf(), e)),
        }
    }
    Ok(actions)
}

/// Loads a trace through its description file. A single entry is
/// interpreted as a merged trace serving all `ranks` processes, as in
/// the paper; otherwise the per-rank fragments are read and parsed in
/// parallel over the ingest worker pool.
///
/// # Errors
/// Fails on I/O errors, parse errors (naming the offending fragment),
/// or invalid descriptions (see [`description_entries`]).
pub fn read_description(path: &Path, ranks: u32) -> Result<Trace, FileError> {
    let entries = description_entries(path, ranks)?;
    if entries.len() == 1 {
        return read_merged(&entries[0].1, ranks);
    }
    let workers = stream::worker_count(entries.len());
    let fragments: Vec<Result<Vec<Action>, FileError>> = if workers <= 1 {
        entries
            .iter()
            .map(|(rank, p)| read_fragment(p, *rank))
            .collect()
    } else {
        crossbeam::thread::scope(|s| {
            let handles: Vec<_> = entries
                .iter()
                .map(|(rank, p)| s.spawn(move |_| read_fragment(p, *rank)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fragment reader panicked"))
                .collect()
        })
        .expect("fragment scope failed")
    };
    let mut per_rank = Vec::with_capacity(fragments.len());
    for f in fragments {
        per_rank.push(f?);
    }
    Ok(Trace::from_actions(per_rank))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Action;

    fn sample() -> Trace {
        let mut t = Trace::new(3);
        for r in 0..3u32 {
            t.push(Rank(r), Action::Init);
            t.push(
                Rank(r),
                Action::Compute {
                    amount: 100.0 * f64::from(r + 1),
                },
            );
            t.push(Rank(r), Action::Allreduce { bytes: 8 });
            t.push(Rank(r), Action::Finalize);
        }
        t
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("titrace-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn merged_roundtrip() {
        let dir = tempdir("merged");
        let path = dir.join("all.trace");
        let t = sample();
        write_merged(&t, &path).unwrap();
        assert_eq!(
            fs::read(&path).unwrap(),
            write::to_string(&t).into_bytes(),
            "buffered writer must emit the canonical text"
        );
        let back = read_merged(&path, 3).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn split_roundtrip_via_description() {
        let dir = tempdir("split");
        let t = sample();
        let desc = write_split(&t, &dir, "app").unwrap();
        assert!(desc.ends_with("app.desc"));
        let back = read_description(&desc, 3).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn single_entry_description_means_merged() {
        let dir = tempdir("single");
        let t = sample();
        let merged = dir.join("all.trace");
        write_merged(&t, &merged).unwrap();
        let desc = dir.join("one.desc");
        fs::write(&desc, "all.trace\n").unwrap();
        let back = read_description(&desc, 3).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn rank_count_mismatch_is_reported() {
        let dir = tempdir("mismatch");
        let t = sample();
        let desc = write_split(&t, &dir, "app").unwrap();
        let err = read_description(&desc, 5).unwrap_err();
        assert!(matches!(err, FileError::Description(..)), "{err}");
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = read_merged(Path::new("/nonexistent/trace.txt"), 2).unwrap_err();
        assert!(matches!(err, FileError::Io(..)));
    }

    #[test]
    fn comments_and_blanks_allowed_in_description() {
        let dir = tempdir("comments");
        let t = sample();
        write_merged(&t, &dir.join("all.trace")).unwrap();
        let desc = dir.join("c.desc");
        fs::write(&desc, "# acquisition of 2012-10-05\n\nall.trace\n").unwrap();
        assert_eq!(read_description(&desc, 3).unwrap(), t);
    }

    #[test]
    fn explicit_rank_entries_load_in_any_order() {
        let dir = tempdir("explicit");
        let t = sample();
        write_split(&t, &dir, "app").unwrap();
        let desc = dir.join("explicit.desc");
        fs::write(
            &desc,
            "p2 app.rank2.trace\np0 app.rank0.trace\np1 app.rank1.trace\n",
        )
        .unwrap();
        assert_eq!(read_description(&desc, 3).unwrap(), t);
    }

    #[test]
    fn duplicate_rank_assignment_is_rejected() {
        let dir = tempdir("duprank");
        let t = sample();
        write_split(&t, &dir, "app").unwrap();
        let desc = dir.join("dup.desc");
        fs::write(
            &desc,
            "p0 app.rank0.trace\np0 app.rank1.trace\np2 app.rank2.trace\n",
        )
        .unwrap();
        let err = read_description(&desc, 3).unwrap_err();
        assert!(err.to_string().contains("assigned twice"), "{err}");
    }

    #[test]
    fn non_contiguous_rank_assignment_is_rejected() {
        let dir = tempdir("gap");
        let t = sample();
        write_split(&t, &dir, "app").unwrap();
        let desc = dir.join("gap.desc");
        // Ranks 0, 2, 3 of a 3-rank trace: p1 is missing, p3 is out of
        // range — out-of-range is reported first.
        fs::write(
            &desc,
            "p0 app.rank0.trace\np2 app.rank2.trace\np3 app.rank1.trace\n",
        )
        .unwrap();
        let err = read_description(&desc, 3).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        fs::write(
            &desc,
            "p0 app.rank0.trace\np2 app.rank2.trace\np2 app.rank1.trace\n",
        )
        .unwrap();
        let err = read_description(&desc, 3).unwrap_err();
        assert!(err.to_string().contains("assigned twice"), "{err}");
    }

    #[test]
    fn missing_explicit_rank_is_non_contiguous() {
        let dir = tempdir("gap2");
        let desc = dir.join("gap2.desc");
        fs::write(&desc, "p0 a.trace\np1 b.trace\np1 c.trace\n").unwrap();
        let err = description_entries(&desc, 3).unwrap_err();
        assert!(err.to_string().contains("assigned twice"), "{err}");
        fs::write(&desc, "p0 a.trace\np2 b.trace\n").unwrap();
        let err = description_entries(&desc, 2).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn duplicate_path_is_rejected() {
        let dir = tempdir("duppath");
        let desc = dir.join("dup.desc");
        fs::write(&desc, "a.trace\nb.trace\na.trace\n").unwrap();
        let err = description_entries(&desc, 3).unwrap_err();
        assert!(err.to_string().contains("listed twice"), "{err}");
    }

    #[test]
    fn mixed_styles_are_rejected() {
        let dir = tempdir("mixed");
        let desc = dir.join("m.desc");
        fs::write(&desc, "p0 a.trace\nb.trace\n").unwrap();
        let err = description_entries(&desc, 2).unwrap_err();
        assert!(err.to_string().contains("mixed"), "{err}");
    }

    #[test]
    fn fragment_parse_error_names_the_fragment() {
        let dir = tempdir("fragerr");
        let t = sample();
        write_split(&t, &dir, "app").unwrap();
        let bad = dir.join("app.rank1.trace");
        fs::write(&bad, "p1 teleport 3\n").unwrap();
        let err = read_description(&dir.join("app.desc"), 3).unwrap_err();
        match err {
            FileError::Parse(p, e) => {
                assert_eq!(p, bad, "error must name the failing fragment");
                assert!(e.message.contains("teleport"));
            }
            other => panic!("expected Parse, got {other}"),
        }
    }

    #[test]
    fn fragment_with_wrong_rank_names_the_fragment() {
        let dir = tempdir("fragrank");
        let t = sample();
        write_split(&t, &dir, "app").unwrap();
        let bad = dir.join("app.rank1.trace");
        fs::write(&bad, "p0 init\n").unwrap();
        let err = read_description(&dir.join("app.desc"), 3).unwrap_err();
        match err {
            FileError::Parse(p, e) => {
                assert_eq!(p, bad);
                assert!(e.message.contains("rank p1"), "{}", e.message);
            }
            other => panic!("expected Parse, got {other}"),
        }
    }
}
