//! What-if query parsing, the shared trace store, and query execution.
//!
//! A query is JSON of the same three inputs a `titreplay` CLI run
//! takes — trace reference, platform spec, replay configuration:
//!
//! ```json
//! {
//!   "trace": "lu.trace",
//!   "ranks": 8,
//!   "platform": { "name": "...", "kind": { ... } },
//!   "config": { "rate": 2.05e9, "engine": "smpi", "threads": 2 }
//! }
//! ```
//!
//! `platform` is either an inline [`PlatformSpec`] object or a string
//! path to a spec file on the server. `config` accepts the same knobs
//! as the CLI flags (`rate`, `engine`, `threads`) with the same
//! defaults, and rejects any other field — a retired knob included — with
//! `unknown config field`, so a `/predict` response is
//! byte-identical to the manifest the CLI writes for the same inputs
//! (modulo the wall-time field, the one non-deterministic entry).
//!
//! The [`TraceStore`] keeps each trace *opened*, as `titreplay` opens it
//! — merged text through [`stream::open_merged_cached`], so the on-disk
//! side-car and the store stay coherent; a `.titb` or description
//! through [`stream::open_input`] — keyed on the source path and
//! re-opened when the size+mtime signature the side-car cache uses
//! changes. Every execution streams the opened input through bounded
//! per-rank windows, like the CLI, so the server's memory does not grow
//! with trace length. Each entry keeps one open file.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Value};
use tit_replay::prelude::*;
use tit_replay::querykey::QueryKey;
use tit_replay::replay;
use tit_replay::simkernel::obs::json_string;
use tit_replay::titrace::{binfmt, stream, TraceInput, TraceStats};

/// One parsed what-if query.
#[derive(Debug, Clone)]
pub struct WhatIfQuery {
    /// Trace reference: a path on the server (text, `.desc`, `.titb`).
    pub trace: String,
    /// Number of ranks the trace was acquired with.
    pub ranks: u32,
    /// The platform to predict for.
    pub spec: PlatformSpec,
    /// Full replay configuration (CLI defaults applied).
    pub config: ReplayConfig,
}

impl WhatIfQuery {
    /// Parses a query body. Unknown fields are rejected — a typo in a
    /// what-if knob must not silently fall back to a default.
    pub fn parse(body: &str) -> Result<WhatIfQuery, String> {
        let v: Value = serde_json::from_str(body).map_err(|e| format!("bad query JSON: {e}"))?;
        let obj = v.as_object().ok_or("query must be a JSON object")?;
        for (key, _) in obj {
            if !matches!(key.as_str(), "trace" | "ranks" | "platform" | "config") {
                return Err(format!("unknown query field '{key}'"));
            }
        }
        let trace = v
            .get("trace")
            .and_then(Value::as_str)
            .ok_or("query needs a 'trace' path string")?
            .to_string();
        let ranks = v
            .get("ranks")
            .and_then(Value::as_f64)
            .filter(|r| *r >= 1.0 && r.fract() == 0.0)
            .ok_or("query needs an integer 'ranks' >= 1")? as u32;
        let spec = match v.get("platform") {
            Some(Value::String(path)) => {
                let json = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read platform {path}: {e}"))?;
                PlatformSpec::from_json(&json).map_err(|e| format!("bad platform spec: {e}"))?
            }
            Some(inline @ Value::Object(_)) => {
                PlatformSpec::from_value(inline).map_err(|e| format!("bad platform spec: {e}"))?
            }
            _ => return Err("query needs a 'platform' (inline spec or path string)".into()),
        };
        let config = parse_config(v.get("config").unwrap_or(&Value::Null))?;
        Ok(WhatIfQuery {
            trace,
            ranks,
            spec,
            config,
        })
    }
}

/// Parses the `config` object with exactly the CLI's defaults:
/// SMPI engine, one-per-node placement, no copy model,
/// `TITR_REPLAY_THREADS`-or-1 threads.
fn parse_config(v: &Value) -> Result<ReplayConfig, String> {
    let obj = match v {
        Value::Null => &[][..],
        Value::Object(pairs) => pairs.as_slice(),
        _ => return Err("'config' must be an object".into()),
    };
    let mut config = ReplayConfig::improved(0.0);
    let mut rate = None;
    for (key, val) in obj {
        match key.as_str() {
            "rate" => rate = val.as_f64(),
            "engine" => match val.as_str() {
                Some("smpi") => config.engine = ReplayEngine::Smpi,
                Some("msg") => config.engine = ReplayEngine::Msg,
                other => return Err(format!("bad engine {other:?} (want smpi|msg)")),
            },
            "threads" => {
                config.threads =
                    val.as_f64()
                        .filter(|t| *t >= 1.0 && t.fract() == 0.0)
                        .ok_or("'threads' must be an integer >= 1")? as usize;
            }
            other => return Err(format!("unknown config field '{other}'")),
        }
    }
    config.rate = rate
        .filter(|r| r.is_finite() && *r > 0.0)
        .ok_or("config needs a positive finite 'rate' (instructions/s)")?;
    Ok(config)
}

/// A trace opened for replay, as `titreplay` opens it: the input every
/// execution streams its per-rank cursors from (a `.titb` handle — a
/// side-car hit included — an indexed text file, or a multi-fragment
/// description), the rank count it was opened for, and its action count.
/// Holds at most one open file and its block table or run index, never
/// actions.
#[derive(Debug, Clone)]
pub struct OpenTrace {
    input: TraceInput,
    ranks: u32,
    actions: u64,
}

impl OpenTrace {
    /// The opened input, ready for [`replay_input_observed`].
    pub fn input(&self) -> &TraceInput {
        &self.input
    }

    /// The rank count the trace was opened for.
    pub fn ranks(&self) -> u32 {
        self.ranks
    }

    /// Total actions over all ranks.
    pub fn len(&self) -> u64 {
        self.actions
    }

    /// True when the trace holds no action.
    pub fn is_empty(&self) -> bool {
        self.actions == 0
    }
}

/// A trace resolved through the store: identity plus the opened input.
#[derive(Debug, Clone)]
pub struct ResolvedTrace {
    /// The CLI-equivalent manifest signature (computed from the path
    /// input *before* any cache substitution, exactly as `titreplay`
    /// does, so manifests byte-match).
    pub signature: String,
    /// The opened trace, shared across all requests touching it.
    pub trace: OpenTrace,
    /// Canonical content checksum (the `.titb` header checksum).
    pub checksum: u64,
}

impl ResolvedTrace {
    /// Opens `path` for `ranks` ranks the way `titreplay` does: merged
    /// text through its `.titb` side-car when `sidecar` is set (a hit, or
    /// the side-car a miss writes, opens as a `.titb`; otherwise the text
    /// is indexed), every other layout opened as given. The checksum of a
    /// `.titb` is its header's; any other input is hashed in one
    /// streaming pass over its cursors.
    fn open(path: &Path, ranks: u32, sidecar: bool) -> Result<ResolvedTrace, String> {
        let detected = TraceInput::detect(path).map_err(|e| e.to_string())?;
        let signature = replay::trace_signature(&detected, ranks);
        let input = match &detected {
            TraceInput::MergedText(p) => stream::open_merged_cached(p, ranks, sidecar).map(|o| o.0),
            other => stream::open_input(other, ranks),
        }
        .map_err(|e| e.to_string())?;
        let (checksum, actions) = match &input {
            TraceInput::OpenBinary(titb) => (titb.header().checksum, titb.header().total_actions()),
            other => {
                let sources = stream::open_sources(other, ranks).map_err(|e| e.to_string())?;
                binfmt::content_checksum(sources).map_err(|e| e.to_string())?
            }
        };
        Ok(ResolvedTrace {
            signature,
            trace: OpenTrace {
                input,
                ranks,
                actions,
            },
            checksum,
        })
    }
}

struct StoreEntry {
    source_sig: Option<(u64, u64)>,
    resolved: ResolvedTrace,
}

/// Shared store of opened traces, keyed on source path and re-opened
/// when the source's size+mtime signature (the side-car's) changes.
/// Each entry keeps one open file and its block table or run index, so
/// the store grows with the number of distinct traces asked about, not
/// with their length.
#[derive(Default)]
pub struct TraceStore {
    entries: Mutex<HashMap<PathBuf, StoreEntry>>,
}

impl TraceStore {
    /// Creates an empty store.
    pub fn new() -> TraceStore {
        TraceStore::default()
    }

    /// The entries; a poisoned lock is recovered, since every critical
    /// section leaves the map whole.
    fn entries(&self) -> MutexGuard<'_, HashMap<PathBuf, StoreEntry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of traces currently held open.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// True when no trace is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes the open handles keep between requests: the `.titb`
    /// block tables and text run indices
    /// ([`TraceInput::held_bytes`]).
    pub fn held_bytes(&self) -> u64 {
        let entries = self.entries();
        entries
            .values()
            .map(|e| e.resolved.trace.input.held_bytes())
            .sum()
    }

    /// Resolves `path` to a shared opened trace, opening it (and, for
    /// merged text with `sidecar` set, side-car-caching it) on first use
    /// and whenever its source signature changed.
    pub fn resolve(&self, path: &str, ranks: u32, sidecar: bool) -> Result<ResolvedTrace, String> {
        let path_buf = PathBuf::from(path);
        let source_sig = stream::source_signature(&path_buf).ok();
        if let Some(entry) = self.entries().get(&path_buf) {
            if entry.source_sig == source_sig {
                if entry.resolved.trace.ranks != ranks {
                    return Err(format!(
                        "trace {path} has {} ranks, query says {ranks}",
                        entry.resolved.trace.ranks
                    ));
                }
                return Ok(entry.resolved.clone());
            }
        }
        // Open outside the lock: a slow index or checksum pass must not
        // serialize requests for *other* traces. Two racing opens of the
        // same trace both succeed and the second insert wins — identical
        // content either way.
        let resolved = ResolvedTrace::open(&path_buf, ranks, sidecar)?;
        self.entries().insert(
            path_buf,
            StoreEntry {
                source_sig,
                resolved: resolved.clone(),
            },
        );
        Ok(resolved)
    }
}

/// The canonical memo key for a resolved query.
pub fn query_key(q: &WhatIfQuery, resolved: &ResolvedTrace) -> QueryKey {
    QueryKey::from_parts(resolved.checksum, &q.spec, &q.config, q.ranks)
}

/// Executes one query and renders the manifest envelope — the exact
/// flow of a `titreplay --manifest` run: replay the opened trace through
/// per-rank windows, measure wall time, assemble [`replay::manifest`],
/// serialize with its deterministic writer.
pub fn execute(q: &WhatIfQuery, resolved: &ResolvedTrace) -> Result<String, String> {
    let platform = q.spec.build();
    let started = std::time::Instant::now();
    let report =
        replay_input_observed(&platform, resolved.trace.input(), q.ranks, &q.config, false)?;
    let wall = started.elapsed().as_secs_f64();
    let man = replay::manifest(&platform, &resolved.signature, &q.config, &report, wall);
    Ok(man.to_json())
}

/// Summarises a trace without replaying it (the `/inspect` endpoint):
/// the CLI `titreplay inspect` counters as deterministic JSON, counted
/// by draining the opened trace's cursors.
pub fn inspect(
    path: &str,
    ranks: u32,
    store: &TraceStore,
    sidecar: bool,
) -> Result<String, String> {
    let resolved = store.resolve(path, ranks, sidecar)?;
    let t = &resolved.trace;
    let sources = stream::open_sources(t.input(), t.ranks()).map_err(|e| e.to_string())?;
    let total = TraceStats::from_sources(sources)
        .map_err(|e| e.to_string())?
        .total();
    Ok(format!(
        "{{\n  \"trace_signature\": {},\n  \"content_checksum\": \"{:016x}\",\n  \
         \"ranks\": {},\n  \"actions\": {},\n  \"sends\": {},\n  \"recvs\": {},\n  \
         \"waits\": {},\n  \"computes\": {},\n  \"collectives\": {},\n  \
         \"payload_bytes\": {},\n  \"compute_instructions\": {:.0}\n}}",
        json_string(&resolved.signature),
        resolved.checksum,
        t.ranks(),
        t.len(),
        total.sends,
        total.recvs,
        total.waits,
        total.compute_actions,
        total.collectives,
        total.bytes_sent,
        total.compute_instructions,
    ))
}

/// Convenience used by the binary and tests: detect-and-signature for
/// a path, without loading.
pub fn signature_of(path: &str, ranks: u32) -> Result<String, String> {
    let input = TraceInput::detect(Path::new(path)).map_err(|e| e.to_string())?;
    Ok(replay::trace_signature(&input, ranks))
}
