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
//!   "config": { "rate": 2.05e9, "engine": "smpi", "sharing": "bottleneck" }
//! }
//! ```
//!
//! `platform` is either an inline [`PlatformSpec`] object or a string
//! path to a spec file on the server. `config` accepts the same knobs
//! as the CLI flags with the same defaults, so a `/predict` response is
//! byte-identical to the manifest the CLI writes for the same inputs
//! (modulo the wall-time field, the one non-deterministic entry).
//!
//! The [`TraceStore`] keeps hot decoded traces as `Arc<Trace>` shared
//! across requests, keyed on the source path and invalidated by the
//! same size+mtime signature the `.titb` side-car cache uses — a cold
//! open still goes through [`stream::load_merged_cached`], so the
//! on-disk side-car and the in-process store stay coherent.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Value};
use tit_replay::prelude::*;
use tit_replay::querykey::QueryKey;
use tit_replay::replay;
use tit_replay::titrace::{binfmt, stream, TraceInput};

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
/// SMPI engine, bottleneck sharing, one-per-node placement, no copy
/// model, default FEL, `TITR_REPLAY_THREADS`-or-1 threads.
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
            "sharing" => match val.as_str() {
                Some("bottleneck") => {
                    config.sharing = tit_replay::netmodel::SharingPolicy::Bottleneck;
                }
                Some("maxmin") => config.sharing = tit_replay::netmodel::SharingPolicy::MaxMin,
                Some("maxmin-full") => {
                    config.sharing = tit_replay::netmodel::SharingPolicy::MaxMinFull;
                }
                other => {
                    return Err(format!(
                        "bad sharing {other:?} (want bottleneck|maxmin|maxmin-full)"
                    ))
                }
            },
            "threads" => {
                config.threads =
                    val.as_f64()
                        .filter(|t| *t >= 1.0 && t.fract() == 0.0)
                        .ok_or("'threads' must be an integer >= 1")? as usize;
            }
            "window_s" => {
                let w = val.as_f64().ok_or("'window_s' must be a number")?;
                if !w.is_finite() || w <= 0.0 {
                    return Err("'window_s' must be positive and finite".into());
                }
                config.window_s = Some(w);
            }
            other => return Err(format!("unknown config field '{other}'")),
        }
    }
    config.rate = rate
        .filter(|r| r.is_finite() && *r > 0.0)
        .ok_or("config needs a positive finite 'rate' (instructions/s)")?;
    if config.window_s.is_some() && config.threads <= 1 {
        return Err("'window_s' requires threads >= 2".into());
    }
    Ok(config)
}

/// A trace resolved through the store: identity plus shared payload.
#[derive(Clone)]
pub struct ResolvedTrace {
    /// The CLI-equivalent manifest signature (computed from the path
    /// input *before* any cache substitution, exactly as `titreplay`
    /// does, so manifests byte-match).
    pub signature: String,
    /// The decoded trace, shared across all requests touching it.
    pub trace: Arc<Trace>,
    /// Canonical content checksum (the `.titb` header checksum).
    pub checksum: u64,
}

struct StoreEntry {
    source_sig: Option<(u64, u64)>,
    trace: Arc<Trace>,
    checksum: u64,
}

/// Shared cache of hot decoded traces, keyed on source path and
/// invalidated by the side-car's size+mtime signature.
#[derive(Default)]
pub struct TraceStore {
    entries: Mutex<HashMap<PathBuf, StoreEntry>>,
}

impl TraceStore {
    /// Creates an empty store.
    pub fn new() -> TraceStore {
        TraceStore::default()
    }

    /// Number of traces currently held hot.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// True when no trace is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes of the decoded traces held hot: the
    /// per-entry action storage (`actions * sizeof(Action)`) plus the
    /// per-rank index. Good enough to watch unbounded growth; not an
    /// allocator-accurate figure.
    pub fn approx_bytes(&self) -> u64 {
        let entries = self.entries.lock().unwrap();
        entries
            .values()
            .map(|e| {
                e.trace.len() as u64 * std::mem::size_of::<Action>() as u64
                    + u64::from(e.trace.ranks()) * std::mem::size_of::<usize>() as u64
            })
            .sum()
    }

    /// Resolves `path` to a shared decoded trace, loading (and, for
    /// merged text with `sidecar` set, side-car-caching) on first use.
    pub fn resolve(&self, path: &str, ranks: u32, sidecar: bool) -> Result<ResolvedTrace, String> {
        let path_buf = PathBuf::from(path);
        let input = TraceInput::detect(&path_buf).map_err(|e| e.to_string())?;
        let signature = replay::trace_signature(&input, ranks);
        let source_sig = stream::source_signature(&path_buf).ok();
        {
            let entries = self.entries.lock().unwrap();
            if let Some(entry) = entries.get(&path_buf) {
                if entry.source_sig == source_sig {
                    if entry.trace.ranks() != ranks {
                        return Err(format!(
                            "trace {path} has {} ranks, query says {ranks}",
                            entry.trace.ranks()
                        ));
                    }
                    return Ok(ResolvedTrace {
                        signature,
                        trace: Arc::clone(&entry.trace),
                        checksum: entry.checksum,
                    });
                }
            }
        }
        // Load outside the lock: a slow decode must not serialize
        // requests for *other* traces. Two racing loads of the same
        // trace both succeed and the second insert wins — identical
        // content either way.
        let trace = match &input {
            TraceInput::MergedText(p) => {
                let (trace, _) =
                    stream::load_merged_cached(p, ranks, sidecar).map_err(|e| e.to_string())?;
                trace
            }
            other => stream::load_trace(other, ranks).map_err(|e| e.to_string())?,
        };
        let checksum = binfmt::content_checksum(&trace);
        let trace = Arc::new(trace);
        self.entries.lock().unwrap().insert(
            path_buf,
            StoreEntry {
                source_sig,
                trace: Arc::clone(&trace),
                checksum,
            },
        );
        Ok(ResolvedTrace {
            signature,
            trace,
            checksum,
        })
    }
}

/// The canonical memo key for a resolved query.
pub fn query_key(q: &WhatIfQuery, resolved: &ResolvedTrace) -> QueryKey {
    QueryKey::from_parts(resolved.checksum, &q.spec, &q.config, q.ranks)
}

/// Executes one query and renders the manifest envelope — the exact
/// flow of a `titreplay --manifest` run: replay the in-memory trace,
/// measure wall time, assemble [`replay::manifest`], serialize with
/// its deterministic writer.
pub fn execute(q: &WhatIfQuery, resolved: &ResolvedTrace) -> Result<String, String> {
    let platform = q.spec.build();
    let input = TraceInput::Memory(Arc::clone(&resolved.trace));
    let started = std::time::Instant::now();
    let report = replay_input_observed(&platform, &input, q.ranks, &q.config, false)?;
    let wall = started.elapsed().as_secs_f64();
    let man = replay::manifest(&platform, &resolved.signature, &q.config, &report, wall);
    Ok(man.to_json())
}

/// Summarises a trace without replaying it (the `/inspect` endpoint):
/// the CLI `titreplay inspect` counters as deterministic JSON.
pub fn inspect(
    path: &str,
    ranks: u32,
    store: &TraceStore,
    sidecar: bool,
) -> Result<String, String> {
    let resolved = store.resolve(path, ranks, sidecar)?;
    let t = &resolved.trace;
    let mut sends = 0u64;
    let mut recvs = 0u64;
    let mut computes = 0u64;
    let mut collectives = 0u64;
    let mut waits = 0u64;
    let mut bytes = 0u64;
    let mut instructions = 0.0f64;
    for r in 0..t.ranks() {
        for a in t.actions(tit_replay::titrace::Rank(r)) {
            match a {
                Action::Send { bytes: b, .. } | Action::Isend { bytes: b, .. } => {
                    sends += 1;
                    bytes += b;
                }
                Action::Recv { .. } | Action::Irecv { .. } => recvs += 1,
                Action::Compute { amount } => {
                    computes += 1;
                    instructions += amount;
                }
                Action::Wait | Action::WaitAll => waits += 1,
                Action::Init | Action::Finalize => {}
                _ => collectives += 1,
            }
        }
    }
    Ok(format!(
        "{{\n  \"trace_signature\": \"{}\",\n  \"content_checksum\": \"{:016x}\",\n  \
         \"ranks\": {},\n  \"actions\": {},\n  \"sends\": {sends},\n  \"recvs\": {recvs},\n  \
         \"waits\": {waits},\n  \"computes\": {computes},\n  \"collectives\": {collectives},\n  \
         \"payload_bytes\": {bytes},\n  \"compute_instructions\": {instructions:.0}\n}}",
        escape(&resolved.signature),
        resolved.checksum,
        t.ranks(),
        t.len(),
    ))
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Convenience used by the binary and tests: detect-and-signature for
/// a path, without loading.
pub fn signature_of(path: &str, ranks: u32) -> Result<String, String> {
    let input = TraceInput::detect(Path::new(path)).map_err(|e| e.to_string())?;
    Ok(replay::trace_signature(&input, ranks))
}
