//! `titserved` — replay-as-a-service.
//!
//! The paper's central economics: acquiring a time-independent trace is
//! expensive and done once; answering "what if this application ran on
//! platform X" with that trace is cheap and asked many times. The CLI
//! shape (`titreplay`) pays a cold start per question — process spawn,
//! platform parse, trace decode — and shares nothing between askers.
//! This crate turns the replay pipeline into a long-running prediction
//! service so the many-questions side is priced accordingly:
//!
//! * **memoization** — completed predictions are stored under a
//!   canonical [`tit_replay::querykey::QueryKey`] (trace content
//!   checksum × platform hash × semantic config hash × ranks); asking
//!   the same question twice returns the identical bytes without
//!   replaying;
//! * **in-flight dedup** — N concurrent identical queries run exactly
//!   one replay; the other N−1 block on the first and receive the same
//!   body;
//! * **shared opened traces** — a process-wide [`query::TraceStore`]
//!   opens each trace once, as `titreplay` does (merged text through its
//!   `.titb` side-car), and every question about it streams through
//!   bounded per-rank windows, so memory does not grow with trace length;
//! * **bounded workers** — independent queries fan out over a counting
//!   semaphore; each execution reuses the parallel replay machinery
//!   (`threads` in the query config).
//!
//! Endpoints: `POST /predict` (what-if query → manifest envelope,
//! byte-identical to the `titreplay --manifest` output for the same
//! inputs modulo wall time; the `x-titserved-cache` response header
//! says `miss`, `hit`, or `joined`), `POST /inspect` (trace summary
//! without replay), `GET /healthz`, `GET /stats` (counters including
//! cache hit rate, in-flight, queue depth, worker utilization),
//! `GET /metrics` (the same counters, with per-endpoint request counts
//! and latency histograms, in Prometheus text format), and
//! `POST /shutdown` (clean stop, answered before the server returns).
//!
//! ```no_run
//! use titserved::server::{Server, ServerConfig};
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! println!("listening http://{}", server.addr());
//! server.run().unwrap();
//! ```

pub mod client;
pub mod http;
pub mod query;
pub mod server;

pub use query::{TraceStore, WhatIfQuery};
pub use server::{Server, ServerConfig};
