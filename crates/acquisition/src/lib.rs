//! Trace acquisition: how a time-independent trace is obtained from an
//! (emulated) application run, and what the instrumentation does to the
//! measurements along the way.
//!
//! The paper's acquisition toolchain is TAU + PDT + PAPI; its two
//! problems (Sections 2.1–2.2) and their fixes (Sections 3.1–3.2) are
//! modeled here:
//!
//! * [`modes::Instrumentation`] — coarse counters, fine-grain TAU
//!   (per-function probes + call-path), and the *minimal* selective
//!   instrumentation (`BEGIN_FILE_EXCLUDE_LIST *` — probes only at MPI
//!   boundaries);
//! * [`compiler::CompilerOpt`] — `-O3` scaling of instruction volume and
//!   (through inlining) of instrumentable call density;
//! * [`extract`] — building the trace itself: action stream plus
//!   *measured* (perturbed) compute volumes. Because traces are
//!   time-independent, extraction requires no timing simulation at all —
//!   only the counter model;
//! * [`hooks::InstrumentedHooks`] — the wall-clock side: an
//!   [`smpi::ExecHooks`] implementation charging cache-aware compute
//!   rates, probe execution time, per-MPI-event tracing costs and shared-
//!   filesystem contention, used by the emulator to produce the paper's
//!   Tables 1–2.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod compiler;
pub mod extract;
pub mod hooks;
pub mod modes;
pub mod params;

pub use compiler::CompilerOpt;
pub use extract::{acquire, action_sources, mean_rank_counters, Acquisition, RankAcquisition};
pub use hooks::InstrumentedHooks;
pub use modes::Instrumentation;
