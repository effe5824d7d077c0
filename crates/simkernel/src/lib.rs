//! Discrete-event simulation kernel for the Time-Independent Trace Replay
//! (TiTR) toolkit.
//!
//! The kernel follows the architecture of flow-level simulators such as
//! SimGrid: simulated work is represented by activity records (see
//! [`activity`])
//! (a quantity of *remaining work* progressing at a *rate*), the
//! [`Kernel`] turns activity completions and timers into wakes addressed
//! to an [`ActorId`] (see [`actor`]), and all time is the totally ordered
//! [`time::Time`]. The kernel owns no simulated processes: the event loop
//! that pops its wakes and resumes the ranks lives in `smpi::runner`.
//!
//! Design invariants:
//!
//! * **Determinism** — identical inputs produce identical event orderings.
//!   Ties in simulated time are broken by a monotonically increasing
//!   sequence number, and the only randomness is the seedable
//!   [`rng::DetRng`].
//! * **No wall-clock dependence** — nothing in the kernel reads host time.
//! * **Rate changes are exact** — when an activity's rate changes, its
//!   remaining work is settled at the current simulated instant before the
//!   new completion event is scheduled, so resource re-sharing (e.g. a new
//!   network flow joining a link) never loses or duplicates work.
//!
//! Higher layers (the `netmodel` and `smpi` crates) build network flows
//! and MPI semantics — SMPI's and the legacy MSG model's — out of these
//! primitives.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod activity;
pub mod actor;
pub mod kernel;
pub mod obs;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use activity::ActivityId;
pub use actor::{ActorId, Wake};
pub use kernel::{replay_sizing, Kernel, IN_FLIGHT_PER_RANK};
pub use queue::{FelProfile, Reserved};
pub use rng::DetRng;
pub use time::{Duration, Time};
