//! Discrete-event simulation kernel for the Time-Independent Trace Replay
//! (TiTR) toolkit.
//!
//! The kernel follows the architecture of flow-level simulators such as
//! SimGrid: simulated work is represented by activity records (see
//! [`activity`])
//! (a quantity of *remaining work* progressing at a *rate*), simulated
//! entities are [`actor::Actor`] state machines scheduled by the
//! [`sim::Sim`] event loop, and all time is the totally ordered [`time::Time`].
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
//! Higher layers (the `netmodel`, `smpi`, and `msgsim` crates) build
//! network flows, MPI semantics, and mailbox semantics out of these
//! primitives.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod activity;
pub mod actor;
pub mod kernel;
pub mod obs;
pub mod queue;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use activity::{ActivityId, ActivityState};
pub use actor::{Actor, ActorId, Status, Wake};
pub use kernel::{replay_sizing, Kernel, KernelStep, IN_FLIGHT_PER_RANK};
pub use queue::FelProfile;
pub use rng::DetRng;
pub use sim::{Sim, SimOutcome, SimStep};
pub use time::{Duration, Time};
