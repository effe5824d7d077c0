//! # tit-replay — Time-Independent Trace Replay
//!
//! A complete, self-contained reimplementation of the off-line MPI
//! simulation framework of
//!
//! > F. Desprez, G. S. Markomanolis, F. Suter.
//! > *Improving the Accuracy and Efficiency of Time-Independent Trace
//! > Replay.* INRIA RR-8092, 2012.
//!
//! The framework predicts the execution time of an MPI application on a
//! (possibly unavailable) platform in three steps:
//!
//! 1. **Acquire** a *time-independent trace* — per-process volumes of
//!    computation (instructions) and communication (bytes), no
//!    timestamps ([`acquisition`], [`titrace`]);
//! 2. **Calibrate** the target platform's instruction rate
//!    ([`calibrate`]);
//! 3. **Replay** the trace on a simulated platform model ([`replay`],
//!    [`platform`], [`netmodel`], [`simkernel`]).
//!
//! Because the paper evaluates against *real* clusters, this crate also
//! ships an emulated testbed ([`emulator`]) that plays their role; the
//! [`pipeline`] module wires everything into the paper's two
//! configurations:
//!
//! * [`pipeline::Pipeline::legacy`] — the first implementation: TAU
//!   fine-grain instrumentation, no compiler optimization, A-4-only
//!   calibration, MSG-based replay;
//! * [`pipeline::Pipeline::improved`] — the paper's contribution: `-O3`,
//!   minimal instrumentation, cache-aware calibration, SMPI-based
//!   replay.
//!
//! ## Quickstart
//!
//! ```
//! use tit_replay::prelude::*;
//!
//! // The cluster we want predictions for (an emulated stand-in).
//! let testbed = Testbed::bordereau();
//! // Build the improved-pipeline predictor (runs calibration).
//! let predictor = Predictor::new(&testbed, Pipeline::improved(), 42).unwrap();
//! // Predict a small LU instance and compare with the emulated truth.
//! let instance = LuConfig::new(LuClass::S, 4).with_steps(5);
//! let prediction = predictor.predict(&instance, 1).unwrap();
//! println!(
//!     "{}: real {:.3}s simulated {:.3}s error {:+.1}%",
//!     instance.label(),
//!     prediction.real_seconds,
//!     prediction.simulated_seconds,
//!     prediction.relative_error_percent()
//! );
//! assert!(prediction.relative_error_percent().abs() < 25.0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod metrics;
pub mod pipeline;
pub mod querykey;

pub use pipeline::{Pipeline, Prediction, Predictor};
pub use querykey::QueryKey;

// Re-export the component crates under one roof.
pub use acquisition;
pub use calibrate;
pub use emulator;
pub use hwmodel;
pub use netmodel;
pub use platform;
pub use replay;
pub use simkernel;
pub use smpi;
pub use titrace;
pub use workloads;

/// Common imports for applications of the framework.
pub mod prelude {
    pub use crate::metrics::{ErrorBand, ExperimentRecord};
    pub use crate::pipeline::{Pipeline, Prediction, Predictor};
    pub use acquisition::{acquire, CompilerOpt, Instrumentation};
    pub use calibrate::{calibrate, Calibration, CalibrationMethod};
    pub use emulator::Testbed;
    pub use platform::{Placement, Platform, PlatformSpec};
    pub use replay::{replay_input_observed, ReplayConfig, ReplayEngine};
    pub use simkernel::obs::{
        chrome_trace, critical_path, state_csv, CriticalPath, Metrics, RunReport,
    };
    pub use simkernel::stats::Summary;
    pub use titrace::{Action, ActionSource, Rank, SourceError, Trace, TraceInput};
    pub use workloads::lu::{LuClass, LuConfig};
}
