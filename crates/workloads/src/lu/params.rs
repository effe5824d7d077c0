//! Tunable constants of the LU workload model.
//!
//! These constants calibrate the synthetic LU against the quantities the
//! paper reports. They are *model parameters*, not magic: each is tied to
//! an observable and fitted once (see EXPERIMENTS.md for the resulting
//! paper-vs-measured comparison).
//!
//! The anchor is the paper's Section 2.2: the coarse-grain-measured
//! average instruction count per process is 1.70e11 for B-8. With the
//! B-8 decomposition (26×51×102 points per rank) and 250 time steps,
//! that pins total instructions per grid point per time step at ≈ 5000.

/// Instructions per grid point per time step spent in the right-hand-side
/// computation (`rhs`, `erhs`).
pub(crate) const INSTR_RHS_PER_POINT: f64 = 1540.0;

/// Instructions per grid point per time step for one triangular-solve
/// sweep (`jacld`+`blts`, or `jacu`+`buts`). Two sweeps run per step.
pub(crate) const INSTR_SOLVE_PER_POINT: f64 = 1230.0;

/// Instructions per grid point per time step for the SSOR update and
/// miscellaneous per-step work.
pub(crate) const INSTR_UPDATE_PER_POINT: f64 = 1130.0;

/// Total instructions per grid point per time step (the ≈5000 anchor).
pub(crate) const fn instr_per_point_per_step() -> f64 {
    INSTR_RHS_PER_POINT + 2.0 * INSTR_SOLVE_PER_POINT + INSTR_UPDATE_PER_POINT
}

/// Bytes per boundary grid point in a pipeline exchange message: five
/// solution components in doubles (`5 × 8`).
pub(crate) const BYTES_PER_BOUNDARY_POINT: u64 = 40;

/// Active working set per grid point of a solve plane: the four 5×5
/// jacobian blocks in doubles (`4 × 25 × 8`). The per-rank plane footprint
/// `nx·ny·800` is what spills (or not) out of L2 and drives the
/// cache-aware calibration story.
pub(crate) const WS_BYTES_PER_POINT: u64 = 800;

/// Fine-grain-instrumentable function calls per grid point per solve
/// plane (TAU+PDT auto-instrumentation reaches into per-point helper
/// routines of the Fortran source).
pub(crate) const FINE_CALLS_PER_POINT: f64 = 0.5;

/// Additional fine-grain calls per boundary row of a solve plane
/// (per-row routines: `jacld`/`blts` bookkeeping). This term makes the
/// relative instrumentation inflation grow as blocks shrink (more rows
/// per point), matching the paper's Figures 1-2 trend with process count.
pub(crate) const FINE_CALLS_PER_ROW: f64 = 2.5;

/// Fine-grain calls per grid point in rhs/update phases (loop nests with
/// few function calls).
pub(crate) const FINE_CALLS_PER_POINT_RHS: f64 = 0.08;

/// Payload of one l2norm allreduce: five residual components in doubles.
pub(crate) const NORM_BYTES: u64 = 40;

/// Payload of the initial parameter broadcast.
pub(crate) const BCAST_BYTES: u64 = 40;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_anchor_matches_paper_b8() {
        // B-8: mean block is 102²·102/8 points per rank, 250 steps =>
        // ≈1.7e11 instructions per process (paper Section 2.2).
        let mean_points = 102.0f64.powi(3) / 8.0;
        let per_rank = instr_per_point_per_step() * mean_points * 250.0;
        let rel = (per_rank - 1.70e11).abs() / 1.70e11;
        assert!(rel < 0.02, "anchor drifted: {per_rank:.3e}");
    }

    #[test]
    fn totals_are_positive_and_consistent() {
        assert_eq!(
            instr_per_point_per_step(),
            INSTR_RHS_PER_POINT + 2.0 * INSTR_SOLVE_PER_POINT + INSTR_UPDATE_PER_POINT
        );
        assert!(instr_per_point_per_step() > 0.0);
    }
}
