//! The NAS Parallel Benchmarks LU solver, as a volume model.
//!
//! NPB-LU solves a 3D Navier–Stokes-like system with SSOR: each time step
//! runs a right-hand-side computation with boundary exchanges, then a
//! lower- and an upper-triangular solve. The solves sweep the `nz` grid
//! planes one by one; within a plane, data dependencies run along the
//! processor-grid diagonal, so the computation *pipelines* across the 2D
//! process grid, exchanging a small (≪ 64 KiB, i.e. eager-mode) boundary
//! message with each downstream neighbour per plane. This flood of small
//! messages whose count grows with the process count — while per-rank
//! compute shrinks — is exactly the regime where the paper's first replay
//! implementation lost accuracy (Section 2.4).
//!
//! The model reproduces NPB-LU's structure faithfully:
//! * problem classes S/W/A/B/C/D with the official grid sizes,
//! * the 2D process grid (`xdim × ydim`, powers of two) and uneven block
//!   split,
//! * per-step op sequence: boundary exchange (`exchange_3`-style
//!   irecv/send/waitall with rendezvous-sized messages), pipelined lower
//!   sweep, pipelined upper sweep, SSOR update,
//! * l2norm allreduces at the first and last step,
//! * instruction/working-set volumes per `params`.

pub mod gen;
pub mod params;

pub use gen::LuRankGen;

use crate::OpSource;

/// NPB problem classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LuClass {
    /// Sample: 12³ grid.
    S,
    /// Workstation: 33³ grid.
    W,
    /// Class A: 64³ grid.
    A,
    /// Class B: 102³ grid.
    B,
    /// Class C: 162³ grid.
    C,
    /// Class D: 408³ grid.
    D,
}

impl LuClass {
    /// Grid extent `n` (the problem is `n × n × n`).
    pub(crate) fn problem_size(self) -> u32 {
        match self {
            LuClass::S => 12,
            LuClass::W => 33,
            LuClass::A => 64,
            LuClass::B => 102,
            LuClass::C => 162,
            LuClass::D => 408,
        }
    }

    /// Official time-step count of the class.
    pub(crate) fn default_steps(self) -> u32 {
        match self {
            LuClass::S => 50,
            LuClass::W => 300,
            LuClass::A | LuClass::B | LuClass::C => 250,
            LuClass::D => 300,
        }
    }

    /// Parses "A"/"B"/... (case-insensitive).
    pub fn parse(s: &str) -> Option<LuClass> {
        match s.to_ascii_uppercase().as_str() {
            "S" => Some(LuClass::S),
            "W" => Some(LuClass::W),
            "A" => Some(LuClass::A),
            "B" => Some(LuClass::B),
            "C" => Some(LuClass::C),
            "D" => Some(LuClass::D),
            _ => None,
        }
    }
}

impl std::fmt::Display for LuClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = match self {
            LuClass::S => 'S',
            LuClass::W => 'W',
            LuClass::A => 'A',
            LuClass::B => 'B',
            LuClass::C => 'C',
            LuClass::D => 'D',
        };
        write!(f, "{c}")
    }
}

/// A fully specified LU instance: class, process count, time steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LuConfig {
    /// Problem class.
    pub class: LuClass,
    /// Number of MPI processes (must be a power of two).
    pub procs: u32,
    /// Time steps to run. `LuClass::default_steps` for the official
    /// count; experiments may reduce it (all volumes scale linearly).
    pub steps: u32,
}

impl LuConfig {
    /// An instance with the official step count (e.g. "B-64").
    pub fn new(class: LuClass, procs: u32) -> LuConfig {
        assert!(
            procs.is_power_of_two(),
            "LU requires a power-of-two process count"
        );
        LuConfig {
            class,
            procs,
            steps: class.default_steps(),
        }
    }

    /// Same instance with a reduced step count (volumes scale linearly in
    /// steps; experiments record the scaling).
    pub fn with_steps(mut self, steps: u32) -> LuConfig {
        assert!(steps >= 2, "LU needs at least 2 steps (first/last norm)");
        self.steps = steps;
        self
    }

    /// The instance label the paper uses ("B-64").
    pub fn label(&self) -> String {
        format!("{}-{}", self.class, self.procs)
    }

    /// The 2D process grid `(xdim, ydim)`, `xdim ≥ ydim`, both powers of
    /// two with `xdim·ydim = procs` (NPB's layout).
    pub(crate) fn grid(&self) -> (u32, u32) {
        let k = self.procs.trailing_zeros();
        let ydim = 1u32 << (k / 2);
        let xdim = self.procs / ydim;
        (xdim, ydim)
    }

    /// Grid coordinates `(row, col)` of `rank` (row-major).
    pub(crate) fn coords(&self, rank: u32) -> (u32, u32) {
        let (xdim, _) = self.grid();
        (rank / xdim, rank % xdim)
    }

    /// Rank at grid coordinates.
    pub(crate) fn rank_at(&self, row: u32, col: u32) -> u32 {
        let (xdim, _) = self.grid();
        row * xdim + col
    }

    /// Local block extents `(nx, ny, nz)` of `rank`: the `n×n` horizontal
    /// plane is split over the process grid with remainders going to the
    /// lower-indexed rows/columns; `nz` is never split.
    pub fn block(&self, rank: u32) -> (u32, u32, u32) {
        let n = self.class.problem_size();
        let (xdim, ydim) = self.grid();
        let (row, col) = self.coords(rank);
        let nx = n / xdim + u32::from(col < n % xdim);
        let ny = n / ydim + u32::from(row < n % ydim);
        (nx, ny, n)
    }

    /// Active working set of `rank`'s solve planes, in bytes — the
    /// quantity compared against the L2 capacity by the cache-aware
    /// calibration.
    pub fn working_set(&self, rank: u32) -> u64 {
        let (nx, ny, _) = self.block(rank);
        u64::from(nx) * u64::from(ny) * params::WS_BYTES_PER_POINT
    }

    /// Largest per-rank working set of the instance.
    pub fn max_working_set(&self) -> u64 {
        (0..self.procs)
            .map(|r| self.working_set(r))
            .max()
            .unwrap_or(0)
    }

    /// Neighbour rank in each direction, if any: `(north, south, west,
    /// east)`. North = row-1 (upstream in the lower sweep).
    pub(crate) fn neighbors(&self, rank: u32) -> LuNeighbors {
        let (xdim, ydim) = self.grid();
        let (row, col) = self.coords(rank);
        LuNeighbors {
            north: (row > 0).then(|| self.rank_at(row - 1, col)),
            south: (row + 1 < ydim).then(|| self.rank_at(row + 1, col)),
            west: (col > 0).then(|| self.rank_at(row, col - 1)),
            east: (col + 1 < xdim).then(|| self.rank_at(row, col + 1)),
        }
    }

    /// The generator for one rank's op stream.
    pub(crate) fn rank_source(&self, rank: u32) -> LuRankGen {
        assert!(rank < self.procs);
        LuRankGen::new(*self, rank)
    }

    /// All per-rank sources, boxed for the emulator and the acquisition
    /// layer.
    pub fn sources(&self) -> Vec<Box<dyn OpSource>> {
        (0..self.procs)
            .map(|r| Box::new(self.rank_source(r)) as Box<dyn OpSource>)
            .collect()
    }

    /// Total true instructions of one rank over the whole run.
    pub fn rank_instructions(&self, rank: u32) -> f64 {
        let (nx, ny, nz) = self.block(rank);
        let points = f64::from(nx) * f64::from(ny) * f64::from(nz);
        params::instr_per_point_per_step() * points * f64::from(self.steps)
    }
}

/// The four mesh neighbours of a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LuNeighbors {
    /// Row-1 neighbour (upstream in the lower sweep).
    pub north: Option<u32>,
    /// Row+1 neighbour.
    pub south: Option<u32>,
    /// Col-1 neighbour (upstream in the lower sweep).
    pub west: Option<u32>,
    /// Col+1 neighbour.
    pub east: Option<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_sizes_match_npb() {
        assert_eq!(LuClass::A.problem_size(), 64);
        assert_eq!(LuClass::B.problem_size(), 102);
        assert_eq!(LuClass::C.problem_size(), 162);
        assert_eq!(LuClass::B.default_steps(), 250);
        assert_eq!(LuClass::parse("b"), Some(LuClass::B));
        assert_eq!(LuClass::parse("x"), None);
        assert_eq!(LuClass::C.to_string(), "C");
    }

    #[test]
    fn grids_are_npb_layouts() {
        assert_eq!(LuConfig::new(LuClass::B, 4).grid(), (2, 2));
        assert_eq!(LuConfig::new(LuClass::B, 8).grid(), (4, 2));
        assert_eq!(LuConfig::new(LuClass::B, 16).grid(), (4, 4));
        assert_eq!(LuConfig::new(LuClass::B, 32).grid(), (8, 4));
        assert_eq!(LuConfig::new(LuClass::B, 64).grid(), (8, 8));
        assert_eq!(LuConfig::new(LuClass::B, 128).grid(), (16, 8));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rejected() {
        let _ = LuConfig::new(LuClass::A, 6);
    }

    #[test]
    fn blocks_partition_the_grid() {
        for procs in [4u32, 8, 16, 32, 64, 128] {
            for class in [LuClass::A, LuClass::B, LuClass::C] {
                let cfg = LuConfig::new(class, procs);
                let n = class.problem_size() as u64;
                let (xdim, ydim) = cfg.grid();
                // Sum of nx over one row of the grid = n; same for ny over
                // one column.
                let nx_sum: u64 = (0..xdim)
                    .map(|c| u64::from(cfg.block(cfg.rank_at(0, c)).0))
                    .sum();
                assert_eq!(nx_sum, n, "{class}-{procs} nx split");
                let ny_sum: u64 = (0..ydim)
                    .map(|r| u64::from(cfg.block(cfg.rank_at(r, 0)).1))
                    .sum();
                assert_eq!(ny_sum, n, "{class}-{procs} ny split");
                // Total points = n^3 per plane layer set.
                let total: u64 = (0..procs)
                    .map(|r| {
                        let (nx, ny, nz) = cfg.block(r);
                        u64::from(nx) * u64::from(ny) * u64::from(nz)
                    })
                    .sum();
                assert_eq!(total, n * n * n, "{class}-{procs} total points");
            }
        }
    }

    #[test]
    fn block_sizes_differ_by_at_most_one() {
        let cfg = LuConfig::new(LuClass::B, 8); // 102 / 4 leaves remainder 2
        let nxs: Vec<u32> = (0..4).map(|c| cfg.block(cfg.rank_at(0, c)).0).collect();
        assert_eq!(nxs, vec![26, 26, 25, 25]);
    }

    #[test]
    fn neighbors_are_mutual() {
        let cfg = LuConfig::new(LuClass::A, 16);
        for r in 0..16 {
            let n = cfg.neighbors(r);
            if let Some(s) = n.south {
                assert_eq!(cfg.neighbors(s).north, Some(r));
            }
            if let Some(e) = n.east {
                assert_eq!(cfg.neighbors(e).west, Some(r));
            }
        }
    }

    #[test]
    fn corner_ranks_have_two_neighbors() {
        let cfg = LuConfig::new(LuClass::A, 16); // 4x4 grid
        let n = cfg.neighbors(0);
        assert!(n.north.is_none() && n.west.is_none());
        assert!(n.south.is_some() && n.east.is_some());
        let n = cfg.neighbors(15);
        assert!(n.south.is_none() && n.east.is_none());
    }

    #[test]
    fn working_set_shrinks_with_procs() {
        let b8 = LuConfig::new(LuClass::B, 8);
        let b64 = LuConfig::new(LuClass::B, 64);
        assert!(b8.max_working_set() > b64.max_working_set());
        // B-8: 26×51×800 ≈ 1.06 MB (marginally spills a 1 MB L2);
        // B-64: 13×13×800 ≈ 0.14 MB (cache-resident).
        assert!(b8.max_working_set() > 1 << 20);
        assert!(b64.max_working_set() < 1 << 20);
    }

    #[test]
    fn b8_instruction_volume_matches_paper() {
        let cfg = LuConfig::new(LuClass::B, 8);
        let mean: f64 = (0..8).map(|r| cfg.rank_instructions(r)).sum::<f64>() / 8.0;
        let rel = (mean - 1.70e11).abs() / 1.70e11;
        assert!(rel < 0.02, "B-8 mean instructions {mean:.3e}");
    }

    #[test]
    fn steps_scale_instructions_linearly() {
        let full = LuConfig::new(LuClass::A, 4);
        let short = full.with_steps(25);
        let ratio = full.rank_instructions(0) / short.rank_instructions(0);
        assert!((ratio - 10.0).abs() < 1e-9);
    }

    #[test]
    fn label_format() {
        assert_eq!(LuConfig::new(LuClass::C, 64).label(), "C-64");
    }
}
