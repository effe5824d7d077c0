//! Collective algorithms, decomposed into point-to-point operations, and
//! the closed-form cost model of the legacy MSG back-end.
//!
//! The paper contrasts its old back-end's "monolithic performance models
//! of collective communications" with SMPI's approach of simulating them
//! "as sets of point-to-point communications"; this module implements the
//! latter. A `Schedule` yields one rank's op sequence for one
//! collective, an op at a time, so a rank's collective state is O(1)
//! words whatever the rank count (an expanded ring allreduce would be
//! 6(P − 1) ops per rank, O(P²) in all). Taken over all ranks, the
//! sequences match pairwise (validated by tests) and are deadlock-free
//! under the runtime's protocols (exchange phases use isend/recv/wait
//! rather than symmetric blocking sends).
//!
//! Algorithms:
//! * broadcast / reduce — binomial tree,
//! * allreduce — recursive doubling (power-of-two ranks, small
//!   payloads), ring (large payloads) or reduce-then-broadcast,
//! * barrier — dissemination,
//! * all-to-all — pairwise exchange rounds,
//! * gather — linear to root,
//! * allgather — ring.
//!
//! Under [`crate::Model::Msg`] the runtime instead prices each collective
//! with a `CollectiveModel` formula, as the old MSG-based replay did.

use platform::{HostId, Platform};
use workloads::MpiOp;

/// Closed-form durations of the monolithic collective models, as used by
/// the old MSG-based replay: log-tree formulas over a nominal
/// latency/bandwidth pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CollectiveModel {
    /// Nominal point-to-point latency, seconds.
    pub latency: f64,
    /// Nominal point-to-point bandwidth, bytes/s.
    pub bandwidth: f64,
}

impl CollectiveModel {
    fn log2_ceil(p: u32) -> f64 {
        if p <= 1 {
            0.0
        } else {
            f64::from(32 - (p - 1).leading_zeros())
        }
    }

    fn hop(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }

    /// Duration of a barrier over `p` ranks.
    pub(crate) fn barrier(&self, p: u32) -> f64 {
        2.0 * Self::log2_ceil(p) * self.latency
    }

    /// Duration of a broadcast of `bytes`.
    pub(crate) fn bcast(&self, p: u32, bytes: u64) -> f64 {
        Self::log2_ceil(p) * self.hop(bytes)
    }

    /// Duration of a reduce of `bytes`.
    pub(crate) fn reduce(&self, p: u32, bytes: u64) -> f64 {
        Self::log2_ceil(p) * self.hop(bytes)
    }

    /// Duration of an allreduce of `bytes`.
    pub(crate) fn allreduce(&self, p: u32, bytes: u64) -> f64 {
        2.0 * Self::log2_ceil(p) * self.hop(bytes)
    }

    /// Duration of an all-to-all of `bytes` per pair.
    pub(crate) fn alltoall(&self, p: u32, bytes: u64) -> f64 {
        f64::from(p.saturating_sub(1)) * self.hop(bytes)
    }

    /// Duration of a gather of `bytes` per rank.
    pub(crate) fn gather(&self, p: u32, bytes: u64) -> f64 {
        f64::from(p.saturating_sub(1)) * self.hop(bytes)
    }

    /// Duration of an allgather of `bytes` per rank.
    pub(crate) fn allgather(&self, p: u32, bytes: u64) -> f64 {
        f64::from(p.saturating_sub(1)) * self.hop(bytes)
    }

    /// Duration of the collective `op` over `p` ranks, or `None` for
    /// non-collective ops.
    pub(crate) fn duration(&self, op: &MpiOp, p: u32) -> Option<f64> {
        Some(match *op {
            MpiOp::Barrier => self.barrier(p),
            MpiOp::Bcast { bytes, .. } => self.bcast(p, bytes),
            MpiOp::Reduce { bytes, .. } => self.reduce(p, bytes),
            MpiOp::Allreduce { bytes } => self.allreduce(p, bytes),
            MpiOp::Alltoall { bytes } => self.alltoall(p, bytes),
            MpiOp::Gather { bytes, .. } => self.gather(p, bytes),
            MpiOp::Allgather { bytes } => self.allgather(p, bytes),
            _ => return None,
        })
    }
}

/// Nominal collective-model parameters: the worst latency and the
/// tightest finite bandwidth over every ordered rank pair's route, folded
/// source-major through one reused route buffer (what the old
/// implementation read off the platform file).
pub(crate) fn nominal_collective_model(platform: &Platform, hosts: &[HostId]) -> CollectiveModel {
    let mut route = Vec::new();
    let (mut latency, mut bandwidth) = (0.0, f64::INFINITY);
    for &s in hosts {
        for &d in hosts {
            platform.route(s, d, &mut route);
            latency = f64::max(latency, platform.path_latency(&route));
            let b = platform.path_bandwidth(&route);
            if b.is_finite() {
                bandwidth = f64::min(bandwidth, b);
            }
        }
    }
    CollectiveModel {
        latency,
        bandwidth: bandwidth.min(1e12),
    }
}

/// Payload size above which allreduce switches from recursive doubling
/// to the bandwidth-optimal ring algorithm, as real MPI runtimes do
/// (latency-bound small reductions vs bandwidth-bound large ones).
pub(crate) const ALLREDUCE_RING_THRESHOLD: u64 = 32 * 1024;

/// The point-to-point algorithm a [`Schedule`] walks, with what its
/// `pos` means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Algo {
    /// Binomial-tree broadcast: ranks are renumbered relative to the
    /// root, and in phase `pos` (a mask, rising from 1) ranks `< pos`
    /// forward to `rank + pos`.
    Bcast,
    /// Binomial-tree reduce, the mirror image of `Bcast`: leaves send
    /// first, the root receives last; `pos` falls from the highest power
    /// of two below the rank count to 0.
    Reduce,
    /// Allreduce on a non-power-of-two rank count with a small payload:
    /// a `Reduce` to rank 0 whose end hands over to a `Bcast` from it.
    ReduceBcast,
    /// Allreduce by recursive doubling (power-of-two rank counts, small
    /// payloads): exchange with `rank ^ pos`, `pos` doubling.
    Doubling,
    /// Ring allreduce: a reduce-scatter phase (`P-1` rounds, each moving
    /// a `bytes/P` chunk to the right neighbour) followed by an allgather
    /// phase (`P-1` more), so total traffic per rank is about
    /// `2·bytes·(P-1)/P` — bandwidth-optimal, which is why runtimes pick
    /// it for large payloads. `pos` counts the rounds from 1.
    Ring,
    /// Dissemination barrier: `⌈log2 P⌉` rounds of 1-byte tokens to
    /// `rank + pos`, from `rank - pos`, `pos` doubling.
    Barrier,
    /// Pairwise-exchange all-to-all: `P-1` rounds, round `pos` exchanging
    /// with `rank ± pos`.
    Alltoall,
    /// Linear gather: every non-root rank sends its contribution to the
    /// root, which receives them in rank order; `pos` is the root's next
    /// source, or 1 once a non-root rank has sent.
    Gather,
    /// Ring allgather: `P-1` rounds, each rank forwarding the block
    /// received in the previous round to its right neighbour; `pos`
    /// counts the rounds from 1.
    Allgather,
}

/// One rank's point-to-point program for one collective, produced an op
/// at a time by an O(1) cursor (see the [module documentation](self)).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Schedule {
    algo: Algo,
    /// The next op of an exchange round: 0 its isend, 1 its receive, 2
    /// its wait.
    sub: u8,
    rank: u32,
    ranks: u32,
    root: u32,
    /// Where the algorithm is (see [`Algo`]).
    pos: u32,
    /// Bytes of each point-to-point message.
    bytes: u64,
}

impl Schedule {
    /// `rank`'s program for the collective `op` over `ranks`, or `None`
    /// when `op` is not a collective.
    ///
    /// # Panics
    /// Panics if a rooted collective's root is not below `ranks`; the op
    /// sources refuse such a trace before it reaches the runtime.
    pub(crate) fn new(op: &MpiOp, rank: u32, ranks: u32) -> Option<Schedule> {
        let (algo, bytes, root) = match *op {
            MpiOp::Barrier => (Algo::Barrier, 1, 0),
            MpiOp::Bcast { bytes, root } => (Algo::Bcast, bytes, root),
            MpiOp::Reduce { bytes, root } => (Algo::Reduce, bytes, root),
            MpiOp::Allreduce { bytes } if bytes >= ALLREDUCE_RING_THRESHOLD && ranks > 2 => {
                (Algo::Ring, (bytes / u64::from(ranks)).max(1), 0)
            }
            MpiOp::Allreduce { bytes } if ranks.is_power_of_two() => (Algo::Doubling, bytes, 0),
            MpiOp::Allreduce { bytes } => (Algo::ReduceBcast, bytes, 0),
            MpiOp::Alltoall { bytes } => (Algo::Alltoall, bytes, 0),
            MpiOp::Gather { bytes, root } => (Algo::Gather, bytes, root),
            MpiOp::Allgather { bytes } => (Algo::Allgather, bytes, 0),
            _ => return None,
        };
        assert!(root < ranks, "collective root {root} outside {ranks} ranks");
        let pos = match algo {
            Algo::Reduce | Algo::ReduceBcast if ranks > 1 => highest_pow2_below(ranks),
            Algo::Reduce | Algo::ReduceBcast | Algo::Gather => 0,
            _ => 1,
        };
        Some(Schedule {
            algo,
            sub: 0,
            rank,
            ranks,
            root,
            pos,
            bytes,
        })
    }

    /// `rank` renumbered relative to the root.
    fn vrank(&self) -> u32 {
        (self.rank + self.ranks - self.root) % self.ranks
    }

    fn bcast_step(&mut self) -> Option<MpiOp> {
        let (ranks, root, bytes, vrank) = (self.ranks, self.root, self.bytes, self.vrank());
        while self.pos < ranks {
            let mask = self.pos;
            self.pos <<= 1;
            // Receive once, in the phase that covers this vrank.
            if vrank >= mask && vrank < 2 * mask {
                let src = (vrank - mask + root) % ranks;
                return Some(MpiOp::Recv { src, bytes });
            }
            if vrank < mask && vrank + mask < ranks {
                let dst = (vrank + mask + root) % ranks;
                return Some(MpiOp::Send { dst, bytes });
            }
        }
        None
    }

    fn reduce_step(&mut self) -> Option<MpiOp> {
        let (ranks, root, bytes, vrank) = (self.ranks, self.root, self.bytes, self.vrank());
        while self.pos >= 1 {
            let mask = self.pos;
            self.pos >>= 1;
            if vrank < mask && vrank + mask < ranks {
                let src = (vrank + mask + root) % ranks;
                return Some(MpiOp::Recv { src, bytes });
            }
            if vrank >= mask && vrank < 2 * mask {
                let dst = (vrank - mask + root) % ranks;
                return Some(MpiOp::Send { dst, bytes });
            }
        }
        None
    }

    fn gather_step(&mut self) -> Option<MpiOp> {
        let bytes = self.bytes;
        if self.rank != self.root {
            let first = self.pos == 0;
            self.pos = 1;
            return first.then_some(MpiOp::Send {
                dst: self.root,
                bytes,
            });
        }
        if self.pos == self.root {
            self.pos += 1;
        }
        let src = self.pos;
        (src < self.ranks).then(|| {
            self.pos += 1;
            MpiOp::Recv { src, bytes }
        })
    }

    /// The next op of the exchange round `(isend to dst, recv from src,
    /// wait)` at `pos`, moving to `next` after the wait; `None` if `live`
    /// is false, past the last round.
    fn exchange(&mut self, live: bool, dst: u32, src: u32, bytes: u64, next: u32) -> Option<MpiOp> {
        if !live {
            return None;
        }
        let op = match self.sub {
            0 => MpiOp::Isend { dst, bytes },
            1 => MpiOp::Recv { src, bytes },
            _ => MpiOp::Wait,
        };
        self.sub = (self.sub + 1) % 3;
        if self.sub == 0 {
            self.pos = next;
        }
        Some(op)
    }
}

impl Iterator for Schedule {
    type Item = MpiOp;

    fn next(&mut self) -> Option<MpiOp> {
        let Schedule {
            rank,
            ranks,
            pos,
            bytes,
            ..
        } = *self;
        let ring = || ((rank + 1) % ranks, (rank + ranks - 1) % ranks);
        match self.algo {
            Algo::Bcast => self.bcast_step(),
            Algo::Reduce => self.reduce_step(),
            Algo::ReduceBcast => self.reduce_step().or_else(|| {
                self.algo = Algo::Bcast;
                self.pos = 1;
                self.bcast_step()
            }),
            Algo::Gather => self.gather_step(),
            Algo::Doubling => self.exchange(pos < ranks, rank ^ pos, rank ^ pos, bytes, pos << 1),
            Algo::Ring => {
                let (right, left) = ring();
                self.exchange(pos <= 2 * (ranks - 1), right, left, bytes, pos + 1)
            }
            Algo::Barrier => {
                let (dst, src) = ((rank + pos) % ranks, (rank + ranks - pos % ranks) % ranks);
                self.exchange(pos < ranks, dst, src, bytes, pos << 1)
            }
            Algo::Alltoall => {
                let (dst, src) = ((rank + pos) % ranks, (rank + ranks - pos) % ranks);
                self.exchange(pos < ranks, dst, src, bytes, pos + 1)
            }
            Algo::Allgather => {
                let (right, left) = ring();
                self.exchange(pos < ranks, right, left, bytes, pos + 1)
            }
        }
    }
}

fn highest_pow2_below(n: u32) -> u32 {
    debug_assert!(n >= 2);
    1 << (31 - (n - 1).leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole-sequence builders the [`Schedule`] replaced, kept as its
    /// referee: each returns one rank's complete point-to-point program.
    mod referee {
        use super::*;

        pub fn expand(op: &MpiOp, rank: u32, ranks: u32) -> Vec<MpiOp> {
            match *op {
                MpiOp::Barrier => barrier(rank, ranks),
                MpiOp::Bcast { bytes, root } => bcast(rank, ranks, root, bytes),
                MpiOp::Reduce { bytes, root } => reduce(rank, ranks, root, bytes),
                MpiOp::Allreduce { bytes } => allreduce(rank, ranks, bytes),
                MpiOp::Alltoall { bytes } => alltoall(rank, ranks, bytes),
                MpiOp::Gather { bytes, root } => gather(rank, ranks, root, bytes),
                MpiOp::Allgather { bytes } => allgather(rank, ranks, bytes),
                other => vec![other],
            }
        }

        fn bcast(rank: u32, ranks: u32, root: u32, bytes: u64) -> Vec<MpiOp> {
            assert!(root < ranks);
            let vrank = (rank + ranks - root) % ranks;
            let mut ops = Vec::new();
            let mut mask = 1u32;
            while mask < ranks {
                if vrank >= mask && vrank < 2 * mask {
                    let vsrc = vrank - mask;
                    ops.push(MpiOp::Recv {
                        src: (vsrc + root) % ranks,
                        bytes,
                    });
                }
                if vrank < mask && vrank + mask < ranks {
                    ops.push(MpiOp::Send {
                        dst: (vrank + mask + root) % ranks,
                        bytes,
                    });
                }
                mask <<= 1;
            }
            ops
        }

        fn reduce(rank: u32, ranks: u32, root: u32, bytes: u64) -> Vec<MpiOp> {
            assert!(root < ranks);
            if ranks == 1 {
                return Vec::new();
            }
            let vrank = (rank + ranks - root) % ranks;
            let mut ops = Vec::new();
            let mut mask = highest_pow2_below(ranks);
            while mask >= 1 {
                if vrank < mask && vrank + mask < ranks {
                    ops.push(MpiOp::Recv {
                        src: (vrank + mask + root) % ranks,
                        bytes,
                    });
                }
                if vrank >= mask && vrank < 2 * mask {
                    ops.push(MpiOp::Send {
                        dst: (vrank - mask + root) % ranks,
                        bytes,
                    });
                }
                mask >>= 1;
            }
            ops
        }

        fn allreduce(rank: u32, ranks: u32, bytes: u64) -> Vec<MpiOp> {
            if ranks == 1 {
                return Vec::new();
            }
            if bytes >= ALLREDUCE_RING_THRESHOLD && ranks > 2 {
                return ring_allreduce(rank, ranks, bytes);
            }
            if ranks.is_power_of_two() {
                let mut ops = Vec::new();
                let mut mask = 1u32;
                while mask < ranks {
                    let peer = rank ^ mask;
                    ops.push(MpiOp::Isend { dst: peer, bytes });
                    ops.push(MpiOp::Recv { src: peer, bytes });
                    ops.push(MpiOp::Wait);
                    mask <<= 1;
                }
                ops
            } else {
                let mut ops = reduce(rank, ranks, 0, bytes);
                ops.extend(bcast(rank, ranks, 0, bytes));
                ops
            }
        }

        fn ring_allreduce(rank: u32, ranks: u32, bytes: u64) -> Vec<MpiOp> {
            let right = (rank + 1) % ranks;
            let left = (rank + ranks - 1) % ranks;
            let chunk = (bytes / u64::from(ranks)).max(1);
            let mut ops = Vec::with_capacity(6 * (ranks as usize - 1));
            for _phase in 0..2 {
                for _step in 1..ranks {
                    ops.push(MpiOp::Isend {
                        dst: right,
                        bytes: chunk,
                    });
                    ops.push(MpiOp::Recv {
                        src: left,
                        bytes: chunk,
                    });
                    ops.push(MpiOp::Wait);
                }
            }
            ops
        }

        fn barrier(rank: u32, ranks: u32) -> Vec<MpiOp> {
            if ranks == 1 {
                return Vec::new();
            }
            let mut ops = Vec::new();
            let mut step = 1u32;
            while step < ranks {
                let dst = (rank + step) % ranks;
                let src = (rank + ranks - step % ranks) % ranks;
                ops.push(MpiOp::Isend { dst, bytes: 1 });
                ops.push(MpiOp::Recv { src, bytes: 1 });
                ops.push(MpiOp::Wait);
                step <<= 1;
            }
            ops
        }

        fn alltoall(rank: u32, ranks: u32, bytes: u64) -> Vec<MpiOp> {
            let mut ops = Vec::new();
            for s in 1..ranks {
                let dst = (rank + s) % ranks;
                let src = (rank + ranks - s) % ranks;
                ops.push(MpiOp::Isend { dst, bytes });
                ops.push(MpiOp::Recv { src, bytes });
                ops.push(MpiOp::Wait);
            }
            ops
        }

        fn gather(rank: u32, ranks: u32, root: u32, bytes: u64) -> Vec<MpiOp> {
            assert!(root < ranks);
            if ranks == 1 {
                return Vec::new();
            }
            if rank == root {
                (0..ranks)
                    .filter(|r| *r != root)
                    .map(|src| MpiOp::Recv { src, bytes })
                    .collect()
            } else {
                vec![MpiOp::Send { dst: root, bytes }]
            }
        }

        fn allgather(rank: u32, ranks: u32, bytes: u64) -> Vec<MpiOp> {
            if ranks == 1 {
                return Vec::new();
            }
            let right = (rank + 1) % ranks;
            let left = (rank + ranks - 1) % ranks;
            let mut ops = Vec::new();
            for _ in 1..ranks {
                ops.push(MpiOp::Isend { dst: right, bytes });
                ops.push(MpiOp::Recv { src: left, bytes });
                ops.push(MpiOp::Wait);
            }
            ops
        }
    }

    /// Every collective of `bytes` over `ranks` rooted at `root`.
    fn collectives(bytes: u64, root: u32) -> [MpiOp; 7] {
        [
            MpiOp::Barrier,
            MpiOp::Bcast { bytes, root },
            MpiOp::Reduce { bytes, root },
            MpiOp::Allreduce { bytes },
            MpiOp::Alltoall { bytes },
            MpiOp::Gather { bytes, root },
            MpiOp::Allgather { bytes },
        ]
    }

    /// `rank`'s program for `op`, collected from its schedule.
    fn program(op: &MpiOp, rank: u32, ranks: u32) -> Vec<MpiOp> {
        Schedule::new(op, rank, ranks)
            .expect("a collective has a schedule")
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The schedule yields the referee builder's sequence op for op,
        /// for every algorithm, rank and root, on power-of-two and other
        /// rank counts, with payloads on both sides of the ring
        /// threshold; once done it stays done.
        #[test]
        fn schedule_yields_the_builders_sequence(
            ranks in 1u32..71,
            bytes in proptest::prop_oneof![
                1u64..ALLREDUCE_RING_THRESHOLD,
                ALLREDUCE_RING_THRESHOLD..ALLREDUCE_RING_THRESHOLD * 64,
            ],
        ) {
            for root in 0..ranks {
                for op in collectives(bytes, root) {
                    let rooted = matches!(
                        op,
                        MpiOp::Bcast { .. } | MpiOp::Reduce { .. } | MpiOp::Gather { .. }
                    );
                    if root > 0 && !rooted {
                        continue;
                    }
                    for rank in 0..ranks {
                        let mut schedule = Schedule::new(&op, rank, ranks).unwrap();
                        let got: Vec<MpiOp> = schedule.by_ref().collect();
                        proptest::prop_assert_eq!(
                            &got,
                            &referee::expand(&op, rank, ranks),
                            "{:?}, rank {} of {}", op, rank, ranks
                        );
                        proptest::prop_assert_eq!(schedule.next(), None);
                    }
                }
            }
        }
    }

    /// Checks that, over all ranks, the send multiset equals the receive
    /// multiset per ordered channel, sizes included.
    fn assert_globally_matched(per_rank: &[Vec<MpiOp>]) {
        let n = per_rank.len();
        let mut sent = vec![Vec::<u64>::new(); n * n];
        let mut received = vec![Vec::<u64>::new(); n * n];
        for (r, ops) in per_rank.iter().enumerate() {
            for op in ops {
                match *op {
                    MpiOp::Send { dst, bytes } | MpiOp::Isend { dst, bytes } => {
                        sent[r * n + dst as usize].push(bytes);
                    }
                    MpiOp::Recv { src, bytes } | MpiOp::Irecv { src, bytes } => {
                        received[src as usize * n + r].push(bytes);
                    }
                    _ => {}
                }
            }
        }
        for s in 0..n {
            for d in 0..n {
                assert_eq!(
                    sent[s * n + d],
                    received[s * n + d],
                    "channel {s}->{d} mismatched"
                );
            }
        }
    }

    /// Every rank's program for `op` over `ranks`.
    fn all_ranks(ranks: u32, op: MpiOp) -> Vec<Vec<MpiOp>> {
        (0..ranks).map(|r| program(&op, r, ranks)).collect()
    }

    /// Simulates the dependency structure with unbounded buffering to
    /// prove absence of matching-order deadlock: repeatedly run every
    /// rank forward; a recv blocks until the matching send was executed.
    /// (isend/wait pairs complete immediately under eager buffering,
    /// which is the runtime's behaviour for these sub-programs.)
    fn assert_deadlock_free(per_rank: &[Vec<MpiOp>]) {
        let n = per_rank.len();
        let mut pc = vec![0usize; n];
        let mut sent_counts = vec![0usize; n * n];
        let mut recvd_counts = vec![0usize; n * n];
        loop {
            let mut progress = false;
            for r in 0..n {
                while pc[r] < per_rank[r].len() {
                    match per_rank[r][pc[r]] {
                        MpiOp::Send { dst, .. } | MpiOp::Isend { dst, .. } => {
                            sent_counts[r * n + dst as usize] += 1;
                        }
                        MpiOp::Recv { src, .. } | MpiOp::Irecv { src, .. } => {
                            let c = src as usize * n + r;
                            if recvd_counts[c] < sent_counts[c] {
                                recvd_counts[c] += 1;
                            } else {
                                break; // blocked
                            }
                        }
                        _ => {}
                    }
                    pc[r] += 1;
                    progress = true;
                }
            }
            if pc.iter().enumerate().all(|(r, p)| *p == per_rank[r].len()) {
                return;
            }
            assert!(progress, "collective sub-programs deadlocked: pc={pc:?}");
        }
    }

    #[test]
    fn bcast_matches_and_progresses() {
        for ranks in [1u32, 2, 3, 4, 7, 8, 16, 33] {
            for root in [0, ranks - 1, ranks / 2] {
                let ops = all_ranks(ranks, MpiOp::Bcast { bytes: 4096, root });
                assert_globally_matched(&ops);
                assert_deadlock_free(&ops);
                // Everyone except the root receives exactly once.
                for (r, o) in ops.iter().enumerate() {
                    let recvs = o.iter().filter(|x| matches!(x, MpiOp::Recv { .. })).count();
                    assert_eq!(recvs, usize::from(r as u32 != root), "rank {r}");
                }
            }
        }
    }

    #[test]
    fn reduce_matches_and_progresses() {
        for ranks in [1u32, 2, 3, 4, 5, 8, 16] {
            let ops = all_ranks(
                ranks,
                MpiOp::Reduce {
                    bytes: 100,
                    root: 0,
                },
            );
            assert_globally_matched(&ops);
            assert_deadlock_free(&ops);
            // Everyone except the root sends exactly once.
            for (r, o) in ops.iter().enumerate() {
                let sends = o.iter().filter(|x| x.is_send_like()).count();
                assert_eq!(sends, usize::from(r != 0), "rank {r}");
            }
        }
    }

    #[test]
    fn allreduce_pow2_uses_recursive_doubling() {
        let ranks = 8;
        let ops = all_ranks(ranks, MpiOp::Allreduce { bytes: 40 }); // small payload
        assert_globally_matched(&ops);
        assert_deadlock_free(&ops);
        // log2(8) = 3 exchange rounds per rank.
        for o in &ops {
            let sends = o.iter().filter(|x| x.is_send_like()).count();
            assert_eq!(sends, 3);
        }
    }

    #[test]
    fn large_allreduce_uses_the_ring() {
        let ranks = 8;
        let bytes = 1 << 20;
        let ops = all_ranks(ranks, MpiOp::Allreduce { bytes });
        assert_globally_matched(&ops);
        assert_deadlock_free(&ops);
        // Ring: 2*(P-1) sends of bytes/P chunks per rank.
        for o in &ops {
            let sends = o.iter().filter(|x| x.is_send_like()).count();
            assert_eq!(sends, 2 * (ranks as usize - 1));
            for op in o.iter() {
                if let MpiOp::Isend { bytes: b, .. } = op {
                    assert_eq!(*b, bytes / u64::from(ranks));
                }
            }
        }
    }

    #[test]
    fn ring_moves_less_total_traffic_than_doubling_for_large_payloads() {
        let ranks = 16u32;
        let bytes = 1u64 << 20;
        let ring_traffic: u64 = program(&MpiOp::Allreduce { bytes }, 0, ranks)
            .iter()
            .filter_map(|o| match o {
                MpiOp::Isend { bytes, .. } | MpiOp::Send { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum();
        // Recursive doubling would send log2(P) full payloads.
        let doubling_traffic = u64::from(ranks.trailing_zeros()) * bytes;
        assert!(
            ring_traffic < doubling_traffic / 2,
            "ring {ring_traffic} !< doubling {doubling_traffic}/2"
        );
    }

    #[test]
    fn allreduce_non_pow2_falls_back() {
        for ranks in [3u32, 6, 12] {
            let ops = all_ranks(ranks, MpiOp::Allreduce { bytes: 64 });
            assert_globally_matched(&ops);
            assert_deadlock_free(&ops);
        }
    }

    /// A single rank has nothing to exchange, in any collective.
    #[test]
    fn allreduce_single_rank_is_empty() {
        for op in collectives(8, 0) {
            assert!(program(&op, 0, 1).is_empty(), "{op:?}");
        }
    }

    #[test]
    fn barrier_matches() {
        for ranks in [2u32, 3, 4, 5, 8, 9, 16] {
            let ops = all_ranks(ranks, MpiOp::Barrier);
            assert_globally_matched(&ops);
            assert_deadlock_free(&ops);
        }
    }

    #[test]
    fn alltoall_exchanges_with_everyone() {
        let ranks = 5;
        let ops = all_ranks(ranks, MpiOp::Alltoall { bytes: 256 });
        assert_globally_matched(&ops);
        assert_deadlock_free(&ops);
        for o in &ops {
            let sends = o.iter().filter(|x| x.is_send_like()).count();
            assert_eq!(sends, 4);
        }
    }

    #[test]
    fn gather_is_linear() {
        for ranks in [2u32, 4, 7] {
            let ops = all_ranks(
                ranks,
                MpiOp::Gather {
                    bytes: 64,
                    root: 1 % ranks,
                },
            );
            assert_globally_matched(&ops);
            assert_deadlock_free(&ops);
        }
    }

    #[test]
    fn allgather_ring_matches() {
        for ranks in [2u32, 3, 8] {
            let ops = all_ranks(ranks, MpiOp::Allgather { bytes: 128 });
            assert_globally_matched(&ops);
            assert_deadlock_free(&ops);
        }
    }

    #[test]
    fn only_collectives_have_a_schedule() {
        assert!(Schedule::new(&MpiOp::Barrier, 0, 4).is_some());
        assert!(Schedule::new(&MpiOp::Wait, 0, 4).is_none());
        assert!(Schedule::new(&MpiOp::Send { dst: 1, bytes: 8 }, 0, 4).is_none());
        // A rank's collective state is a few words, whatever the rank count.
        assert!(std::mem::size_of::<Option<Schedule>>() <= 32);
    }

    trait SendLike {
        fn is_send_like(&self) -> bool;
    }
    impl SendLike for MpiOp {
        fn is_send_like(&self) -> bool {
            matches!(self, MpiOp::Send { .. } | MpiOp::Isend { .. })
        }
    }
}
