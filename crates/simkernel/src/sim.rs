//! The top-level simulation driver: owns the kernel, the world, and the
//! actor set, and runs the event loop to quiescence.

use crate::actor::{Actor, ActorId, Status, Wake};
use crate::kernel::{Kernel, KernelStep};
use crate::time::Time;

/// Why [`Sim::step_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimStep {
    /// The next pending event lies strictly past the horizon; call again
    /// with a later horizon to continue.
    Horizon,
    /// Nothing remains to run at any time. Terminal: inspect
    /// [`Sim::outcome`] to distinguish completion from deadlock.
    Quiesced,
}

/// Why [`Sim::run`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimOutcome {
    /// Every actor finished.
    AllFinished,
    /// No event, timer, or wake remained but some actors were still
    /// blocked: a deadlock. Carries the blocked actor ids (spawn order).
    Deadlock(Vec<ActorId>),
}

impl SimOutcome {
    /// Panics with a descriptive message unless every actor finished.
    pub fn expect_finished(&self) {
        if let SimOutcome::Deadlock(blocked) = self {
            panic!(
                "simulation deadlocked with {} blocked actor(s): {:?}",
                blocked.len(),
                &blocked[..blocked.len().min(16)]
            );
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ActorRun {
    Blocked,
    Finished,
    Daemon,
}

/// A complete simulation: kernel + shared world `W` + actors.
pub struct Sim<W> {
    /// The event kernel. Public so that setup code can schedule initial
    /// timers before [`Sim::run`].
    pub kernel: Kernel,
    /// The shared, domain-specific world state.
    pub world: W,
    actors: Vec<Box<dyn Actor<W>>>,
    states: Vec<ActorRun>,
    finish_times: Vec<Time>,
}

impl<W> Sim<W> {
    /// Creates a simulation around `world`.
    pub fn new(world: W) -> Self {
        Self::with_capacity(world, 0, 0)
    }

    /// Creates a simulation around `world` with the kernel's activity slab
    /// and event queue pre-sized (see [`Kernel::with_capacity`]). Runners
    /// that know the rank count and a per-rank in-flight bound should use
    /// this to avoid reallocation during replay.
    pub fn with_capacity(world: W, activities: usize, events: usize) -> Self {
        Sim {
            kernel: Kernel::with_capacity(activities, events),
            world,
            actors: Vec::new(),
            states: Vec::new(),
            finish_times: Vec::new(),
        }
    }

    /// Registers an actor; it will receive [`Wake::Start`] when the
    /// simulation runs. Returns its id (dense, spawn order).
    pub fn spawn(&mut self, actor: Box<dyn Actor<W>>) -> ActorId {
        let id = ActorId(u32::try_from(self.actors.len()).expect("too many actors"));
        self.actors.push(actor);
        self.states.push(ActorRun::Blocked);
        self.finish_times.push(Time::NEVER);
        id
    }

    /// Registers a *daemon* actor: a passive service (e.g. a message
    /// transport) that handles wakes forever and is exempt from the
    /// deadlock check — a simulation where only daemons remain blocked is
    /// considered finished.
    pub fn spawn_daemon(&mut self, actor: Box<dyn Actor<W>>) -> ActorId {
        let id = self.spawn(actor);
        self.states[id.as_usize()] = ActorRun::Daemon;
        id
    }

    /// Number of spawned actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Simulated instant at which `actor` finished, or `Time::NEVER` if it
    /// has not (yet) finished.
    pub fn finish_time(&self, actor: ActorId) -> Time {
        self.finish_times[actor.as_usize()]
    }

    /// Finish times of all actors, in spawn order.
    pub fn finish_times(&self) -> &[Time] {
        &self.finish_times
    }

    /// Runs every actor to completion (or deadlock). Returns the outcome;
    /// the final simulated time is `self.kernel.now()`.
    pub fn run(&mut self) -> SimOutcome {
        self.start();
        let step = self.step_until(Time::NEVER);
        debug_assert_eq!(step, SimStep::Quiesced);
        self.outcome()
    }

    /// Delivers the `Wake::Start` wake to every actor at t=0, in spawn
    /// order. Must be called exactly once, before [`Sim::step_until`];
    /// [`Sim::run`] does it implicitly.
    pub fn start(&mut self) {
        for i in 0..self.actors.len() {
            self.step(ActorId(i as u32), Wake::Start);
        }
    }

    /// Advances the simulation until either the next pending event lies
    /// strictly past `horizon` ([`SimStep::Horizon`]) or nothing remains
    /// to run at any time ([`SimStep::Quiesced`]). Quiescence is terminal
    /// regardless of horizon — once returned, later calls with larger
    /// horizons return it again and [`Sim::outcome`] is meaningful (so
    /// deadlock detection works under windowed stepping). The event
    /// delivery order is identical for any horizon schedule: a run split
    /// into windows pops exactly the same events, in the same order, as a
    /// single `step_until(Time::NEVER)`.
    pub fn step_until(&mut self, horizon: Time) -> SimStep {
        loop {
            match self.kernel.next_wake_before(horizon) {
                KernelStep::Wake(actor, wake) => self.step(actor, wake),
                KernelStep::Horizon => return SimStep::Horizon,
                KernelStep::Quiesced => return SimStep::Quiesced,
            }
        }
    }

    /// Classifies the final state once [`Sim::step_until`] has returned
    /// [`SimStep::Quiesced`]: all actors finished, or the still-blocked
    /// ones (a deadlock).
    pub fn outcome(&self) -> SimOutcome {
        let blocked: Vec<ActorId> = self
            .states
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == ActorRun::Blocked)
            .map(|(i, _)| ActorId(i as u32))
            .collect();
        if blocked.is_empty() {
            SimOutcome::AllFinished
        } else {
            SimOutcome::Deadlock(blocked)
        }
    }

    fn step(&mut self, id: ActorId, wake: Wake) {
        let idx = id.as_usize();
        if self.states[idx] == ActorRun::Finished {
            // Spurious wake after finish (e.g. a broadcast completion the
            // actor no longer cares about) — ignore.
            return;
        }
        let status = self.actors[idx].resume(&mut self.kernel, &mut self.world, wake);
        if status == Status::Finished && self.states[idx] != ActorRun::Daemon {
            self.states[idx] = ActorRun::Finished;
            self.finish_times[idx] = self.kernel.now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    /// Counts down `n` one-second timers then finishes.
    struct TickActor {
        remaining: u32,
        me: ActorId,
        log: Vec<f64>,
    }

    impl Actor<Vec<String>> for TickActor {
        fn resume(&mut self, k: &mut Kernel, world: &mut Vec<String>, wake: Wake) -> Status {
            match wake {
                Wake::Start => {}
                Wake::Timer(_) => {
                    self.remaining -= 1;
                    self.log.push(k.now().as_secs());
                }
                other => panic!("unexpected wake {other:?}"),
            }
            if self.remaining == 0 {
                world.push(format!("actor {} done at {}", self.me.0, k.now()));
                return Status::Finished;
            }
            k.set_timer(self.me, Duration::from_secs(1.0), 0);
            Status::Blocked
        }
    }

    #[test]
    fn timers_drive_actors_to_completion() {
        let mut sim: Sim<Vec<String>> = Sim::new(Vec::new());
        let a = sim.spawn(Box::new(TickActor {
            remaining: 3,
            me: ActorId(0),
            log: vec![],
        }));
        let b = sim.spawn(Box::new(TickActor {
            remaining: 5,
            me: ActorId(1),
            log: vec![],
        }));
        let outcome = sim.run();
        assert_eq!(outcome, SimOutcome::AllFinished);
        assert_eq!(sim.kernel.now(), Time::from_secs(5.0));
        assert_eq!(sim.finish_time(a), Time::from_secs(3.0));
        assert_eq!(sim.finish_time(b), Time::from_secs(5.0));
        assert_eq!(sim.world.len(), 2);
    }

    /// Blocks forever (never registers a wake-up source after start).
    struct StuckActor;

    impl Actor<()> for StuckActor {
        fn resume(&mut self, _: &mut Kernel, _: &mut (), _: Wake) -> Status {
            Status::Blocked
        }
    }

    #[test]
    fn deadlock_is_reported() {
        let mut sim: Sim<()> = Sim::new(());
        let id = sim.spawn(Box::new(StuckActor));
        match sim.run() {
            SimOutcome::Deadlock(blocked) => assert_eq!(blocked, vec![id]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn expect_finished_panics_on_deadlock() {
        SimOutcome::Deadlock(vec![ActorId(0)]).expect_finished();
    }

    /// Two actors sharing a compute resource via activities; checks that
    /// the world sees deterministic interleaving.
    struct ComputeActor {
        me: ActorId,
        work: f64,
        rate: f64,
        started: bool,
    }

    impl Actor<Vec<u32>> for ComputeActor {
        fn resume(&mut self, k: &mut Kernel, world: &mut Vec<u32>, wake: Wake) -> Status {
            match wake {
                Wake::Start => {
                    let act = k.start_activity(self.work, self.rate);
                    k.subscribe(act, self.me);
                    self.started = true;
                    Status::Blocked
                }
                Wake::Activity(_) => {
                    world.push(self.me.0);
                    Status::Finished
                }
                other => panic!("unexpected wake {other:?}"),
            }
        }
    }

    #[test]
    fn completion_order_follows_work() {
        let mut sim: Sim<Vec<u32>> = Sim::new(Vec::new());
        for (i, work) in [30.0, 10.0, 20.0].iter().enumerate() {
            sim.spawn(Box::new(ComputeActor {
                me: ActorId(i as u32),
                work: *work,
                rate: 10.0,
                started: false,
            }));
        }
        sim.run().expect_finished();
        assert_eq!(sim.world, vec![1, 2, 0]);
        assert_eq!(sim.kernel.now(), Time::from_secs(3.0));
    }

    /// Windowed stepping delivers exactly the events a monolithic run
    /// does: same world log, same clock, same `events_processed`.
    #[test]
    fn windowed_stepping_matches_monolithic_run() {
        let build = || {
            let mut sim: Sim<Vec<String>> = Sim::new(Vec::new());
            for i in 0..3u32 {
                sim.spawn(Box::new(TickActor {
                    remaining: i + 2,
                    me: ActorId(i),
                    log: vec![],
                }));
            }
            sim
        };
        let mut whole = build();
        whole.run().expect_finished();

        let mut windowed = build();
        windowed.start();
        let mut k = 1u64;
        loop {
            // Deliberately awkward window (1.3 s) so horizons fall both
            // between and exactly on event times over the run.
            let horizon = Time::from_secs(1.3 * k as f64);
            match windowed.step_until(horizon) {
                SimStep::Horizon => k += 1,
                SimStep::Quiesced => break,
            }
        }
        windowed.outcome().expect_finished();
        assert_eq!(windowed.world, whole.world);
        assert_eq!(windowed.kernel.now(), whole.kernel.now());
        assert_eq!(
            windowed.kernel.events_processed(),
            whole.kernel.events_processed()
        );
        assert_eq!(windowed.finish_times(), whole.finish_times());
    }

    /// Quiescence is terminal: a deadlocked sim reports `Quiesced` from
    /// any horizon, and `outcome` identifies the blocked actors.
    #[test]
    fn windowed_stepping_detects_deadlock() {
        let mut sim: Sim<()> = Sim::new(());
        let id = sim.spawn(Box::new(StuckActor));
        sim.start();
        assert_eq!(sim.step_until(Time::from_secs(1.0)), SimStep::Quiesced);
        assert_eq!(sim.step_until(Time::NEVER), SimStep::Quiesced);
        assert_eq!(sim.outcome(), SimOutcome::Deadlock(vec![id]));
    }

    #[test]
    fn determinism_two_identical_runs() {
        let run = || {
            let mut sim: Sim<Vec<u32>> = Sim::new(Vec::new());
            for i in 0..8u32 {
                sim.spawn(Box::new(ComputeActor {
                    me: ActorId(i),
                    work: ((i * 7 + 3) % 5 + 1) as f64,
                    rate: 2.0,
                    started: false,
                }));
            }
            sim.run().expect_finished();
            (sim.world.clone(), sim.kernel.now())
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod daemon_tests {
    use super::*;

    struct Idle;
    impl Actor<()> for Idle {
        fn resume(&mut self, _: &mut Kernel, _: &mut (), _: Wake) -> Status {
            Status::Blocked
        }
    }

    struct OneShot;
    impl Actor<()> for OneShot {
        fn resume(&mut self, _: &mut Kernel, _: &mut (), _: Wake) -> Status {
            Status::Finished
        }
    }

    #[test]
    fn blocked_daemon_is_not_a_deadlock() {
        let mut sim: Sim<()> = Sim::new(());
        sim.spawn_daemon(Box::new(Idle));
        sim.spawn(Box::new(OneShot));
        assert_eq!(sim.run(), SimOutcome::AllFinished);
    }

    #[test]
    fn blocked_regular_actor_still_deadlocks() {
        let mut sim: Sim<()> = Sim::new(());
        sim.spawn_daemon(Box::new(Idle));
        let stuck = sim.spawn(Box::new(Idle));
        match sim.run() {
            SimOutcome::Deadlock(b) => assert_eq!(b, vec![stuck]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }
}
