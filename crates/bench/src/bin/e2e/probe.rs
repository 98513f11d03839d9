//! A delegating [`GossipProtocol`] that observes a protocol from outside.
//!
//! `drive` calls a protocol's `plan`, `commit` and `apply_effect` from
//! inside the cycle, where the harness cannot put a span. [`Probed`] wraps
//! the protocol, forwards every call unchanged, and — when `timed` — sums
//! the time and number of calls per phase, so a traced run can split a
//! `drive` span into protocol time and engine time without touching the
//! library. It always notes when each cycle ends (the first `finish_cycle`
//! call of a cycle), which is the only per-cycle clock a transport run
//! offers: `TransportRuntime::drive` takes no observer.
//!
//! Every counter is a `Relaxed` atomic: each is a statistic that publishes
//! no other data, read only after `drive` has returned (and joined its
//! actors).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

use p3q_sim::{CommitOutcome, CycleContext, EffectContext, ExchangePlan, GossipProtocol};
use rand::rngs::StdRng;

use crate::span::Tracer;

/// Calls and summed busy nanoseconds of one protocol phase.
#[derive(Debug, Default)]
struct Phase {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl Phase {
    fn time<T>(&self, timed: bool, f: impl FnOnce() -> T) -> T {
        if !timed {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        out
    }

    fn take(&self) -> (u64, u64) {
        (self.calls.swap(0, Relaxed), self.busy_ns.swap(0, Relaxed))
    }
}

/// Span names of one protocol's three phases.
#[derive(Debug, Clone, Copy)]
pub struct PhaseNames {
    pub plan: &'static str,
    pub commit: &'static str,
    pub effects: &'static str,
}

pub const LAZY_PHASES: PhaseNames = PhaseNames {
    plan: "core.lazy.plan",
    commit: "core.lazy.commit",
    // The lazy mode defers nothing (`Effect = ()`); the name is never used.
    effects: "core.lazy.effects",
};

pub const EAGER_PHASES: PhaseNames = PhaseNames {
    plan: "core.eager.plan",
    commit: "core.eager.commit",
    effects: "core.eager.effects",
};

/// The wrapper. See the module docs.
#[derive(Debug)]
pub struct Probed<P> {
    inner: P,
    timed: bool,
    plan: Phase,
    commit: Phase,
    effects: Phase,
    last_cycle: AtomicU64,
    cycle_ends: Mutex<Vec<Instant>>,
}

impl<P> Probed<P> {
    /// Wraps `inner`; phase timing only when `timed`.
    pub fn new(inner: P, timed: bool) -> Self {
        Self {
            inner,
            timed,
            plan: Phase::default(),
            commit: Phase::default(),
            effects: Phase::default(),
            last_cycle: AtomicU64::new(u64::MAX),
            cycle_ends: Mutex::new(Vec::new()),
        }
    }

    /// Takes the phase totals since the last call and records them as
    /// aggregate children of the tracer's innermost open span. `lanes` is
    /// the number of workers the calls ran on (one for the simulator, the
    /// actor count for transport).
    pub fn record_phases(&self, tracer: &mut Tracer, names: PhaseNames, lanes: usize) {
        for (name, phase) in [
            (names.plan, &self.plan),
            (names.commit, &self.commit),
            (names.effects, &self.effects),
        ] {
            let (calls, busy_ns) = phase.take();
            tracer.aggregate(name, calls, busy_ns, lanes);
        }
    }

    /// The instants at which cycles ended since the last call, in order.
    pub fn take_cycle_ends(&self) -> Vec<Instant> {
        std::mem::take(
            &mut *self
                .cycle_ends
                .lock()
                .expect("no holder of the cycle-end lock panics"),
        )
    }
}

impl<P: GossipProtocol> GossipProtocol for Probed<P> {
    type Node = P::Node;
    type Payload = P::Payload;
    type Effect = P::Effect;
    type Scratch = P::Scratch;

    fn scratch(&self) -> Self::Scratch {
        self.inner.scratch()
    }

    fn prepare(&self, node: &mut Self::Node, cycle: u64) {
        self.inner.prepare(node, cycle);
    }

    fn on_crash(&self, node: &mut Self::Node, cycle: u64) {
        self.inner.on_crash(node, cycle);
    }

    fn on_restart(&self, node: &mut Self::Node, cycle: u64) {
        self.inner.on_restart(node, cycle);
    }

    fn plan(
        &self,
        world: &CycleContext<'_, Self::Node>,
        idx: usize,
        rng: &mut StdRng,
        out: &mut Vec<ExchangePlan<Self::Payload>>,
    ) {
        self.plan
            .time(self.timed, || self.inner.plan(world, idx, rng, out));
    }

    fn commit(
        &self,
        cycle: u64,
        plan: &ExchangePlan<Self::Payload>,
        initiator: &mut Self::Node,
        destination: Option<&mut Self::Node>,
        rng: &mut StdRng,
        scratch: &mut Self::Scratch,
    ) -> CommitOutcome<Self::Effect> {
        self.commit.time(self.timed, || {
            self.inner
                .commit(cycle, plan, initiator, destination, rng, scratch)
        })
    }

    fn apply_effect(&self, world: &mut EffectContext<'_, Self::Node>, effect: Self::Effect) {
        self.effects
            .time(self.timed, || self.inner.apply_effect(world, effect));
    }

    fn begin_run(&self, until_idle: bool) {
        self.inner.begin_run(until_idle);
    }

    fn finish_cycle(&self, node: &mut Self::Node, cycle: u64) {
        // The first `finish_cycle` of a cycle, from whichever worker gets
        // here first, marks the cycle's end.
        if self.last_cycle.load(Relaxed) != cycle && self.last_cycle.swap(cycle, Relaxed) != cycle {
            self.cycle_ends
                .lock()
                .expect("no holder of the cycle-end lock panics")
                .push(Instant::now());
        }
        self.inner.finish_cycle(node, cycle);
    }

    fn wants_more(&self, node: &Self::Node, cycle: u64) -> bool {
        self.inner.wants_more(node, cycle)
    }

    fn effect_target(&self, effect: &Self::Effect) -> Option<usize> {
        self.inner.effect_target(effect)
    }
}
