//! The run-loop driver API: one [`RunOptions`] builder, one `drive` entry
//! per runtime.
//!
//! ```text
//! runtime.drive(&proto, RunOptions::…, |runtime, event| { … })
//! ```
//!
//! The [`RunOptions`] builder picks the execution configuration (worker
//! threads, sequential oracle mode, fault schedule, event queue, fixed
//! cycle count or run-until-idle) and the observer closure receives
//! [`RunEvent`]s — scheduled events due before a cycle, and an end-of-cycle
//! hook. `Simulator::drive` is the in-process implementation;
//! `p3q_transport`'s runtime drives the same protocols over message-passing
//! actors with the same options. Both execute their cycles through the
//! [`Sequencer`](crate::Sequencer), which also owns the stop rule below.
//!
//! # Run-until-idle semantics
//!
//! [`RunOptions::until_complete`] stops after the first cycle that commits
//! zero pairwise exchanges — unless a fault schedule is attached, in which
//! case the run also requires nothing to be in flight: no delayed message
//! still due, no crashed node still down, and no alive node reporting
//! [`wants_more`](crate::GossipProtocol::wants_more) (a backed-off retry may
//! re-ignite gossip several quiet cycles later).

use crate::engine::CycleReport;
use crate::fault::FaultPlan;
use crate::schedule::EventQueue;

/// Execution configuration for one `drive` call.
///
/// `Pl` is the protocol's plan payload (tied to `P::Payload` by `drive`);
/// `E` is the scheduled-event type, pinned to `()` until
/// [`events`](Self::events) attaches a queue. The fields are what the
/// builder methods set; a runtime's `drive` reads them, and one that cannot
/// honour a choice (a transport has no worker threads to override) rejects
/// it there.
///
/// ```ignore
/// // 3 cycles, default threads:
/// sim.drive(&proto, RunOptions::cycles(3), |_, _| {});
/// // faulted until-idle run on one worker, observing cycle ends:
/// sim.drive(
///     &proto,
///     RunOptions::until_complete(50).threads(1).faulted(&mut faults),
///     |sim, event| if let RunEvent::CycleEnd(c) = event { sample(sim, c) },
/// );
/// ```
#[derive(Debug)]
pub struct RunOptions<'a, Pl, E = ()> {
    /// Requested worker-thread count, if overridden.
    pub threads: Option<usize>,
    /// Whether the sequential oracle substrate was requested.
    pub oracle: bool,
    /// The attached fault schedule, if any.
    pub faults: Option<&'a mut FaultPlan<Pl>>,
    /// The attached event queue, if any.
    pub events: Option<&'a mut EventQueue<E>>,
    /// Maximum number of cycles to run.
    pub cycles: u64,
    /// Whether the run stops at the first idle cycle.
    pub until_idle: bool,
}

impl<'a, Pl> RunOptions<'a, Pl, ()> {
    /// Runs exactly `count` cycles.
    pub fn cycles(count: u64) -> Self {
        Self {
            threads: None,
            oracle: false,
            faults: None,
            events: None,
            cycles: count,
            until_idle: false,
        }
    }

    /// Runs until the protocol goes idle (see the module docs for the exact
    /// condition), but at most `max_cycles` cycles.
    pub fn until_complete(max_cycles: u64) -> Self {
        Self {
            until_idle: true,
            ..Self::cycles(max_cycles)
        }
    }
}

impl<'a, Pl, E> RunOptions<'a, Pl, E> {
    /// Overrides the worker-thread count (default: `P3Q_THREADS` or the
    /// machine's available parallelism). Output never depends on it.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Executes on the sequential [`Shard`](crate::Shard) — plain loops, no
    /// worker threads. The property suites pin the parallel substrate
    /// byte-identical against this mode.
    pub fn oracle(mut self) -> Self {
        self.oracle = true;
        self
    }

    /// Attaches a fault schedule: node transitions fire at each cycle start
    /// and the plan list passes through
    /// [`FaultPlan::filter_plans`](crate::FaultPlan::filter_plans) before
    /// batching. A zero-fault plan leaves the run byte-identical.
    pub fn faulted(mut self, faults: &'a mut FaultPlan<Pl>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches an event queue on the cycle axis: events due at the current
    /// cycle are handed to the observer (as [`RunEvent::Scheduled`])
    /// **before** that cycle executes, and events due at the final boundary
    /// fire once more after the loop.
    pub fn events<E2>(self, events: &'a mut EventQueue<E2>) -> RunOptions<'a, Pl, E2> {
        RunOptions {
            threads: self.threads,
            oracle: self.oracle,
            faults: self.faults,
            events: Some(events),
            cycles: self.cycles,
            until_idle: self.until_idle,
        }
    }
}

/// What a `drive` observer is called with.
#[derive(Debug)]
pub enum RunEvent<E> {
    /// A scheduled event from the attached [`EventQueue`] came due; it fires
    /// before the cycle it is due at executes (and events due at the final
    /// boundary fire after the loop).
    Scheduled(E),
    /// A cycle just completed; the payload is the now-current cycle number
    /// (i.e. the count of completed cycles).
    CycleEnd(u64),
}

/// What a `drive` call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Number of cycles executed (for until-idle runs: including the final
    /// idle cycle).
    pub cycles_run: u64,
    /// The summed per-cycle counts.
    pub report: CycleReport,
}

impl RunReport {
    /// Total pairwise gossip exchanges committed across the run.
    pub fn exchanges(&self) -> usize {
        self.report.pair_exchanges
    }
}
