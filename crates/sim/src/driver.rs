//! The run-loop driver API: one [`RunOptions`] builder, one `drive` entry
//! per runtime.
//!
//! ```text
//! runtime.drive(&proto, RunOptions::…, |runtime, event| { … })
//! ```
//!
//! The [`RunOptions`] builder picks the execution configuration (worker
//! threads, sequential oracle mode, fault schedule, fixed cycle count or
//! run-until-idle) and the observer closure receives a [`RunEvent`] at the
//! end of every cycle: it is the one place where an experiment acts between
//! cycles (apply profile changes, make users depart, sample a metric), as
//! in PeerSim's cycle-driven model. `Simulator::drive` is the in-process
//! implementation; `p3q_transport`'s runtime drives the same protocols over
//! message-passing actors with the same options. Both execute their cycles
//! through the [`Sequencer`](crate::Sequencer), which also owns the stop
//! rule below.
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

/// Execution configuration for one `drive` call.
///
/// `Pl` is the protocol's plan payload (tied to `P::Payload` by `drive`).
/// The fields are what the builder methods set; a runtime's `drive` reads
/// them, and one that cannot honour a choice (a transport has no worker
/// threads to override) rejects it there.
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
pub struct RunOptions<'a, Pl> {
    /// Requested worker-thread count, if overridden.
    pub threads: Option<usize>,
    /// Whether the sequential oracle substrate was requested.
    pub oracle: bool,
    /// The attached fault schedule, if any.
    pub faults: Option<&'a mut FaultPlan<Pl>>,
    /// Maximum number of cycles to run.
    pub cycles: u64,
    /// Whether the run stops at the first idle cycle.
    pub until_idle: bool,
}

impl<'a, Pl> RunOptions<'a, Pl> {
    /// Runs exactly `count` cycles.
    pub fn cycles(count: u64) -> Self {
        Self {
            threads: None,
            oracle: false,
            faults: None,
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
    /// and the plan list passes through `FaultPlan::filter_plans` before
    /// batching. A zero-fault plan leaves the run byte-identical.
    pub fn faulted(mut self, faults: &'a mut FaultPlan<Pl>) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// What a `drive` observer is called with.
///
/// Non-exhaustive: an observer outside this crate matches it with `if let`
/// or `let … else`, and that pattern stays refutable although the enum has
/// one variant.
#[derive(Debug)]
#[non_exhaustive]
pub enum RunEvent {
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
