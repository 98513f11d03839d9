//! The cycle sequencer: the one place that knows the order of a gossip
//! cycle's phases and when an until-idle run may stop.
//!
//! [`Sequencer::run_cycle`] draws the cycle seed, fires the fault
//! schedule's node transitions, and walks *prepare → plan → fault filter →
//! conflict-free batches → per batch: commit, then charges and effects
//! outcome by outcome in plan order → finish and idle test*. It never
//! touches a node: everything per node happens behind a [`Substrate`], one
//! method per phase. Three substrates execute it —
//!
//! * the simulator's in-process parallel one (`engine.rs`): chunked
//!   fan-out over worker threads;
//! * the sequential [`Shard`](crate::Shard): plain loops over a run of
//!   nodes — the whole population for
//!   [`RunOptions::oracle`](crate::RunOptions::oracle), one actor's slice in
//!   `p3q_transport`;
//! * `p3q_transport`'s mailbox substrate: each phase is the messages that
//!   make the shard actors run it.
//!
//! — so plan order, fault filtering, batching and apply order are the same
//! on all of them by construction; what a substrate must still get right
//! is listed on the trait.

use rand::rngs::StdRng;
use rand::Rng;

use crate::bandwidth::BandwidthRecorder;
use crate::driver::RunReport;
use crate::engine::CycleReport;
use crate::exchange::{conflict_free_batches, CommitOutcome, ExchangePlan, GossipProtocol};
use crate::fault::{FaultPlan, FaultTransitions};
use crate::membership::Membership;

/// The run state every runtime keeps between cycles and lends to
/// [`Sequencer::run_cycle`].
#[derive(Debug, Clone)]
pub struct RunState {
    /// Who is alive; within a run only the fault schedule's transitions
    /// change it.
    pub membership: Membership,
    /// Number of completed cycles.
    pub cycle: u64,
    /// The master RNG: exactly one draw per cycle.
    pub rng: StdRng,
}

/// Where node state lives and how a phase reaches it. One method per
/// phase; [`Sequencer::run_cycle`] calls them in cycle order and nothing
/// per node crosses this interface.
///
/// For a run to be byte-identical across substrates an implementation
/// must: run `on_restart` hooks before `on_crash` hooks; plan alive nodes
/// in ascending index order with [`plan_rng`](crate::exchange::plan_rng)
/// against the post-prepare state; commit plan `i` with
/// `commit_rng(cycle_seed, i)` on the initiator and destination the plan
/// names and return a batch's outcomes in batch order, all of its commits
/// being visible before it returns; apply effects in the order given.
pub trait Substrate<P: GossipProtocol> {
    /// Runs the crash/restart hooks over the transitioned nodes.
    fn transitions(&mut self, proto: &P, cycle: u64, transitions: &FaultTransitions);

    /// Runs [`GossipProtocol::prepare`] on every alive node.
    fn prepare(&mut self, proto: &P, cycle: u64, membership: &Membership);

    /// Plans every alive node against the post-prepare state.
    fn plan(
        &mut self,
        proto: &P,
        cycle: u64,
        cycle_seed: u64,
        membership: &Membership,
    ) -> Vec<ExchangePlan<P::Payload>>;

    /// Commits one conflict-free batch (indices into `plans`).
    fn commit_batch(
        &mut self,
        proto: &P,
        cycle: u64,
        cycle_seed: u64,
        plans: &[ExchangePlan<P::Payload>],
        batch: &[usize],
    ) -> Vec<CommitOutcome<P::Effect>>;

    /// Applies one outcome's effects, which only change nodes: the
    /// outcome's charges, the only bytes it bills, are the sequencer's.
    fn effects(&mut self, proto: &P, effects: impl IntoIterator<Item = P::Effect>);

    /// Runs [`GossipProtocol::finish_cycle`] on **every** node, departed
    /// ones included (completion tracking must not freeze when a querier
    /// crashes mid-run); `cycle` is the number of now-completed cycles.
    /// When `probe` carries the membership, also answers whether any alive
    /// node reports [`GossipProtocol::wants_more`]; without it the answer
    /// is not looked at.
    fn finish(&mut self, proto: &P, cycle: u64, probe: Option<&Membership>) -> bool;
}

/// One run of the cycle sequencer: the protocol, the fault schedule, the
/// stop rule and the totals so far. A runtime's `drive` begins one, calls
/// [`run_cycle`](Self::run_cycle) up to its cycle budget — doing between
/// cycles whatever is its own (the observer, actor restarts) — and
/// returns the [`report`](Self::report).
#[derive(Debug)]
pub struct Sequencer<'a, P: GossipProtocol> {
    proto: &'a P,
    faults: Option<&'a mut FaultPlan<P::Payload>>,
    until_idle: bool,
    /// What the run has executed so far.
    pub report: RunReport,
}

impl<'a, P> Sequencer<'a, P>
where
    P: GossipProtocol,
    P::Payload: Clone,
{
    /// Starts a run ([`GossipProtocol::begin_run`] fires here).
    pub fn begin(
        proto: &'a P,
        faults: Option<&'a mut FaultPlan<P::Payload>>,
        until_idle: bool,
    ) -> Self {
        proto.begin_run(until_idle);
        Self {
            proto,
            faults,
            until_idle,
            report: RunReport::default(),
        }
    }

    /// Executes one plan/commit cycle on `substrate` — commit charges, the
    /// only bytes a run bills, go to `bandwidth`, the run's recorder — and
    /// returns `true` when an until-idle run is over: the cycle
    /// committed no pairwise exchange and — under a fault schedule —
    /// nothing is in flight either (no delayed message still due, no
    /// crashed node still down, no alive node that
    /// [`wants_more`](GossipProtocol::wants_more)).
    ///
    /// Fault transitions only consume the fault schedule's own RNG streams,
    /// so with no (or a zero-fault) schedule the cycle is bit for bit the
    /// faultless one.
    pub fn run_cycle<S: Substrate<P>>(
        &mut self,
        substrate: &mut S,
        state: &mut RunState,
        bandwidth: &mut BandwidthRecorder,
    ) -> bool {
        let proto = self.proto;
        let mut faults = self.faults.as_deref_mut();
        let membership = &mut state.membership;
        let cycle = state.cycle;
        let cycle_seed: u64 = state.rng.gen();

        if let Some(faults) = faults.as_deref_mut() {
            let transitions = faults.begin_cycle(cycle, membership);
            substrate.transitions(proto, cycle, &transitions);
        }
        substrate.prepare(proto, cycle, membership);
        let plans = substrate.plan(proto, cycle, cycle_seed, membership);
        // Delivery faults interpose between plan and commit, on the ordered
        // plan list.
        let plans = match faults.as_deref_mut() {
            Some(faults) => faults.filter_plans(cycle, plans, membership),
            None => plans,
        };

        let batches = conflict_free_batches(&plans, membership.len());
        for batch in &batches {
            for outcome in substrate.commit_batch(proto, cycle, cycle_seed, &plans, batch) {
                for charge in outcome.charges {
                    bandwidth.record(charge.node, charge.category, charge.bytes);
                }
                substrate.effects(proto, outcome.effects);
            }
        }
        state.cycle += 1;

        let pair_exchanges = plans.iter().filter(|p| p.destination.is_some()).count();
        self.report.cycles_run += 1;
        self.report.report.absorb(CycleReport {
            plans: plans.len(),
            pair_exchanges,
            solo_steps: plans.len() - pair_exchanges,
            batches: batches.len(),
        });
        // The stop rule: a quiet cycle with nothing in flight. Only a
        // faulted run that is about to stop asks `wants_more` (a backed-off
        // retry may re-ignite gossip several quiet cycles later).
        let faulted = faults.is_some();
        let settled = faults.is_none_or(|f| f.pending_delayed() == 0 && f.pending_restarts() == 0);
        let stop = self.until_idle && pair_exchanges == 0 && settled;
        let probe = (stop && faulted).then_some(&*membership);
        let wants_more = substrate.finish(proto, state.cycle, probe);
        stop && !(probe.is_some() && wants_more)
    }
}
