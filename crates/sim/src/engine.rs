//! The cycle-driven simulation engine: the [`Simulator`] and the
//! in-process parallel substrate its cycles execute on.
//!
//! The paper evaluates P3Q in PeerSim's *cycle-driven* mode: time advances
//! in discrete gossip cycles; in every cycle each alive node executes its
//! protocol step and pairwise gossip exchanges (initiator ↔ destination)
//! complete within the cycle. Here a cycle is the plan/commit sequence of
//! [`Sequencer::run_cycle`] (the phase order, the fault interposition
//! points and the stop rule live there, once, for every runtime); this
//! module supplies what makes it parallel *and* deterministic in process:
//!
//! 1. **prepare** — per-node bookkeeping touches only its own node, so it
//!    fans out over the [`NodeStore`] in contiguous chunks, one per worker;
//! 2. **plan** — planning is a pure function of the post-prepare snapshot
//!    ([`CycleContext`]) and a per-node RNG, so it fans out over the alive
//!    list with [`parallel_map`] and the plan list is the same for every
//!    thread count;
//! 3. **commit** — within a conflict-free batch no node appears twice, so
//!    each exchange gets its disjoint `&mut` node pair (`disjoint_muts`)
//!    and the batch's work list commits in parallel through [`parallel_map`];
//! 4. **apply** — commits return deferred bandwidth charges and
//!    third-party effects as data; the sequencer applies them
//!    sequentially, in plan order, before the next batch starts.
//!
//! Because commits only touch their own pair and everything cross-pair is
//! deferred to phase 4, the run is **byte-identical for every thread
//! count**. [`RunOptions::oracle`](crate::RunOptions::oracle) runs the same
//! sequencer on the sequential [`Shard`] instead; the property suites pin
//! the parallel substrate (any `P3Q_THREADS`) against it.
//!
//! All randomness flows from the construction seed: each cycle draws one
//! seed from the master RNG, and per-node planning / per-plan commit RNGs
//! are derived from it by index, never by execution order.
//!
//! # Fault model
//!
//! [`RunOptions::faulted`](crate::RunOptions::faulted) executes the same
//! cycle under a seeded [`FaultPlan`](crate::FaultPlan), which interposes
//! at two well-defined points:
//!
//! * **cycle start** (before prepare): due restarts rejoin the
//!   [`Membership`] and fresh crashes depart it; the protocol's
//!   [`GossipProtocol::on_restart`] / [`GossipProtocol::on_crash`] hooks
//!   run over the transitioned nodes. Crash semantics split node state in
//!   two: **volatile** state (query books, in-flight exchanges, cached
//!   views, unflushed digests) is lost by `on_crash`, while **at-rest**
//!   state (the node's own durable profile) survives and is all a restarted
//!   node comes back with — rebuilding views is the protocol's job, done
//!   through its ordinary plan phase once the node is alive again.
//! * **between plan and commit**: the ordered plan list passes through
//!   [`FaultPlan::filter_plans`](crate::FaultPlan::filter_plans), which may
//!   drop, delay (re-injecting in a later cycle) or duplicate *pairwise*
//!   plans.
//!
//! Delivery guarantees per phase: *prepare* and *solo* plans are local
//! computation and always execute on alive nodes; *pairwise* commits are
//! exactly the messages on the wire, so only they face delivery faults;
//! *charges and effects* of a commit that did execute are always applied
//! (an exchange either happens atomically or not at all — there are no
//! torn exchanges). Fault randomness comes from dedicated
//! [`stream_seed`](crate::parallel::stream_seed) streams of the
//! `FaultConfig`'s own seed, so a zero-fault `FaultPlan` leaves a run
//! byte-identical to a faultless one, and every faulted run stays
//! byte-identical across `P3Q_THREADS` (faults are decided on the ordered,
//! thread-independent plan list).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bandwidth::BandwidthRecorder;
use crate::cycle::{RunState, Sequencer, Substrate};
use crate::driver::{RunEvent, RunOptions, RunReport};
use crate::exchange::{
    commit_rng, plan_rng, CommitOutcome, CycleContext, ExchangePlan, GossipProtocol,
};
use crate::fault::FaultTransitions;
use crate::membership::Membership;
use crate::parallel::{default_threads, parallel_map};
use crate::shard::Shard;
use crate::store::NodeStore;

/// What one executed cycle did, mostly for drivers that stop when gossip
/// dries up (e.g. eager query processing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleReport {
    /// Total number of plans emitted.
    pub plans: usize,
    /// Plans with a destination (pairwise gossip exchanges committed).
    pub pair_exchanges: usize,
    /// Solo plans (self-updates from read-only observations).
    pub solo_steps: usize,
    /// Number of conflict-free batches the plans were grouped into.
    pub batches: usize,
}

impl CycleReport {
    /// Adds another cycle's counts into this one.
    pub fn absorb(&mut self, other: CycleReport) {
        self.plans += other.plans;
        self.pair_exchanges += other.pair_exchanges;
        self.solo_steps += other.solo_steps;
        self.batches += other.batches;
    }
}

/// A deterministic, cycle-driven peer-to-peer simulator.
///
/// Cloning (when the node type is cloneable) snapshots the entire run —
/// node states, membership, RNG position and bandwidth counters — which is
/// how the benchmark harness replays one warmed-up state under several
/// execution configurations.
#[derive(Debug, Clone)]
pub struct Simulator<N> {
    nodes: NodeStore<N>,
    run: RunState,
    /// Bandwidth and message accounting for the whole run.
    pub bandwidth: BandwidthRecorder,
}

impl<N> Simulator<N> {
    /// Creates a simulator over the given per-node protocol states.
    pub fn new(nodes: Vec<N>, seed: u64) -> Self {
        let run = RunState {
            membership: Membership::all_alive(nodes.len()),
            cycle: 0,
            // p3q-allow: rng-source — this is the root of the stream: the
            // caller-supplied run seed every stream_seed derivation hangs off.
            rng: StdRng::seed_from_u64(seed),
        };
        Self {
            nodes: NodeStore::new(nodes),
            run,
            bandwidth: BandwidthRecorder::new(),
        }
    }

    /// Number of nodes (alive or departed).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Current cycle (number of completed cycles driven so far).
    pub fn cycle(&self) -> u64 {
        self.run.cycle
    }

    /// Immutable access to one node's state.
    pub fn node(&self, idx: usize) -> &N {
        self.nodes.get(idx)
    }

    /// Mutable access to one node's state.
    pub fn node_mut(&mut self, idx: usize) -> &mut N {
        self.nodes.get_mut(idx)
    }

    /// All node states (the store keeps them in one contiguous allocation,
    /// so the whole population is still a plain slice).
    pub fn nodes(&self) -> &[N] {
        self.nodes.as_slice()
    }

    /// The node store backing the simulator.
    pub fn node_store(&self) -> &NodeStore<N> {
        &self.nodes
    }

    /// Moves every node out and leaves the simulator holding zero nodes;
    /// its membership, cycle, RNG position and bandwidth counters stay as
    /// they were. How another runtime takes the population over without a
    /// copy.
    pub fn take_nodes(&mut self) -> Vec<N> {
        std::mem::replace(&mut self.nodes, NodeStore::new(Vec::new())).into_nodes()
    }

    /// Applies `f` to every node (as `f(index, &mut node)`), fanning
    /// contiguous chunks out to `threads` workers — the mutable fan-out for
    /// bespoke drivers and offline phases. Final state is independent of
    /// `threads`.
    pub fn for_each_node_mut<F>(&mut self, threads: usize, f: F)
    where
        N: Send,
        F: Fn(usize, &mut N) + Sync,
    {
        self.nodes.for_each_mut(threads, f);
    }

    /// The membership (who is alive).
    pub fn membership(&self) -> &Membership {
        &self.run.membership
    }

    /// Mutable membership, e.g. to inject churn **between** cycles (the
    /// membership is frozen while a cycle executes).
    pub fn membership_mut(&mut self) -> &mut Membership {
        &mut self.run.membership
    }

    /// Returns `true` if node `idx` is alive.
    pub fn is_alive(&self, idx: usize) -> bool {
        self.run.membership.is_alive(idx)
    }

    /// The simulator's RNG (all protocol randomness should flow from here so
    /// runs stay reproducible).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.run.rng
    }

    /// Derives an independent, deterministic RNG for a labelled purpose,
    /// without disturbing the main RNG stream.
    pub fn derived_rng(&mut self, label: u64) -> StdRng {
        let base: u64 = self.run.rng.gen();
        // p3q-allow: rng-source — deterministic label-keyed derivation off
        // the root RNG stream; same role as stream_seed.
        StdRng::seed_from_u64(base ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Makes a random `fraction` of the alive nodes depart simultaneously
    /// (the paper's churn model). Returns the departed node indices.
    pub fn mass_departure(&mut self, fraction: f64) -> Vec<usize> {
        self.run
            .membership
            .mass_departure(fraction, &mut self.run.rng)
    }
}

impl<N: Send + Sync> Simulator<N> {
    /// The one run-loop entry: executes cycles of `proto` under the given
    /// [`RunOptions`], invoking `observer` with [`RunEvent::CycleEnd`] after
    /// each — the one place where a caller acts between cycles.
    ///
    /// The options pick the substrate the cycle [`Sequencer`] executes on —
    /// worker threads, or the sequential oracle shard — and carry the fault
    /// schedule and the loop shape (fixed cycle count vs run-until-idle);
    /// output is byte-identical for every thread choice and for the oracle
    /// mode. Every protocol hook fires from the sequencer.
    pub fn drive<P>(
        &mut self,
        proto: &P,
        opts: RunOptions<'_, P::Payload>,
        mut observer: impl FnMut(&mut Self, RunEvent),
    ) -> RunReport
    where
        P: GossipProtocol<Node = N>,
        P::Payload: Clone,
    {
        let threads = opts.threads.unwrap_or_else(default_threads);
        let mut sequencer = Sequencer::begin(proto, opts.faults, opts.until_idle);
        for _ in 0..opts.cycles {
            let (state, bandwidth) = (&mut self.run, &mut self.bandwidth);
            let mut shard = Shard::new(0, &mut self.nodes);
            let done = if opts.oracle {
                sequencer.run_cycle(&mut shard, state, bandwidth)
            } else {
                sequencer.run_cycle(&mut Workers { shard, threads }, state, bandwidth)
            };
            observer(self, RunEvent::CycleEnd(self.run.cycle));
            if done {
                break;
            }
        }
        sequencer.report
    }
}

/// The in-process parallel substrate: the phases that fan out (prepare,
/// plan, commit) run on `threads` workers over the shard's [`NodeStore`];
/// the inherently sequential ones are the [`Shard`]'s own.
struct Workers<'a, N> {
    shard: Shard<'a, N>,
    threads: usize,
}

impl<P: GossipProtocol> Substrate<P> for Workers<'_, P::Node> {
    fn transitions(&mut self, proto: &P, cycle: u64, transitions: &FaultTransitions) {
        self.shard.transitions(proto, cycle, transitions);
    }

    /// Fans out contiguous chunks of the store, so each worker mutates one
    /// contiguous region.
    fn prepare(&mut self, proto: &P, cycle: u64, membership: &Membership) {
        let prepare = |idx, node: &mut P::Node| {
            if membership.is_alive(idx) {
                proto.prepare(node, cycle);
            }
        };
        self.shard.nodes.for_each_mut(self.threads, prepare);
    }

    fn plan(
        &mut self,
        proto: &P,
        cycle: u64,
        cycle_seed: u64,
        membership: &Membership,
    ) -> Vec<ExchangePlan<P::Payload>> {
        let world = CycleContext::new(self.shard.nodes.as_slice(), membership, cycle);
        parallel_map(
            membership.alive_nodes(),
            self.threads,
            || (),
            |idx, ()| {
                let mut rng = plan_rng(cycle_seed, idx);
                let mut out = Vec::new();
                proto.plan(&world, idx, &mut rng, &mut out);
                out
            },
        )
        .into_iter()
        .flatten()
        .collect()
    }

    /// Hands every exchange its disjoint `&mut` node pair and fans the
    /// commits out, returning the outcomes in plan order.
    fn commit_batch(
        &mut self,
        proto: &P,
        cycle: u64,
        cycle_seed: u64,
        plans: &[ExchangePlan<P::Payload>],
        batch: &[usize],
    ) -> Vec<CommitOutcome<P::Effect>> {
        let nodes = &mut *self.shard.nodes;
        // Aliasing-sanitizer window (debug builds): every mutable borrow
        // until `end_commit_batch` is checked for same-batch overlap.
        nodes.begin_commit_batch();
        // Every node appears at most once in the batch, so the involved
        // indices are unique and their `&mut`s disjoint.
        let mut involved: Vec<usize> = batch
            .iter()
            .flat_map(|&i| {
                let plan = &plans[i];
                std::iter::once(plan.initiator).chain(plan.destination)
            })
            .collect();
        involved.sort_unstable();
        let mut slots: Vec<Option<&mut P::Node>> = nodes
            .disjoint_muts(&involved)
            .into_iter()
            .map(Some)
            .collect();
        let mut take = |idx: usize| -> &mut P::Node {
            let pos = involved
                .binary_search(&idx)
                .expect("batched plan endpoints are in the involved set");
            slots[pos].take().expect("each endpoint is taken once")
        };

        struct Work<'a, N, P> {
            plan: &'a ExchangePlan<P>,
            plan_idx: usize,
            initiator: &'a mut N,
            destination: Option<&'a mut N>,
        }
        let work: Vec<Work<'_, P::Node, P::Payload>> = batch
            .iter()
            .map(|&i| {
                let plan = &plans[i];
                Work {
                    plan,
                    plan_idx: i,
                    initiator: take(plan.initiator),
                    destination: plan.destination.map(&mut take),
                }
            })
            .collect();

        let outcomes = parallel_map(
            work,
            self.threads,
            || proto.scratch(),
            |w, scratch| {
                let mut rng = commit_rng(cycle_seed, w.plan_idx);
                proto.commit(cycle, w.plan, w.initiator, w.destination, &mut rng, scratch)
            },
        );
        nodes.end_commit_batch();
        outcomes
    }

    fn effects(&mut self, proto: &P, effects: impl IntoIterator<Item = P::Effect>) {
        self.shard.effects(proto, effects);
    }

    fn finish(&mut self, proto: &P, cycle: u64, probe: Option<&Membership>) -> bool {
        self.shard.finish(proto, cycle, probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{RunEvent, RunOptions};
    use crate::exchange::EffectContext;

    /// A toy protocol: every alive node gossips with the next alive node
    /// (by index, cyclically), both sides count the exchange, a bandwidth
    /// charge is recorded, and an effect increments a counter on node 0.
    struct RingProtocol;

    #[derive(Debug, Default, Clone, PartialEq, Eq)]
    struct Counter {
        initiated: u64,
        received: u64,
        effects: u64,
        prepared: u64,
        crashes: u64,
        restarts: u64,
    }

    impl GossipProtocol for RingProtocol {
        type Node = Counter;
        type Payload = ();
        type Effect = usize;
        type Scratch = ();

        fn scratch(&self) {}

        fn prepare(&self, node: &mut Counter, _cycle: u64) {
            node.prepared += 1;
        }

        fn plan(
            &self,
            world: &CycleContext<'_, Counter>,
            idx: usize,
            _rng: &mut StdRng,
            out: &mut Vec<ExchangePlan<()>>,
        ) {
            let n = world.num_nodes();
            let partner = (1..n).map(|d| (idx + d) % n).find(|&p| world.is_alive(p));
            if let Some(partner) = partner {
                out.push(ExchangePlan {
                    initiator: idx,
                    destination: Some(partner),
                    payload: (),
                });
            }
        }

        fn commit(
            &self,
            _cycle: u64,
            plan: &ExchangePlan<()>,
            initiator: &mut Counter,
            destination: Option<&mut Counter>,
            _rng: &mut StdRng,
            _scratch: &mut (),
        ) -> CommitOutcome<usize> {
            initiator.initiated += 1;
            destination.expect("ring plans are pairwise").received += 1;
            let mut outcome = CommitOutcome::empty();
            outcome.charge(plan.initiator, "ring", 10);
            outcome.effect(0);
            outcome
        }

        fn apply_effect(&self, world: &mut EffectContext<'_, Counter>, target: usize) {
            world.node_mut(target).effects += 1;
        }

        fn on_crash(&self, node: &mut Counter, _cycle: u64) {
            // "Volatile" state for the toy protocol: the exchange counters.
            node.initiated = 0;
            node.received = 0;
            node.crashes += 1;
        }

        fn on_restart(&self, node: &mut Counter, _cycle: u64) {
            node.restarts += 1;
        }
    }

    fn counters(n: usize, seed: u64) -> Simulator<Counter> {
        Simulator::new(vec![Counter::default(); n], seed)
    }

    #[test]
    fn run_cycle_visits_every_alive_node_once() {
        let mut sim = counters(10, 1);
        let report = sim
            .drive(&RingProtocol, RunOptions::cycles(1), |_, _| {})
            .report;
        assert_eq!(sim.cycle(), 1);
        assert_eq!(report.plans, 10);
        assert_eq!(report.pair_exchanges, 10);
        assert!(sim.nodes().iter().all(|c| c.initiated == 1));
        assert!(sim.nodes().iter().all(|c| c.received == 1));
        assert!(sim.nodes().iter().all(|c| c.prepared == 1));
        assert_eq!(sim.node(0).effects, 10);
        assert_eq!(sim.bandwidth.totals(), (100, 10));
    }

    #[test]
    fn departed_nodes_neither_plan_nor_receive() {
        let mut sim = counters(4, 2);
        sim.membership_mut().depart(2);
        sim.drive(&RingProtocol, RunOptions::cycles(3), |_, _| {});
        assert_eq!(sim.node(2), &Counter::default());
        assert_eq!(sim.node(0).initiated, 3);
        assert_eq!(sim.node(0).prepared, 3);
    }

    #[test]
    fn parallel_and_reference_agree_for_every_thread_count() {
        for threads in [1, 2, 3, 8] {
            let mut reference = counters(23, 7);
            let mut parallel = counters(23, 7);
            for _ in 0..5 {
                reference.drive(&RingProtocol, RunOptions::cycles(1).oracle(), |_, _| {});
                parallel.drive(
                    &RingProtocol,
                    RunOptions::cycles(1).threads(threads),
                    |_, _| {},
                );
            }
            assert_eq!(reference.nodes(), parallel.nodes(), "threads = {threads}");
            assert_eq!(
                reference.bandwidth, parallel.bandwidth,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn pair_mut_gives_two_distinct_references() {
        let mut sim = counters(3, 3);
        {
            let (a, b) = sim.nodes.pair_mut(0, 2);
            a.initiated += 1;
            b.initiated += 1;
        }
        {
            let (a, b) = sim.nodes.pair_mut(2, 1);
            a.initiated += 1;
            b.initiated += 1;
        }
        assert_eq!(sim.node(0).initiated, 1);
        assert_eq!(sim.node(1).initiated, 1);
        assert_eq!(sim.node(2).initiated, 2);
    }

    #[test]
    #[should_panic(expected = "distinct nodes")]
    fn pair_mut_rejects_same_index() {
        let mut sim = counters(2, 0);
        let _ = sim.nodes.pair_mut(1, 1);
    }

    #[test]
    fn runs_are_reproducible_for_a_seed() {
        let run = |seed: u64| {
            let mut sim = counters(20, seed);
            sim.drive(&RingProtocol, RunOptions::cycles(3), |_, _| {});
            (sim.nodes().to_vec(), sim.bandwidth.totals())
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn mass_departure_reduces_alive_count() {
        let mut sim = counters(100, 5);
        let departed = sim.mass_departure(0.5);
        assert_eq!(departed.len(), 50);
        assert_eq!(sim.membership().alive_count(), 50);
    }

    #[test]
    fn derived_rngs_are_deterministic_and_distinct() {
        let mut sim1 = counters(1, 11);
        let mut sim2 = counters(1, 11);
        let a: u64 = sim1.derived_rng(1).gen();
        let b: u64 = sim2.derived_rng(1).gen();
        assert_eq!(a, b);
        let c: u64 = sim1.derived_rng(2).gen();
        assert_ne!(a, c);
    }

    #[test]
    fn zero_fault_runs_are_byte_identical_to_the_faultless_engine() {
        use crate::fault::{FaultConfig, FaultPlan};
        for threads in [1, 3, 8] {
            let mut plain = counters(23, 7);
            let mut faulted = counters(23, 7);
            let mut faults: FaultPlan<()> = FaultPlan::new(FaultConfig::none());
            for _ in 0..5 {
                plain.drive(
                    &RingProtocol,
                    RunOptions::cycles(1).threads(threads),
                    |_, _| {},
                );
                faulted.drive(
                    &RingProtocol,
                    RunOptions::cycles(1).threads(threads).faulted(&mut faults),
                    |_, _| {},
                );
            }
            assert_eq!(plain.nodes(), faulted.nodes(), "threads = {threads}");
            assert_eq!(
                plain.bandwidth.totals(),
                faulted.bandwidth.totals(),
                "threads = {threads}"
            );
            assert_eq!(faults.stats(), Default::default());
        }
    }

    #[test]
    fn faulted_parallel_and_reference_agree_for_every_thread_count() {
        use crate::fault::{FaultConfig, FaultPlan};
        let cfg = FaultConfig {
            drop_rate: 0.2,
            delay_rate: 0.2,
            duplicate_rate: 0.1,
            max_delay_cycles: 2,
            crash_rate: 0.05,
            downtime_cycles: 1,
            fault_seed: 99,
        };
        for threads in [1, 2, 3, 8] {
            let mut reference = counters(23, 7);
            let mut parallel = counters(23, 7);
            let mut ref_faults: FaultPlan<()> = FaultPlan::new(cfg);
            let mut par_faults: FaultPlan<()> = FaultPlan::new(cfg);
            for _ in 0..8 {
                reference.drive(
                    &RingProtocol,
                    RunOptions::cycles(1).oracle().faulted(&mut ref_faults),
                    |_, _| {},
                );
                parallel.drive(
                    &RingProtocol,
                    RunOptions::cycles(1)
                        .threads(threads)
                        .faulted(&mut par_faults),
                    |_, _| {},
                );
            }
            assert_eq!(reference.nodes(), parallel.nodes(), "threads = {threads}");
            assert_eq!(
                reference.bandwidth, parallel.bandwidth,
                "threads = {threads}"
            );
            assert_eq!(
                ref_faults.fingerprint(),
                par_faults.fingerprint(),
                "threads = {threads}"
            );
            assert_eq!(ref_faults.stats(), par_faults.stats());
        }
    }

    #[test]
    fn crash_and_restart_hooks_fire_on_transitioned_nodes() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut sim = counters(6, 3);
        let mut faults: FaultPlan<()> = FaultPlan::new(FaultConfig::crash_restart(1.0, 0, 5));
        sim.drive(
            &RingProtocol,
            RunOptions::cycles(1).faulted(&mut faults),
            |_, _| {},
        );
        assert_eq!(sim.membership().alive_count(), 0);
        assert!(sim
            .nodes()
            .iter()
            .all(|c| c.crashes == 1 && c.restarts == 0));
        // Downtime 0: everyone restarts at the next cycle (and, at crash
        // rate 1, crashes again right after the restart hook).
        sim.drive(
            &RingProtocol,
            RunOptions::cycles(1).faulted(&mut faults),
            |_, _| {},
        );
        assert!(sim
            .nodes()
            .iter()
            .all(|c| c.crashes == 2 && c.restarts == 1));
        assert_eq!(faults.stats().crashes, 12);
        assert_eq!(faults.stats().restarts, 6);
    }

    #[test]
    fn dropped_exchanges_never_commit() {
        use crate::fault::{FaultConfig, FaultPlan};
        let cfg = FaultConfig {
            drop_rate: 1.0,
            ..FaultConfig::none()
        };
        let mut sim = counters(8, 4);
        let mut faults: FaultPlan<()> = FaultPlan::new(cfg);
        let report = sim
            .drive(
                &RingProtocol,
                RunOptions::cycles(1).faulted(&mut faults),
                |_, _| {},
            )
            .report;
        assert_eq!(report.plans, 0);
        assert!(sim.nodes().iter().all(|c| c.initiated == 0));
        assert!(sim.nodes().iter().all(|c| c.prepared == 1));
        assert_eq!(sim.bandwidth.totals(), (0, 0));
        assert_eq!(faults.stats().dropped, 8);
    }

    #[test]
    fn duplicated_exchanges_commit_twice() {
        use crate::fault::{FaultConfig, FaultPlan};
        let cfg = FaultConfig {
            duplicate_rate: 1.0,
            ..FaultConfig::none()
        };
        let mut sim = counters(4, 4);
        let mut faults: FaultPlan<()> = FaultPlan::new(cfg);
        let report = sim
            .drive(
                &RingProtocol,
                RunOptions::cycles(1).faulted(&mut faults),
                |_, _| {},
            )
            .report;
        assert_eq!(report.plans, 8);
        assert!(sim.nodes().iter().all(|c| c.initiated == 2));
        assert!(sim.nodes().iter().all(|c| c.received == 2));
        assert_eq!(sim.bandwidth.totals(), (80, 8));
    }

    /// A protocol that goes quiet: each node initiates only its first two
    /// exchanges, so an until-idle run stops one cycle after the last one.
    struct QuietingProtocol;

    impl GossipProtocol for QuietingProtocol {
        type Node = Counter;
        type Payload = ();
        type Effect = usize;
        type Scratch = ();

        fn scratch(&self) {}

        fn plan(
            &self,
            world: &CycleContext<'_, Counter>,
            idx: usize,
            _rng: &mut StdRng,
            out: &mut Vec<ExchangePlan<()>>,
        ) {
            if world.node(idx).initiated >= 2 {
                return;
            }
            let n = world.num_nodes();
            let partner = (1..n).map(|d| (idx + d) % n).find(|&p| world.is_alive(p));
            if let Some(partner) = partner {
                out.push(ExchangePlan {
                    initiator: idx,
                    destination: Some(partner),
                    payload: (),
                });
            }
        }

        fn commit(
            &self,
            _cycle: u64,
            _plan: &ExchangePlan<()>,
            initiator: &mut Counter,
            destination: Option<&mut Counter>,
            _rng: &mut StdRng,
            _scratch: &mut (),
        ) -> CommitOutcome<usize> {
            initiator.initiated += 1;
            destination.expect("pairwise").received += 1;
            CommitOutcome::empty()
        }
    }

    #[test]
    fn until_complete_stops_after_the_first_quiet_cycle() {
        let mut sim = counters(6, 13);
        let run = sim.drive(&QuietingProtocol, RunOptions::until_complete(50), |_, _| {});
        assert_eq!(run.cycles_run, 3, "two active cycles plus the idle one");
        assert_eq!(run.exchanges(), 12);
        assert_eq!(sim.cycle(), 3);
        // A fresh until-idle drive stops immediately (still counts the
        // quiet probe cycle).
        let rerun = sim.drive(&QuietingProtocol, RunOptions::until_complete(50), |_, _| {});
        assert_eq!(rerun.cycles_run, 1);
        assert_eq!(rerun.exchanges(), 0);
    }

    #[test]
    fn cycle_end_events_report_the_completed_cycle_number() {
        let mut sim = counters(4, 21);
        let mut ends = Vec::new();
        sim.drive(
            &RingProtocol,
            RunOptions::cycles(3),
            |_, RunEvent::CycleEnd(c)| ends.push(c),
        );
        assert_eq!(ends, vec![1, 2, 3]);
    }
}
