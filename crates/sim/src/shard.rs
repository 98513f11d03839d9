//! The sequential shard: a run of nodes driven by plain loops.
//!
//! A [`Shard`] holds the nodes with global indices `base .. base + len` and
//! executes every phase of the cycle over them in ascending order on the
//! calling thread. It is used twice: with `base == 0` over the whole
//! population it is [`RunOptions::oracle`](crate::RunOptions::oracle), the
//! reference the parallel engine is pinned against; with one actor's slice
//! it is the body of every `p3q_transport` shard actor, which adds only
//! what a partial population needs — planning its range against a world
//! that spans every shard ([`plan_range`]) and committing against a *guest*:
//! a destination that lives elsewhere, moved in for the commit
//! ([`Shard::commit`]).
//!
//! The nodes sit in a [`NodeStore`], so in debug builds every commit batch
//! — the oracle's and an actor's alike — runs inside the store's aliasing
//! sanitizer window.

use crate::cycle::Substrate;
use crate::exchange::{
    commit_rng, plan_range, CommitOutcome, CycleContext, EffectContext, ExchangePlan,
    GossipProtocol,
};
use crate::fault::FaultTransitions;
use crate::membership::Membership;
use crate::store::NodeStore;

/// Nodes `base .. base + nodes.len()` of the population, executed
/// sequentially (see the module docs). All indices taken and produced are
/// global.
#[derive(Debug)]
pub struct Shard<'a, N> {
    pub(crate) base: usize,
    pub(crate) nodes: &'a mut NodeStore<N>,
}

impl<'a, N> Shard<'a, N> {
    /// A shard over `nodes`, the first of which has global index `base`.
    pub fn new(base: usize, nodes: &'a mut NodeStore<N>) -> Self {
        Self { base, nodes }
    }

    /// Commits `jobs` — `(plan index, plan, guest)` triples of one
    /// conflict-free batch, every initiator local — in the order given. A
    /// pairwise plan commits against its guest when it has one (the
    /// destination lives on another shard; the caller routes the mutated
    /// guest home) and against the local destination otherwise.
    pub fn commit<'j, P: GossipProtocol<Node = N>>(
        &mut self,
        proto: &P,
        cycle: u64,
        cycle_seed: u64,
        jobs: impl IntoIterator<Item = (usize, &'j ExchangePlan<P::Payload>, Option<&'j mut N>)>,
    ) -> Vec<CommitOutcome<P::Effect>>
    where
        N: 'j,
        P::Payload: 'j,
    {
        let base = self.base;
        let mut scratch = proto.scratch();
        // Aliasing-sanitizer window (debug builds): the solo/pair borrows
        // below are checked for same-batch overlap.
        self.nodes.begin_commit_batch();
        let outcomes = jobs
            .into_iter()
            .map(|(plan_idx, plan, guest)| {
                let mut rng = commit_rng(cycle_seed, plan_idx);
                let initiator = plan.initiator - base;
                let (initiator, destination) = match (plan.destination, guest) {
                    (None, _) => (self.nodes.get_mut(initiator), None),
                    (Some(_), Some(guest)) => (self.nodes.get_mut(initiator), Some(guest)),
                    (Some(dest), None) => {
                        let (a, b) = self.nodes.pair_mut(initiator, dest - base);
                        (a, Some(b))
                    }
                };
                proto.commit(cycle, plan, initiator, destination, &mut rng, &mut scratch)
            })
            .collect();
        self.nodes.end_commit_batch();
        outcomes
    }
}

impl<P: GossipProtocol> Substrate<P> for Shard<'_, P::Node> {
    fn transitions(&mut self, proto: &P, cycle: u64, transitions: &FaultTransitions) {
        for &idx in &transitions.restarted {
            proto.on_restart(self.nodes.get_mut(idx - self.base), cycle);
        }
        for &idx in &transitions.crashed {
            proto.on_crash(self.nodes.get_mut(idx - self.base), cycle);
        }
    }

    fn prepare(&mut self, proto: &P, cycle: u64, membership: &Membership) {
        for (offset, node) in self.nodes.as_mut_slice().iter_mut().enumerate() {
            if membership.is_alive(self.base + offset) {
                proto.prepare(node, cycle);
            }
        }
    }

    /// Plans against the shard's own nodes, so only meaningful for a shard
    /// that is the whole population.
    fn plan(
        &mut self,
        proto: &P,
        cycle: u64,
        cycle_seed: u64,
        membership: &Membership,
    ) -> Vec<ExchangePlan<P::Payload>> {
        let world = CycleContext::new(self.nodes.as_slice(), membership, cycle);
        plan_range(
            proto,
            &world,
            cycle_seed,
            self.base..self.base + self.nodes.len(),
        )
    }

    fn commit_batch(
        &mut self,
        proto: &P,
        cycle: u64,
        cycle_seed: u64,
        plans: &[ExchangePlan<P::Payload>],
        batch: &[usize],
    ) -> Vec<CommitOutcome<P::Effect>> {
        let jobs = batch.iter().map(|&i| (i, &plans[i], None));
        self.commit(proto, cycle, cycle_seed, jobs)
    }

    fn effects(&mut self, proto: &P, effects: impl IntoIterator<Item = P::Effect>) {
        let mut world = EffectContext::windowed(self.nodes.as_mut_slice(), self.base);
        for effect in effects {
            proto.apply_effect(&mut world, effect);
        }
    }

    fn finish(&mut self, proto: &P, cycle: u64, probe: Option<&Membership>) -> bool {
        for node in self.nodes.as_mut_slice() {
            proto.finish_cycle(node, cycle);
        }
        let mut nodes = self.nodes.as_slice().iter().enumerate();
        probe.is_some_and(|membership| {
            nodes.any(|(offset, node)| {
                membership.is_alive(self.base + offset) && proto.wants_more(node, cycle)
            })
        })
    }
}
