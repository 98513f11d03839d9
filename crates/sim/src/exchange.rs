//! The plan/commit exchange model: protocol steps as data.
//!
//! The original engine handed every protocol step a `&mut Simulator` and let
//! it mutate anything; that shape is inherently sequential. This module
//! defines the replacement contract, [`GossipProtocol`], which splits one
//! gossip cycle into phases the engine can parallelize without changing the
//! result:
//!
//! 1. **prepare** — a per-node mutation (age counters, timers) touching only
//!    that node, applied to every alive node;
//! 2. **plan** — every alive node observes a *read-only* [`CycleContext`]
//!    (all node states, membership, cycle number) and emits
//!    [`ExchangePlan`]s: "I gossip with that destination" (pairwise) or "I
//!    update myself from what I read" (solo, `destination: None`);
//! 3. **commit** — the engine groups the plans into conflict-free batches
//!    ([`conflict_free_batches`]: no node appears twice in a batch) and
//!    executes each batch; a commit may mutate only the plan's initiator and
//!    destination, and *describes* everything else as data: bandwidth
//!    [`Charge`]s and third-party [`GossipProtocol::Effect`]s;
//! 4. **effects** — charges and effects are applied sequentially, in plan
//!    order, after each batch commits.
//!
//! Because a batch's commits touch disjoint node pairs and everything that
//! crosses a pair boundary is deferred to phase 4, committing a batch in
//! parallel is byte-identical to committing it sequentially — the engine
//! exploits exactly that (its worker substrate vs. the sequential
//! [`Shard`](crate::Shard)). The phase order itself is written once, in
//! [`Sequencer::run_cycle`](crate::Sequencer::run_cycle).
//!
//! Randomness is derived per node (planning) and per plan (committing) from
//! a single per-cycle seed, so no RNG stream depends on execution order or
//! thread count.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bandwidth::{BandwidthRecorder, Category};
use crate::membership::Membership;

/// One planned protocol step: an initiator and, for pairwise gossip, the
/// destination it wants to exchange with.
///
/// Plans with `destination: None` are *solo* steps: the commit may mutate
/// only the initiator (everything it needs from other nodes must have been
/// copied into `payload` during the read-only plan phase).
#[derive(Debug, Clone)]
pub struct ExchangePlan<P> {
    /// Node that planned the step.
    pub initiator: usize,
    /// Gossip partner, or `None` for a solo step.
    pub destination: Option<usize>,
    /// Protocol-specific data carried from the plan phase to the commit.
    pub payload: P,
}

/// A deferred bandwidth record: "charge `bytes` to `node` under `category`".
///
/// Commits cannot reach the [`BandwidthRecorder`] (it is shared state); they
/// return charges instead, and the engine applies them in plan order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Charge {
    /// The node paying for the message.
    pub node: usize,
    /// Traffic category.
    pub category: Category,
    /// Message size in bytes.
    pub bytes: usize,
}

/// What one committed exchange produced: bandwidth charges plus protocol
/// effects on nodes *outside* the exchanged pair (e.g. delivering a partial
/// result list to a querier).
#[derive(Debug)]
pub struct CommitOutcome<E> {
    /// Deferred bandwidth records, applied in plan order after the batch.
    pub charges: Vec<Charge>,
    /// Deferred third-party mutations, applied in plan order after the
    /// batch via [`GossipProtocol::apply_effect`].
    pub effects: Vec<E>,
}

impl<E> Default for CommitOutcome<E> {
    fn default() -> Self {
        Self {
            charges: Vec::new(),
            effects: Vec::new(),
        }
    }
}

impl<E> CommitOutcome<E> {
    /// An outcome with no charges and no effects.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Records a bandwidth charge.
    pub fn charge(&mut self, node: usize, category: Category, bytes: usize) {
        self.charges.push(Charge {
            node,
            category,
            bytes,
        });
    }

    /// Records a deferred third-party effect.
    pub fn effect(&mut self, effect: E) {
        self.effects.push(effect);
    }
}

/// Where a [`CycleContext`]'s nodes sit.
#[derive(Debug, Clone, Copy)]
enum Nodes<'a, N> {
    /// The whole population as one slice.
    Contiguous(&'a [N]),
    /// The population as consecutive runs of `shard_size` nodes (the last
    /// may be shorter), `len` nodes in all.
    Sharded {
        shards: &'a [&'a [N]],
        shard_size: usize,
        len: usize,
    },
}

/// The read-only world a node observes while planning its step.
#[derive(Debug, Clone, Copy)]
pub struct CycleContext<'a, N> {
    nodes: Nodes<'a, N>,
    membership: &'a Membership,
    cycle: u64,
}

impl<'a, N> CycleContext<'a, N> {
    /// Creates a context over explicit parts (the engine's constructor).
    pub fn new(nodes: &'a [N], membership: &'a Membership, cycle: u64) -> Self {
        Self {
            nodes: Nodes::Contiguous(nodes),
            membership,
            cycle,
        }
    }

    /// Creates a context over a population held as `shards`: consecutive
    /// runs of `shard_size` nodes in ascending global order, the last
    /// possibly shorter — how a transport shard actor observes the other
    /// shards' nodes without anyone assembling them into one slice.
    /// Observationally the same as [`new`](Self::new) over the
    /// concatenation.
    ///
    /// # Panics
    /// Panics if `shard_size` is zero or a shard other than the last does
    /// not hold exactly `shard_size` nodes.
    pub fn sharded(
        shards: &'a [&'a [N]],
        shard_size: usize,
        membership: &'a Membership,
        cycle: u64,
    ) -> Self {
        assert!(
            shard_size > 0,
            "a sharded context needs a positive shard size"
        );
        let (last, full) = shards
            .split_last()
            .map_or((0, shards), |(l, f)| (l.len(), f));
        assert!(
            full.iter().all(|shard| shard.len() == shard_size) && last <= shard_size,
            "every shard but the last must hold exactly {shard_size} nodes"
        );
        Self {
            nodes: Nodes::Sharded {
                shards,
                shard_size,
                len: full.len() * shard_size + last,
            },
            membership,
            cycle,
        }
    }

    /// One node's state.
    pub fn node(&self, idx: usize) -> &'a N {
        match self.nodes {
            Nodes::Contiguous(nodes) => &nodes[idx],
            Nodes::Sharded {
                shards, shard_size, ..
            } => &shards[idx / shard_size][idx % shard_size],
        }
    }

    /// Number of nodes (alive or departed).
    pub fn num_nodes(&self) -> usize {
        match self.nodes {
            Nodes::Contiguous(nodes) => nodes.len(),
            Nodes::Sharded { len, .. } => len,
        }
    }

    /// Returns `true` if node `idx` is alive this cycle.
    pub fn is_alive(&self, idx: usize) -> bool {
        self.membership.is_alive(idx)
    }

    /// The membership (who is alive).
    pub fn membership(&self) -> &'a Membership {
        self.membership
    }

    /// The cycle being planned.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

/// Mutable access handed to [`GossipProtocol::apply_effect`]: the node array
/// (or the window of it the applying shard holds) plus the bandwidth
/// recorder. Effects run strictly sequentially, in plan order.
#[derive(Debug)]
pub struct EffectContext<'a, N> {
    nodes: &'a mut [N],
    bandwidth: &'a mut BandwidthRecorder,
    cycle: u64,
    /// Global index of `nodes[0]` (see [`EffectContext::windowed`]).
    base: usize,
}

impl<'a, N> EffectContext<'a, N> {
    /// Creates a context over a **window** of the global node array starting
    /// at global index `base` (0 for the whole population):
    /// [`node`](Self::node) / [`node_mut`](Self::node_mut) keep taking
    /// *global* indices. This is how a transport shard — holding only its
    /// contiguous slice of the population — applies effects routed to it
    /// without faking a full world slice.
    pub(crate) fn windowed(
        nodes: &'a mut [N],
        bandwidth: &'a mut BandwidthRecorder,
        cycle: u64,
        base: usize,
    ) -> Self {
        Self {
            nodes,
            bandwidth,
            cycle,
            base,
        }
    }

    /// The window-local position of global index `idx`.
    ///
    /// # Panics
    /// Panics if `idx` lies outside the window — on a shard, an effect whose
    /// [`GossipProtocol::effect_target`] named a node other than the one it
    /// touches.
    fn local(&self, idx: usize) -> usize {
        let window = self.base..self.base + self.nodes.len();
        assert!(
            window.contains(&idx),
            "effect touches node {idx} outside the window [{}, {}): an effect may only touch \
             the node its `effect_target` names",
            window.start,
            window.end
        );
        idx - self.base
    }

    /// One node's state, by global index.
    ///
    /// # Panics
    /// Panics if `idx` lies outside the window.
    pub fn node(&self, idx: usize) -> &N {
        &self.nodes[self.local(idx)]
    }

    /// Mutable access to one node's state, by global index.
    ///
    /// # Panics
    /// Panics if `idx` lies outside the window.
    pub fn node_mut(&mut self, idx: usize) -> &mut N {
        let local = self.local(idx);
        &mut self.nodes[local]
    }

    /// Records bandwidth attributed to `node` in the committing cycle.
    pub fn record_bandwidth(&mut self, node: usize, category: Category, bytes: usize) {
        self.bandwidth.record(node, self.cycle, category, bytes);
    }

    /// The cycle being committed.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

/// A gossip protocol expressed as plan + commit, executable by the engine
/// with any number of worker threads without changing the result.
///
/// # Determinism contract
///
/// * `plan` must derive everything from the [`CycleContext`] and the given
///   RNG (seeded per node from the cycle seed) — never from global state;
/// * `commit` may mutate **only** the initiator and destination it is
///   given; anything else must be returned as a [`Charge`] or an effect;
/// * `Scratch` is reusable scratch memory only — results must not depend on
///   what a previous commit left in it.
pub trait GossipProtocol: Sync {
    /// Per-node protocol state.
    type Node: Send + Sync;
    /// Plan payload carried from the plan phase to the commit.
    type Payload: Send + Sync;
    /// Deferred third-party mutation produced by commits.
    type Effect: Send;
    /// Per-worker scratch memory (buffers), built via [`Self::scratch`].
    type Scratch: Send;

    /// Builds one scratch instance (one per worker chunk per batch).
    fn scratch(&self) -> Self::Scratch;

    /// Per-node preparation applied to every alive node before planning
    /// (tick timers, age views). Must touch only `node`.
    fn prepare(&self, node: &mut Self::Node, cycle: u64) {
        let _ = (node, cycle);
    }

    /// Invoked when fault injection crashes `node` (see `crate::FaultPlan`):
    /// the node has already departed the membership; this hook should clear
    /// its *volatile* state (query books, in-flight bookkeeping, caches)
    /// while keeping whatever survives a process restart at rest. Must
    /// touch only `node`.
    fn on_crash(&self, node: &mut Self::Node, cycle: u64) {
        let _ = (node, cycle);
    }

    /// Invoked when a crashed node restarts: it has already rejoined the
    /// membership; this hook covers local recovery bookkeeping. Rebuilding
    /// state that needs the rest of the world (view re-bootstrap) belongs
    /// in the protocol's plan phase, where the world is observable. Must
    /// touch only `node`.
    fn on_restart(&self, node: &mut Self::Node, cycle: u64) {
        let _ = (node, cycle);
    }

    /// Plans node `idx`'s step(s) against the read-only world, appending any
    /// number of [`ExchangePlan`]s to `out`. Destinations must be alive,
    /// distinct from `idx` and in bounds.
    fn plan(
        &self,
        world: &CycleContext<'_, Self::Node>,
        idx: usize,
        rng: &mut StdRng,
        out: &mut Vec<ExchangePlan<Self::Payload>>,
    );

    /// Commits one planned step. `destination` is `Some` exactly when the
    /// plan named one. Mutations beyond the given pair must be deferred via
    /// the returned [`CommitOutcome`].
    fn commit(
        &self,
        cycle: u64,
        plan: &ExchangePlan<Self::Payload>,
        initiator: &mut Self::Node,
        destination: Option<&mut Self::Node>,
        rng: &mut StdRng,
        scratch: &mut Self::Scratch,
    ) -> CommitOutcome<Self::Effect>;

    /// Applies one deferred effect. Runs sequentially, in plan order.
    fn apply_effect(&self, world: &mut EffectContext<'_, Self::Node>, effect: Self::Effect) {
        let _ = (world, effect);
    }

    /// Invoked once when a driver starts a run (`Simulator::drive` or a
    /// transport runtime), before the first cycle. `until_idle` says
    /// whether the run stops on its own once gossip dries up — the place
    /// for mode-specific configuration validation. No library protocol
    /// needs one; wrappers (the e2e benchmark's probe) forward it.
    fn begin_run(&self, until_idle: bool) {
        let _ = until_idle;
    }

    /// End-of-cycle bookkeeping, run by the driver over **every** node
    /// (departed ones included) after each cycle, with `cycle` the number
    /// of now-completed cycles. Must touch only `node`.
    fn finish_cycle(&self, node: &mut Self::Node, cycle: u64) {
        let _ = (node, cycle);
    }

    /// Whether this (alive) node's protocol state could still re-ignite
    /// gossip after a quiet cycle — consulted by until-idle runs under a
    /// fault schedule before they may stop (e.g. a backed-off retry that
    /// fires several cycles later). Read-only.
    fn wants_more(&self, node: &Self::Node, cycle: u64) -> bool {
        let _ = (node, cycle);
        false
    }

    /// The *single* node an effect mutates, if the protocol can name it —
    /// the routing hook a message-passing transport uses to deliver the
    /// effect to the shard owning that node. `None` (the default) means
    /// "unconstrained": fine for the in-process simulator, where effects
    /// see the whole node array, but such a protocol cannot run on a
    /// sharded transport.
    fn effect_target(&self, effect: &Self::Effect) -> Option<usize> {
        let _ = effect;
        None
    }
}

/// Groups plan indices into conflict-free batches with a deterministic
/// greedy first-fit on the `(initiator, destination)` pairs: walking plans
/// in order, each plan lands in the earliest batch where neither of its
/// endpoints already appears. Within a batch, plan order is preserved.
///
/// The result is independent of thread count by construction (it never
/// looks at anything but the plan list), and committing a batch in parallel
/// is safe because all its `&mut` node borrows are disjoint.
///
/// # Panics
/// Panics if a plan names itself as destination or an out-of-bounds node.
pub fn conflict_free_batches<P>(plans: &[ExchangePlan<P>], num_nodes: usize) -> Vec<Vec<usize>> {
    // Per-node occupancy of the first 128 batches as a bitmask (greedy edge
    // colouring needs at most 2·max-degree − 1 batches, so 128 covers any
    // realistic cycle); the rare spill beyond that falls back to
    // "first batch after the node's last appearance".
    const MASK_BATCHES: usize = u128::BITS as usize;
    let mut used_mask = vec![0u128; num_nodes];
    let mut spill_free = vec![MASK_BATCHES as u32; num_nodes];
    let mut batches: Vec<Vec<usize>> = Vec::new();
    for (plan_idx, plan) in plans.iter().enumerate() {
        assert!(plan.initiator < num_nodes, "plan initiator out of bounds");
        let mut combined = used_mask[plan.initiator];
        let mut spill = spill_free[plan.initiator];
        if let Some(dest) = plan.destination {
            assert!(dest < num_nodes, "plan destination out of bounds");
            assert!(
                dest != plan.initiator,
                "a gossip exchange needs two distinct nodes"
            );
            combined |= used_mask[dest];
            spill = spill.max(spill_free[dest]);
        }
        let batch = match (!combined).trailing_zeros() as usize {
            free if free < MASK_BATCHES => free,
            _ => spill as usize,
        };
        if batches.len() <= batch {
            batches.resize_with(batch + 1, Vec::new);
        }
        batches[batch].push(plan_idx);
        for node in std::iter::once(plan.initiator).chain(plan.destination) {
            if batch < MASK_BATCHES {
                used_mask[node] |= 1u128 << batch;
            } else {
                spill_free[node] = batch as u32 + 1;
            }
        }
    }
    batches
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG a node plans with: derived from the cycle seed and the node
/// index only, so planning order and thread count cannot influence it.
pub fn plan_rng(cycle_seed: u64, node: usize) -> StdRng {
    StdRng::seed_from_u64(splitmix(
        cycle_seed ^ (node as u64).wrapping_mul(0xA24B_AED4_963E_E407),
    ))
}

/// Plans every alive node of `range`, in ascending order, each with its own
/// [`plan_rng`], against `world` — which must describe the whole population
/// after this cycle's prepare phase. Concatenating the results of
/// consecutive ranges gives the plan list of their union.
pub fn plan_range<P: GossipProtocol>(
    proto: &P,
    world: &CycleContext<'_, P::Node>,
    cycle_seed: u64,
    range: std::ops::Range<usize>,
) -> Vec<ExchangePlan<P::Payload>> {
    let mut plans = Vec::new();
    for idx in range {
        if world.is_alive(idx) {
            let mut rng = plan_rng(cycle_seed, idx);
            proto.plan(world, idx, &mut rng, &mut plans);
        }
    }
    plans
}

/// The RNG a commit runs with: derived from the cycle seed and the plan's
/// position in the global plan order only.
pub(crate) fn commit_rng(cycle_seed: u64, plan_index: usize) -> StdRng {
    StdRng::seed_from_u64(splitmix(
        !cycle_seed ^ (plan_index as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn plan(initiator: usize, destination: Option<usize>) -> ExchangePlan<()> {
        ExchangePlan {
            initiator,
            destination,
            payload: (),
        }
    }

    #[test]
    fn batches_never_repeat_a_node_and_preserve_plan_order() {
        let plans = vec![
            plan(0, Some(1)),
            plan(2, Some(3)),
            plan(1, Some(2)), // conflicts with both earlier plans
            plan(4, None),
            plan(4, Some(0)), // conflicts with its own solo step
            plan(5, Some(6)),
        ];
        let batches = conflict_free_batches(&plans, 7);
        assert_eq!(batches, vec![vec![0, 1, 3, 5], vec![2, 4]]);
        for batch in &batches {
            let mut seen = std::collections::HashSet::new();
            for &i in batch {
                assert!(seen.insert(plans[i].initiator));
                if let Some(d) = plans[i].destination {
                    assert!(seen.insert(d));
                }
            }
            // Plan order within the batch.
            assert!(batch.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn chained_conflicts_serialize() {
        // 0-1, 1-2, 2-3, 3-0: greedy first-fit gives two batches.
        let plans = vec![
            plan(0, Some(1)),
            plan(1, Some(2)),
            plan(2, Some(3)),
            plan(3, Some(0)),
        ];
        let batches = conflict_free_batches(&plans, 4);
        assert_eq!(batches, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn empty_plan_list_yields_no_batches() {
        let batches = conflict_free_batches::<()>(&[], 10);
        assert!(batches.is_empty());
    }

    #[test]
    #[should_panic(expected = "distinct nodes")]
    fn self_exchange_is_rejected() {
        let _ = conflict_free_batches(&[plan(1, Some(1))], 3);
    }

    #[test]
    fn derived_rngs_are_stable_and_distinct() {
        let a: u64 = plan_rng(7, 3).gen();
        let b: u64 = plan_rng(7, 3).gen();
        assert_eq!(a, b);
        let c: u64 = plan_rng(7, 4).gen();
        let d: u64 = commit_rng(7, 3).gen();
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    #[should_panic(expected = "node 3 outside the window [4, 6)")]
    fn effect_context_rejects_an_index_below_its_window() {
        let (mut nodes, mut bandwidth) = ([0u8; 2], BandwidthRecorder::new());
        EffectContext::windowed(&mut nodes, &mut bandwidth, 0, 4).node(3);
    }

    #[test]
    #[should_panic(expected = "node 6 outside the window [4, 6)")]
    fn effect_context_rejects_an_index_above_its_window() {
        let (mut nodes, mut bandwidth) = ([0u8; 2], BandwidthRecorder::new());
        *EffectContext::windowed(&mut nodes, &mut bandwidth, 0, 4).node_mut(6) += 1;
    }

    #[test]
    fn sharded_context_indexes_across_a_ragged_last_shard() {
        let membership = Membership::all_alive(5);
        let shards: [&[u8]; 3] = [&[10, 11], &[12, 13], &[14]];
        let world = CycleContext::sharded(&shards, 2, &membership, 0);
        assert_eq!(world.num_nodes(), 5);
        assert_eq!(
            (0..5).map(|i| *world.node(i)).collect::<Vec<_>>(),
            [10, 11, 12, 13, 14]
        );
        let empty = CycleContext::<u8>::sharded(&[], 2, &membership, 0);
        assert_eq!(empty.num_nodes(), 0);
    }

    #[test]
    #[should_panic(expected = "every shard but the last must hold exactly 2 nodes")]
    fn sharded_context_rejects_a_short_inner_shard() {
        let membership = Membership::all_alive(3);
        let shards: [&[u8]; 2] = [&[10], &[11, 12]];
        let _ = CycleContext::sharded(&shards, 2, &membership, 0);
    }

    #[test]
    fn commit_outcome_collects_charges_and_effects() {
        let mut outcome: CommitOutcome<&'static str> = CommitOutcome::empty();
        outcome.charge(3, "digest", 100);
        outcome.effect("deliver");
        assert_eq!(outcome.charges.len(), 1);
        assert_eq!(outcome.charges[0].node, 3);
        assert_eq!(outcome.effects, vec!["deliver"]);
    }
}
