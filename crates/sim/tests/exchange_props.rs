//! Property tests for the plan/commit engine itself, protocol-agnostic: a
//! deliberately adversarial toy protocol (random multi-plan fan-out, solo
//! steps, third-party effects, order-sensitive node state) must behave
//! byte-identically between the parallel drive (any thread count) and the
//! sequential oracle mode, under churn, and the conflict-free batching must
//! never place one node in two exchanges of the same batch. A population
//! observed shard by shard (`CycleContext::sharded`, the transport actors'
//! view) must be the population observed as one slice.

use proptest::prelude::*;

use rand::rngs::StdRng;
use rand::Rng;

use p3q_sim::exchange::plan_range;
use p3q_sim::{
    conflict_free_batches, CommitOutcome, CycleContext, ExchangePlan, GossipProtocol, Membership,
    Simulator,
};

/// Node state whose value depends on the *order* mutations are applied in
/// (`state = state * 31 + input`), so any scheduling nondeterminism shows
/// up immediately.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Node {
    state: u64,
    log: Vec<u64>,
}

impl Node {
    fn absorb(&mut self, input: u64) {
        self.state = self.state.wrapping_mul(31).wrapping_add(input);
        self.log.push(input);
    }
}

/// Each node plans a random number of exchanges with random alive partners,
/// plus an occasional solo step; commits mix both nodes' states with plan
/// randomness; every commit also emits an effect on a random third node and
/// a bandwidth charge.
struct ChaosProtocol;

impl GossipProtocol for ChaosProtocol {
    type Node = Node;
    type Payload = u64;
    type Effect = (usize, u64);
    type Scratch = ();

    fn scratch(&self) {}

    fn prepare(&self, node: &mut Node, cycle: u64) {
        node.absorb(cycle.wrapping_mul(7));
    }

    fn plan(
        &self,
        world: &CycleContext<'_, Node>,
        idx: usize,
        rng: &mut StdRng,
        out: &mut Vec<ExchangePlan<u64>>,
    ) {
        let n = world.num_nodes();
        let fanout = rng.gen_range(0usize..4);
        for _ in 0..fanout {
            let partner = rng.gen_range(0..n);
            if partner != idx && world.is_alive(partner) {
                out.push(ExchangePlan {
                    initiator: idx,
                    destination: Some(partner),
                    payload: rng.gen(),
                });
            }
        }
        if rng.gen_bool(0.3) {
            out.push(ExchangePlan {
                initiator: idx,
                destination: None,
                // Solo steps may read the snapshot: fold a neighbour's
                // cycle-start state into the payload.
                payload: world.node((idx + 1) % n).state,
            });
        }
    }

    fn commit(
        &self,
        _cycle: u64,
        plan: &ExchangePlan<u64>,
        initiator: &mut Node,
        destination: Option<&mut Node>,
        rng: &mut StdRng,
        _scratch: &mut (),
    ) -> CommitOutcome<(usize, u64)> {
        let roll: u64 = rng.gen();
        let mut outcome = CommitOutcome::empty();
        match destination {
            Some(dest) => {
                initiator.absorb(plan.payload ^ roll);
                dest.absorb(plan.payload.wrapping_add(roll));
                outcome.charge(plan.initiator, "chaos", (roll % 100) as usize);
                outcome.effect(((roll % 1000) as usize, roll));
            }
            None => initiator.absorb(plan.payload),
        }
        outcome
    }

    fn apply_effect(
        &self,
        world: &mut p3q_sim::EffectContext<'_, Node>,
        (target, value): (usize, u64),
    ) {
        let target = target % 50; // fold into the population used below
        world.node_mut(target).absorb(value);
    }
}

fn run_schedule(
    sim: &mut Simulator<Node>,
    threads: Option<usize>,
    cycles: u64,
    departure: f64,
) -> Vec<p3q_sim::CycleReport> {
    let mut reports = Vec::new();
    for cycle in 0..cycles {
        if cycle == cycles / 2 && departure > 0.0 {
            sim.mass_departure(departure);
        }
        let opts = match threads {
            Some(t) => p3q_sim::RunOptions::cycles(1).threads(t),
            None => p3q_sim::RunOptions::cycles(1).oracle(),
        };
        reports.push(sim.drive(&ChaosProtocol, opts, |_, _| {}).report);
    }
    reports
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn chaos_runs_are_byte_identical_for_any_thread_count(
        seed in 0u64..10_000,
        threads in 1usize..12,
        departure in 0u32..6,
    ) {
        let nodes = vec![Node::default(); 50];
        let mut reference = Simulator::new(nodes.clone(), seed);
        let mut parallel = Simulator::new(nodes, seed);
        let fraction = departure as f64 / 10.0;
        let a = run_schedule(&mut reference, None, 6, fraction);
        let b = run_schedule(&mut parallel, Some(threads), 6, fraction);
        prop_assert_eq!(a, b, "cycle reports diverged");
        prop_assert_eq!(reference.nodes(), parallel.nodes());
        prop_assert_eq!(&reference.bandwidth, &parallel.bandwidth);
    }

    #[test]
    fn the_sharded_context_is_the_contiguous_one(
        n in 1usize..200,
        shard_size in 1usize..64,
        crashed in prop::collection::vec(0usize..200, 0..40),
        seed in 0u64..10_000,
    ) {
        let nodes: Vec<Node> = (0..n as u64).map(|state| Node { state, log: Vec::new() }).collect();
        let mut membership = Membership::all_alive(n);
        for idx in crashed {
            membership.depart(idx % n);
        }
        // `chunks` leaves a ragged last shard whenever `shard_size ∤ n`.
        let shards: Vec<&[Node]> = nodes.chunks(shard_size).collect();
        let contiguous = CycleContext::new(&nodes, &membership, 3);
        let sharded = CycleContext::sharded(&shards, shard_size, &membership, 3);
        prop_assert_eq!(sharded.num_nodes(), contiguous.num_nodes());
        prop_assert_eq!(sharded.cycle(), contiguous.cycle());
        for idx in 0..n {
            prop_assert!(std::ptr::eq(sharded.node(idx), contiguous.node(idx)), "node {}", idx);
            prop_assert_eq!(sharded.is_alive(idx), contiguous.is_alive(idx));
        }

        // Planning shard by shard against the sharded view concatenates
        // into planning the whole population against the slice.
        let key = |plan: ExchangePlan<u64>| (plan.initiator, plan.destination, plan.payload);
        let whole = plan_range(&ChaosProtocol, &contiguous, seed, 0..n);
        let by_shard = (0..n).step_by(shard_size).flat_map(|base| {
            plan_range(&ChaosProtocol, &sharded, seed, base..(base + shard_size).min(n))
        });
        prop_assert_eq!(
            by_shard.map(key).collect::<Vec<_>>(),
            whole.into_iter().map(key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn batches_are_conflict_free_and_cover_every_plan(
        pairs in prop::collection::vec((0usize..30, 0usize..30), 0..120),
    ) {
        let plans: Vec<ExchangePlan<()>> = pairs
            .into_iter()
            .map(|(a, b)| ExchangePlan {
                initiator: a,
                destination: if a == b { None } else { Some(b) },
                payload: (),
            })
            .collect();
        let batches = conflict_free_batches(&plans, 30);
        let mut covered = vec![false; plans.len()];
        for batch in &batches {
            let mut seen = std::collections::HashSet::new();
            for &plan_idx in batch {
                prop_assert!(!covered[plan_idx], "plan scheduled twice");
                covered[plan_idx] = true;
                let plan = &plans[plan_idx];
                prop_assert!(seen.insert(plan.initiator), "initiator appears twice in a batch");
                if let Some(dest) = plan.destination {
                    prop_assert!(seen.insert(dest), "destination appears twice in a batch");
                }
            }
            prop_assert!(
                batch.windows(2).all(|w| w[0] < w[1]),
                "plan order not preserved within a batch"
            );
        }
        prop_assert!(covered.iter().all(|&c| c), "every plan must be scheduled exactly once");
    }
}
