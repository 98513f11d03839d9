//! Personalized search: the paper's motivating scenario.
//!
//! The same ambiguous query tag means different things to users with
//! different tagging behaviours (the paper's example: "matrix" for a computer
//! scientist vs. a Keanu Reeves fan). This example picks a tag used in two
//! different interest communities, lets one user of each community issue a
//! query with it, and shows that P3Q returns community-specific top-k
//! results — because each querier's personal network is made of users with
//! similar profiles.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p p3q-integration --example personalized_search
//! ```

use std::collections::{HashMap, HashSet};

use p3q::prelude::*;

fn main() {
    let mut trace_cfg = TraceConfig::laptop_scale(2024);
    trace_cfg.num_users = 400;
    trace_cfg.num_items = 5_000;
    trace_cfg.num_tags = 1_500;
    // A larger shared-tag pool creates more ambiguous tags across topics.
    trace_cfg.shared_tag_fraction = 0.25;
    let trace = TraceGenerator::new(trace_cfg).generate();
    let cfg = P3qConfig::laptop_scale();
    let ideal = IdealNetworks::compute(&trace.dataset, cfg.personal_network_size);

    // Find a tag used by users of at least two different primary topics.
    let mut tag_topics: HashMap<TagId, HashSet<u32>> = HashMap::new();
    for (user, profile) in trace.dataset.iter() {
        let primary = trace.world.user_topics[user.index()][0];
        for action in profile.iter() {
            tag_topics.entry(action.tag).or_default().insert(primary);
        }
    }
    let (ambiguous_tag, topics) = tag_topics
        .iter()
        .filter(|(_, t)| t.len() >= 2)
        .max_by_key(|(_, t)| t.len())
        .map(|(tag, t)| (*tag, t.clone()))
        .expect("the shared tag pool guarantees ambiguous tags");
    let mut topics: Vec<u32> = topics.into_iter().collect();
    topics.sort_unstable();
    println!(
        "ambiguous tag {} is used in {} different communities",
        ambiguous_tag,
        topics.len()
    );

    // Pick one user from each of the two most distant communities who
    // actually used the tag.
    let pick_user = |topic: u32| -> Option<UserId> {
        trace.dataset.iter().find_map(|(user, profile)| {
            let is_topic = trace.world.user_topics[user.index()][0] == topic;
            let used_tag = profile.iter().any(|a| a.tag == ambiguous_tag);
            let has_network = !ideal.network_of(user).is_empty();
            (is_topic && used_tag && has_network).then_some(user)
        })
    };
    let user_a = pick_user(topics[0]);
    let user_b = pick_user(*topics.last().unwrap());
    let (Some(user_a), Some(user_b)) = (user_a, user_b) else {
        println!("could not find two suitable queriers; re-run with another seed");
        return;
    };

    // Both users issue the *same* single-tag query.
    let make_query = |user: UserId| Query::new(user, vec![ambiguous_tag], ItemId(0));
    let budgets = vec![5usize; trace.dataset.num_users()];
    let mut sim = build_simulator_with_budgets(&trace.dataset, &cfg, &budgets, 99);
    init_ideal_networks(&mut sim, &ideal);

    let mut answers: HashMap<UserId, Vec<ItemId>> = HashMap::new();
    for (qid, user) in [(0u64, user_a), (1u64, user_b)] {
        let query = make_query(user);
        issue_query(&mut sim, user.index(), QueryId(qid), query, &cfg);
    }
    sim.drive(&cfg.eager(), RunOptions::until_complete(30), |_, _| {});
    for (qid, user) in [(0u64, user_a), (1u64, user_b)] {
        let state = sim
            .node_mut(user.index())
            .querier_states
            .get_mut(&QueryId(qid))
            .unwrap();
        let items: Vec<ItemId> = state
            .nra
            .topk_exhaustive(cfg.top_k)
            .iter()
            .map(|r| r.item)
            .collect();
        answers.insert(user, items);
    }

    // Compare the two personalized answers and the recall against each
    // user's own centralized reference.
    let items_a: HashSet<ItemId> = answers[&user_a].iter().copied().collect();
    let items_b: HashSet<ItemId> = answers[&user_b].iter().copied().collect();
    let overlap = items_a.intersection(&items_b).count();
    println!();
    println!(
        "user {} (community {}) top-{}: {:?}",
        user_a,
        topics[0],
        cfg.top_k,
        answers[&user_a].iter().map(|i| i.0).collect::<Vec<_>>()
    );
    println!(
        "user {} (community {}) top-{}: {:?}",
        user_b,
        topics.last().unwrap(),
        cfg.top_k,
        answers[&user_b].iter().map(|i| i.0).collect::<Vec<_>>()
    );
    println!(
        "overlap between the two personalized answers: {overlap} of {} items",
        cfg.top_k
    );
    for user in [user_a, user_b] {
        let reference = centralized_topk(&trace.dataset, &ideal, &make_query(user), cfg.top_k);
        println!(
            "user {user}: recall against her own centralized reference = {:.2}",
            recall_at_k(&answers[&user], &reference)
        );
    }
    println!();
    println!(
        "same query, different neighbourhoods → different results: this is the \
         personalization P3Q decentralizes."
    );
}
