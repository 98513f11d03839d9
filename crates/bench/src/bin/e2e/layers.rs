//! Per-layer probes: the time and the work of each layer's public functions,
//! measured by calling them from here — on clones and samples of a
//! workload's own input and end state, after its timed rounds, so probing
//! never perturbs what the end-to-end numbers measured.
//!
//! A workload calls only the probes of the layers it enters; what the
//! workload itself already timed (set-up stages, `issue_query`,
//! `from_simulator`, the protocol phases of a traced round) is reported
//! from there and not probed again.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use p3q::node::{DigestInfo, NeighbourInfo};
use p3q::prelude::*;
use p3q::scoring::{full_relevance_scores, partial_result_list_buffered, ScoreBuffer};
use p3q_gossip::peer_sampling;
use p3q_sim::exchange::plan_rng;
use p3q_sim::{conflict_free_batches, stream_seed, CycleContext, GossipProtocol};
use p3q_topk::IncrementalNra;
use p3q_trace::codec::{
    encode_sorted_u32s_grouped, for_each_sorted_u32_grouped_padded, GROUP_DECODE_SLACK,
};
use p3q_trace::{Dataset, SyntheticTrace};
use p3q_transport::{InProcess, MailboxReceiver, MailboxSender, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::burst;
use crate::host::WORKER_THREADS;
use crate::stats::median;
use crate::world::{protocol_config, spread_sample, storage_budget, timed};

type Report = BTreeMap<&'static str, f64>;

/// Users whose profiles (or networks) a data-side probe samples.
const SAMPLED_USERS: usize = 512;
/// Write batches behind the per-batch medians.
const PROBE_BATCHES: u64 = 3;
/// Round trips of the mailbox ping-pong.
const MAILBOX_ROUND_TRIPS: u32 = 10_000;

fn seconds_of(f: impl FnOnce()) -> f64 {
    timed(f).1
}

/// Median seconds of one call of `f`, over as many calls as fit in 20 ms
/// (at least three): for calls too short to time once.
fn median_call_seconds(mut f: impl FnMut()) -> f64 {
    let clock = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || clock.elapsed().as_secs_f64() < 0.02 {
        samples.push(seconds_of(&mut f));
    }
    median(&samples)
}

fn sampled_users(dataset: &Dataset, seed: u64) -> Vec<UserId> {
    spread_sample(dataset.num_users(), SAMPLED_USERS, seed)
        .into_iter()
        .map(UserId::from_index)
        .collect()
}

/// core.similarity: the two halves of one user's sweep, and what the index
/// weighs.
pub fn similarity(dataset: &Dataset, index: &ActionIndex, seed: u64, report: &mut Report) {
    let network_size = protocol_config().personal_network_size;
    let sample = sampled_users(dataset, seed);
    let mut scratch = SimilarityScratch::new(dataset.num_users());
    let (mut accumulate_s, mut collect_s) = (0.0, 0.0);
    for &user in &sample {
        accumulate_s += seconds_of(|| index.accumulate(dataset.profile(user), user, &mut scratch));
        collect_s += seconds_of(|| {
            black_box(index.collect_top(network_size, &mut scratch));
        });
    }
    let sampled = sample.len().max(1) as f64;
    report.insert(
        "core.similarity.accumulate_us_per_user",
        accumulate_s * 1e6 / sampled,
    );
    report.insert(
        "core.similarity.collect_top_us_per_user",
        collect_s * 1e6 / sampled,
    );
    report.insert(
        "core.similarity.index_bytes",
        index.memory().total_bytes as f64,
    );
}

/// core.resolver + topk.stream: cold point reads on an empty cache, then
/// what one write batch costs the index and the cache.
pub fn resolver(trace: &SyntheticTrace, index: &ActionIndex, seed: u64, report: &mut Report) {
    let dataset = &trace.dataset;
    let sample = sampled_users(dataset, seed);
    let mut resolver =
        OnDemandNetworks::new(dataset.num_users(), protocol_config().personal_network_size);
    let resolve_s = seconds_of(|| {
        for &user in &sample {
            black_box(resolver.resolve(dataset, index, user));
        }
    });
    let stats = resolver.stats();
    let misses = stats.resolutions.max(1) as f64;
    report.insert(
        "core.resolver.resolve_us_per_miss",
        resolve_s * 1e6 / misses,
    );
    report.insert(
        "topk.stream_positions_per_resolve",
        stats.positions_scanned as f64 / misses,
    );
    report.insert(
        "topk.stream_early_termination_ratio",
        stats.early_terminations as f64 / misses,
    );
    let (mut apply_ms, mut invalidate_ms) = (Vec::new(), Vec::new());
    for batch in 0..PROBE_BATCHES {
        let batch = DynamicsGenerator::new(DynamicsConfig::paper_day(stream_seed(seed, batch)))
            .generate_with_threads(trace, WORKER_THREADS);
        let mut changed = dataset.clone();
        batch.apply(&mut changed);
        let (mut patched_index, mut cache) = (index.clone(), resolver.clone());
        let (outcome, apply_s) = timed(|| {
            let deltas = batch
                .changes
                .iter()
                .map(|c| (c.user, c.new_actions.as_slice()));
            patched_index.apply_deltas(deltas)
        });
        apply_ms.push(1e3 * apply_s);
        invalidate_ms.push(
            1e3 * seconds_of(|| cache.apply_delta_outcome(&changed, &outcome, WORKER_THREADS)),
        );
    }
    report.insert(
        "core.similarity.apply_deltas_ms_per_batch",
        median(&apply_ms),
    );
    report.insert(
        "core.resolver.invalidate_ms_per_batch",
        median(&invalidate_ms),
    );
}

/// trace.dict / trace.profile: interning a profile, and what profiles and
/// the dictionary weigh.
pub fn dict_and_profiles(dataset: &Dataset, index: &ActionIndex, seed: u64, report: &mut Report) {
    let sample = sampled_users(dataset, seed);
    let dictionary = index.dictionary();
    let actions: usize = sample.iter().map(|&u| dataset.profile(u).len()).sum();
    let mut ids = Vec::new();
    let intern_s = median_call_seconds(|| {
        for &user in &sample {
            dictionary.ids_of_profile_into(dataset.profile(user), &mut ids);
            black_box(&ids);
        }
    });
    report.insert(
        "trace.dict.ids_ns_per_action",
        intern_s * 1e9 / actions.max(1) as f64,
    );
    report.insert("trace.dict.bytes", dictionary.heap_bytes() as f64);
    report.insert(
        "trace.profile.decoded_bytes",
        dataset.profile_heap_bytes() as f64,
    );
    report.insert(
        "trace.profile.packed_bytes",
        dataset.packed_profile_bytes() as f64,
    );
}

/// trace.codec: the posting runs of sampled users' actions, encoded and
/// swept with the kernels the index uses.
pub fn codec(dataset: &Dataset, index: &ActionIndex, seed: u64, report: &mut Report) {
    let postings: Vec<Vec<u32>> = sampled_users(dataset, seed)
        .iter()
        .take(64)
        .flat_map(|&u| dataset.profile(u).actions())
        .map(|action| index.taggers_of(action))
        .collect();
    let entries: usize = postings.iter().map(Vec::len).sum();
    let expected: u64 = postings.iter().flatten().map(|&v| u64::from(v)).sum();
    let mut blob = Vec::new();
    let mut runs = Vec::with_capacity(postings.len());
    let encode_s = median_call_seconds(|| {
        blob.clear();
        runs.clear();
        for posting in &postings {
            let start = blob.len();
            encode_sorted_u32s_grouped(posting, &mut blob);
            runs.push((start, blob.len() - start));
        }
    });
    blob.resize(blob.len() + GROUP_DECODE_SLACK, 0);
    let mut decoded = 0u64;
    let decode_s = median_call_seconds(|| {
        decoded = 0;
        for &(start, len) in &runs {
            for_each_sorted_u32_grouped_padded(&blob[start..], len, |v| decoded += u64::from(v));
        }
    });
    assert_eq!(decoded, expected, "the group-varint round trip lost values");
    report.insert(
        "trace.codec.encode_entries_per_s",
        entries as f64 / encode_s,
    );
    report.insert(
        "trace.codec.group_decode_entries_per_s",
        entries as f64 / decode_s,
    );
}

/// bloom: building a profile digest, probing it with a stranger's items.
pub fn bloom(dataset: &Dataset, cfg: &P3qConfig, seed: u64, report: &mut Report) {
    let sample = sampled_users(dataset, seed);
    let digest_of = |user: UserId| {
        dataset
            .profile(user)
            .digest(cfg.digest_bits, cfg.digest_hashes)
    };
    let build_s = median_call_seconds(|| {
        for &user in &sample {
            black_box(digest_of(user));
        }
    });
    report.insert(
        "bloom.build_us_per_digest",
        build_s * 1e6 / sample.len().max(1) as f64,
    );
    let digests: Vec<_> = sample.iter().map(|&u| digest_of(u)).collect();
    let (mut probes, mut absent, mut false_positives) = (0u64, 0u64, 0u64);
    let contains_s = seconds_of(|| {
        for (i, digest) in digests.iter().enumerate() {
            let owner = dataset.profile(sample[i]);
            let stranger = dataset.profile(sample[(i + 1) % sample.len()]);
            for item in stranger.items() {
                let hit = digest.contains(item.as_key());
                probes += 1;
                if !owner.has_item(item) {
                    absent += 1;
                    false_positives += u64::from(hit);
                }
            }
        }
    });
    report.insert(
        "bloom.contains_ns_per_probe",
        contains_s * 1e9 / probes.max(1) as f64,
    );
    report.insert(
        "bloom.false_positive_ratio",
        false_positives as f64 / absent.max(1) as f64,
    );
}

/// gossip: one peer-sampling shuffle between neighbouring nodes' random
/// views (as bootstrapped), and inserting a mid-ranked stranger into each
/// personal network a lazy round left behind.
pub fn gossip_views(
    bootstrapped: &Simulator<P3qNode>,
    converged: &Simulator<P3qNode>,
    seed: u64,
    report: &mut Report,
) {
    let digest_of = |node: &P3qNode| DigestInfo {
        digest: node.shared_digest().clone(),
        version: node.profile_version(),
    };
    let mut pairs: Vec<_> = (0..bootstrapped.num_nodes() / 2)
        .map(|i| {
            let (a, b) = (bootstrapped.node(2 * i), bootstrapped.node(2 * i + 1));
            (
                (a.id, a.random_view.clone(), digest_of(a)),
                (b.id, b.random_view.clone(), digest_of(b)),
            )
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, 0x5AFF));
    let shuffle_s = seconds_of(|| {
        for ((a_id, a_view, a_self), (b_id, b_view, b_self)) in &mut pairs {
            peer_sampling::shuffle(
                *a_id,
                a_view,
                *b_id,
                b_view,
                a_self.clone(),
                b_self.clone(),
                &mut rng,
            );
        }
    });
    report.insert(
        "gossip.shuffle_us_per_exchange",
        shuffle_s * 1e6 / pairs.len().max(1) as f64,
    );

    let nodes = converged.nodes();
    let mut inserts: Vec<_> = nodes
        .iter()
        .enumerate()
        .filter_map(|(i, node)| {
            let view = node.personal_network.clone();
            // One of the next few nodes by index is a stranger unless the
            // network already knows them all.
            let stranger = (1..8)
                .map(|step| &nodes[(i + step) % nodes.len()])
                .find(|other| other.id != node.id && !view.contains(&other.id))?;
            let score = view.iter().nth(view.len() / 2)?.score;
            let info = NeighbourInfo::digest_only(
                stranger.shared_digest().clone(),
                stranger.profile_version(),
            );
            Some((view, stranger.id, score, Some(info)))
        })
        .collect();
    let upsert_s = seconds_of(|| {
        for (view, peer, score, info) in &mut inserts {
            view.upsert(*peer, *score, info.take().expect("each insert runs once"));
        }
    });
    report.insert(
        "gossip.view_upsert_ns",
        upsert_s * 1e9 / inserts.len().max(1) as f64,
    );
}

/// sim.exchange: batching the plan list of `sim`'s next cycle under `proto`.
pub fn batching<P>(proto: &P, sim: &Simulator<P3qNode>, seed: u64, report: &mut Report)
where
    P: GossipProtocol<Node = P3qNode>,
{
    let world = CycleContext::new(sim.nodes(), sim.membership(), sim.cycle());
    let mut plans = Vec::new();
    for idx in sim.membership().alive_nodes() {
        proto.plan(&world, idx, &mut plan_rng(seed, idx), &mut plans);
    }
    let batching_s = median_call_seconds(|| {
        black_box(conflict_free_batches(&plans, sim.num_nodes()));
    });
    report.insert("sim.exchange.batching_ms_per_cycle", batching_s * 1e3);
}

/// sim.parallel: the same lazy cycles on one worker and on two. Recorded so
/// parallel scaling is stated; the end-to-end runs pin one worker.
pub fn parallel_speedup(
    base: &Simulator<P3qNode>,
    cfg: &P3qConfig,
    cycles: u64,
    report: &mut Report,
) {
    let timed_cycles = |threads: usize| {
        let mut sim = base.clone();
        seconds_of(|| {
            sim.drive(
                &cfg.lazy(),
                RunOptions::cycles(cycles).threads(threads),
                |_, _| {},
            );
        })
    };
    report.insert("sim.parallel.speedup_2t", timed_cycles(1) / timed_cycles(2));
}

/// sim.store: what the nodes of `sim` weigh.
pub fn node_store(sim: &Simulator<P3qNode>, report: &mut Report) {
    report.insert(
        "sim.store.node_bytes",
        sim.node_store().storage_bytes(P3qNode::storage_bytes) as f64,
    );
}

/// core.scoring: scoring a query over a whole network's profiles, for each
/// sampled `(query, network)`.
pub fn relevance(samples: &[(&Query, Vec<&Profile>)], report: &mut Report) {
    let relevance_s = seconds_of(|| {
        for (query, network) in samples {
            black_box(full_relevance_scores(network.iter().copied(), query));
        }
    });
    report.insert(
        "core.scoring.relevance_us_per_query",
        relevance_s * 1e6 / samples.len().max(1) as f64,
    );
}

/// core.scoring / topk: for a sample of the burst's queries, rebuild the
/// partial result lists the querier's network would send her — one per `c`
/// stored profiles — and replay the querier's NRA merge over them.
pub fn scoring_and_nra(state: &burst::State, report: &mut Report) {
    let cfg = &state.offline.cfg;
    let dataset = &state.offline.trace.dataset;
    let per_list = storage_budget(cfg);
    let samples: Vec<(&Query, Vec<&Profile>)> = state
        .queries
        .iter()
        .take(64)
        .map(|query| {
            let network = state
                .offline
                .ideal
                .network_of(query.querier)
                .iter()
                .map(|&(peer, _)| dataset.profile(peer))
                .collect();
            (query, network)
        })
        .collect();
    relevance(&samples, report);

    let (mut list_s, mut nra_s) = (0.0, 0.0);
    let (mut profiles_scored, mut positions) = (0usize, 0usize);
    let mut buffer = ScoreBuffer::default();
    for (query, network) in &samples {
        profiles_scored += network.len();
        let mut lists = Vec::new();
        list_s += seconds_of(|| {
            for chunk in network.chunks(per_list) {
                lists.push(partial_result_list_buffered(
                    chunk.iter().copied(),
                    query,
                    &mut buffer,
                ));
            }
        });
        let mut nra = IncrementalNra::new();
        nra_s += seconds_of(|| {
            for list in lists {
                if !list.is_empty() {
                    nra.push_list(list);
                }
            }
            black_box(nra.topk(cfg.top_k));
        });
        positions += nra.positions_scanned();
    }
    let sampled = samples.len().max(1) as f64;
    report.insert(
        "core.scoring.partial_list_us_per_profile",
        list_s * 1e6 / profiles_scored.max(1) as f64,
    );
    report.insert("topk.nra_us_per_query", nra_s * 1e6 / sampled);
    report.insert("topk.nra_positions_per_query", positions as f64 / sampled);
}

/// transport: seconds one message takes through an in-process mailbox,
/// from a ping-pong between two threads (half a round trip).
pub fn mailbox_hop_seconds() -> f64 {
    let mut transport = InProcess;
    let (to_echo, echo_in) = transport.mailbox::<u32>();
    let (to_main, main_in) = transport.mailbox::<u32>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(value) = MailboxReceiver::recv(&echo_in) {
                if MailboxSender::send(&to_main, value).is_err() {
                    break;
                }
            }
        });
        let round_trips_s = seconds_of(|| {
            for value in 0..MAILBOX_ROUND_TRIPS {
                MailboxSender::send(&to_echo, value).expect("the echo thread is alive");
                black_box(MailboxReceiver::recv(&main_in).expect("the echo thread is alive"));
            }
        });
        // Closing the mailbox ends the echo thread; the scope joins it.
        drop(to_echo);
        round_trips_s / f64::from(MAILBOX_ROUND_TRIPS) / 2.0
    })
}
