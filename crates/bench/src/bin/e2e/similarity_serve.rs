//! `similarity_serve` — the same index, used as a service: point reads
//! (`on_demand_topk`: resolve the querier's network through the streaming
//! top-k merge or the memo cache, then score her query over it) beside
//! write batches of new tagging actions that recompress index shards and
//! patch or evict cached networks.
//!
//! One pass starts from the set-up index with an empty cache and runs
//! `serve_rounds` rounds of `serve_reads_per_round` reads followed by one
//! paper-day write batch. Queriers are Zipf(1.2)-skewed, so rounds share
//! hot users and the cache matters. Reads and writes are timed call by
//! call: the latencies are the reads', the throughput is reads per second
//! of the whole pass, writes included — so a read gain bought with write
//! cost (or the reverse) shows as two metrics of one run.

use std::collections::BTreeMap;
use std::time::Instant;

use p3q::prelude::*;
use p3q_sim::stream_seed;
use p3q_trace::{ChangeBatch, Dataset, SyntheticTrace, ZipfSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::host::WORKER_THREADS;
use crate::json::Json;
use crate::layers;
use crate::span::Tracer;
use crate::stats::median;
use crate::workload::{measure, rate_and_latency, Checks, EndToEndValues, Outcome, RunArgs};
use crate::world::{protocol_config, scenario_trace, spread_sample, timed, Stages};

/// Exponent of the querier popularity law.
const QUERIER_ZIPF_EXPONENT: f64 = 1.2;

/// Cached entries compared with a fresh sweep at the end of a pass.
const CACHE_CHECK_SAMPLES: usize = 128;

struct State {
    trace: SyntheticTrace,
    index: ActionIndex,
    /// One query per user, by user index.
    queries: Vec<Query>,
    /// Per round: the queriers of its reads, then its write batch.
    rounds: Vec<(Vec<usize>, ChangeBatch)>,
}

fn setup(
    users: usize,
    rounds: usize,
    reads_per_round: usize,
    seed: u64,
    stages: &mut Stages,
) -> State {
    let trace = scenario_trace(users, seed, stages);
    let index = stages.time("core.similarity.index_build_s", || {
        ActionIndex::build(&trace.dataset)
    });
    let queries = QueryGenerator::new(seed ^ 0x5EED).one_query_per_user(&trace.dataset);
    assert_eq!(queries.len(), users, "every user has a query");
    let sampler = ZipfSampler::new(users, QUERIER_ZIPF_EXPONENT);
    let rounds = (0..rounds as u64)
        .map(|r| {
            let mut rng = StdRng::seed_from_u64(stream_seed(seed, r));
            let queriers = (0..reads_per_round)
                .map(|_| sampler.sample(&mut rng))
                .collect();
            let batch = DynamicsGenerator::new(DynamicsConfig::paper_day(stream_seed(!seed, r)))
                .generate_with_threads(&trace, WORKER_THREADS);
            (queriers, batch)
        })
        .collect();
    State {
        trace,
        index,
        queries,
        rounds,
    }
}

/// One pass's measurements.
struct Pass {
    read_us: Vec<f64>,
    write_s: f64,
    actions_applied: usize,
}

impl Pass {
    fn timed_seconds(&self) -> f64 {
        self.read_us.iter().sum::<f64>() / 1e6 + self.write_s
    }
}

/// Where a pass left the service.
struct Served {
    dataset: Dataset,
    index: ActionIndex,
    resolver: OnDemandNetworks,
}

fn pass(state: &State, network_size: usize, top_k: usize, tracer: &mut Tracer) -> (Pass, Served) {
    let mut dataset = state.trace.dataset.clone();
    let mut index = state.index.clone();
    let mut resolver = OnDemandNetworks::new(dataset.num_users(), network_size);
    let mut measured = Pass {
        read_us: Vec::new(),
        write_s: 0.0,
        actions_applied: 0,
    };
    tracer.next_run();
    for (queriers, batch) in &state.rounds {
        for &querier in queriers {
            let query = &state.queries[querier];
            let start = Instant::now();
            let answer = tracer.span("core.resolver.read", |_| {
                on_demand_topk(&dataset, &index, &mut resolver, query, top_k)
            });
            measured.read_us.push(start.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(answer);
        }
        // Growing the profiles is the caller's half of a write; the timed
        // half is what the index and the cache do about it.
        measured.actions_applied += batch.apply(&mut dataset);
        let start = Instant::now();
        tracer.span("core.resolver.write", |_| {
            resolver.apply_change_batch_with_threads(&dataset, &mut index, batch, WORKER_THREADS)
        });
        measured.write_s += start.elapsed().as_secs_f64();
    }
    (
        measured,
        Served {
            dataset,
            index,
            resolver,
        },
    )
}

pub fn run(args: &RunArgs) -> Outcome {
    let sizes = args.sizes;
    let cfg = protocol_config();
    let mut stages = Stages::default();
    let (state, setup_s) = timed(|| {
        setup(
            sizes.serve_users,
            sizes.serve_rounds,
            sizes.serve_reads_per_round,
            args.seed,
            &mut stages,
        )
    });
    let measured = measure(args, |tracer| {
        pass(&state, cfg.personal_network_size, cfg.top_k, tracer)
    });
    let (passes, served) = (&measured.rounds, &measured.end);

    let mut checks = Checks::default();
    checks.ops(
        passes
            .iter()
            .map(|p| (p.read_us.len() + state.rounds.len()) as u64)
            .sum(),
    );
    // What is still cached after the last write must equal a fresh sweep of
    // the final dataset: patched entries were patched right, and nothing
    // stale survived.
    let cached: Vec<UserId> = served
        .dataset
        .users()
        .filter(|&u| served.resolver.cached(u).is_some())
        .collect();
    let mut scratch = SimilarityScratch::new(served.dataset.num_users());
    let positions = spread_sample(cached.len(), CACHE_CHECK_SAMPLES, args.seed);
    let mut agreeing = 0usize;
    for &position in &positions {
        let user = cached[position];
        let fresh = served.index.top_similar(
            &served.dataset,
            user,
            cfg.personal_network_size,
            &mut scratch,
        );
        let ok = served.resolver.cached(user) == Some(fresh.as_slice());
        agreeing += usize::from(ok);
        checks.check(ok, || {
            format!("the cached network of user {} is stale", user.index())
        });
    }
    let stats = served.resolver.stats();
    checks.check(!positions.is_empty(), || {
        "no network is cached after the last write".to_string()
    });
    checks.check(stats.patched > 0 && stats.evicted > 0, || {
        format!("the writes never exercised both invalidation paths: {stats:?}")
    });

    // The service's throughput is reads answered per second of the whole
    // pass, writes included: a read gain bought with write cost moves the
    // latencies and leaves this where it was.
    let (ops_per_s, op_us_p50, op_us_p90) = rate_and_latency(passes.iter().map(|p| {
        (
            p.read_us.len() as f64 / p.timed_seconds(),
            p.read_us.as_slice(),
        )
    }));
    let memory = served.index.memory();
    let end_to_end = EndToEndValues {
        setup_s,
        ops_per_s,
        op_us_p50,
        op_us_p90,
        peak_rss_mb: measured.peak_rss_mb,
        quality_ratio: agreeing as f64 / positions.len().max(1) as f64,
        bytes_per_op: memory.total_bytes as f64 / sizes.serve_users as f64,
    };

    let batches = state.rounds.len().max(1) as f64;
    let lookups = (stats.cache_hits + stats.resolutions).max(1) as f64;
    let write_rates: Vec<f64> = passes
        .iter()
        .map(|p| p.actions_applied as f64 / p.write_s)
        .collect();
    let counts = BTreeMap::from([
        ("core.resolver.write_actions_per_s", median(&write_rates)),
        (
            "core.resolver.cache_hit_ratio",
            stats.cache_hits as f64 / lookups,
        ),
        (
            "core.resolver.patched_per_batch",
            stats.patched as f64 / batches,
        ),
        (
            "core.resolver.evicted_per_batch",
            stats.evicted as f64 / batches,
        ),
    ]);
    let layers = measured.layer_report(Pass::timed_seconds, counts, || {
        let mut report = stages.0.clone();
        report.insert("core.similarity.index_bytes", memory.total_bytes as f64);
        layers::resolver(&state.trace, &state.index, args.seed, &mut report);
        layers::codec(&state.trace.dataset, &state.index, args.seed, &mut report);
        // What a read does once the network is resolved: score the query
        // over the cached network's profiles.
        let scored = spread_sample(cached.len(), 64, args.seed)
            .into_iter()
            .map(|position| {
                let user = cached[position];
                let network = served
                    .resolver
                    .cached(user)
                    .expect("sampled from the cached");
                let profiles = network
                    .iter()
                    .map(|&(peer, _)| served.dataset.profile(peer))
                    .collect();
                (&state.queries[user.index()], profiles)
            })
            .collect::<Vec<_>>();
        layers::relevance(&scored, &mut report);
        report
    });

    let first = passes.first().expect("at least one pass ran");
    let details = Json::obj([
        ("users", Json::from(sizes.serve_users)),
        ("rounds_per_pass", Json::from(state.rounds.len())),
        ("reads_per_round", Json::from(sizes.serve_reads_per_round)),
        ("passes", Json::from(passes.len())),
        (
            "timed_seconds",
            Json::from(passes.iter().map(Pass::timed_seconds).sum::<f64>()),
        ),
        (
            "actions_applied_per_pass",
            Json::from(first.actions_applied),
        ),
        ("cache_hits", Json::from(stats.cache_hits)),
        ("resolutions", Json::from(stats.resolutions)),
        ("patched", Json::from(stats.patched)),
        ("evicted", Json::from(stats.evicted)),
        ("index_bytes", Json::from(memory.total_bytes)),
    ]);
    Outcome {
        checks,
        end_to_end,
        layers,
        details,
        tracer: measured.tracer,
    }
}
