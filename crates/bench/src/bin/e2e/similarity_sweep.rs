//! `similarity_sweep` — the offline bulk path: build the counting index
//! over a trace and sweep every user's top-`s` network out of it. No
//! gossip, no simulator. One round is one build plus one full sweep; after
//! it (outside the rate's seconds) every user is swept once more, one at a
//! time and in the same order, which gives the per-user latency distribution
//! over as long a window as the rate's and the oracle the bulk result is
//! checked against.

use std::collections::BTreeMap;
use std::time::Instant;

use p3q::prelude::*;
use p3q::scoring::similarity;
use p3q_trace::{Dataset, SyntheticTrace};

use crate::host::WORKER_THREADS;
use crate::json::Json;
use crate::layers;
use crate::span::Tracer;
use crate::stats::median;
use crate::workload::{measure, rate_and_latency, Checks, EndToEndValues, Outcome, RunArgs};
use crate::world::{protocol_config, scenario_trace, spread_sample, timed, Stages};

/// How many networks are also checked against a brute-force pairwise
/// ranking.
const BRUTE_FORCE_SAMPLES: usize = 32;

/// One round's measurements.
struct Round {
    /// Build plus sweep.
    seconds: f64,
    build_s: f64,
    /// One `top_similar` per user.
    latencies_us: Vec<f64>,
}

/// What one round built, kept for the checks.
struct Built {
    index: ActionIndex,
    ideal: IdealNetworks,
    /// Per user: whether her network swept on its own equals the bulk one.
    agrees: Vec<bool>,
}

fn round(trace: &SyntheticTrace, network_size: usize, tracer: &mut Tracer) -> (Round, Built) {
    let dataset = &trace.dataset;
    tracer.next_run();
    let start = Instant::now();
    let index = tracer.span("core.similarity.build", |_| ActionIndex::build(dataset));
    let build_s = start.elapsed().as_secs_f64();
    let ideal = tracer.span("core.similarity.sweep", |_| {
        IdealNetworks::compute_with_index_threads(dataset, network_size, &index, WORKER_THREADS)
    });
    let seconds = start.elapsed().as_secs_f64();

    let mut scratch = SimilarityScratch::new(dataset.num_users());
    let mut latencies_us = Vec::with_capacity(dataset.num_users());
    let agrees = dataset
        .users()
        .map(|user| {
            let start = Instant::now();
            let network = index.top_similar(dataset, user, network_size, &mut scratch);
            latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
            ideal.network_of(user) == network.as_slice()
        })
        .collect();
    (
        Round {
            seconds,
            build_s,
            latencies_us,
        },
        Built {
            index,
            ideal,
            agrees,
        },
    )
}

/// The top-`s` ranking of `user` from pairwise profile intersections alone.
fn brute_force_network(dataset: &Dataset, user: UserId, network_size: usize) -> Vec<(UserId, u64)> {
    let mine = dataset.profile(user);
    let mut scored: Vec<(UserId, u64)> = dataset
        .iter()
        .filter(|&(other, _)| other != user)
        .map(|(other, profile)| (other, similarity(mine, profile)))
        .filter(|&(_, score)| score > 0)
        .collect();
    scored.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(network_size);
    scored
}

pub fn run(args: &RunArgs) -> Outcome {
    let sizes = args.sizes;
    let network_size = protocol_config().personal_network_size;
    let mut stages = Stages::default();
    let (trace, setup_s) = timed(|| scenario_trace(sizes.sweep_users, args.seed, &mut stages));
    let measured = measure(args, |tracer| round(&trace, network_size, tracer));
    let (rounds, built) = (&measured.rounds, &measured.end);

    let mut checks = Checks::default();
    let ops = (rounds.len() * sizes.sweep_users) as u64;
    checks.ops(ops);
    for (user, &agrees) in trace.dataset.users().zip(&built.agrees) {
        checks.check(agrees, || {
            format!(
                "the bulk network of user {} differs from her own sweep",
                user.index()
            )
        });
    }
    for position in spread_sample(sizes.sweep_users, BRUTE_FORCE_SAMPLES, args.seed) {
        let user = UserId::from_index(position);
        let brute_force = brute_force_network(&trace.dataset, user, network_size);
        checks.check(
            built.ideal.network_of(user) == brute_force.as_slice(),
            || format!("the network of user {position} differs from the brute-force ranking"),
        );
    }
    let oracle_checks = checks.attempted - ops;
    let memory = built.index.memory();

    let users = sizes.sweep_users as f64;
    let (ops_per_s, op_us_p50, op_us_p90) = rate_and_latency(
        rounds
            .iter()
            .map(|r| (users / r.seconds, r.latencies_us.as_slice())),
    );
    let end_to_end = EndToEndValues {
        setup_s,
        ops_per_s,
        op_us_p50,
        op_us_p90,
        peak_rss_mb: measured.peak_rss_mb,
        quality_ratio: (oracle_checks - checks.failed) as f64 / oracle_checks as f64,
        bytes_per_op: memory.total_bytes as f64 / users,
    };
    let layers = measured.layer_report(
        |r| r.seconds,
        BTreeMap::new(),
        || {
            let mut report = stages.0.clone();
            let build_s: Vec<f64> = rounds.iter().map(|r| r.build_s).collect();
            report.insert("core.similarity.index_build_s", median(&build_s));
            layers::similarity(&trace.dataset, &built.index, args.seed, &mut report);
            layers::dict_and_profiles(&trace.dataset, &built.index, args.seed, &mut report);
            layers::codec(&trace.dataset, &built.index, args.seed, &mut report);
            report
        },
    );

    let details = Json::obj([
        ("users", Json::from(sizes.sweep_users)),
        ("actions", Json::from(trace.dataset.total_actions())),
        ("rounds", Json::from(rounds.len())),
        (
            "timed_seconds",
            Json::from(rounds.iter().map(|r| r.seconds).sum::<f64>()),
        ),
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
