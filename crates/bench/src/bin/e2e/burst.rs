//! `eager_burst` and `transport_burst` — Figures 3 and 6: a burst of
//! queries, one per sampled user, issued at once on converged personal
//! networks and gossiped to completion. The two workloads share every byte
//! of input; only the substrate that executes the eager cycles differs —
//! the in-process simulator, or the same state moved onto shard actors
//! behind mailboxes.
//!
//! One round issues the burst on a fresh clone of the converged simulator
//! and drives until no remaining list is left. The timed region is the
//! `issue_query` calls plus the drive; moving the issued state onto actors
//! (`from_simulator`) sits between the two and is set-up, not query time.

use std::time::Instant;

use p3q::bandwidth::category;
use p3q::prelude::*;
use p3q_sim::GossipProtocol;
use p3q_transport::{DeliverySchedule, TransportRuntime};

use crate::host::{TRANSPORT_ACTORS, WORKER_THREADS};
use crate::json::Json;
use crate::layers;
use crate::probe::{Probed, EAGER_PHASES};
use crate::span::Tracer;
use crate::stats::{median, percentile, sorted};
use crate::workload::{
    engine_counts, measure, rate_and_latency, Checks, EndToEndValues, Outcome, RunArgs,
};
use crate::world::{bootstrapped_simulator, offline, spread_sample, timed, Offline, Stages};

/// Which runtime executes the eager cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    Simulator,
    Transport,
}

pub struct State {
    pub offline: Offline,
    /// Ideal networks installed, warm-up cycles run, nothing issued yet.
    pub converged: Simulator<P3qNode>,
    pub queries: Vec<Query>,
}

/// One query per sampled user, over users with someone to ask.
pub fn sample_queries(offline: &Offline, burst_queries: usize, seed: u64) -> Vec<Query> {
    let eligible: Vec<Query> = QueryGenerator::new(seed ^ 0x5EED)
        .one_query_per_user(&offline.trace.dataset)
        .into_iter()
        .filter(|q| !offline.ideal.network_of(q.querier).is_empty())
        .collect();
    spread_sample(eligible.len(), burst_queries, seed)
        .into_iter()
        .map(|i| eligible[i].clone())
        .collect()
}

/// The burst input: identical for both substrates.
pub fn setup(
    users: usize,
    warmup_cycles: u64,
    burst_queries: usize,
    seed: u64,
    stages: &mut Stages,
) -> State {
    let offline = offline(users, seed, stages);
    let mut converged = bootstrapped_simulator(&offline.trace, &offline.cfg, seed, stages);
    stages.time("core.experiment.init_ideal_s", || {
        init_ideal_networks(&mut converged, &offline.ideal)
    });
    converged.drive(
        &offline.cfg.lazy(),
        RunOptions::cycles(warmup_cycles).threads(WORKER_THREADS),
        |_, _| {},
    );
    let queries = sample_queries(&offline, burst_queries, seed);
    State {
        offline,
        converged,
        queries,
    }
}

/// Issues the whole burst on `sim`; returns the seconds it took.
pub fn issue_burst(sim: &mut Simulator<P3qNode>, state: &State, tracer: &mut Tracer) -> f64 {
    let start = Instant::now();
    tracer.span("core.eager.issue", |_| {
        for (i, query) in state.queries.iter().enumerate() {
            issue_query(
                sim,
                query.querier.index(),
                QueryId(i as u64),
                query.clone(),
                &state.offline.cfg,
            );
        }
    });
    start.elapsed().as_secs_f64()
}

/// Drives eager cycles on the simulator until the burst completes.
fn drive_simulator<P>(sim: &mut Simulator<P3qNode>, proto: &P, max_cycles: u64) -> RunReport
where
    P: GossipProtocol<Node = P3qNode>,
    P::Payload: Clone,
{
    sim.drive(
        proto,
        RunOptions::until_complete(max_cycles).threads(WORKER_THREADS),
        |_, _| {},
    )
}

/// The end state of one round, on whichever substrate ran it.
enum EndState {
    Simulator(Simulator<P3qNode>),
    Transport(TransportRuntime<P3qNode>),
}

impl EndState {
    fn node(&self, idx: usize) -> &P3qNode {
        match self {
            EndState::Simulator(sim) => sim.node(idx),
            EndState::Transport(runtime) => runtime.node(idx),
        }
    }

    fn bandwidth(&self) -> &p3q_sim::BandwidthRecorder {
        match self {
            EndState::Simulator(sim) => &sim.bandwidth,
            EndState::Transport(runtime) => &runtime.bandwidth,
        }
    }

    /// A host-independent digest of the complete end state: cycle, every
    /// node's fingerprint, traffic totals.
    fn checksum(&self) -> u64 {
        let mut h = Fnv::new();
        match self {
            EndState::Simulator(sim) => {
                h.write_u64(sim.cycle());
                h.write_u64(fingerprint_chain(sim.nodes()));
            }
            EndState::Transport(runtime) => {
                h.write_u64(runtime.cycle());
                h.write_u64(fingerprint_chain(runtime.nodes()));
            }
        }
        let (bytes, messages) = self.bandwidth().totals();
        h.write_u64(bytes);
        h.write_u64(messages);
        h.finish()
    }
}

/// One round's measurements.
struct Round {
    issue_s: f64,
    from_simulator_s: f64,
    drive_s: f64,
    /// Host microseconds from the start of the burst to each completed
    /// query's completion.
    latencies_us: Vec<f64>,
    report: RunReport,
}

impl Round {
    fn timed_seconds(&self) -> f64 {
        self.issue_s + self.drive_s
    }
}

fn round(
    state: &State,
    substrate: Substrate,
    max_cycles: u64,
    tracer: &mut Tracer,
) -> (Round, EndState) {
    let cfg = &state.offline.cfg;
    let mut sim = state.converged.clone();
    let start_cycle = sim.cycle();
    tracer.next_run();
    let issue_s = issue_burst(&mut sim, state, tracer);

    // Both substrates run the protocol behind the same wrapper, so what it
    // costs (one relaxed load per node per cycle when untraced) is on both
    // sides of the overhead ratio. It is the only per-cycle clock a
    // transport run offers; its phase timing is on only when traced.
    let proto = Probed::new(cfg.eager(), tracer.enabled());
    let mut from_simulator_s = 0.0;
    let drive_start;
    let (report, end) = match substrate {
        Substrate::Simulator => {
            drive_start = Instant::now();
            let report = tracer.span("sim.engine", |t| {
                let report = drive_simulator(&mut sim, &proto, max_cycles);
                proto.record_phases(t, EAGER_PHASES, WORKER_THREADS);
                report
            });
            (report, EndState::Simulator(sim))
        }
        Substrate::Transport => {
            let (mut runtime, moving_s) = timed(|| {
                TransportRuntime::from_simulator(
                    &mut sim,
                    TRANSPORT_ACTORS,
                    DeliverySchedule::canonical(),
                )
            });
            from_simulator_s = moving_s;
            drive_start = Instant::now();
            let report = tracer.span("transport.runtime", |t| {
                let report = runtime.drive(&proto, RunOptions::until_complete(max_cycles));
                proto.record_phases(t, EAGER_PHASES, runtime.num_actors());
                report
            });
            (report, EndState::Transport(runtime))
        }
    };
    let drive_s = drive_start.elapsed().as_secs_f64();
    let ends = proto.take_cycle_ends();

    let latencies_us = state
        .queries
        .iter()
        .enumerate()
        .filter_map(|(i, query)| {
            let book = end
                .node(query.querier.index())
                .querier_states
                .get(&QueryId(i as u64))?;
            let in_drive = match (book.completed_cycle? - start_cycle) as usize {
                0 => 0.0,
                k => (*ends.get(k - 1)? - drive_start).as_secs_f64(),
            };
            Some((issue_s + in_drive) * 1e6)
        })
        .collect();
    (
        Round {
            issue_s,
            from_simulator_s,
            drive_s,
            latencies_us,
            report,
        },
        end,
    )
}

fn eager_bytes(bandwidth: &p3q_sim::BandwidthRecorder) -> u64 {
    bandwidth.category_bytes(category::EAGER_FORWARDED)
        + bandwidth.category_bytes(category::EAGER_RETURNED)
        + bandwidth.category_bytes(category::EAGER_PARTIAL_RESULTS)
}

/// Checks every query of a finished burst against the centralized top-k
/// over the querier's ideal network: it must have completed, and the
/// exhaustive scan of what it gathered must hold every reference item.
/// Returns mean recall at completion, median completion cycles, and mean
/// users reached.
fn check_queries(checks: &mut Checks, state: &State, end: &EndState) -> (f64, f64, f64) {
    let cfg = &state.offline.cfg;
    let dataset = &state.offline.trace.dataset;
    let mut recall_sum = 0.0;
    let mut completion_cycles = Vec::new();
    let mut reached = 0usize;
    for (i, query) in state.queries.iter().enumerate() {
        let reference = centralized_topk(dataset, &state.offline.ideal, query, cfg.top_k);
        let Some(book) = end
            .node(query.querier.index())
            .querier_states
            .get(&QueryId(i as u64))
        else {
            checks.check(false, || format!("query {i} left no querier state"));
            continue;
        };
        reached += book.reached_users.len();
        // The NRA scans lazily, so reading a top-k needs `&mut`.
        let gathered: Vec<ItemId> = book
            .nra
            .clone()
            .topk_exhaustive(cfg.top_k)
            .iter()
            .map(|r| r.item)
            .collect();
        let recall = recall_at_k(&gathered, &reference);
        recall_sum += recall;
        let latency = book.completion_latency();
        completion_cycles.extend(latency.map(|c| c as f64));
        checks.check(latency.is_some() && recall >= 1.0 - 1e-9, || {
            format!("query {i} never completed or misses a reference item")
        });
    }
    let cycles_p50 = if completion_cycles.is_empty() {
        0.0
    } else {
        percentile(&sorted(completion_cycles), 50.0)
    };
    let queries = state.queries.len().max(1) as f64;
    (recall_sum / queries, cycles_p50, reached as f64 / queries)
}

pub fn run(args: &RunArgs, substrate: Substrate) -> Outcome {
    let sizes = args.sizes;
    let mut stages = Stages::default();
    let (state, setup_base_s) = timed(|| {
        setup(
            sizes.gossip_users,
            sizes.warmup_cycles,
            sizes.burst_queries,
            args.seed,
            &mut stages,
        )
    });
    let max_cycles = sizes.burst_max_cycles;
    let measured = measure(args, |tracer| round(&state, substrate, max_cycles, tracer));
    let (rounds, end) = (&measured.rounds, &measured.end);
    let last = rounds.last().expect("at least one round ran").report;

    let mut checks = Checks::default();
    checks.ops(rounds.iter().map(|r| r.latencies_us.len() as u64).sum());
    let (recall, cycles_p50, users_reached) = check_queries(&mut checks, &state, end);
    checks.check(recall >= 0.99, || {
        format!("mean recall at completion {recall} is below 0.99")
    });
    let burst_bytes = eager_bytes(end.bandwidth()) - eager_bytes(&state.converged.bandwidth);

    let column = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let drive_s = column(|r| r.drive_s);

    // The oracle for the transport substrate is the simulator on the same
    // input: reports, traffic and every node's bytes must match. Its drive
    // is also the base of the substrate's overhead ratio.
    let mut overhead = None;
    if substrate == Substrate::Transport {
        let (oracle_round, oracle) = round(
            &state,
            Substrate::Simulator,
            max_cycles,
            &mut Tracer::new(false),
        );
        let report = oracle_round.report;
        checks.check(report == last, || {
            format!("run reports differ: simulator {report:?}, transport {last:?}")
        });
        checks.check(
            oracle.bandwidth().totals() == end.bandwidth().totals(),
            || "traffic totals differ between simulator and transport".to_string(),
        );
        checks.check(oracle.checksum() == end.checksum(), || {
            "node-state checksums differ between simulator and transport".to_string()
        });
        overhead = Some((oracle_round.drive_s, drive_s / oracle_round.drive_s));
    }

    // A round in which no query completed has no latency to rank; the
    // per-query check above has already failed every one of its queries.
    let completed: Vec<&Round> = rounds
        .iter()
        .filter(|r| !r.latencies_us.is_empty())
        .collect();
    let (ops_per_s, op_us_p50, op_us_p90) = if completed.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        rate_and_latency(completed.iter().map(|r| {
            (
                r.latencies_us.len() as f64 / r.timed_seconds(),
                r.latencies_us.as_slice(),
            )
        }))
    };
    let queries = state.queries.len().max(1) as f64;
    let end_to_end = EndToEndValues {
        setup_s: setup_base_s + column(|r| r.from_simulator_s),
        ops_per_s,
        op_us_p50,
        op_us_p90,
        peak_rss_mb: measured.peak_rss_mb,
        quality_ratio: recall,
        bytes_per_op: burst_bytes as f64 / queries,
    };

    let mut counts = engine_counts(last);
    counts.insert("core.eager.users_reached_per_query", users_reached);
    counts.insert("core.eager.query_cycles_p50", cycles_p50);
    if let Some((_, ratio)) = overhead {
        counts.insert("transport.overhead_ratio", ratio);
    }
    let layers = measured.layer_report(Round::timed_seconds, counts, || {
        let mut report = stages.0.clone();
        let cycles: f64 = measured
            .traced
            .iter()
            .flatten()
            .map(|r| r.report.cycles_run as f64)
            .sum();
        let ms_per_cycle = |span: &str| measured.traced_self_seconds(span) * 1e3 / cycles.max(1.0);
        report.insert(
            "core.eager.issue_query_us",
            column(|r| r.issue_s) * 1e6 / queries,
        );
        report.insert(
            "core.eager.plan_ms_per_cycle",
            ms_per_cycle("core.eager.plan"),
        );
        report.insert(
            "core.eager.commit_ms_per_cycle",
            ms_per_cycle("core.eager.commit"),
        );
        report.insert(
            "sim.engine.cycle_ms_p50",
            drive_s * 1e3 / last.cycles_run.max(1) as f64,
        );
        let mut issued = state.converged.clone();
        issue_burst(&mut issued, &state, &mut Tracer::new(false));
        layers::batching(&state.offline.cfg.eager(), &issued, args.seed, &mut report);
        layers::node_store(&state.converged, &mut report);
        layers::scoring_and_nra(&state, &mut report);
        match substrate {
            Substrate::Simulator => {
                report.insert(
                    "sim.engine.residual_ms_per_cycle",
                    ms_per_cycle("sim.engine"),
                );
            }
            Substrate::Transport => {
                report.insert("transport.from_simulator_s", column(|r| r.from_simulator_s));
                report.insert(
                    "transport.mailbox_hop_us",
                    layers::mailbox_hop_seconds() * 1e6,
                );
            }
        }
        report
    });

    let mut details = vec![
        ("users", Json::from(sizes.gossip_users)),
        ("queries_per_burst", Json::from(state.queries.len())),
        ("rounds", Json::from(rounds.len())),
        (
            "timed_seconds",
            Json::from(rounds.iter().map(Round::timed_seconds).sum::<f64>()),
        ),
        ("cycles_to_complete", Json::from(last.cycles_run)),
        ("query_cycles_p50", Json::from(cycles_p50)),
        ("users_reached_per_query", Json::from(users_reached)),
        (
            "state_checksum",
            Json::from(format!("{:016x}", end.checksum())),
        ),
    ];
    if let Some((oracle_drive_s, ratio)) = overhead {
        details.push(("transport_drive_s", Json::from(drive_s)));
        details.push(("simulator_drive_s", Json::from(oracle_drive_s)));
        details.push(("overhead_ratio", Json::from(ratio)));
    }
    Outcome {
        checks,
        end_to_end,
        layers,
        details: Json::obj(details),
        tracer: measured.tracer,
    }
}
