//! `lazy_converge` — Figure 2: personal networks converge from nothing
//! under lazy gossip. One round drives `lazy_cycles` cycles from the
//! bootstrapped, empty-network state; a round repeats (from a fresh clone
//! of that state, so every round does identical work) only while the run's
//! seconds are not yet spent.

use std::time::Instant;

use p3q::bandwidth::category;
use p3q::prelude::*;
use p3q_sim::GossipProtocol;

use crate::host::WORKER_THREADS;
use crate::json::Json;
use crate::layers;
use crate::probe::{Probed, LAZY_PHASES};
use crate::span::Tracer;
use crate::stats::median;
use crate::workload::{
    engine_counts, measure, rate_and_latency, Checks, EndToEndValues, Outcome, RunArgs,
};
use crate::world::{bootstrapped_simulator, offline, timed, Offline, Stages};

/// The success ratio is read after every this many cycles (and the last).
const SAMPLE_EVERY: u64 = 10;

struct State {
    offline: Offline,
    base: Simulator<P3qNode>,
}

/// One round's measurements.
struct Round {
    /// Sum of the cycles' times.
    seconds: f64,
    cycle_us: Vec<f64>,
    /// Average success ratio before the first cycle and after every sampled
    /// one, read between cycles while the cycle clock is stopped. Empty for
    /// a traced round.
    curve: Vec<f64>,
    report: RunReport,
}

/// Drives `cycles` lazy cycles on `sim`, timing each. With `sampled`, the
/// success ratio against those networks is read along the way.
fn drive<P>(
    sim: &mut Simulator<P3qNode>,
    proto: &P,
    cycles: u64,
    sampled: Option<&IdealNetworks>,
) -> Round
where
    P: GossipProtocol<Node = P3qNode>,
    P::Payload: Clone,
{
    let mut cycle_us = Vec::with_capacity(cycles as usize);
    let mut curve: Vec<f64> = sampled
        .map(|ideal| average_success_ratio(sim.nodes(), ideal))
        .into_iter()
        .collect();
    let mut last = Instant::now();
    let report = sim.drive(
        proto,
        RunOptions::cycles(cycles).threads(WORKER_THREADS),
        |sim, event| {
            if let RunEvent::CycleEnd(cycle) = event {
                cycle_us.push(last.elapsed().as_secs_f64() * 1e6);
                if let Some(ideal) = sampled {
                    if cycle % SAMPLE_EVERY == 0 || cycle == cycles {
                        curve.push(average_success_ratio(sim.nodes(), ideal));
                    }
                }
                last = Instant::now();
            }
        },
    );
    Round {
        seconds: cycle_us.iter().sum::<f64>() / 1e6,
        cycle_us,
        curve,
        report,
    }
}

fn round(state: &State, cycles: u64, tracer: &mut Tracer) -> (Round, Simulator<P3qNode>) {
    let mut sim = state.base.clone();
    tracer.next_run();
    // The untraced round runs the protocol itself and samples the curve the
    // checks read; the traced one wraps the protocol to time its phases from
    // outside, and samples nothing: its span should hold the drive alone.
    let round = if tracer.enabled() {
        let proto = Probed::new(state.offline.cfg.lazy(), true);
        tracer.span("sim.engine", |t| {
            let round = drive(&mut sim, &proto, cycles, None);
            proto.record_phases(t, LAZY_PHASES, WORKER_THREADS);
            round
        })
    } else {
        let ideal = &state.offline.ideal;
        drive(&mut sim, &state.offline.cfg.lazy(), cycles, Some(ideal))
    };
    (round, sim)
}

pub fn run(args: &RunArgs) -> Outcome {
    let sizes = args.sizes;
    let mut stages = Stages::default();
    let (state, setup_s) = timed(|| {
        let offline = offline(sizes.gossip_users, args.seed, &mut stages);
        let base = bootstrapped_simulator(&offline.trace, &offline.cfg, args.seed, &mut stages);
        State { offline, base }
    });
    let measured = measure(args, |tracer| round(&state, sizes.lazy_cycles, tracer));
    let (rounds, end) = (&measured.rounds, &measured.end);

    let mut checks = Checks::default();
    checks.ops(rounds.iter().map(|r| r.report.cycles_run).sum());
    let ideal = &state.offline.ideal;
    let final_ratio = average_success_ratio(end.nodes(), ideal);
    let total_bytes = end.bandwidth.totals().0;

    // Every round does the same work, so the last untraced one's curve is
    // every round's.
    let curve = &rounds.last().expect("at least one round ran").curve;
    for (i, pair) in curve.windows(2).enumerate() {
        checks.check(pair[1] >= pair[0], || {
            format!(
                "success ratio fell from {} to {} at sample {}",
                pair[0],
                pair[1],
                i + 1
            )
        });
    }
    let s = state.offline.cfg.personal_network_size;
    let oversized = end
        .nodes()
        .iter()
        .filter(|n| n.personal_network.len() > s)
        .count();
    checks.check(oversized == 0, || {
        format!("{oversized} personal networks hold more than s = {s} peers")
    });
    checks.check(final_ratio > 0.0, || {
        "no ideal neighbour was discovered".to_string()
    });

    let (ops_per_s, op_us_p50, op_us_p90) = rate_and_latency(rounds.iter().map(|r| {
        (
            r.report.cycles_run as f64 / r.seconds,
            r.cycle_us.as_slice(),
        )
    }));
    let node_cycles = (sizes.gossip_users as u64 * sizes.lazy_cycles) as f64;
    let end_to_end = EndToEndValues {
        setup_s,
        ops_per_s,
        op_us_p50,
        op_us_p90,
        peak_rss_mb: measured.peak_rss_mb,
        quality_ratio: final_ratio,
        bytes_per_op: total_bytes as f64 / node_cycles,
    };

    let digest_bytes = end.bandwidth.category_bytes(category::RPS_DIGESTS)
        + end.bandwidth.category_bytes(category::LAZY_DIGESTS);
    let mut counts = engine_counts(rounds.last().expect("at least one round ran").report);
    counts.insert(
        "core.lazy.digest_bytes_share",
        digest_bytes as f64 / total_bytes.max(1) as f64,
    );
    let layers = measured.layer_report(
        |r| r.seconds,
        counts,
        || {
            let mut report = stages.0.clone();
            let cycles: f64 = measured
                .traced
                .iter()
                .flatten()
                .map(|r| r.report.cycles_run as f64)
                .sum();
            for (metric, span) in [
                ("core.lazy.plan_ms_per_cycle", "core.lazy.plan"),
                ("core.lazy.commit_ms_per_cycle", "core.lazy.commit"),
                ("sim.engine.residual_ms_per_cycle", "sim.engine"),
            ] {
                report.insert(
                    metric,
                    measured.traced_self_seconds(span) * 1e3 / cycles.max(1.0),
                );
            }
            let cycle_us: Vec<f64> = rounds.iter().flat_map(|r| r.cycle_us.clone()).collect();
            report.insert("sim.engine.cycle_ms_p50", median(&cycle_us) / 1e3);
            let cfg = &state.offline.cfg;
            layers::batching(&cfg.lazy(), end, args.seed, &mut report);
            layers::parallel_speedup(&state.base, cfg, sizes.probe_cycles, &mut report);
            layers::node_store(end, &mut report);
            layers::gossip_views(&state.base, end, args.seed, &mut report);
            layers::bloom(&state.offline.trace.dataset, cfg, args.seed, &mut report);
            report
        },
    );

    let details = Json::obj([
        ("users", Json::from(sizes.gossip_users)),
        ("cycles_per_round", Json::from(sizes.lazy_cycles)),
        ("rounds", Json::from(rounds.len())),
        (
            "timed_seconds",
            Json::from(rounds.iter().map(|r| r.seconds).sum::<f64>()),
        ),
        (
            "success_ratio_curve",
            Json::Arr(curve.iter().copied().map(Json::from).collect()),
        ),
    ]);
    Outcome {
        checks,
        end_to_end,
        layers,
        details,
        tracer: measured.tracer,
    }
}
