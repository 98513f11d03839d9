//! Fault-degradation benchmark: recall, completion and latency of the
//! hardened eager protocol under a composite fault mix (message loss +
//! delay + duplication + crash/restart), swept over headline fault rates —
//! with a retry/TTL **ablation** at every rate so the value of the
//! hardening machinery is measured, not assumed.
//!
//! At each rate `r` the mix is the `lossy` preset (drop `r`, delay `r/2`,
//! duplicate `r/4`) plus a crash rate of `r/20` per node per cycle with a
//! 2-cycle downtime: pure delivery loss only delays the eager protocol
//! (an uncommitted exchange leaves the remaining list with the initiator,
//! who re-plans next cycle), so the permanent damage — and therefore the
//! retry machinery's value — comes from crashes wiping in-flight query
//! state.
//!
//! Every run is deterministic in `(seed, FaultConfig)` and byte-identical
//! for every `P3Q_THREADS`; the 5% row is re-executed at 1 and 3 worker
//! threads and checksum-asserted. Emits `BENCH_faults.json`. Options:
//! [`USAGE`].

use std::time::Instant;

use p3q::prelude::*;
use p3q_bench::flags::{exit_with_usage, Flags};
use p3q_bench::json::Json;
use p3q_bench::{burst_simulator, composite_faults, issue_queries, HarnessArgs, World};
use p3q_trace::Scenario;

const USAGE: &str = "\
cargo run --release -p p3q-bench --bin bench_faults [-- OPTIONS]
    --users N        population size                  (default 1000)
    --seed N         master seed                      (default 42)
    --queries N      tracked queries                  (default 150)
    --rates a,b,c    fault rates in percent           (default 0,1,5,20)
    --warmup N       faulted lazy warmup cycles       (default 3)
    --cycles N       faulted eager cycles             (default 20; check: 4)
    --out PATH       output path                      (default BENCH_faults.json)
    --check          determinism check only: run the lossy-network mix,
                     assert default-threads == sequential reference and
                     print the checksum (CI runs this under P3Q_THREADS)";

struct Args {
    users: usize,
    seed: u64,
    queries: usize,
    rates_percent: Vec<f64>,
    warmup: u64,
    cycles: Option<u64>,
    out: String,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = Flags::from_env();
    let args = Args {
        users: flags.value("--users", 1_000)?,
        seed: flags.value("--seed", 42)?,
        queries: flags.value("--queries", 150)?,
        rates_percent: flags.list("--rates", &[0.0, 1.0, 5.0, 20.0])?,
        warmup: flags.value("--warmup", 3)?,
        cycles: flags.optional("--cycles")?,
        out: flags.value("--out", "BENCH_faults.json".to_string())?,
        check: flags.switch("--check"),
    };
    flags.finish()?;
    Ok(args)
}

impl Args {
    /// The world of a run of `cycles` eager cycles under `scenario`.
    fn world(&self, cycles: u64, scenario: Scenario) -> World {
        World::build(&HarnessArgs {
            users: self.users,
            seed: self.seed,
            cycles,
            queries: self.queries,
            paper_scale: false,
            scenario,
        })
    }

    /// The composite mix at headline rate `rate` (a fraction, not percent):
    /// the crash rate follows the sweep at `rate / 20` — see module docs.
    fn faults(&self, rate: f64) -> FaultConfig {
        composite_faults(rate, rate / 20.0, self.seed ^ 0xFA17)
    }
}

/// One measured protocol run under one fault mix.
struct ArmResult {
    loss: RecallUnderLoss,
    stats: FaultStats,
    /// Fault-plan fingerprints (lazy warmup, eager phase).
    fault_fingerprint: (u64, u64),
    /// Bandwidth totals after the run (bytes, messages).
    traffic_checksum: (u64, u64),
}

/// Builds the simulation, runs `warmup` faulted lazy cycles, issues the
/// query workload and runs `cycles` faulted eager cycles, measuring recall
/// against the centralized reference. Crash-tolerant: a querier whose node
/// crashed mid-run has lost its query book — the query counts as lost.
fn run_arm(
    world: &World,
    cfg: &P3qConfig,
    faults: FaultConfig,
    queries: &[Query],
    warmup: u64,
    cycles: u64,
    threads: Option<usize>,
) -> ArmResult {
    let mut sim = burst_simulator(world, cfg);

    let mut lazy_faults: FaultPlan<LazyStep> = FaultPlan::new(faults);
    let mut opts = RunOptions::cycles(warmup).faulted(&mut lazy_faults);
    if let Some(t) = threads {
        opts = opts.threads(t);
    }
    sim.drive(&cfg.lazy(), opts, |_, _| {});

    let references: Vec<Vec<(ItemId, u32)>> = queries
        .iter()
        .map(|q| centralized_topk(&world.trace.dataset, &world.ideal, q, cfg.top_k))
        .collect();
    issue_queries(&mut sim, queries, cfg);

    let mut eager_faults: FaultPlan<EagerTask> = FaultPlan::new(faults);
    let mut opts = RunOptions::cycles(cycles).faulted(&mut eager_faults);
    if let Some(t) = threads {
        opts = opts.threads(t);
    }
    sim.drive(&cfg.eager(), opts, |_, _| {});

    let mut loss = RecallUnderLoss::default();
    for (i, query) in queries.iter().enumerate() {
        match sim
            .node_mut(query.querier.index())
            .querier_states
            .get_mut(&QueryId(i as u64))
        {
            None => loss.record_lost(),
            Some(state) => {
                let items: Vec<ItemId> = state
                    .current_topk(cfg.top_k)
                    .iter()
                    .map(|r| r.item)
                    .collect();
                loss.record_query(
                    recall_at_k(&items, &references[i]),
                    state.completion_latency(),
                );
            }
        }
    }
    loss.total_bytes = sim.bandwidth.totals().0;

    let mut stats = lazy_faults.stats();
    let eager_stats = eager_faults.stats();
    stats.dropped += eager_stats.dropped;
    stats.delayed += eager_stats.delayed;
    stats.duplicated += eager_stats.duplicated;
    stats.expired += eager_stats.expired;
    stats.crashes += eager_stats.crashes;
    stats.restarts += eager_stats.restarts;

    ArmResult {
        loss,
        stats,
        fault_fingerprint: (lazy_faults.fingerprint(), eager_faults.fingerprint()),
        traffic_checksum: sim.bandwidth.totals(),
    }
}

/// `--check`: the CI fault-determinism entry point. Runs the 5% composite
/// mix on a lossy-network world with the environment's worker-thread count
/// and with the sequential reference, asserts byte equality and prints the
/// checksum — the CI matrix runs this binary under several `P3Q_THREADS`
/// values and diffs the printed lines across jobs.
fn run_check(args: &Args) {
    let cycles = args.cycles.unwrap_or(4);
    let world = args.world(cycles, Scenario::LossyNetwork);
    let cfg = world.cfg.clone().with_fault_tolerance(cycles.max(2), 2);
    let faults = args.faults(0.05);
    let queries = world.sample_queries(args.queries.min(50));

    let start = Instant::now();
    let default_threads = run_arm(&world, &cfg, faults, &queries, args.warmup, cycles, None);
    let reference = run_arm(&world, &cfg, faults, &queries, args.warmup, cycles, Some(1));
    assert_eq!(
        default_threads.traffic_checksum, reference.traffic_checksum,
        "faulted run diverged from the sequential reference"
    );
    assert_eq!(
        default_threads.fault_fingerprint, reference.fault_fingerprint,
        "fault schedule diverged from the sequential reference"
    );
    println!(
        "FAULT_CHECKSUM users={} seed={} bytes={} messages={} fault_fp={:x}:{:x}",
        args.users,
        args.seed,
        default_threads.traffic_checksum.0,
        default_threads.traffic_checksum.1,
        default_threads.fault_fingerprint.0,
        default_threads.fault_fingerprint.1,
    );
    eprintln!(
        "check passed in {:.1} s (threads-default == reference)",
        start.elapsed().as_secs_f64()
    );
}

fn arm_json(arm: &ArmResult) -> Json {
    let latency = arm.loss.average_latency_cycles().unwrap_or(-1.0);
    Json::object()
        .with("queries", arm.loss.queries)
        .with("lost_queries", arm.loss.lost_queries)
        .with("completed_queries", arm.loss.completed_queries)
        .with("avg_recall", Json::fixed(arm.loss.average_recall(), 4))
        .with(
            "completion_rate",
            Json::fixed(arm.loss.completion_rate(), 4),
        )
        .with("avg_latency_cycles", Json::fixed(latency, 3))
        .with("bytes_total", arm.loss.total_bytes)
        .with("dropped", arm.stats.dropped)
        .with("delayed", arm.stats.delayed)
        .with("duplicated", arm.stats.duplicated)
        .with("expired", arm.stats.expired)
        .with("crashes", arm.stats.crashes)
        .with("restarts", arm.stats.restarts)
        .with("traffic_checksum", arm.traffic_checksum)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| exit_with_usage(&e, USAGE));
    if args.check {
        run_check(&args);
        return;
    }
    let cycles = args.cycles.unwrap_or(20);

    let world = args.world(cycles, Scenario::PaperDelicious);
    let hardened_cfg = world.cfg.clone().with_fault_tolerance(cycles.max(2), 2);
    let plain_cfg = world.cfg.clone();
    let queries = world.sample_queries(args.queries);
    eprintln!(
        "world: {} users, {} tracked queries, {} lazy warmup + {} eager cycles",
        args.users,
        queries.len(),
        args.warmup,
        cycles
    );

    struct RateRow {
        rate_percent: f64,
        hardened: ArmResult,
        ablation: ArmResult,
    }
    let mut rows: Vec<RateRow> = Vec::new();
    for &rate_percent in &args.rates_percent {
        let faults = args.faults(rate_percent / 100.0);
        let start = Instant::now();
        let hardened = run_arm(
            &world,
            &hardened_cfg,
            faults,
            &queries,
            args.warmup,
            cycles,
            None,
        );
        let ablation = run_arm(
            &world,
            &plain_cfg,
            faults,
            &queries,
            args.warmup,
            cycles,
            None,
        );
        eprintln!(
            "rate {:>5.1}%: recall {:.4} (hardened) vs {:.4} (no retry/TTL), \
             {} lost, {} dropped, {} crashes  [{:.1} s]",
            rate_percent,
            hardened.loss.average_recall(),
            ablation.loss.average_recall(),
            hardened.loss.lost_queries,
            hardened.stats.dropped,
            hardened.stats.crashes,
            start.elapsed().as_secs_f64()
        );
        rows.push(RateRow {
            rate_percent,
            hardened,
            ablation,
        });
    }

    // Determinism spot check: the faulted engine is thread-count
    // independent — re-run the highest nonzero rate at 1 and 3 workers and
    // require byte-identical traffic and fault schedules.
    if let Some(row) = rows.iter().rev().find(|r| r.rate_percent > 0.0) {
        let faults = args.faults(row.rate_percent / 100.0);
        for threads in [1usize, 3] {
            let rerun = run_arm(
                &world,
                &hardened_cfg,
                faults,
                &queries,
                args.warmup,
                cycles,
                Some(threads),
            );
            assert_eq!(
                rerun.traffic_checksum, row.hardened.traffic_checksum,
                "faulted run diverged at {threads} worker threads"
            );
            assert_eq!(
                rerun.fault_fingerprint, row.hardened.fault_fingerprint,
                "fault schedule diverged at {threads} worker threads"
            );
        }
        eprintln!(
            "determinism: {}% row byte-identical at 1 and 3 worker threads",
            row.rate_percent
        );
    }

    let mut doc = Json::object()
        .with("benchmark", "faults")
        .with("seed", args.seed)
        .with("users", args.users)
        .with("queries", queries.len())
        .with("lazy_warmup_cycles", args.warmup)
        .with("eager_cycles", cycles)
        .with(
            "note",
            "recall/completion/latency degradation of the eager protocol under a composite fault \
             mix (lossy preset + crash rate/20), hardened (retry+TTL) vs ablation; deterministic \
             in (seed, FaultConfig), thread-checksum asserted",
        )
        .with(
            "rates",
            rows.iter()
                .map(|row| {
                    Json::object()
                        .with("rate_percent", row.rate_percent)
                        .with("hardened", arm_json(&row.hardened))
                        .with("ablation_no_retry", arm_json(&row.ablation))
                })
                .collect::<Json>(),
        );

    // Headline acceptance numbers: recall at 5% loss vs the zero-fault
    // baseline, and the retry machinery's advantage over the ablation.
    let baseline = rows.iter().find(|r| r.rate_percent == 0.0);
    let at5 = rows.iter().find(|r| r.rate_percent == 5.0);
    if let (Some(base), Some(at5)) = (baseline, at5) {
        let drop_pct = 100.0
            * (1.0 - at5.hardened.loss.average_recall() / base.hardened.loss.average_recall());
        let advantage = at5.hardened.loss.average_recall() - at5.ablation.loss.average_recall();
        doc = doc.with(
            "acceptance",
            Json::object()
                .with("recall_drop_at_5pct_percent", Json::fixed(drop_pct, 3))
                .with("retry_advantage_at_5pct", Json::fixed(advantage, 4)),
        );
        eprintln!(
            "acceptance: recall drop at 5% = {drop_pct:.2}% (must stay under 10%), \
             retry advantage = {advantage:.4}"
        );
    }
    doc.save(&args.out);
}
