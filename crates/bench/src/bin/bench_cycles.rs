//! Gossip-cycle throughput benchmark: cycles/sec of the plan/commit
//! exchange engine at several population scales, sequential reference vs.
//! the parallel engine at 1/2/4/8 worker threads — with a byte-equality
//! check across every configuration (the engine's determinism contract).
//!
//! Emits `BENCH_cycles.json` in the working directory (git-ignored; the
//! recording the gate keeps is `ci/baselines/BENCH_cycles_smoke.json`). The
//! file also records the host's available parallelism: on a single-core
//! container the parallel numbers measure engine overhead, not speedup — the
//! determinism property suite is what guarantees the same bytes come out
//! when cores are available. Options: [`USAGE`].

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use p3q::config::P3qConfig;
use p3q::experiment::build_simulator;
use p3q::lazy::bootstrap_random_views;
use p3q::node::P3qNode;
use p3q::storage::StorageDistribution;
use p3q_bench::flags::{exit_with_usage, Flags};
use p3q_bench::host_parallelism;
use p3q_bench::json::Json;
use p3q_sim::RunOptions;
use p3q_sim::Simulator;
use p3q_trace::{Scenario, ScenarioConfig, TraceGenerator};

const USAGE: &str = "\
cargo run --release -p p3q-bench --bin bench_cycles [-- OPTIONS]
    --users a,b,c    population scales      (default 10000,50000,100000)
    --cycles N       lazy cycles to time    (default 3)
    --warmup N       untimed warmup cycles  (default 2)
    --threads a,b    thread counts to time  (default 1,2,4,8)
    --seed N         master seed            (default 42)
    --scenario NAME  workload preset        (default paper-delicious)
    --out PATH       output path            (default BENCH_cycles.json)";

struct Args {
    users: Vec<usize>,
    cycles: u64,
    warmup: u64,
    threads: Vec<usize>,
    seed: u64,
    scenario: Scenario,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = Flags::from_env();
    let args = Args {
        users: flags.list("--users", &[10_000, 50_000, 100_000])?,
        cycles: flags.value("--cycles", 3)?,
        warmup: flags.value("--warmup", 2)?,
        threads: flags.list("--threads", &[1, 2, 4, 8])?,
        seed: flags.value("--seed", 42)?,
        scenario: flags.scenario()?,
        out: flags.value("--out", "BENCH_cycles.json".to_string())?,
    };
    flags.finish()?;
    Ok(args)
}

/// One timed configuration: how the cycles were executed.
struct Mode {
    label: String,
    /// `None` = sequential reference; `Some(t)` = parallel engine.
    threads: Option<usize>,
}

struct ModeResult {
    label: String,
    elapsed_s: f64,
    cycles_per_sec: f64,
    speedup_vs_reference: f64,
    /// Bandwidth totals after the timed run — must be identical across all
    /// modes (byte-identical execution).
    checksum: (u64, u64),
}

struct ScaleResult {
    users: usize,
    total_actions: usize,
    warmup_cycles: u64,
    timed_cycles: u64,
    /// Resident bytes of the node column (protocol state: views, digests,
    /// query books) after warmup.
    bytes_nodes: usize,
    modes: Vec<ModeResult>,
}

fn bench_scale(users: usize, args: &Args) -> ScaleResult {
    eprintln!("== {users} users ==");
    let start = Instant::now();
    // The scenario layer's density-preserving shape: items-per-user density
    // (and therefore the overlap structure) stays constant across scales.
    // Only the trace is generated — this benchmark times gossip cycles, so
    // materializing the scenario's event schedule would be wasted work.
    let scenario = ScenarioConfig::new(args.scenario, users, args.seed);
    let trace = TraceGenerator::new(scenario.trace_config()).generate();
    eprintln!(
        "   trace: {} actions, generated in {:.1} s",
        trace.dataset.total_actions(),
        start.elapsed().as_secs_f64()
    );
    let cfg = P3qConfig::laptop_scale();
    let mut sim = build_simulator(
        &trace.dataset,
        &cfg,
        &StorageDistribution::Uniform(100),
        args.seed,
    );
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xB007);
    bootstrap_random_views(&mut sim, &cfg, &mut rng);

    // Warm the network up so timed cycles exercise populated personal
    // networks (stored profiles, offers, probes) rather than cold views.
    // The engine is thread-count independent, so warming up with the
    // default worker count leaves the same bytes for every timed mode.
    sim.drive(&cfg.lazy(), RunOptions::cycles(args.warmup), |_, _| {});

    // Node-storage accounting at the measurement point (deterministic for a
    // given seed): the node store sums each node's protocol
    // state.
    let bytes_nodes = sim.node_store().storage_bytes(P3qNode::storage_bytes);
    eprintln!(
        "   node storage: {:.1} MiB",
        bytes_nodes as f64 / (1 << 20) as f64
    );

    let mut modes = vec![Mode {
        label: "sequential_reference".to_string(),
        threads: None,
    }];
    for &t in &args.threads {
        modes.push(Mode {
            label: format!("parallel_{t}_threads"),
            threads: Some(t),
        });
    }

    let mut results: Vec<ModeResult> = Vec::new();
    let mut reference_elapsed = None;
    for mode in &modes {
        let mut timed: Simulator<P3qNode> = sim.clone();
        let start = Instant::now();
        for _ in 0..args.cycles {
            match mode.threads {
                None => timed.drive(&cfg.lazy(), RunOptions::cycles(1).oracle(), |_, _| {}),
                Some(t) => timed.drive(&cfg.lazy(), RunOptions::cycles(1).threads(t), |_, _| {}),
            };
        }
        let elapsed = start.elapsed().as_secs_f64();
        let checksum = timed.bandwidth.totals();
        if reference_elapsed.is_none() {
            reference_elapsed = Some(elapsed);
        }
        let speedup = reference_elapsed.unwrap() / elapsed;
        eprintln!(
            "   {:<24} {:>7.2} s  {:>6.3} cycles/s  ({speedup:.2}x vs reference)",
            mode.label,
            elapsed,
            args.cycles as f64 / elapsed
        );
        results.push(ModeResult {
            label: mode.label.clone(),
            elapsed_s: elapsed,
            cycles_per_sec: args.cycles as f64 / elapsed,
            speedup_vs_reference: speedup,
            checksum,
        });
    }

    // Determinism spot check: every mode must have produced byte-identical
    // traffic (full state equality is pinned by the property suites).
    let reference_checksum = results[0].checksum;
    for r in &results {
        assert_eq!(
            r.checksum, reference_checksum,
            "mode {} diverged from the sequential reference",
            r.label
        );
    }

    ScaleResult {
        users,
        total_actions: trace.dataset.total_actions(),
        warmup_cycles: args.warmup,
        timed_cycles: args.cycles,
        bytes_nodes,
        modes: results,
    }
}

fn mode_json(m: &ModeResult) -> Json {
    Json::object()
        .with("mode", m.label.as_str())
        .with("elapsed_s", Json::fixed(m.elapsed_s, 3))
        .with("cycles_per_sec", Json::fixed(m.cycles_per_sec, 4))
        .with(
            "speedup_vs_reference",
            Json::fixed(m.speedup_vs_reference, 3),
        )
        .with("traffic_checksum", m.checksum)
}

fn scale_json(r: &ScaleResult) -> Json {
    Json::object()
        .with("users", r.users)
        .with("total_actions", r.total_actions)
        .with("warmup_cycles", r.warmup_cycles)
        .with("timed_cycles", r.timed_cycles)
        .with("bytes_nodes", r.bytes_nodes)
        .with("modes", r.modes.iter().map(mode_json).collect::<Json>())
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| exit_with_usage(&e, USAGE));
    let host_parallelism = host_parallelism();
    eprintln!("host parallelism: {host_parallelism} core(s)");
    let results: Vec<ScaleResult> = args.users.iter().map(|&u| bench_scale(u, &args)).collect();

    Json::object()
        .with("benchmark", "cycles")
        .with("seed", args.seed)
        .with("host_available_parallelism", host_parallelism)
        .with(
            "note",
            "cycles/sec of the plan/commit lazy-gossip engine; all modes are byte-identical \
             (checksum-asserted); parallel speedup requires cores — on a 1-core host these \
             numbers measure engine overhead",
        )
        .with("scales", results.iter().map(scale_json).collect::<Json>())
        .save(&args.out);
}
