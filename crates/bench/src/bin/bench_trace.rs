//! Trace-generator benchmark and determinism checker: wall-clock of the
//! parallel generator (per worker-thread count) against the retained
//! sequential reference, with a content checksum asserted byte-identical
//! across every mode — and, in `--check` mode, the CI gate that regenerates
//! a trace plus one paper-day change batch under several thread counts and
//! fails on any divergence.
//!
//! Emits `BENCH_trace.json` in the working directory (git-ignored; the
//! recording the gate keeps is `ci/baselines/BENCH_trace_smoke.json`). The
//! file records the host's available parallelism: on a single-core
//! container the "parallel" numbers measure fan-out overhead (the chunked
//! path must be no slower than the reference), while real speedup is
//! harvested on multi-core hosts — safe, because thread count provably
//! cannot change the bytes. Options: [`USAGE`].

use std::time::Instant;

use p3q_bench::flags::{exit_with_usage, Flags};
use p3q_bench::host_parallelism;
use p3q_bench::json::Json;
use p3q_sim::Fnv;
use p3q_trace::{
    ChangeBatch, DynamicsConfig, DynamicsGenerator, Scenario, ScenarioConfig, SyntheticTrace,
    TraceGenerator,
};

const USAGE: &str = "\
cargo run --release -p p3q-bench --bin bench_trace [-- OPTIONS]
    --users a,b      population scales     (default 10000,100000)
    --threads a,b    thread counts to time (default 1,2,4,8)
    --seed N         master seed           (default 42)
    --check          determinism mode: compare all modes, print checksums
    --out PATH       output path           (default BENCH_trace.json)";

struct Args {
    users: Vec<usize>,
    threads: Vec<usize>,
    seed: u64,
    check: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = Flags::from_env();
    let args = Args {
        users: flags.counts("--users", &[10_000, 100_000])?,
        threads: flags.list("--threads", &[1, 2, 4, 8])?,
        seed: flags.value("--seed", 42)?,
        check: flags.switch("--check"),
        out: flags.value("--out", "BENCH_trace.json".to_string())?,
    };
    flags.finish()?;
    Ok(args)
}

/// Content checksum of a trace: the latent world plus every profile byte.
fn trace_checksum(trace: &SyntheticTrace) -> u64 {
    let mut h = Fnv::new();
    for &topic in &trace.world.item_topic {
        h.write_u64(topic as u64);
    }
    for tags in &trace.world.item_tags {
        h.write_u64(tags.len() as u64);
        for tag in tags {
            h.write_u64(tag.as_key());
        }
    }
    for topics in &trace.world.user_topics {
        h.write_u64(topics.len() as u64);
        for &t in topics {
            h.write_u64(t as u64);
        }
    }
    for (user, profile) in trace.dataset.iter() {
        h.write_u64(user.as_key());
        h.write_u64(profile.len() as u64);
        for action in profile.iter() {
            h.write_u64(action.item.as_key());
            h.write_u64(action.tag.as_key());
        }
    }
    h.finish()
}

/// Content checksum of a change batch: every changing user and her new
/// actions.
fn batch_checksum(batch: &ChangeBatch) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(batch.len() as u64);
    for change in &batch.changes {
        h.write_u64(change.user.as_key());
        h.write_u64(change.new_actions.len() as u64);
        for action in &change.new_actions {
            h.write_u64(action.item.as_key());
            h.write_u64(action.tag.as_key());
        }
    }
    h.finish()
}

/// The paper's trace configuration for `users` users.
fn generator(users: usize, seed: u64) -> TraceGenerator {
    TraceGenerator::new(ScenarioConfig::new(Scenario::PaperDelicious, users, seed).trace_config())
}

struct ModeResult {
    label: String,
    elapsed_s: f64,
    speedup_vs_reference: f64,
    checksum: u64,
}

struct ScaleResult {
    users: usize,
    total_actions: usize,
    checksum: u64,
    /// Resident bytes of the decoded profile store (8 bytes per action)...
    bytes_profiles_decoded: usize,
    /// ...the same profiles in the packed columnar at-rest form...
    bytes_profiles_packed: usize,
    /// ...and the interned action dictionary built over the trace.
    bytes_dictionary: usize,
    modes: Vec<ModeResult>,
}

fn bench_scale(users: usize, args: &Args) -> ScaleResult {
    eprintln!("== {users} users ==");
    let generator = generator(users, args.seed);

    let start = Instant::now();
    let reference = generator.generate_reference();
    let reference_elapsed = start.elapsed().as_secs_f64();
    let reference_checksum = trace_checksum(&reference);
    let total_actions = reference.dataset.total_actions();
    let bytes_profiles_decoded = reference.dataset.profile_heap_bytes();
    let bytes_profiles_packed = reference.dataset.packed_profile_bytes();
    let bytes_dictionary = reference.dataset.action_dictionary().heap_bytes();
    drop(reference);
    eprintln!(
        "   sequential_reference     {reference_elapsed:>6.2} s  ({total_actions} actions, \
         checksum {reference_checksum:#018x})"
    );
    eprintln!(
        "   profile storage: {:.1} MiB decoded, {:.1} MiB packed, {:.1} MiB dictionary",
        bytes_profiles_decoded as f64 / (1 << 20) as f64,
        bytes_profiles_packed as f64 / (1 << 20) as f64,
        bytes_dictionary as f64 / (1 << 20) as f64,
    );

    let mut modes = vec![ModeResult {
        label: "sequential_reference".to_string(),
        elapsed_s: reference_elapsed,
        speedup_vs_reference: 1.0,
        checksum: reference_checksum,
    }];
    for &threads in &args.threads {
        let start = Instant::now();
        let trace = generator.generate_with_threads(threads);
        let elapsed = start.elapsed().as_secs_f64();
        let checksum = trace_checksum(&trace);
        drop(trace);
        let speedup = reference_elapsed / elapsed;
        eprintln!(
            "   parallel_{threads}_threads       {elapsed:>6.2} s  ({speedup:.2}x vs reference)"
        );
        assert_eq!(
            checksum, reference_checksum,
            "parallel generation with {threads} threads diverged from the reference"
        );
        modes.push(ModeResult {
            label: format!("parallel_{threads}_threads"),
            elapsed_s: elapsed,
            speedup_vs_reference: speedup,
            checksum,
        });
    }

    ScaleResult {
        users,
        total_actions,
        checksum: reference_checksum,
        bytes_profiles_decoded,
        bytes_profiles_packed,
        bytes_dictionary,
        modes,
    }
}

/// The CI determinism gate: regenerate the trace and one paper-day change
/// batch over it under every requested thread count and fail loudly on
/// checksum divergence from the sequential references.
fn check_scale(users: usize, args: &Args) {
    println!("== determinism check: {users} users ==");
    let generator = generator(users, args.seed);
    let dynamics = DynamicsGenerator::new(DynamicsConfig::paper_day(args.seed));

    let reference = generator.generate_reference();
    let reference_checksum = trace_checksum(&reference);
    let reference_batch = batch_checksum(&dynamics.generate_reference(&reference));
    println!(
        "   reference: trace {reference_checksum:#018x}, batch {reference_batch:#018x} \
         ({} actions)",
        reference.dataset.total_actions()
    );
    drop(reference);

    let mut failures = 0usize;
    for &threads in &args.threads {
        let generated = generator.generate_with_threads(threads);
        let trace = trace_checksum(&generated);
        let batch = batch_checksum(&dynamics.generate_with_threads(&generated, threads));
        let trace_ok = trace == reference_checksum;
        let batch_ok = batch == reference_batch;
        println!(
            "   threads {threads}: trace {trace:#018x} [{}], batch {batch:#018x} [{}]",
            if trace_ok { "ok" } else { "DIVERGED" },
            if batch_ok { "ok" } else { "DIVERGED" },
        );
        failures += usize::from(!trace_ok) + usize::from(!batch_ok);
    }
    if failures > 0 {
        eprintln!("{failures} checksum divergence(s) — trace generation is not deterministic");
        std::process::exit(1);
    }
    println!("   all modes byte-identical");
}

fn mode_json(m: &ModeResult) -> Json {
    Json::object()
        .with("mode", m.label.as_str())
        .with("elapsed_s", Json::fixed(m.elapsed_s, 3))
        .with(
            "speedup_vs_reference",
            Json::fixed(m.speedup_vs_reference, 3),
        )
        .with("trace_checksum", Json::checksum(m.checksum))
}

fn scale_json(r: &ScaleResult) -> Json {
    Json::object()
        .with("users", r.users)
        .with("total_actions", r.total_actions)
        .with("trace_checksum", Json::checksum(r.checksum))
        .with("bytes_profiles_decoded", r.bytes_profiles_decoded)
        .with("bytes_profiles_packed", r.bytes_profiles_packed)
        .with("bytes_dictionary", r.bytes_dictionary)
        .with("modes", r.modes.iter().map(mode_json).collect::<Json>())
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| exit_with_usage(&e, USAGE));
    let host_parallelism = host_parallelism();
    eprintln!("host parallelism: {host_parallelism} core(s)");

    if args.check {
        for &users in &args.users {
            check_scale(users, &args);
        }
        return;
    }

    let results: Vec<ScaleResult> = args.users.iter().map(|&u| bench_scale(u, &args)).collect();

    Json::object()
        .with("benchmark", "trace")
        .with("seed", args.seed)
        .with("host_available_parallelism", host_parallelism)
        .with(
            "note",
            "synthetic trace generation wall-clock; all modes byte-identical \
             (checksum-asserted); on a 1-core host the parallel numbers measure fan-out overhead, \
             not speedup",
        )
        .with("scales", results.iter().map(scale_json).collect::<Json>())
        .save(&args.out);
}
