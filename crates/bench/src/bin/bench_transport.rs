//! Transport-runtime benchmark and oracle gate: drives the same eager query
//! workload through the deterministic simulator and through the
//! message-passing transport runtime (`p3q_transport::TransportRuntime`)
//! over a sweep of shard-actor counts, asserting **byte-identity** — equal
//! node-state fingerprints, traffic checksums and run reports — at every
//! layout, and timing each arm.
//!
//! A composite-fault arm repeats the comparison with message loss, delay,
//! duplication and node crash/restarts reinterpreted as transport faults,
//! pinning the fault schedule (`FaultPlan` fingerprint) as well.
//!
//! Emits `BENCH_transport.json`; the state/traffic checksums in it are
//! host-independent, so the CI baseline gate treats them as exact — and so
//! are the mailbox counters beside them (`commands_per_cycle`,
//! `guests_per_cycle`): what a layout costs in messages is a function of
//! the run, so a per-pair round trip coming back fails the gate on any host.
//! Options: [`USAGE`].

use std::time::Instant;

use p3q::prelude::*;
use p3q_bench::flags::{exit_with_usage, Flags};
use p3q_bench::json::Json;
use p3q_bench::{burst_simulator, composite_faults, issue_queries, HarnessArgs, World};
use p3q_transport::{DeliverySchedule, MailboxTraffic, TransportRuntime};

const USAGE: &str = "\
cargo run --release -p p3q-bench --bin bench_transport [-- OPTIONS]
    --users N        population size                  (default 1000)
    --seed N         master seed                      (default 42)
    --queries N      tracked queries                  (default 100)
    --warmup N       lazy warmup cycles               (default 3)
    --cycles N       eager cycles                     (default 12; check: 4)
    --actors a,b,c   shard-actor counts to sweep      (default 1,3,8)
    --out PATH       output path                      (default BENCH_transport.json)
    --check          oracle check only: run one transport layout (actor
                     count from P3Q_THREADS, default 3), assert it is
                     byte-identical to the simulator and print the
                     checksum (CI runs this under a P3Q_THREADS matrix
                     and diffs the printed TRANSPORT_CHECKSUM lines
                     across jobs; the layout's own mailbox counters go
                     on a TRANSPORT_TRAFFIC line)";

struct Args {
    users: usize,
    seed: u64,
    queries: usize,
    warmup: u64,
    cycles: u64,
    actors: Vec<usize>,
    out: String,
    check: bool,
}

fn parse_args(mut flags: Flags) -> Result<Args, String> {
    let check = flags.switch("--check");
    let args = Args {
        users: flags.users(1_000)?,
        seed: flags.value("--seed", 42)?,
        queries: flags.count("--queries", 100)?,
        warmup: flags.value("--warmup", 3)?,
        cycles: flags.count("--cycles", if check { 4 } else { 12 })? as u64,
        actors: flags.counts("--actors", &[1, 3, 8])?,
        out: flags.value("--out", "BENCH_transport.json".to_string())?,
        check,
    };
    flags.finish()?;
    Ok(args)
}

impl Args {
    /// The paper-shaped world of `--users` users.
    fn world(&self) -> World {
        World::build(&HarnessArgs {
            users: self.users,
            seed: self.seed,
            ..HarnessArgs::default()
        })
    }
}

/// A host-independent digest of a run's complete end state: cycle, every
/// node (via the `Fingerprint` chain) and the traffic totals.
fn state_checksum<'a>(
    cycle: u64,
    nodes: impl IntoIterator<Item = &'a P3qNode>,
    totals: (u64, u64),
) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(cycle);
    h.write_u64(fingerprint_chain(nodes));
    h.write_u64(totals.0);
    h.write_u64(totals.1);
    h.finish()
}

/// The point both drivers start from: the burst simulation after `warmup`
/// lazy cycles, with the query workload issued.
fn start_point(
    world: &World,
    cfg: &P3qConfig,
    queries: &[Query],
    warmup: u64,
) -> Simulator<P3qNode> {
    let mut sim = burst_simulator(world, cfg);
    sim.drive(&cfg.lazy(), RunOptions::cycles(warmup), |_, _| {});
    issue_queries(&mut sim, queries, cfg);
    sim
}

/// One measured run (simulator or transport).
struct ArmResult {
    elapsed_s: f64,
    report: RunReport,
    traffic_checksum: (u64, u64),
    state_checksum: u64,
    /// Messages exchanged with the shard actors (zero for the simulator).
    mailbox: MailboxTraffic,
}

impl ArmResult {
    /// Commands sent to shard actors per executed cycle.
    fn commands_per_cycle(&self) -> f64 {
        self.mailbox.commands as f64 / self.report.cycles_run as f64
    }

    /// Nodes moved to another shard for a commit, per executed cycle.
    fn guests_per_cycle(&self) -> f64 {
        self.mailbox.guests_lent as f64 / self.report.cycles_run as f64
    }
}

fn run_simulator(
    world: &World,
    cfg: &P3qConfig,
    queries: &[Query],
    warmup: u64,
    cycles: u64,
) -> ArmResult {
    let mut sim = start_point(world, cfg, queries, warmup);
    let start = Instant::now();
    let report = sim.drive(&cfg.eager(), RunOptions::cycles(cycles), |_, _| {});
    let elapsed_s = start.elapsed().as_secs_f64();
    ArmResult {
        elapsed_s,
        report,
        traffic_checksum: sim.bandwidth.totals(),
        state_checksum: state_checksum(sim.cycle(), sim.nodes(), sim.bandwidth.totals()),
        mailbox: MailboxTraffic::default(),
    }
}

fn run_transport(
    world: &World,
    cfg: &P3qConfig,
    queries: &[Query],
    warmup: u64,
    cycles: u64,
    actors: usize,
) -> ArmResult {
    let mut sim = start_point(world, cfg, queries, warmup);
    let mut rt = TransportRuntime::from_simulator(&mut sim, actors, DeliverySchedule::canonical());
    let start = Instant::now();
    let report = rt.drive(&cfg.eager(), RunOptions::cycles(cycles));
    let elapsed_s = start.elapsed().as_secs_f64();
    let totals = rt.bandwidth.totals();
    ArmResult {
        elapsed_s,
        report,
        traffic_checksum: totals,
        state_checksum: state_checksum(rt.cycle(), rt.nodes(), totals),
        mailbox: rt.traffic(),
    }
}

fn assert_oracle_equal(reference: &ArmResult, transport: &ArmResult, label: &str) {
    assert_eq!(
        reference.report, transport.report,
        "{label}: run report diverged from the simulator"
    );
    assert_eq!(
        reference.traffic_checksum, transport.traffic_checksum,
        "{label}: traffic diverged from the simulator"
    );
    assert_eq!(
        reference.state_checksum, transport.state_checksum,
        "{label}: node state diverged from the simulator"
    );
}

/// Faulted oracle comparison at one actor count; returns the (shared)
/// fault fingerprint, traffic and state checksums.
fn run_faulted(
    world: &World,
    cfg: &P3qConfig,
    queries: &[Query],
    warmup: u64,
    cycles: u64,
    actors: usize,
    fault_seed: u64,
) -> (u64, (u64, u64), u64) {
    // The 5% lossy preset plus this benchmark's own fixed crash rate (not
    // `bench_faults`' `rate / 20`: the committed checksums pin 0.002).
    let faults = composite_faults(0.05, 0.002, fault_seed);

    let mut sim = start_point(world, cfg, queries, warmup);
    let mut sim_faults: FaultPlan<EagerTask> = FaultPlan::new(faults);
    sim.drive(
        &cfg.eager(),
        RunOptions::cycles(cycles).faulted(&mut sim_faults),
        |_, _| {},
    );
    let sim_state = state_checksum(sim.cycle(), sim.nodes(), sim.bandwidth.totals());

    let mut seeded = start_point(world, cfg, queries, warmup);
    let mut rt =
        TransportRuntime::from_simulator(&mut seeded, actors, DeliverySchedule::canonical());
    let mut rt_faults: FaultPlan<EagerTask> = FaultPlan::new(faults);
    rt.drive(
        &cfg.eager(),
        RunOptions::cycles(cycles).faulted(&mut rt_faults),
    );
    let rt_state = state_checksum(rt.cycle(), rt.nodes(), rt.bandwidth.totals());

    assert_eq!(
        sim_faults.fingerprint(),
        rt_faults.fingerprint(),
        "faulted arm: fault schedule diverged (actors {actors})"
    );
    assert_eq!(sim_faults.stats(), rt_faults.stats());
    assert_eq!(
        sim.bandwidth.totals(),
        rt.bandwidth.totals(),
        "faulted arm: traffic diverged (actors {actors})"
    );
    assert_eq!(
        sim_state, rt_state,
        "faulted arm: node state diverged (actors {actors})"
    );
    (sim_faults.fingerprint(), rt.bandwidth.totals(), rt_state)
}

/// `--check`: the CI transport-determinism entry point. Runs the workload
/// through the simulator and through one transport layout — the actor
/// count comes from `P3Q_THREADS`, so the CI matrix exercises layouts
/// 1 / 3 / 8 — asserts byte-identity (faultless and composite-faulted) and
/// prints a checksum line the matrix diffs across jobs.
fn run_check(args: &Args) {
    let actors = std::env::var("P3Q_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3usize);
    let world = args.world();
    let cfg = world.cfg.clone();
    let queries = world.sample_queries(args.queries.min(50));

    let start = Instant::now();
    let reference = run_simulator(&world, &cfg, &queries, args.warmup, args.cycles);
    let transport = run_transport(&world, &cfg, &queries, args.warmup, args.cycles, actors);
    assert_oracle_equal(&reference, &transport, &format!("actors = {actors}"));
    let (fault_fp, faulted_traffic, faulted_state) = run_faulted(
        &world,
        &cfg,
        &queries,
        args.warmup,
        args.cycles,
        actors,
        args.seed ^ 0xFA17,
    );
    println!(
        "TRANSPORT_CHECKSUM users={} seed={} bytes={} messages={} state_fp={:016x} \
         faulted_bytes={} faulted_state_fp={:016x} fault_fp={:x}",
        args.users,
        args.seed,
        reference.traffic_checksum.0,
        reference.traffic_checksum.1,
        reference.state_checksum,
        faulted_traffic.0,
        faulted_state,
        fault_fp,
    );
    println!(
        "TRANSPORT_TRAFFIC actors={actors} commands_per_cycle={:.3} guests_per_cycle={:.3}",
        transport.commands_per_cycle(),
        transport.guests_per_cycle(),
    );
    eprintln!(
        "check passed in {:.1} s ({actors}-actor transport == simulator, faultless and faulted)",
        start.elapsed().as_secs_f64()
    );
}

fn main() {
    let args = parse_args(Flags::from_env()).unwrap_or_else(|e| exit_with_usage(&e, USAGE));
    if args.check {
        run_check(&args);
        return;
    }
    let world = args.world();
    let cfg = world.cfg.clone();
    let queries = world.sample_queries(args.queries);
    eprintln!(
        "world: {} users, {} tracked queries, {} lazy warmup + {} eager cycles",
        args.users,
        queries.len(),
        args.warmup,
        args.cycles
    );

    let reference = run_simulator(&world, &cfg, &queries, args.warmup, args.cycles);
    eprintln!(
        "simulator: {:.2} s, {} exchanges, state {:016x}",
        reference.elapsed_s,
        reference.report.exchanges(),
        reference.state_checksum
    );

    let mut arms: Vec<(usize, ArmResult)> = Vec::new();
    for &actors in &args.actors {
        let arm = run_transport(&world, &cfg, &queries, args.warmup, args.cycles, actors);
        assert_oracle_equal(&reference, &arm, &format!("actors = {actors}"));
        eprintln!(
            "transport {actors:>2} actor(s): {:.2} s ({:.2}x simulator), byte-identical",
            arm.elapsed_s,
            reference.elapsed_s / arm.elapsed_s.max(1e-9)
        );
        arms.push((actors, arm));
    }

    // Faulted arm at the middle layout: the fault mix reinterpreted as
    // transport faults must reproduce the simulator's schedule and state.
    let faulted_actors = args.actors.get(args.actors.len() / 2).copied().unwrap_or(3);
    let (fault_fp, faulted_traffic, faulted_state) = run_faulted(
        &world,
        &cfg,
        &queries,
        args.warmup,
        args.cycles,
        faulted_actors,
        args.seed ^ 0xFA17,
    );
    eprintln!("faulted arm ({faulted_actors} actors): byte-identical, fault_fp {fault_fp:x}");

    let checksum_json = |checksum: u64| Json::from(format!("{checksum:016x}"));
    let transport = arms.iter().map(|(actors, arm)| {
        let speedup = reference.elapsed_s / arm.elapsed_s.max(1e-9);
        Json::object()
            .with("actors", *actors)
            .with("elapsed_s", Json::fixed(arm.elapsed_s, 3))
            .with("speedup_vs_simulator", Json::fixed(speedup, 3))
            .with(
                "commands_per_cycle",
                Json::fixed(arm.commands_per_cycle(), 3),
            )
            .with("guests_per_cycle", Json::fixed(arm.guests_per_cycle(), 3))
            .with("traffic_checksum", arm.traffic_checksum)
            .with("state_checksum", checksum_json(arm.state_checksum))
    });
    Json::object()
        .with("benchmark", "transport")
        .with("seed", args.seed)
        .with("users", args.users)
        .with("queries", queries.len())
        .with("lazy_warmup_cycles", args.warmup)
        .with("eager_cycles", args.cycles)
        .with(
            "note",
            "eager workload through the message-passing transport runtime vs the simulator \
             oracle; every layout byte-identity-asserted (state fingerprint, traffic, run \
             report), plus a composite-fault arm pinning the fault schedule",
        )
        .with(
            "simulator",
            Json::object()
                .with("elapsed_s", Json::fixed(reference.elapsed_s, 3))
                .with("exchanges", reference.report.exchanges())
                .with("traffic_checksum", reference.traffic_checksum)
                .with("state_checksum", checksum_json(reference.state_checksum)),
        )
        .with("transport", transport.collect::<Json>())
        .with(
            "faulted",
            Json::object()
                .with("actors", faulted_actors)
                .with("fault_checksum", format!("{fault_fp:x}"))
                .with("traffic_checksum", faulted_traffic)
                .with("state_checksum", checksum_json(faulted_state)),
        )
        .save(&args.out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(Flags::new(args.iter().map(|s| s.to_string())))
    }

    #[test]
    fn zero_cycles_or_actors_is_an_error() {
        let no_cycles = Some("--cycles must be at least 1".to_string());
        assert_eq!(parse(&["--cycles", "0"]).err(), no_cycles);
        assert_eq!(parse(&["--check", "--cycles", "0"]).err(), no_cycles);
        let no_actors = Some("--actors must be at least 1".to_string());
        assert_eq!(parse(&["--actors", "0"]).err(), no_actors);
        assert_eq!(parse(&["--actors", "3,0"]).err(), no_actors);
        assert_eq!(
            parse(&[]).map(|a| (a.cycles, a.actors)),
            Ok((12, vec![1, 3, 8]))
        );
        assert_eq!(parse(&["--check"]).map(|a| a.cycles), Ok(4));
    }
}
