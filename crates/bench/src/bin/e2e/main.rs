//! `e2e` — the repository's benchmark: five workloads over the P3Q
//! pipeline, end-to-end metrics with regression bounds, and a traced mode
//! that splits each workload's timed region by layer. `BENCHMARK.json` at
//! the repository root declares it; `README.md` beside this file explains
//! it.
//!
//! ```text
//! e2e                                   every workload, one child process each
//! e2e --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--spans PATH]
//!                                       one run in this process; the last
//!                                       line of standard output is the result
//! e2e --repeat N [--workload NAME]      A/A: N fresh processes per workload,
//!                                       medians, quartiles and spreads
//! ```
//!
//! The harness calls only public functions of the library crates, pins
//! every thread count it can pass, and observes each layer from outside:
//! by timing its own calls, and by wrapping the gossip protocols in a
//! delegating `GossipProtocol` (`probe.rs`).

mod burst;
mod host;
mod json;
mod layers;
mod lazy_converge;
mod probe;
mod similarity_serve;
mod similarity_sweep;
mod span;
mod spec;
mod stats;
mod workload;
mod world;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use spec::{Better, Kind, Sizes, END_TO_END, PER_LAYER, WORKLOADS};
use workload::{Outcome, RunArgs};

const USAGE: &str = "usage: e2e [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] \
                     [--spans PATH] [--repeat N]";

#[derive(Debug, Clone, PartialEq)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    repeat: Option<usize>,
}

fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: spec::RUN_SECONDS,
        trace: false,
        spans: None,
        repeat: None,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                cli.workload = Some(name);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds >= 0.0 && cli.seconds.is_finite()) {
                    return Err("--seconds must be a finite, non-negative number".to_string());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--spans" => cli.spans = Some(PathBuf::from(value()?)),
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 runs to state a spread".to_string());
                }
                cli.repeat = Some(n);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.repeat.is_some() && cli.trace {
        return Err(
            "--repeat compares end-to-end metrics, which only untraced runs report; \
             drop --trace 1"
                .to_string(),
        );
    }
    Ok(cli)
}

fn run_workload(name: &str, args: &RunArgs) -> Outcome {
    match name {
        "lazy_converge" => lazy_converge::run(args),
        "eager_burst" => burst::run(args, burst::Substrate::Simulator),
        "transport_burst" => burst::run(args, burst::Substrate::Transport),
        "similarity_sweep" => similarity_sweep::run(args),
        "similarity_serve" => similarity_serve::run(args),
        other => unreachable!("`{other}` passed parse_cli but is not a workload"),
    }
}

/// One metric of a run, with what `spec` declares about it.
struct Reported {
    name: &'static str,
    value: f64,
    unit: &'static str,
    better: Better,
    /// The regression bound, for an end-to-end metric.
    bound: Option<f64>,
}

/// The seven end-to-end metrics of a run.
fn end_to_end_metrics(outcome: &Outcome) -> Vec<Reported> {
    let e = &outcome.end_to_end;
    END_TO_END
        .iter()
        .map(|m| Reported {
            name: m.name,
            value: match m.name {
                "setup_s" => e.setup_s,
                "ops_per_s" => e.ops_per_s,
                "op_us_p50" => e.op_us_p50,
                "op_us_p90" => e.op_us_p90,
                "peak_rss_mb" => e.peak_rss_mb,
                "quality_ratio" => e.quality_ratio,
                "bytes_per_op" => e.bytes_per_op,
                other => unreachable!("`{other}` is declared but never measured"),
            },
            unit: m.unit,
            better: m.better,
            bound: Some(m.bound),
        })
        .collect()
}

/// What a run reports as its metrics: the per-layer set when traced, the
/// end-to-end set otherwise.
fn reported_metrics(outcome: &Outcome) -> Vec<Reported> {
    match &outcome.layers {
        Some(layers) => PER_LAYER
            .iter()
            .map(|m| Reported {
                name: m.name,
                value: layers[m.name],
                unit: m.unit,
                better: m.better,
                bound: None,
            })
            .collect(),
        None => end_to_end_metrics(outcome),
    }
}

/// `{name: {"value": …, "unit": …}}`, the contract's shape for metrics.
fn metrics_json(metrics: &[Reported]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let value = Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]);
        (m.name, value)
    }))
}

/// The result object the contract asks for on the last line.
fn result_line(outcome: &Outcome, metrics: &[Reported]) -> Json {
    Json::obj([
        ("correct", Json::from(outcome.checks.failed == 0)),
        ("attempted", Json::from(outcome.checks.attempted.max(1))),
        ("failed", Json::from(outcome.checks.failed)),
        ("metrics", metrics_json(metrics)),
    ])
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run in this process. Prints the metrics by name, the result record
/// and — last — the result line.
fn run_one(cli: &Cli, name: &str) -> ExitCode {
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        sizes: Sizes::reference(),
    };
    let calibration_before_ms = host::calibration_ms();
    let outcome = run_workload(name, &args);
    let calibration_after_ms = host::calibration_ms();
    let metrics = reported_metrics(&outcome);

    println!(
        "workload {name}  seed {}  {} s  {}",
        cli.seed,
        cli.seconds,
        if cli.trace { "traced" } else { "untraced" }
    );
    let why = WORKLOADS.iter().find(|w| w.name == name).map(|w| w.why);
    println!(
        "  {}",
        why.expect("parse_cli only lets declared workloads through")
    );
    for m in &metrics {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!("  bound {}%", b * 100.0));
        println!(
            "  {:<44} {:>16.4} {:<6} {} is better{bound}",
            m.name,
            m.value,
            m.unit,
            m.better.as_str()
        );
    }
    for failure in &outcome.checks.failures {
        println!("  FAILED CHECK: {failure}");
    }
    if let Some(path) = &cli.spans {
        match outcome.tracer.write_jsonl(path) {
            Ok(()) => println!(
                "  {} spans written to {}",
                outcome.tracer.len(),
                path.display()
            ),
            Err(e) => eprintln!("e2e: cannot write {}: {e}", path.display()),
        }
    }
    let record = Json::obj([
        ("workload", Json::from(name)),
        ("seed", Json::from(cli.seed)),
        ("seconds", Json::from(cli.seconds)),
        ("traced", Json::from(cli.trace)),
        ("host", host::host_record()),
        (
            "host_calibration_ms",
            Json::Arr(vec![
                Json::from(calibration_before_ms),
                Json::from(calibration_after_ms),
            ]),
        ),
        ("sizes", args.sizes.to_json()),
        ("details", outcome.details.clone()),
        // A traced run prints the layers as its metrics; its untraced half
        // still measured these, so they are kept here.
        ("end_to_end", metrics_json(&end_to_end_metrics(&outcome))),
    ]);
    println!("{}", Json::obj([("record", record)]).render());
    println!("{}", result_line(&outcome, &metrics).render());
    exit_code(outcome.checks.failed == 0)
}

/// Runs `name` in a fresh child process and parses its result line.
/// Everything the child prints is passed through.
fn run_child(cli: &Cli, name: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{name}: the child printed nothing"))?;
    let result = Json::parse(last).map_err(|e| format!("{name}: bad result line: {e}"))?;
    // A child that found a failed check exits non-zero *and* says so; any
    // other non-zero exit is a crash.
    if !output.status.success() && is_correct(&result) {
        return Err(format!("{name}: the child exited with {}", output.status));
    }
    Ok(result)
}

fn is_correct(result: &Json) -> bool {
    result.get("correct").and_then(Json::as_bool) == Some(true)
}

fn metric_value(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Every selected workload once, each in a fresh process.
fn run_all(cli: &Cli, names: &[&str]) -> ExitCode {
    let mut ok = true;
    for &name in names {
        match run_child(cli, name) {
            Ok(result) => ok &= is_correct(&result),
            Err(e) => {
                eprintln!("e2e: {e}");
                ok = false;
            }
        }
        println!();
    }
    println!(
        "{} workload(s): {}",
        names.len(),
        if ok { "every check passed" } else { "FAILED" }
    );
    exit_code(ok)
}

/// A/A mode: `repeat` fresh processes per workload on the same seed. A host
/// metric must stay within its bound from quartile to quartile; a simulated
/// one must not move at all.
fn run_repeat(cli: &Cli, names: &[&str], repeat: usize) -> ExitCode {
    let mut ok = true;
    let mut table = Vec::new();
    for &name in names {
        let mut runs = Vec::new();
        for _ in 0..repeat {
            match run_child(cli, name) {
                Ok(result) => {
                    ok &= is_correct(&result);
                    runs.push(result);
                }
                Err(e) => {
                    eprintln!("e2e: {e}");
                    ok = false;
                }
            }
        }
        for metric in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| metric_value(r, metric.name))
                .collect();
            if values.len() < 2 {
                eprintln!(
                    "e2e: {name}: only {} of {repeat} runs reported `{}`",
                    values.len(),
                    metric.name
                );
                ok = false;
                continue;
            }
            let [q1, q2, q3] = stats::quartiles(&values);
            let spread = stats::relative_spread(&values);
            let verdict = match metric.kind {
                Kind::Sim if values.iter().any(|v| *v != values[0]) => "DIFFERS",
                Kind::Host if spread > metric.bound => "TOO WIDE",
                _ => "ok",
            };
            ok &= verdict == "ok";
            table.push(format!(
                "{name:<17} {:<14} {q2:>14.4} {:<6} q1 {q1:>14.4}  q3 {q3:>14.4}  spread {:>6.2}%  bound {:>4.1}%  {verdict}",
                metric.name,
                metric.unit,
                spread * 100.0,
                metric.bound * 100.0,
            ));
        }
    }
    println!("\nA/A over {repeat} runs per workload, seed {}:", cli.seed);
    for line in table {
        println!("{line}");
    }
    if !ok {
        println!("FAILED: a check failed, a host metric spread past its bound, or a simulated metric moved");
    }
    exit_code(ok)
}

fn main() -> ExitCode {
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let selected: Vec<&str> = match &cli.workload {
        Some(name) => vec![name.as_str()],
        None => all,
    };
    match (cli.repeat, &cli.workload) {
        (Some(repeat), _) => run_repeat(&cli, &selected, repeat),
        (None, Some(name)) => run_one(&cli, name),
        (None, None) => run_all(&cli, &selected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's declaration, as the driver reads it.
    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("`{key}` missing in {entry:?}"))
    }

    #[test]
    fn declarations_equal_benchmark_json() {
        let declared = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = declared
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            declared.get("run_seconds").and_then(Json::as_f64),
            Some(spec::RUN_SECONDS)
        );

        let workloads = declared.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, spec) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(entry, "name"), spec.name);
            assert_eq!(field(entry, "why"), spec.why);
            assert!(valid_name(spec.name), "{}", spec.name);
            assert!(
                spec.why.len() <= 200 && !spec.why.contains('\n'),
                "{}: why is {} chars",
                spec.name,
                spec.why.len()
            );
        }

        let end_to_end = declared.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, spec) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), spec.name);
            assert_eq!(field(entry, "unit"), spec.unit);
            assert_eq!(field(entry, "better"), spec.better.as_str());
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(spec.bound));
            assert!(spec.bound > 0.0 && spec.bound <= 0.25, "{}", spec.name);
            assert!(
                valid_name(spec.name) && valid_unit(spec.unit),
                "{}",
                spec.name
            );
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Better::Lower)
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

        let per_layer = declared.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (entry, spec) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name"), spec.name);
            assert_eq!(field(entry, "unit"), spec.unit);
            assert_eq!(field(entry, "better"), spec.better.as_str());
            assert!(
                valid_name(spec.name) && valid_unit(spec.unit),
                "{}",
                spec.name
            );
        }
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn cli_parses_the_contract_flags_and_rejects_the_rest() {
        let parse = |line: &str| parse_cli(line.split_whitespace().map(String::from));
        let cli = parse("--workload eager_burst --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(cli.workload.as_deref(), Some("eager_burst"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 3.0, true));
        let defaults = parse("").unwrap();
        assert_eq!((defaults.seed, defaults.seconds), (42, spec::RUN_SECONDS));
        assert!(!defaults.trace && defaults.workload.is_none());
        for bad in [
            "--workload nope",
            "--trace yes",
            "--seed",
            "--seconds -1",
            "--repeat 1",
            "--repeat 3 --trace 1",
            "--bogus",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    fn tiny_run(name: &str, seed: u64, trace: bool) -> Outcome {
        let args = RunArgs {
            seed,
            // Zero seconds still runs one round (and one traced round).
            seconds: 0.0,
            trace,
            sizes: Sizes::tiny(),
        };
        run_workload(name, &args)
    }

    /// The simulated end-to-end numbers of a run.
    fn simulated(outcome: &Outcome) -> Vec<f64> {
        END_TO_END
            .iter()
            .zip(reported_metrics(outcome))
            .filter(|(m, _)| m.kind == Kind::Sim)
            .map(|(_, reported)| reported.value)
            .collect()
    }

    fn assert_layers_are_complete(name: &str, outcome: &Outcome) {
        let layers = outcome
            .layers
            .as_ref()
            .expect("a traced run reports layers");
        let reported: Vec<&str> = layers.keys().copied().collect();
        let mut declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        declared.sort_unstable();
        assert_eq!(reported, declared, "{name}");
        assert!(
            layers.values().all(|v| v.is_finite() && *v >= 0.0),
            "{name}"
        );
        let shares: f64 = layers
            .iter()
            .filter(|(metric, _)| metric.starts_with("share."))
            .map(|(_, share)| share)
            .sum();
        assert!(
            (shares - 1.0).abs() < 0.02,
            "{name}: shares sum to {shares}"
        );
        assert!(layers["share.harness"] < 0.05, "{name}");
        assert!(outcome.tracer.len() > 0, "{name}");
    }

    /// One traced and two untraced tiny runs of a workload carry every
    /// self-check: the checks pass, every declared metric is reported and
    /// no other, and simulated numbers repeat for a seed and move with it.
    /// Returns the untraced run.
    fn self_check(name: &str) -> Outcome {
        let traced = tiny_run(name, 11, true);
        let untraced = tiny_run(name, 11, false);
        let other_seed = tiny_run(name, 12, false);
        for outcome in [&traced, &untraced, &other_seed] {
            assert_eq!(outcome.checks.failed, 0, "{:?}", outcome.checks.failures);
            assert!(outcome.checks.attempted > 0);
        }
        assert_layers_are_complete(name, &traced);

        assert!(untraced.layers.is_none());
        let metrics = reported_metrics(&untraced);
        let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        for m in metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} = {}",
                m.name,
                m.value
            );
        }

        // The traced run's untraced half measured the same simulation.
        let mut same_seed = traced;
        same_seed.layers = None;
        assert_eq!(simulated(&same_seed), simulated(&untraced));
        assert_ne!(simulated(&untraced), simulated(&other_seed));
        untraced
    }

    #[test]
    fn lazy_converge_self_check() {
        self_check("lazy_converge");
    }

    #[test]
    fn similarity_sweep_self_check() {
        self_check("similarity_sweep");
    }

    #[test]
    fn similarity_serve_self_check() {
        self_check("similarity_serve");
    }

    #[test]
    fn eager_burst_self_check() {
        self_check("eager_burst");
    }

    #[test]
    fn transport_burst_self_check_and_agreement_with_eager_burst() {
        let transport = self_check("transport_burst");
        let eager = tiny_run("eager_burst", 11, false);
        for key in [
            "query_cycles_p50",
            "users_reached_per_query",
            "state_checksum",
        ] {
            assert_eq!(eager.details.get(key), transport.details.get(key), "{key}");
        }
        assert_eq!(simulated(&eager), simulated(&transport));
    }

    #[test]
    fn every_layer_metric_is_produced_by_a_workload_that_enters_the_layer() {
        // A workload reports 0 for a layer it never enters; a time or rate
        // that reads 0 in every workload is one nobody produces.
        let traced: Vec<Outcome> = WORKLOADS
            .iter()
            .map(|w| tiny_run(w.name, 11, true))
            .collect();
        let timings = PER_LAYER
            .iter()
            .filter(|m| matches!(m.unit, "s" | "ms" | "us" | "ns" | "1/s"));
        for metric in timings {
            let producers = traced
                .iter()
                .filter(|outcome| outcome.layers.as_ref().unwrap()[metric.name] > 0.0)
                .count();
            assert!(producers > 0, "{} is 0 in every workload", metric.name);
        }
        // The layers a workload bypasses read 0 there.
        let layers_of = |name: &str| {
            let at = WORKLOADS.iter().position(|w| w.name == name).unwrap();
            traced[at].layers.as_ref().unwrap()
        };
        assert_eq!(
            layers_of("similarity_sweep")["bloom.build_us_per_digest"],
            0.0
        );
        assert_eq!(layers_of("lazy_converge")["topk.nra_us_per_query"], 0.0);
        assert_eq!(layers_of("eager_burst")["transport.mailbox_hop_us"], 0.0);
        assert!(layers_of("transport_burst")["transport.mailbox_hop_us"] > 0.0);
    }

    #[test]
    fn every_declared_workload_has_a_self_check() {
        // The five tests above name the workloads; a sixth workload must
        // not slip in unchecked.
        let checked = [
            "lazy_converge",
            "eager_burst",
            "transport_burst",
            "similarity_sweep",
            "similarity_serve",
        ];
        let declared: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared, checked);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = tiny_run("similarity_sweep", 3, false);
        outcome.end_to_end.peak_rss_mb = 12.5;
        let metrics = reported_metrics(&outcome);
        let line = result_line(&outcome, &metrics).render();
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(metric_value(&parsed, "peak_rss_mb"), Some(12.5));
        let peak = parsed.get("metrics").unwrap().get("peak_rss_mb").unwrap();
        assert_eq!(peak.get("unit").and_then(Json::as_str), Some("MiB"));
    }
}
