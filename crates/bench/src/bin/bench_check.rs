//! Perf-regression gate: compares a freshly produced `BENCH_*.json` against
//! a committed baseline and fails when the fresh numbers regress beyond a
//! tolerance band.
//!
//! Comparison rules, applied while walking both documents in lockstep:
//!
//! * **times** (keys ending in `_s` or `_ms`) — fresh may be at most
//!   `tolerance × baseline + 250 ms` (faster is always fine; absolute
//!   clocks differ between hosts, and the absolute slack keeps one-off
//!   scheduler blips on sub-100 ms measurements from flapping the gate
//!   while still catching real regressions at the seconds scale);
//! * **throughputs** (keys containing `per_sec`) — judged on the implied
//!   per-unit time (`1 / rate`) with the same band and slack;
//! * **ratios** (keys containing `speedup`) — informational only: they are
//!   quotients of two measurements with no absolute magnitude to anchor a
//!   noise slack to, so at smoke scale they carry no reliable signal (the
//!   underlying times and throughputs are what gate);
//! * **checksums** (keys containing `checksum`) — exact equality: same
//!   code + same seed must produce the same bytes on any host, so a
//!   mismatch is a determinism regression, not noise;
//! * **memory** (keys starting with `bytes_`) — exact-or-below-baseline:
//!   resident byte counts are deterministic for a given seed, so growth
//!   beyond the committed baseline is a memory regression (shrinking is
//!   always fine and simply means the baseline can be re-blessed);
//! * **mailbox counters** (`commands_per_cycle`, `guests_per_cycle` of
//!   `bench_transport`) — exact equality, like the checksums: the messages
//!   a shard layout costs are a function of the run, not of the host (the
//!   `_per_cycle` suffix must never be mistaken for a rate);
//! * **everything else** — exact equality (counts, labels, structure), and
//!   keys added or removed relative to the baseline are violations; a
//!   changed `total_actions` or mode list means the benchmark itself
//!   changed and the baseline must be regenerated deliberately;
//! * **host-dependent keys** (`host_available_parallelism`,
//!   `parallel_threads`, `note`) — ignored.
//!
//! ```text
//! cargo run --release -p p3q-bench --bin bench_check -- \
//!     --baseline ci/baselines/BENCH_cycles_smoke.json \
//!     --fresh BENCH_cycles_smoke.json [--tolerance 4.0]
//! ```
//!
//! Exit code 0 when every comparison passes, 1 otherwise.
//!
//! ## Gate-all mode
//!
//! ```text
//! cargo run --release -p p3q-bench --bin bench_check -- \
//!     --gate-all [--dir ci/baselines] [--fresh-dir .] [--tolerance 5]
//! ```
//!
//! Gates every [`SMOKE_JOBS`] baseline in `--dir` against the fresh copy in
//! `--fresh-dir` in one invocation. All files are walked and **every**
//! out-of-tolerance key is reported before the process exits nonzero — a
//! regression in the first benchmark cannot mask regressions in the later
//! ones, and one CI step replaces a per-file step cascade.
//!
//! ## Bless mode
//!
//! ```text
//! cargo run --release -p p3q-bench --bin bench_check -- --bless [--dir ci/baselines]
//! ```
//!
//! Regenerates every smoke baseline by running the sibling benchmark
//! binaries with the canonical smoke flags ([`SMOKE_JOBS`] — the same ones
//! the CI `bench-smoke` job uses, since that job also drives its fresh
//! runs through `--bless --dir .`). This retires the old hand-regeneration
//! step: whenever a benchmark's output shape or the trace bytes change
//! deliberately, `--bless` rewrites `ci/baselines/` in one command, with
//! no flag drift possible between CI and the committed files.
//!
//! Over a file that exists, a bless changes only what the gate compares
//! exactly: checksums, counts, labels and `bytes_*` leaves take the fresh
//! value, a time or throughput keeps its committed value unless the fresh
//! one fails the gate against it (`--tolerance`), and the host-dependent
//! keys keep theirs. A missing file or key takes the fresh value, so CI's
//! `--bless --dir .` into a clean checkout writes the runs as they are.

use p3q_bench::flags::{exit_with_usage, Flags};
use p3q_bench::json::Json;

/// Absolute noise slack for time-like measurements, in seconds: scheduler
/// blips on shared CI runners dominate sub-100 ms measurements, so the
/// relative band alone would flap on them. A fresh time only fails when it
/// exceeds `baseline × tolerance + slack` — big-scale regressions still
/// trip the gate, one-off 10 ms → 40 ms noise does not.
const TIME_SLACK_SECONDS: f64 = 0.25;

/// How a numeric key is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
enum KeyClass {
    /// Smaller is better; fresh ≤ baseline × tolerance + slack. The factor
    /// converts the key's unit to seconds (1.0 for `_s`, 1e-3 for `_ms`).
    Time { to_seconds: f64 },
    /// A reciprocal time (throughput): judged on the implied per-unit time,
    /// with the same tolerance band and noise slack.
    PerSec,
    /// Deterministic resident-byte count: fresh must be at most the
    /// baseline (exact-or-≤; smaller means the baseline can be re-blessed).
    Bytes,
    /// Must match exactly (determinism / structure).
    Exact,
    /// Host-dependent; skipped.
    Ignored,
}

fn classify(key: &str) -> KeyClass {
    if key == "host_available_parallelism" || key == "parallel_threads" || key == "note" {
        KeyClass::Ignored
    } else if key.contains("checksum") {
        KeyClass::Exact
    } else if key.starts_with("bytes_") {
        KeyClass::Bytes
    } else if key.ends_with("_s") {
        KeyClass::Time { to_seconds: 1.0 }
    } else if key.ends_with("_ms") || key.ends_with("_ms_mean") {
        KeyClass::Time { to_seconds: 1e-3 }
    } else if key.contains("per_sec") {
        KeyClass::PerSec
    } else if key.contains("speedup") {
        // A quotient of two measurements: no absolute magnitude to anchor
        // the noise slack to, so it cannot gate reliably at smoke scale.
        KeyClass::Ignored
    } else {
        KeyClass::Exact
    }
}

struct Report {
    violations: Vec<String>,
    compared: usize,
}

impl Report {
    fn fail(&mut self, path: &str, message: String) {
        self.violations.push(format!("{path}: {message}"));
    }
}

/// Walks baseline and fresh in lockstep, judging leaves by their key class.
fn compare(baseline: &Json, fresh: &Json, path: &str, class: KeyClass, tol: f64, rep: &mut Report) {
    if class == KeyClass::Ignored {
        return;
    }
    match (baseline, fresh) {
        (Json::Object(b), Json::Object(f)) => {
            for (key, bv) in b {
                match fresh.get(key) {
                    Some(fv) => compare(bv, fv, &format!("{path}.{key}"), classify(key), tol, rep),
                    None => rep.fail(path, format!("missing key \"{key}\" in fresh output")),
                }
            }
            // Keys only in the fresh output mean the benchmark's shape
            // changed without regenerating the baseline — flag them too.
            for (key, _) in f {
                if baseline.get(key).is_none() {
                    rep.fail(path, format!("key \"{key}\" is not in the baseline"));
                }
            }
        }
        (Json::Array(b), Json::Array(f)) => {
            if b.len() != f.len() {
                rep.fail(
                    path,
                    format!("array length changed: {} -> {}", b.len(), f.len()),
                );
                return;
            }
            for (i, (bv, fv)) in b.iter().zip(f).enumerate() {
                compare(bv, fv, &format!("{path}[{i}]"), class, tol, rep);
            }
        }
        (Json::Number(b, _), Json::Number(f, _)) => {
            rep.compared += 1;
            if let Some(message) = judge(*b, *f, class, tol) {
                rep.fail(path, message);
            }
        }
        _ => {
            rep.compared += 1;
            if baseline != fresh {
                rep.fail(path, format!("value changed: {baseline:?} -> {fresh:?}"));
            }
        }
    }
}

/// Judges one numeric leaf: the violation, if the fresh value `f` fails
/// the gate against the baseline value `b`.
fn judge(b: f64, f: f64, class: KeyClass, tol: f64) -> Option<String> {
    match class {
        KeyClass::Time { to_seconds } => {
            let slack = TIME_SLACK_SECONDS / to_seconds;
            (f > b * tol + slack)
                .then(|| format!("regressed: {f:.3} > {b:.3} x tolerance {tol} + slack {slack}"))
        }
        // Judge the implied per-unit time: 1/rate in seconds.
        KeyClass::PerSec => (f > 0.0 && b > 0.0 && 1.0 / f > (1.0 / b) * tol + TIME_SLACK_SECONDS)
            .then(|| format!("regressed: {f:.4}/s is beyond {b:.4}/s x tolerance {tol}")),
        KeyClass::Bytes => {
            (f > b).then(|| format!("memory regressed: {f:.0} bytes > baseline {b:.0}"))
        }
        KeyClass::Exact | KeyClass::Ignored => ((b - f).abs() > 1e-9 * b.abs().max(1.0))
            .then(|| format!("exact value changed: {b} -> {f}")),
    }
}

/// Folds a fresh run into the committed baseline, so that a re-bless
/// changes only what the gate compares exactly. Checksums, counts, labels
/// and `bytes_*` leaves take the fresh value. A time or throughput keeps
/// the committed value while the fresh one passes the gate against it, and
/// host-dependent keys keep theirs. A key the baseline lacks, or an array
/// whose length changed, takes the fresh value; a key only the baseline
/// has is dropped.
fn merge(baseline: &Json, fresh: Json, class: KeyClass, tol: f64) -> Json {
    match (baseline, fresh) {
        (_, _) if class == KeyClass::Ignored => baseline.clone(),
        (Json::Object(_), Json::Object(members)) => Json::Object(
            members
                .into_iter()
                .map(|(key, fv)| {
                    let merged = match baseline.get(&key) {
                        Some(bv) => merge(bv, fv, classify(&key), tol),
                        None => fv,
                    };
                    (key, merged)
                })
                .collect(),
        ),
        (Json::Array(b), Json::Array(f)) if b.len() == f.len() => Json::Array(
            b.iter()
                .zip(f)
                .map(|(bv, fv)| merge(bv, fv, class, tol))
                .collect(),
        ),
        (Json::Number(b, _), Json::Number(f, _))
            if matches!(class, KeyClass::Time { .. } | KeyClass::PerSec)
                && judge(*b, f, class, tol).is_none() =>
        {
            baseline.clone()
        }
        (_, fresh) => fresh,
    }
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The canonical smoke configuration: one entry per benchmark, giving the
/// sibling binary name, its flags and the output file name. This table is
/// the **single source of truth** for both the committed baselines
/// (`--bless`, default `--dir ci/baselines`) and CI's fresh smoke runs
/// (`--bless --dir .` in the `bench-smoke` job) — the two can never drift.
const SMOKE_JOBS: &[(&str, &[&str], &str)] = &[
    (
        "bench_similarity",
        // --hotspot-users 2000 keeps the demand-driven resolver columns
        // (on_demand / query_hotspot) in the gated smoke surface at a scale
        // that runs in well under a second.
        &[
            "--users",
            "1000",
            "--cycles",
            "2",
            "--memory-users",
            "0",
            "--hotspot-users",
            "2000",
        ],
        "BENCH_similarity_smoke.json",
    ),
    (
        "bench_cycles",
        &["--users", "1000", "--cycles", "2", "--warmup", "1"],
        "BENCH_cycles_smoke.json",
    ),
    (
        "bench_trace",
        &["--users", "1000"],
        "BENCH_trace_smoke.json",
    ),
    (
        "bench_faults",
        &[
            "--users",
            "400",
            "--queries",
            "40",
            "--rates",
            "0,5",
            "--warmup",
            "2",
            "--cycles",
            "10",
        ],
        "BENCH_faults_smoke.json",
    ),
    (
        "bench_transport",
        &[
            "--users",
            "400",
            "--queries",
            "40",
            "--warmup",
            "2",
            "--cycles",
            "8",
            "--actors",
            "1,3,8",
        ],
        "BENCH_transport_smoke.json",
    ),
];

/// Runs every [`SMOKE_JOBS`] entry with the sibling benchmark binaries
/// (built alongside this one) and writes the outputs into `dir`. Over an
/// existing file the fresh run is folded in ([`merge`], with the gate's
/// `tolerance`); a missing file is written as the run produced it.
fn bless(dir: &str, tolerance: f64) {
    let own = std::env::current_exe().expect("cannot locate the running binary");
    let bin_dir = own.parent().expect("binary has a parent directory");
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {dir}: {e}"));
    for (bin, flags, out_name) in SMOKE_JOBS {
        let bin_path = bin_dir.join(bin);
        assert!(
            bin_path.exists(),
            "{} not found next to bench_check — build the whole bench crate first \
             (cargo build --release -p p3q-bench)",
            bin_path.display()
        );
        let out_path = format!("{dir}/{out_name}");
        let committed = std::path::Path::new(&out_path).exists();
        let run_path = if committed {
            format!("{out_path}.fresh")
        } else {
            out_path.clone()
        };
        println!(
            "bench_check: blessing {out_path} ({bin} {})",
            flags.join(" ")
        );
        let status = std::process::Command::new(&bin_path)
            .args(*flags)
            .args(["--out", &run_path])
            .status()
            .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
        assert!(status.success(), "{bin} exited with {status}");
        if committed {
            merge(
                &load(&out_path),
                load(&run_path),
                KeyClass::Exact,
                tolerance,
            )
            .save(&out_path);
            std::fs::remove_file(&run_path)
                .unwrap_or_else(|e| panic!("cannot remove {run_path}: {e}"));
        }
    }
    println!(
        "bench_check: blessed {} baseline(s) into {dir}",
        SMOKE_JOBS.len()
    );
}

/// Compares one baseline/fresh file pair into `report`, prefixing every
/// violation path with the file name so gate-all output stays attributable.
fn gate_pair(baseline_path: &str, fresh_path: &str, tolerance: f64, report: &mut Report) {
    let baseline = load(baseline_path);
    let fresh = load(fresh_path);
    let before = report.violations.len();
    compare(
        &baseline,
        &fresh,
        baseline_path,
        KeyClass::Exact,
        tolerance,
        report,
    );
    println!(
        "bench_check: {} — {} violation(s) so far, {} leaves compared",
        baseline_path,
        report.violations.len() - before,
        report.compared
    );
}

const USAGE: &str = "\
cargo run --release -p p3q-bench --bin bench_check -- MODE
    --baseline PATH --fresh PATH [--tolerance F]              gate one pair
    --gate-all [--dir DIR] [--fresh-dir DIR] [--tolerance F]  gate every smoke baseline
    --bless [--dir DIR]                                       regenerate the baselines
    defaults: --dir ci/baselines, --fresh-dir ., --tolerance 4";

/// What one invocation does.
enum Mode {
    Bless,
    GateAll,
    Pair { baseline: String, fresh: String },
}

struct Args {
    mode: Mode,
    tolerance: f64,
    dir: String,
    fresh_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = Flags::from_env();
    let bless = flags.switch("--bless");
    let gate_all = flags.switch("--gate-all");
    let pair = (flags.optional("--baseline")?, flags.optional("--fresh")?);
    let tolerance = flags.value("--tolerance", 4.0)?;
    let dir = flags.value("--dir", "ci/baselines".to_string())?;
    let fresh_dir = flags.value("--fresh-dir", ".".to_string())?;
    flags.finish()?;
    if tolerance < 1.0 {
        return Err("--tolerance must be >= 1".into());
    }
    let mode = match pair {
        _ if bless => Mode::Bless,
        _ if gate_all => Mode::GateAll,
        (Some(baseline), Some(fresh)) => Mode::Pair { baseline, fresh },
        _ => return Err("--baseline and --fresh are required (or use --gate-all)".into()),
    };
    Ok(Args {
        mode,
        tolerance,
        dir,
        fresh_dir,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| exit_with_usage(&e, USAGE));
    let tolerance = args.tolerance;
    let mut report = Report {
        violations: Vec::new(),
        compared: 0,
    };
    match &args.mode {
        Mode::Bless => return bless(&args.dir, tolerance),
        // Gate every smoke baseline in one pass: all files are compared and
        // *every* out-of-tolerance key is reported before the gate fails,
        // so one bad benchmark cannot hide regressions in the ones after it.
        Mode::GateAll => {
            for (_, _, out_name) in SMOKE_JOBS {
                gate_pair(
                    &format!("{}/{out_name}", args.dir),
                    &format!("{}/{out_name}", args.fresh_dir),
                    tolerance,
                    &mut report,
                );
            }
        }
        Mode::Pair { baseline, fresh } => gate_pair(baseline, fresh, tolerance, &mut report),
    }

    println!(
        "bench_check: {} leaves compared (tolerance {tolerance}x)",
        report.compared
    );
    if report.violations.is_empty() {
        println!("bench_check: OK — no regression");
        return;
    }
    eprintln!("bench_check: {} violation(s):", report.violations.len());
    for violation in &report.violations {
        eprintln!("  {violation}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&str, Json)]) -> Json {
        pairs
            .iter()
            .fold(Json::object(), |o, (k, v)| o.with(k, v.clone()))
    }

    fn check(baseline: &Json, fresh: &Json, tol: f64) -> Vec<String> {
        let mut report = Report {
            violations: Vec::new(),
            compared: 0,
        };
        compare(baseline, fresh, "$", KeyClass::Exact, tol, &mut report);
        report.violations
    }

    #[test]
    fn parser_round_trips_a_bench_file() {
        let text = r#"{
            "benchmark": "cycles",
            "seed": 42,
            "note": "text with \"quotes\"",
            "scales": [
                {"users": 1000, "elapsed_s": 1.25, "ok": true, "none": null},
                {"users": 2000, "elapsed_s": -3e2}
            ]
        }"#;
        let parsed = Json::parse(text).unwrap();
        assert_eq!(parsed.get("seed"), Some(&Json::from(42.0)));
        let Some(Json::Array(scales)) = parsed.get("scales") else {
            panic!("expected array")
        };
        assert_eq!(scales.len(), 2);
        assert_eq!(scales[1].get("elapsed_s"), Some(&Json::from(-300.0)));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nope").is_err());
    }

    #[test]
    fn times_use_the_tolerance_band_plus_slack() {
        let baseline = obj(&[("elapsed_s", Json::from(1.0))]);
        assert!(check(&baseline, &obj(&[("elapsed_s", Json::from(3.9))]), 4.0).is_empty());
        assert!(check(&baseline, &obj(&[("elapsed_s", Json::from(0.01))]), 4.0).is_empty());
        // 4.1 is within band + 250 ms slack; 4.3 is beyond it.
        assert!(check(&baseline, &obj(&[("elapsed_s", Json::from(4.1))]), 4.0).is_empty());
        assert_eq!(
            check(&baseline, &obj(&[("elapsed_s", Json::from(4.3))]), 4.0).len(),
            1
        );
        // Millisecond keys get the same slack in their own unit.
        let small = obj(&[("index_build_ms", Json::from(5.0))]);
        assert!(check(&small, &obj(&[("index_build_ms", Json::from(100.0))]), 4.0).is_empty());
        let big = obj(&[("index_build_ms", Json::from(500.0))]);
        assert_eq!(
            check(&big, &obj(&[("index_build_ms", Json::from(2600.0))]), 4.0).len(),
            1
        );
    }

    #[test]
    fn tiny_time_measurements_do_not_flap() {
        // 9 ms baseline: a one-off 40 ms scheduler blip must not fail the
        // gate even though it is 4.4x the baseline.
        let baseline = obj(&[("elapsed_s", Json::from(0.009))]);
        assert!(check(&baseline, &obj(&[("elapsed_s", Json::from(0.04))]), 4.0).is_empty());
    }

    #[test]
    fn rates_judge_the_implied_time() {
        // 10/s = 0.1 s per unit; band + slack allows down to 1/0.65 = ~1.54/s.
        let baseline = obj(&[("cycles_per_sec", Json::from(10.0))]);
        assert!(check(&baseline, &obj(&[("cycles_per_sec", Json::from(3.0))]), 4.0).is_empty());
        assert_eq!(
            check(&baseline, &obj(&[("cycles_per_sec", Json::from(1.0))]), 4.0).len(),
            1
        );
        // Speedup ratios are informational — two same-run measurements
        // with no absolute anchor for a noise slack.
        let ratio = obj(&[("speedup_vs_reference", Json::from(2.0))]);
        assert!(check(
            &ratio,
            &obj(&[("speedup_vs_reference", Json::from(0.1))]),
            4.0
        )
        .is_empty());
    }

    #[test]
    fn bytes_keys_gate_exact_or_below() {
        let baseline = obj(&[("bytes_index", Json::from(1000.0))]);
        assert!(check(&baseline, &baseline.clone(), 4.0).is_empty());
        // Smaller is fine (an improvement waiting to be re-blessed)…
        assert!(check(&baseline, &obj(&[("bytes_index", Json::from(900.0))]), 4.0).is_empty());
        // …but any growth is a memory regression, no tolerance band.
        assert_eq!(
            check(&baseline, &obj(&[("bytes_index", Json::from(1001.0))]), 4.0).len(),
            1
        );
    }

    #[test]
    fn fresh_only_keys_are_flagged() {
        let baseline = obj(&[("users", Json::from(7.0))]);
        let fresh = obj(&[("users", Json::from(7.0)), ("p99_ms", Json::from(9.0))]);
        assert_eq!(check(&baseline, &fresh, 4.0).len(), 1);
    }

    #[test]
    fn mailbox_counters_are_exact() {
        for key in ["commands_per_cycle", "guests_per_cycle"] {
            assert_eq!(classify(key), KeyClass::Exact, "{key}");
            let baseline = obj(&[(key, Json::from(40.125))]);
            assert!(check(&baseline, &baseline.clone(), 4.0).is_empty());
            // Fewer messages still means the run changed: re-bless on purpose.
            for fresh in [40.0, 40.25] {
                assert_eq!(
                    check(&baseline, &obj(&[(key, Json::from(fresh))]), 4.0).len(),
                    1
                );
            }
        }
    }

    #[test]
    fn checksums_and_counts_are_exact() {
        let baseline = obj(&[
            ("trace_checksum", Json::String("0xabc".into())),
            ("total_actions", Json::from(500.0)),
        ]);
        assert!(check(&baseline, &baseline.clone(), 4.0).is_empty());
        let diverged = obj(&[
            ("trace_checksum", Json::String("0xdef".into())),
            ("total_actions", Json::from(501.0)),
        ]);
        assert_eq!(check(&baseline, &diverged, 4.0).len(), 2);
    }

    #[test]
    fn host_dependent_keys_are_ignored_and_missing_keys_flagged() {
        let baseline = obj(&[
            ("host_available_parallelism", Json::from(1.0)),
            ("users", Json::from(7.0)),
        ]);
        let fresh = obj(&[
            ("host_available_parallelism", Json::from(64.0)),
            ("users", Json::from(7.0)),
        ]);
        assert!(check(&baseline, &fresh, 4.0).is_empty());
        let missing = obj(&[("host_available_parallelism", Json::from(64.0))]);
        assert_eq!(check(&baseline, &missing, 4.0).len(), 1);
    }

    #[test]
    fn nested_structures_walk_in_lockstep() {
        let baseline = obj(&[(
            "scales",
            Json::Array(vec![obj(&[
                ("users", Json::from(1000.0)),
                ("elapsed_s", Json::from(2.0)),
            ])]),
        )]);
        let ok = obj(&[(
            "scales",
            Json::Array(vec![obj(&[
                ("users", Json::from(1000.0)),
                ("elapsed_s", Json::from(2.5)),
            ])]),
        )]);
        assert!(check(&baseline, &ok, 4.0).is_empty());
        let shrunk = obj(&[("scales", Json::Array(vec![]))]);
        assert_eq!(check(&baseline, &shrunk, 4.0).len(), 1);
    }

    #[test]
    fn bless_over_a_baseline_changes_only_what_the_gate_compares_exactly() {
        let committed = obj(&[
            ("host_available_parallelism", Json::from(1.0)),
            ("note", Json::from("committed")),
            ("users", Json::from(400.0)),
            ("traffic_checksum", Json::from((100u64, 10u64))),
            ("bytes_total", Json::from(5000.0)),
            ("elapsed_s", Json::fixed(1.0, 4)),
            ("commit_ms", Json::fixed(50.0, 3)),
            ("cycles_per_sec", Json::fixed(10.0, 2)),
            ("speedup_2t", Json::fixed(1.5, 2)),
            ("gone", Json::from(1.0)),
        ]);
        let fresh = obj(&[
            ("host_available_parallelism", Json::from(2.0)),
            ("note", Json::from("fresh")),
            ("users", Json::from(400.0)),
            ("traffic_checksum", Json::from((90u64, 12u64))),
            ("bytes_total", Json::from(4500.0)),
            // Noise inside the band, and a regression beyond it.
            ("elapsed_s", Json::fixed(1.3, 4)),
            ("commit_ms", Json::fixed(900.0, 3)),
            ("cycles_per_sec", Json::fixed(9.0, 2)),
            ("speedup_2t", Json::fixed(0.9, 2)),
            ("added", Json::from(3.0)),
        ]);
        let blessed = merge(&committed, fresh, KeyClass::Exact, 4.0);
        let want = obj(&[
            ("host_available_parallelism", Json::from(1.0)),
            ("note", Json::from("committed")),
            ("users", Json::from(400.0)),
            ("traffic_checksum", Json::from((90u64, 12u64))),
            ("bytes_total", Json::from(4500.0)),
            ("elapsed_s", Json::fixed(1.0, 4)),
            ("commit_ms", Json::fixed(900.0, 3)),
            ("cycles_per_sec", Json::fixed(10.0, 2)),
            ("speedup_2t", Json::fixed(1.5, 2)),
            ("added", Json::from(3.0)),
        ]);
        assert_eq!(blessed, want);
        assert!(check(&blessed, &want, 4.0).is_empty());
        // Nested leaves are judged by their own key; a resized array is
        // taken whole.
        let nested = |elapsed: f64, checksum: &str, scales: usize| {
            obj(&[
                (
                    "runs",
                    Json::Array(vec![obj(&[
                        ("elapsed_s", Json::fixed(elapsed, 3)),
                        ("state_checksum", Json::from(checksum)),
                    ])]),
                ),
                ("scales", (0..scales).map(Json::from).collect()),
            ])
        };
        assert_eq!(
            merge(
                &nested(2.0, "0xa", 2),
                nested(2.2, "0xb", 3),
                KeyClass::Exact,
                4.0
            ),
            nested(2.0, "0xb", 3)
        );
    }
}
