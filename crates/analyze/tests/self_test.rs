//! Self-tests: each rule fires on its committed violation fixture, stays
//! quiet on the clean fixture, and the analyzer exits 0 on the real
//! workspace (the PR-head guarantee CI relies on).

use std::path::{Path, PathBuf};
use std::process::Command;

use p3q_analyze::{analyze, Report};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze has a workspace root two levels up")
        .to_path_buf()
}

fn rules_fired(report: &Report) -> Vec<&str> {
    let mut rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

#[test]
fn hash_iter_fixture_fires() {
    let report = analyze(&fixture("hash_iter")).unwrap();
    assert_eq!(rules_fired(&report), ["hash-iter"]);
    // Three seeded violations: `.drain()`, `for … in &field`, `.iter()`.
    assert_eq!(report.findings.len(), 3, "{:#?}", report.findings);
    assert!(report
        .findings
        .iter()
        .all(|f| f.file == "crates/core/src/eager.rs"));
}

#[test]
fn hash_names_from_test_code_are_not_collected() {
    // `entries` is a `HashMap` only in a `#[cfg(test)]` module and in an
    // integration test; the plan/commit module iterates a `Vec` of that
    // name, which is no finding.
    let report = analyze(&fixture("hash_names_from_tests")).unwrap();
    assert_eq!(report.findings.len(), 0, "{:#?}", report.findings);
}

#[test]
fn sequencer_hash_iter_fixture_fires() {
    // The cycle sequencer (`crates/sim/src/cycle.rs`) is on the plan/commit
    // module list: a HashMap iteration there is reported.
    let report = analyze(&fixture("sequencer_hash_iter")).unwrap();
    assert_eq!(rules_fired(&report), ["hash-iter"]);
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    assert_eq!(report.findings[0].file, "crates/sim/src/cycle.rs");
}

#[test]
fn wall_clock_fixture_fires() {
    let report = analyze(&fixture("wall_clock")).unwrap();
    assert_eq!(rules_fired(&report), ["wall-clock"]);
    // Instant::now, SystemTime::now, thread::current.
    assert_eq!(report.findings.len(), 3, "{:#?}", report.findings);
}

#[test]
fn rng_source_fixture_fires() {
    let report = analyze(&fixture("rng_source")).unwrap();
    assert_eq!(rules_fired(&report), ["rng-source"]);
    // Raw seed_from_u64 on the plan path + from_entropy.
    assert_eq!(report.findings.len(), 2, "{:#?}", report.findings);
}

#[test]
fn safety_comment_fixture_fires() {
    let report = analyze(&fixture("safety_comment")).unwrap();
    assert_eq!(rules_fired(&report), ["safety-comment"]);
    // Exactly the two unjustified blocks — the raw-pointer one and the
    // group-varint-style unaligned-load kernel; the SAFETY-commented
    // variants pass.
    assert_eq!(report.findings.len(), 2, "{:#?}", report.findings);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.file.ends_with("sim/src/store.rs") && f.line == 6),
        "{:#?}",
        report.findings
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.file.ends_with("trace/src/codec.rs") && f.line == 7),
        "{:#?}",
        report.findings
    );
}

#[test]
fn compat_gating_fixture_fires() {
    let report = analyze(&fixture("compat_gating")).unwrap();
    assert_eq!(rules_fired(&report), ["compat-gating"]);
    // serde path dep + criterion version dep + extern crate rand.
    assert_eq!(report.findings.len(), 3, "{:#?}", report.findings);
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("extern crate rand")));
}

#[test]
fn allow_syntax_fixture_fires() {
    let report = analyze(&fixture("allow_syntax")).unwrap();
    assert_eq!(rules_fired(&report), ["allow-syntax"]);
    // Missing reason + unknown rule.
    assert_eq!(report.findings.len(), 2, "{:#?}", report.findings);
}

#[test]
fn unused_pub_fixture_fires() {
    let report = analyze(&fixture("unused_pub")).unwrap();
    assert_eq!(rules_fired(&report), ["unused-pub"]);
    // A fn named only in its own crate, a const named only in its own
    // `#[cfg(test)]` module, and a fn named elsewhere only in a comment
    // and a string. The fn an integration test calls is not reported.
    assert_eq!(report.findings.len(), 3, "{:#?}", report.findings);
    for name in [
        "crate_local_helper",
        "TEST_ONLY_LIMIT",
        "mentioned_in_a_comment",
    ] {
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains(&format!(" {name}`"))),
            "{name}: {:#?}",
            report.findings
        );
    }
    assert!(report
        .findings
        .iter()
        .all(|f| f.file == "crates/topk/src/lib.rs"));
    // The annotated item is allowed, not silent.
    assert_eq!(report.allowed.len(), 1, "{:#?}", report.allowed);
    assert_eq!(report.allowed[0].rule, "unused-pub");
    assert!(report.allowed[0].message.contains("kept_by_annotation"));
}

#[test]
fn clean_fixture_is_quiet() {
    let report = analyze(&fixture("clean")).unwrap();
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    // The annotated hash iteration shows up as allowed, not silent.
    assert_eq!(report.allowed.len(), 1, "{:#?}", report.allowed);
    assert_eq!(report.allowed[0].rule, "hash-iter");
}

#[test]
fn real_workspace_is_clean() {
    let report = analyze(&workspace_root()).unwrap();
    assert!(
        report.findings.is_empty(),
        "the PR head must carry zero unannotated findings:\n{:#?}",
        report.findings
    );
    assert!(report.files_scanned > 50, "workspace scan looks truncated");
    // Every allowed finding carries its justification.
    assert!(report.allowed.iter().all(|f| f.allowed.is_some()));
}

#[test]
fn cli_exit_codes_match_report() {
    let bin = env!("CARGO_BIN_EXE_p3q-analyze");
    let clean = Command::new(bin)
        .args(["--root"])
        .arg(fixture("clean"))
        .output()
        .unwrap();
    assert!(clean.status.success(), "clean fixture must exit 0");

    for case in [
        "hash_iter",
        "sequencer_hash_iter",
        "wall_clock",
        "rng_source",
        "safety_comment",
        "compat_gating",
        "unused_pub",
        "allow_syntax",
    ] {
        let out = Command::new(bin)
            .args(["--root"])
            .arg(fixture(case))
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(1),
            "fixture `{case}` must fail the CLI:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }

    let ws = Command::new(bin).arg("--workspace").output().unwrap();
    assert!(
        ws.status.success(),
        "--workspace must exit 0 on the PR head:\n{}",
        String::from_utf8_lossy(&ws.stdout)
    );
}

#[test]
fn json_output_is_machine_readable() {
    let bin = env!("CARGO_BIN_EXE_p3q-analyze");
    let out = Command::new(bin)
        .args(["--root"])
        .arg(fixture("hash_iter"))
        .arg("--json")
        .output()
        .unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("{\"files_scanned\":"), "{text}");
    assert!(text.contains("\"rule\":\"hash-iter\""), "{text}");
    assert!(text.contains("\"findings\":["), "{text}");
    assert!(text.contains("\"allowed\":["), "{text}");
}
