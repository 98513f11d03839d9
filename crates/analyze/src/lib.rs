//! `p3q-analyze` — the workspace determinism/aliasing lint pass.
//!
//! The repo's core guarantee — byte-identical output for every
//! `P3Q_THREADS` and every fault seed — rests on source-level conventions:
//! RNGs derive from `stream_seed`, plan/commit code never iterates hash
//! containers in an order-sensitive way, every `unsafe` carries a
//! `// SAFETY:` justification, external dependencies resolve through the
//! `crates/compat` gate, and the library crates export only what something
//! outside them calls. This crate turns those conventions into a
//! checker that fails CI instead of a comment that hopes.
//!
//! It is deliberately **dependency-free** (the build environment has no
//! crate registry, so no `syn`): a hand-rolled scanner in [`lexer`] strips
//! comments and literals, detects `#[cfg(test)]` regions and tokenizes;
//! the rules in [`rules`] are token-level pattern matchers over that view.
//!
//! ## Allow-listing
//!
//! A finding is suppressed — and moved to the report's `allowed` list, so
//! it stays visible in machine output — by an inline annotation on the
//! flagged line or the comment block immediately above it:
//!
//! ```text
//! // p3q-allow: hash-iter — the keys are sorted below
//! let mut peers: Vec<UserId> = counts.keys().copied().collect();
//! ```
//!
//! The annotation must name a known rule and give a non-empty reason;
//! malformed annotations are themselves findings (`allow-syntax`).
//! In `Cargo.toml` files the same syntax works behind `#` comments.

pub mod lexer;
pub mod rules;

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::SourceFile;

/// One rule violation (or suppressed violation) at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (see [`rules::RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// `Some(reason)` if a `p3q-allow` annotation suppressed the finding.
    pub allowed: Option<String>,
}

impl Finding {
    pub(crate) fn new(
        rule: &'static str,
        file: impl Into<String>,
        line: usize,
        message: String,
    ) -> Self {
        Self {
            rule,
            file: file.into(),
            line,
            message,
            allowed: None,
        }
    }
}

/// A scanned `Cargo.toml`.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Raw lines.
    pub lines: Vec<String>,
}

/// Everything the rules look at: scanned sources and manifests.
#[derive(Debug)]
pub struct Workspace {
    /// Scanned root.
    pub root: PathBuf,
    /// All `.rs` files, sorted by path.
    pub files: Vec<SourceFile>,
    /// All `Cargo.toml` files, sorted by path.
    pub manifests: Vec<Manifest>,
}

/// The analyzer's result: active findings (nonzero exit) and suppressed
/// ones (kept for visibility in machine-readable output).
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed violations; any entry here fails the run.
    pub findings: Vec<Finding>,
    /// Violations suppressed by a valid `p3q-allow` annotation.
    pub allowed: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Directory names never descended into: build output, VCS metadata and
/// the analyzer's own violation fixtures (which must stay violating).
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "node_modules"];

fn walk(dir: &Path, files: &mut Vec<PathBuf>, manifests: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            walk(&path, files, manifests);
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        } else if path.file_name().is_some_and(|n| n == "Cargo.toml") {
            manifests.push(path);
        }
    }
}

fn rel(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Scans every `.rs` and `Cargo.toml` under `root` (skipping
/// `SKIP_DIRS`).
pub fn scan_workspace(root: &Path) -> io::Result<Workspace> {
    let mut file_paths = Vec::new();
    let mut manifest_paths = Vec::new();
    walk(root, &mut file_paths, &mut manifest_paths);
    let mut files = Vec::with_capacity(file_paths.len());
    for path in file_paths {
        let source = fs::read_to_string(&path)?;
        files.push(SourceFile::scan(rel(&path, root), &source));
    }
    let mut manifests = Vec::with_capacity(manifest_paths.len());
    for path in manifest_paths {
        let source = fs::read_to_string(&path)?;
        manifests.push(Manifest {
            rel_path: rel(&path, root),
            lines: source.split('\n').map(str::to_string).collect(),
        });
    }
    Ok(Workspace {
        root: root.to_path_buf(),
        files,
        manifests,
    })
}

/// A parsed `p3q-allow` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule the annotation suppresses.
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
}

/// Parses `p3q-allow: <rule> — <reason>` out of one comment line. Returns
/// `None` if the line carries no annotation at all; `Some(Err(msg))` if the
/// annotation is malformed.
pub fn parse_allow(raw: &str) -> Option<Result<Allow, String>> {
    let pos = raw.find("p3q-allow:")?;
    let rest = raw[pos + "p3q-allow:".len()..].trim_start();
    let rule: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
        .collect();
    if rule.is_empty() {
        return Some(Err("p3q-allow annotation names no rule".to_string()));
    }
    if !rules::RULES.iter().any(|(id, _)| *id == rule) {
        return Some(Err(format!("p3q-allow names unknown rule `{rule}`")));
    }
    let reason: String = rest[rule.len()..]
        .trim_start_matches(|c: char| c.is_whitespace() || c == '—' || c == '-' || c == ':')
        .trim()
        .to_string();
    if reason.is_empty() {
        return Some(Err(format!(
            "p3q-allow for `{rule}` gives no reason — the justification is the point"
        )));
    }
    Some(Ok(Allow { rule, reason }))
}

/// Looks for a valid `p3q-allow` for `rule` on line `idx` (0-based) of a
/// source file, or in the comment/attribute block immediately above it.
fn allow_reason_rs(file: &SourceFile, idx: usize, rule: &str) -> Option<String> {
    let check = |raw: &str| match parse_allow(raw) {
        Some(Ok(allow)) if allow.rule == rule => Some(allow.reason),
        _ => None,
    };
    if let Some(reason) = check(&file.lines[idx].raw) {
        return Some(reason);
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let prev = &file.lines[j];
        let code_trimmed = prev.code.trim();
        let is_comment_only = code_trimmed.is_empty() && prev.raw.contains("//");
        let is_attribute = code_trimmed.starts_with('#');
        if is_comment_only {
            if let Some(reason) = check(&prev.raw) {
                return Some(reason);
            }
            continue;
        }
        if is_attribute || code_trimmed.is_empty() {
            continue;
        }
        break;
    }
    None
}

/// Same lookup for a manifest (`#`-comment) finding.
fn allow_reason_toml(manifest: &Manifest, idx: usize, rule: &str) -> Option<String> {
    let check = |raw: &str| match parse_allow(raw) {
        Some(Ok(allow)) if allow.rule == rule => Some(allow.reason),
        _ => None,
    };
    if idx < manifest.lines.len() {
        if let Some(reason) = check(&manifest.lines[idx]) {
            return Some(reason);
        }
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let prev = manifest.lines[j].trim();
        if prev.starts_with('#') {
            if let Some(reason) = check(prev) {
                return Some(reason);
            }
            continue;
        }
        break;
    }
    None
}

/// Runs every rule over the workspace at `root` and applies the allow
/// list.
pub fn analyze(root: &Path) -> io::Result<Report> {
    let ws = scan_workspace(root)?;
    let hash_names: BTreeSet<String> = rules::collect_hash_names(&ws.files);

    let mut raw_findings: Vec<Finding> = Vec::new();
    for file in &ws.files {
        rules::hash_iter(file, &hash_names, &mut raw_findings);
        rules::wall_clock(file, &mut raw_findings);
        rules::rng_source(file, &mut raw_findings);
        rules::safety_comment(file, &mut raw_findings);
    }
    rules::compat_gating(&ws, &mut raw_findings);
    rules::unused_pub(&ws, &mut raw_findings);

    // Malformed annotations are findings in their own right: a typo'd rule
    // name would otherwise silently suppress nothing while looking like it
    // suppresses something.
    for file in &ws.files {
        // The analyzer's own sources legitimately talk about the annotation
        // syntax (docs, parser tests); everything else gets checked.
        if file.rel_path.starts_with("crates/analyze/") {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            let comment_start = line.raw.find("//");
            let in_comment = comment_start
                .map(|c| line.raw[c..].contains("p3q-allow:"))
                .unwrap_or(false);
            if !in_comment {
                continue;
            }
            if let Some(Err(message)) = parse_allow(&line.raw) {
                raw_findings.push(Finding::new(
                    "allow-syntax",
                    &file.rel_path,
                    idx + 1,
                    message,
                ));
            }
        }
    }
    for manifest in &ws.manifests {
        for (idx, line) in manifest.lines.iter().enumerate() {
            if !line.trim_start().starts_with('#') || !line.contains("p3q-allow:") {
                continue;
            }
            if let Some(Err(message)) = parse_allow(line) {
                raw_findings.push(Finding::new(
                    "allow-syntax",
                    &manifest.rel_path,
                    idx + 1,
                    message,
                ));
            }
        }
    }

    let mut report = Report {
        files_scanned: ws.files.len(),
        ..Report::default()
    };
    for mut finding in raw_findings {
        let reason = if finding.file.ends_with(".rs") {
            ws.files
                .iter()
                .find(|f| f.rel_path == finding.file)
                .and_then(|f| allow_reason_rs(f, finding.line.saturating_sub(1), finding.rule))
        } else {
            ws.manifests
                .iter()
                .find(|m| m.rel_path == finding.file)
                .and_then(|m| allow_reason_toml(m, finding.line.saturating_sub(1), finding.rule))
        };
        match reason {
            // `allow-syntax` findings cannot themselves be allowed away.
            Some(reason) if finding.rule != "allow-syntax" => {
                finding.allowed = Some(reason);
                report.allowed.push(finding);
            }
            _ => report.findings.push(finding),
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .allowed
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Escapes a string for JSON output.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding) -> String {
    let mut s = format!(
        "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"",
        json_escape(f.rule),
        json_escape(&f.file),
        f.line,
        json_escape(&f.message)
    );
    if let Some(reason) = &f.allowed {
        s.push_str(&format!(",\"allowed\":\"{}\"", json_escape(reason)));
    }
    s.push('}');
    s
}

impl Report {
    /// Machine-readable form of the whole report.
    pub fn to_json(&self) -> String {
        let findings: Vec<String> = self.findings.iter().map(finding_json).collect();
        let allowed: Vec<String> = self.allowed.iter().map(finding_json).collect();
        format!(
            "{{\"files_scanned\":{},\"findings\":[{}],\"allowed\":[{}]}}",
            self.files_scanned,
            findings.join(","),
            allowed.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_allow_accepts_known_rules_with_reasons() {
        let allow = parse_allow("// p3q-allow: hash-iter — sorted below")
            .unwrap()
            .unwrap();
        assert_eq!(allow.rule, "hash-iter");
        assert_eq!(allow.reason, "sorted below");
        let ascii = parse_allow("# p3q-allow: compat-gating - kept for later")
            .unwrap()
            .unwrap();
        assert_eq!(ascii.rule, "compat-gating");
        assert_eq!(ascii.reason, "kept for later");
    }

    #[test]
    fn parse_allow_rejects_unknown_rules_and_missing_reasons() {
        assert!(parse_allow("// p3q-allow: no-such-rule — x")
            .unwrap()
            .is_err());
        assert!(parse_allow("// p3q-allow: hash-iter").unwrap().is_err());
        assert!(parse_allow("// p3q-allow: hash-iter —   ")
            .unwrap()
            .is_err());
        assert!(parse_allow("// a normal comment").is_none());
    }

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
