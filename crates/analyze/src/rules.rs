//! The rule set: each rule walks the scanned workspace and emits raw
//! findings; allow-list filtering happens afterwards in the driver.
//!
//! Rules are deliberately token-level heuristics, tuned to this workspace's
//! conventions. A rule may over-approximate (flag something that is in fact
//! order-insensitive); the `// p3q-allow:` annotation exists exactly for
//! that case and forces the justification into the source. A rule must
//! never under-approximate silently: when coverage is bounded (e.g. only
//! the plan/commit module list is checked for hash iteration), the bound is
//! part of the rule's documented contract below.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{tokenize, SourceFile};
use crate::{Finding, Workspace};

/// Rule ids with one-line descriptions (the `--list-rules` output and the
/// vocabulary `// p3q-allow:` annotations must use).
pub const RULES: &[(&str, &str)] = &[
    (
        "hash-iter",
        "no HashMap/HashSet iteration in plan/commit-path modules unless sorted or \
         order-insensitive and annotated",
    ),
    (
        "wall-clock",
        "no SystemTime/Instant::now/thread::current feeding logic outside the bench crate",
    ),
    (
        "rng-source",
        "no entropy-based RNGs anywhere; plan/commit-path RNG construction must derive from \
         stream_seed/splitmix streams",
    ),
    (
        "safety-comment",
        "every `unsafe` must be immediately preceded by a `// SAFETY:` comment",
    ),
    (
        "compat-gating",
        "serde/rand/proptest/criterion must come through the crates/compat workspace gate \
         (`dep.workspace = true`), never a direct path/version dependency",
    ),
    (
        "unused-pub",
        "every `pub fn`/`pub const`/`pub static` of a library crate must be named outside that \
         crate's src/ (another crate, its tests/, the integration tests or examples)",
    ),
    (
        "allow-syntax",
        "every p3q-allow annotation must name a known rule and give a non-empty reason",
    ),
];

/// The modules making up the deterministic plan/commit path. `hash-iter`
/// and the `seed_from_u64` half of `rng-source` apply only here: these are
/// the files whose execution order is replayed byte-for-byte by the
/// determinism suites, so any hash-ordered iteration or ambient-seeded RNG
/// in them is a latent thread-count dependence.
pub const PLAN_COMMIT_MODULES: &[&str] = &[
    // The sequencer is the one copy of the phase order; its substrates
    // (`engine.rs`'s workers, the sequential shard) execute the phases.
    "crates/sim/src/cycle.rs",
    "crates/sim/src/shard.rs",
    "crates/sim/src/engine.rs",
    "crates/sim/src/exchange.rs",
    "crates/sim/src/fault.rs",
    "crates/core/src/lazy.rs",
    "crates/core/src/eager.rs",
    "crates/core/src/node.rs",
    "crates/core/src/query.rs",
    // The demand-driven resolver's cache state must be byte-identical for
    // every worker-thread count (pinned by `on_demand_props`), so it earns
    // the same hash-iter / ambient-RNG scrutiny as the commit path.
    "crates/core/src/resolver.rs",
    // The transport runtime executes the same sequencer over shard actors
    // and is pinned byte-identical to the simulator (by `transport_props`),
    // so its mailbox substrate, actor dispatch and delivery schedule get
    // the same scrutiny.
    "crates/transport/src/runtime.rs",
    "crates/transport/src/actor.rs",
    "crates/transport/src/schedule.rs",
];

/// The library crates (`crates/<name>/src/`) whose public surface
/// `unused-pub` checks.
pub const LIBRARY_CRATES: &[&str] = &[
    "bloom",
    "topk",
    "trace",
    "gossip",
    "sim",
    "transport",
    "core",
];

/// Hash-ordered container types whose iteration order is unspecified.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Methods that surface a hash container's unspecified order (or, for
/// `retain`, run side effects in it).
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
];

/// Dependencies that must resolve through the `crates/compat` gate.
const GATED_DEPS: &[&str] = &["serde", "serde_derive", "rand", "proptest", "criterion"];

/// Tokens that mark a `seed_from_u64` argument as derived from a sanctioned
/// deterministic stream.
const SEED_DERIVATIONS: &[&str] = &["stream_seed", "splitmix", "plan_rng", "commit_rng"];

fn is_ident(tok: &str) -> bool {
    tok.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

fn is_keyword(tok: &str) -> bool {
    matches!(
        tok,
        "let" | "mut" | "pub" | "self" | "in" | "if" | "as" | "where" | "fn" | "impl" | "for"
    )
}

/// Is this file part of the plan/commit module list?
pub fn is_plan_commit_module(rel_path: &str) -> bool {
    PLAN_COMMIT_MODULES.contains(&rel_path)
}

/// Files whose content rules are relaxed: the bench crate may time things,
/// the compat stubs implement the very primitives the rules police, and the
/// analyzer itself contains rule patterns as data.
fn content_rules_exempt(rel_path: &str) -> bool {
    rel_path.starts_with("crates/compat/")
        || rel_path.starts_with("crates/bench/")
        || rel_path.starts_with("crates/analyze/")
}

/// Test-only source locations: integration tests, benches and examples are
/// not on the deterministic cycle path.
fn is_test_or_harness_path(rel_path: &str) -> bool {
    rel_path.contains("/tests/")
        || rel_path.contains("/benches/")
        || rel_path.contains("/examples/")
}

/// Pass 1 over the library code: every identifier that is declared or
/// typed as a hash-ordered container, collected across files so that a
/// field declared in `node.rs` is recognized when `eager.rs` iterates it.
/// Test code is skipped (`#[cfg(test)]` lines and files under `tests/`,
/// `benches/` and `examples/`): a test-only map named like a library `Vec`
/// must not make the library's iteration over that `Vec` a finding.
pub fn collect_hash_names(files: &[SourceFile]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for file in files {
        if is_test_or_harness_path(&file.rel_path) {
            continue;
        }
        for line in file.lines.iter().filter(|line| !line.in_test) {
            let toks = tokenize(&line.code);
            for i in 0..toks.len() {
                if !HASH_TYPES.contains(&toks[i].as_str()) {
                    continue;
                }
                match toks.get(i + 1).map(String::as_str) {
                    Some("<") | Some("::") => {}
                    _ => continue,
                }
                // Walk backwards through type position: `name: …Hash…<…>`
                // captures `name`; `let [mut] name = …Hash…::new()` captures
                // `name`; anything else (return types, turbofish in
                // expressions) captures nothing.
                let mut j = i;
                while j > 0 {
                    j -= 1;
                    let t = toks[j].as_str();
                    if t == ":" {
                        if j > 0 && is_ident(&toks[j - 1]) && !is_keyword(&toks[j - 1]) {
                            names.insert(toks[j - 1].clone());
                        }
                        break;
                    }
                    if t == "=" {
                        if j > 0 && is_ident(&toks[j - 1]) && !is_keyword(&toks[j - 1]) {
                            let name = j - 1;
                            let decl = name >= 1
                                && (toks[name - 1] == "let"
                                    || (toks[name - 1] == "mut"
                                        && name >= 2
                                        && toks[name - 2] == "let"));
                            if decl {
                                names.insert(toks[name].clone());
                            }
                        }
                        break;
                    }
                    let type_position =
                        is_ident(t) || matches!(t, "::" | "<" | ">" | "&" | "'" | ",");
                    if !type_position {
                        break;
                    }
                }
            }
        }
    }
    names
}

/// Rule `hash-iter`: unspecified-order iteration over a hash-typed name in
/// a plan/commit-path module.
pub fn hash_iter(file: &SourceFile, hash_names: &BTreeSet<String>, out: &mut Vec<Finding>) {
    if !is_plan_commit_module(&file.rel_path) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let toks = tokenize(&line.code);
        let mut hit: Option<String> = None;
        // `name.iter()` / `name.values_mut()` / …
        for i in 2..toks.len() {
            if toks[i] == "("
                && ITER_METHODS.contains(&toks[i - 1].as_str())
                && toks[i - 2] == "."
                && i >= 3
                && hash_names.contains(&toks[i - 3])
            {
                hit = Some(format!(
                    "iteration over hash-ordered `{}` via `.{}()`",
                    toks[i - 3],
                    toks[i - 1]
                ));
                break;
            }
        }
        // `for … in &name { …` (the IntoIterator route).
        if hit.is_none() {
            if let Some(f) = toks.iter().position(|t| t == "for") {
                if let Some(g) = toks[f..].iter().position(|t| t == "in") {
                    for p in (f + g + 1)..toks.len() {
                        if toks[p] == "{" {
                            break;
                        }
                        if is_ident(&toks[p])
                            && hash_names.contains(&toks[p])
                            && toks.get(p + 1).map(String::as_str) != Some("(")
                        {
                            hit = Some(format!(
                                "`for … in` over hash-ordered `{}` (unspecified order)",
                                toks[p]
                            ));
                            break;
                        }
                    }
                }
            }
        }
        if let Some(message) = hit {
            out.push(Finding::new("hash-iter", &file.rel_path, idx + 1, message));
        }
    }
}

/// Rule `wall-clock`: ambient time or thread identity reaching logic.
pub fn wall_clock(file: &SourceFile, out: &mut Vec<Finding>) {
    if content_rules_exempt(&file.rel_path) || is_test_or_harness_path(&file.rel_path) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let toks = tokenize(&line.code);
        for w in toks.windows(3) {
            let message = match (w[0].as_str(), w[1].as_str(), w[2].as_str()) {
                ("Instant", "::", "now") => "`Instant::now()` outside the bench crate",
                ("SystemTime", "::", "now") => "`SystemTime::now()` outside the bench crate",
                ("thread", "::", "current") => {
                    "`thread::current()` identity feeding logic outside the bench crate"
                }
                _ => continue,
            };
            out.push(Finding::new(
                "wall-clock",
                &file.rel_path,
                idx + 1,
                message.to_string(),
            ));
            break;
        }
    }
}

/// Rule `rng-source`: entropy-based RNG construction anywhere, and
/// `seed_from_u64` in plan/commit-path modules whose seed expression does
/// not visibly derive from a sanctioned stream.
pub fn rng_source(file: &SourceFile, out: &mut Vec<Finding>) {
    if content_rules_exempt(&file.rel_path) || is_test_or_harness_path(&file.rel_path) {
        return;
    }
    let seed_scope = is_plan_commit_module(&file.rel_path);
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let toks = tokenize(&line.code);
        let mut message: Option<&str> = None;
        if toks.iter().any(|t| t == "from_entropy") {
            message = Some("entropy-seeded RNG (`from_entropy`) breaks replay determinism");
        } else if toks.iter().any(|t| t == "thread_rng") {
            message = Some("`thread_rng()` is ambient state; derive from a seed stream instead");
        } else if toks
            .windows(3)
            .any(|w| w[0] == "rand" && w[1] == "::" && w[2] == "random")
        {
            message = Some("`rand::random()` is ambient state; derive from a seed stream instead");
        } else if seed_scope
            && toks.iter().any(|t| t == "seed_from_u64")
            && !toks.iter().any(|t| SEED_DERIVATIONS.contains(&t.as_str()))
        {
            message = Some(
                "plan/commit-path RNG constructed without a visible stream_seed/splitmix \
                 derivation",
            );
        }
        if let Some(message) = message {
            out.push(Finding::new(
                "rng-source",
                &file.rel_path,
                idx + 1,
                message.to_string(),
            ));
        }
    }
}

/// Rule `safety-comment`: an `unsafe` token without an immediately
/// preceding `// SAFETY:` comment (attribute lines in between are fine).
pub fn safety_comment(file: &SourceFile, out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        let toks = tokenize(&line.code);
        if !toks.iter().any(|t| t == "unsafe") {
            continue;
        }
        if line.raw.contains("SAFETY:") {
            continue;
        }
        let mut justified = false;
        let mut j = idx;
        while j > 0 {
            j -= 1;
            let prev = &file.lines[j];
            let code_trimmed = prev.code.trim();
            let is_comment_only = code_trimmed.is_empty() && prev.raw.contains("//");
            let is_attribute = code_trimmed.starts_with('#');
            if is_comment_only {
                if prev.raw.contains("SAFETY:") {
                    justified = true;
                    break;
                }
                continue;
            }
            if is_attribute {
                continue;
            }
            break;
        }
        if !justified {
            out.push(Finding::new(
                "safety-comment",
                &file.rel_path,
                idx + 1,
                "`unsafe` without an immediately preceding `// SAFETY:` justification".to_string(),
            ));
        }
    }
}

/// Rule `compat-gating`: a member manifest taking serde/rand/proptest/
/// criterion by path or version instead of `dep.workspace = true`, or an
/// `extern crate` for one of them in source.
pub fn compat_gating(ws: &Workspace, out: &mut Vec<Finding>) {
    for manifest in &ws.manifests {
        if !manifest.rel_path.starts_with("crates/")
            || manifest.rel_path.starts_with("crates/compat/")
        {
            continue;
        }
        let mut in_dep_section = false;
        for (idx, line) in manifest.lines.iter().enumerate() {
            let trimmed = line.trim();
            if trimmed.starts_with('[') {
                in_dep_section = trimmed.trim_matches(['[', ']']).ends_with("dependencies");
                continue;
            }
            if !in_dep_section || trimmed.starts_with('#') {
                continue;
            }
            let Some(name) = trimmed
                .split(['=', '.', ' '])
                .next()
                .map(str::trim)
                .filter(|n| !n.is_empty())
            else {
                continue;
            };
            if !GATED_DEPS.contains(&name) {
                continue;
            }
            let compressed: String = trimmed.chars().filter(|c| !c.is_whitespace()).collect();
            if !compressed.contains("workspace=true") {
                out.push(Finding::new(
                    "compat-gating",
                    &manifest.rel_path,
                    idx + 1,
                    format!(
                        "`{name}` must come through the crates/compat workspace gate \
                         (`{name}.workspace = true`), not a direct path/version dependency"
                    ),
                ));
            }
        }
    }
    for file in &ws.files {
        if file.rel_path.starts_with("crates/compat/") {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            let toks = tokenize(&line.code);
            for w in toks.windows(3) {
                if w[0] == "extern" && w[1] == "crate" && GATED_DEPS.contains(&w[2].as_str()) {
                    out.push(Finding::new(
                        "compat-gating",
                        &file.rel_path,
                        idx + 1,
                        format!("`extern crate {}` bypasses the crates/compat gate", w[2]),
                    ));
                }
            }
        }
    }
}

/// Index into [`LIBRARY_CRATES`] of the crate whose `src/` holds `rel_path`.
fn library_src_crate(rel_path: &str) -> Option<usize> {
    let rest = rel_path.strip_prefix("crates/")?;
    LIBRARY_CRATES.iter().position(|name| {
        rest.strip_prefix(name)
            .is_some_and(|tail| tail.starts_with("/src/"))
    })
}

/// The kind and name of the `pub fn` / `pub const` / `pub static` a line
/// declares, if it declares one (`pub(crate)` and friends do not count).
fn pub_item(toks: &[String]) -> Option<(&'static str, &str)> {
    let rest: Vec<&str> = toks.iter().map(String::as_str).collect();
    let (kind, name) = match rest.as_slice() {
        ["pub", "fn", name, ..]
        | ["pub", "const" | "unsafe" | "async", "fn", name, ..]
        | ["pub", "const", "unsafe", "fn", name, ..] => ("fn", *name),
        ["pub", "const", name, ..] => ("const", *name),
        ["pub", "static", "mut", name, ..] | ["pub", "static", name, ..] => ("static", *name),
        _ => return None,
    };
    is_ident(name).then_some((kind, name))
}

/// Rule `unused-pub`: a `pub fn`, `pub const` or `pub static` in
/// `crates/<lib>/src/` (for each of [`LIBRARY_CRATES`], outside
/// `#[cfg(test)]` modules) that no identifier token names in any scanned
/// `.rs` file outside that crate's `src/` and outside `crates/analyze/`.
/// Comments and string contents do not count: a doc link is not a caller.
/// Other crates (the bench crate and its e2e package included), the
/// crate's own `tests/`, and the integration crate's `tests/` and
/// `examples/` do.
///
/// Bound: the rule matches by name, so an item that shares its name with
/// anything named elsewhere (`new`, `len`, another crate's function) is
/// never reported, dead or not. It skips types, because a type reachable
/// from a public signature must stay `pub`; once a function is narrowed to
/// `pub(crate)`, rustc's `dead_code` lint takes over.
pub fn unused_pub(ws: &Workspace, out: &mut Vec<Finding>) {
    // Per identifier, a bit for each library crate whose src/ names it and
    // bit `LIBRARY_CRATES.len()` for every other (non-analyzer) file.
    let outside = 1u32 << LIBRARY_CRATES.len();
    let mut named_by: BTreeMap<&str, u32> = BTreeMap::new();
    let tokens: Vec<Vec<Vec<String>>> = ws
        .files
        .iter()
        .map(|file| file.lines.iter().map(|l| tokenize(&l.code)).collect())
        .collect();
    for (file, lines) in ws.files.iter().zip(&tokens) {
        if file.rel_path.starts_with("crates/analyze/") {
            continue;
        }
        let bit = library_src_crate(&file.rel_path).map_or(outside, |c| 1 << c);
        for tok in lines.iter().flatten().filter(|t| is_ident(t)) {
            *named_by.entry(tok.as_str()).or_default() |= bit;
        }
    }
    for (file, lines) in ws.files.iter().zip(&tokens) {
        let Some(krate) = library_src_crate(&file.rel_path) else {
            continue;
        };
        for (idx, (line, toks)) in file.lines.iter().zip(lines).enumerate() {
            if line.in_test {
                continue;
            }
            let Some((kind, name)) = pub_item(toks) else {
                continue;
            };
            if named_by.get(name).copied().unwrap_or(0) & !(1 << krate) != 0 {
                continue;
            }
            out.push(Finding::new(
                "unused-pub",
                &file.rel_path,
                idx + 1,
                format!(
                    "`pub {kind} {name}` is named nowhere outside `crates/{}/src` — delete it or \
                     narrow it to `pub(crate)`",
                    LIBRARY_CRATES[krate]
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(line: &str) -> Option<(&'static str, String)> {
        pub_item(&tokenize(line)).map(|(kind, name)| (kind, name.to_string()))
    }

    #[test]
    fn pub_item_reads_fns_consts_and_statics_only() {
        assert_eq!(item("pub fn a() {"), Some(("fn", "a".into())));
        assert_eq!(
            item("    pub const fn b() -> u8 {"),
            Some(("fn", "b".into()))
        );
        assert_eq!(item("pub unsafe fn c() {"), Some(("fn", "c".into())));
        assert_eq!(item("pub const D: u8 = 1;"), Some(("const", "D".into())));
        assert_eq!(
            item("pub static mut E: u8 = 1;"),
            Some(("static", "E".into()))
        );
        assert_eq!(item("pub(crate) fn f() {"), None);
        assert_eq!(item("pub struct G;"), None);
        assert_eq!(item("fn h() {"), None);
    }

    #[test]
    fn library_src_crate_matches_whole_crate_names() {
        assert_eq!(library_src_crate("crates/core/src/node.rs"), Some(6));
        assert_eq!(library_src_crate("crates/core/tests/props.rs"), None);
        assert_eq!(library_src_crate("crates/corex/src/lib.rs"), None);
        assert_eq!(library_src_crate("crates/integration/src/lib.rs"), None);
    }
}
