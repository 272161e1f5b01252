//! Determinism lint: a hand-rolled source scanner (no external parser)
//! over `crates/*/src`.
//!
//! The rules:
//!
//! 1. **unordered-iteration** — iterating a `HashMap`/`HashSet` binding
//!    whose results feed anything order-sensitive. A flagged line is
//!    exempt when an order-insensitive or ordering consumer (`.sum()`,
//!    `.count()`, `.len()`, min/max, `all`/`any`/`fold`, a `sort`, or a
//!    collect back into a hash/BTree container) appears on the same line
//!    or within the next few lines, or when the site carries an explicit
//!    `det-lint: allow` marker.
//! 2. **wall-clock** — `SystemTime::now` or `Instant::now` in library
//!    code. Reproduction runs must be replayable; wall-clock reads belong
//!    in binaries (paths under a `bin/` directory or a `main.rs`, which
//!    this rule skips) or behind `av-trace`'s `Clock` trait, whose single
//!    sanctioned call site carries a `det-lint: allow` marker. A short
//!    explicit allowlist (`WALL_CLOCK_ALLOWED_FILES`) exempts library
//!    files whose job *is* timing — currently only `av-serve`'s load
//!    generator; the rule ratchets at zero everywhere else.
//! 3. **unwrap-ratchet** — the count of `.unwrap(` calls per file in
//!    non-test code may only go *down* relative to the committed baseline
//!    (`crates/analyze/unwrap-baseline.txt`).
//! 4. **unsafe-scope** — the `unsafe` keyword (and `allow(unsafe_code)`
//!    opt-ins) anywhere except the audited allowlist
//!    (`UNSAFE_ALLOWED_FILES`): `av-nn`'s SIMD kernels.
//!    `forbid`/`deny(unsafe_code)` attributes are of course fine —
//!    the rule exists precisely so those stay the default everywhere else.
//! 5. **raw-spawn** — `thread::spawn`, `thread::scope`, or
//!    `thread::Builder` in library code. A query runs on the thread that
//!    submits it; intra-query parallelism won no end-to-end number at 2
//!    cores, and a library that starts its own threads competes with its
//!    callers' for the same cores. Binaries and test code are exempt (same
//!    carve-outs as `wall-clock`), plus a one-file allowlist
//!    (`RAW_SPAWN_ALLOWED_FILES`): the load generator's closed-loop
//!    clients.
//!
//! Test code is skipped: everything below a `#[cfg(test)]` attribute, and
//! any path containing a `tests` or `benches` directory.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding, with a stable rule name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Human-readable diagnostic.
    pub message: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Everything the repo scan produces: per-line findings plus the per-file
/// panic-site counts the ratchet compares against its baseline.
pub struct LintReport {
    pub findings: Vec<LintFinding>,
    /// Repo-relative path → `.unwrap(` count in non-test code.
    pub unwrap_counts: BTreeMap<String, usize>,
}

// Pattern strings are assembled from pieces so this file does not trip its
// own scanner, and cached in `OnceLock`s so the assembly happens once per
// process, not once per scanned file.
fn wall_clock_patterns() -> &'static [String; 2] {
    static PATTERNS: std::sync::OnceLock<[String; 2]> = std::sync::OnceLock::new();
    PATTERNS.get_or_init(|| {
        [
            format!("SystemTime{}", "::now"),
            format!("Instant{}", "::now"),
        ]
    })
}

/// Binaries may read the wall clock (to time benchmarks, stamp manifests):
/// anything under a `bin/` directory or a crate's `main.rs`.
fn is_binary_path(file: &str) -> bool {
    file.ends_with("/main.rs")
        || file == "main.rs"
        || file.split('/').any(|seg| seg == "bin")
}

/// Library files with a standing wall-clock exemption. This list is the
/// whole scope — the rule stays zero-ratchet everywhere else, so adding a
/// file here is a reviewed decision, not a drive-by.
///
/// `crates/serve/src/loadgen.rs`: the serving load generator's entire
/// purpose is measuring real request latency under concurrency; an injected
/// `Clock` would measure the mock, not the system. Results feed
/// `BENCH_serve.json`, never replayed artifacts.
const WALL_CLOCK_ALLOWED_FILES: [&str; 1] = ["crates/serve/src/loadgen.rs"];

fn is_wall_clock_allowed_file(file: &str) -> bool {
    WALL_CLOCK_ALLOWED_FILES
        .iter()
        .any(|allowed| file == *allowed || file.ends_with(&format!("/{allowed}")))
}

/// Raw OS-thread entry points, assembled from pieces like the patterns
/// above so the scanner does not trip on its own source. `thread::Builder`
/// is included: it is the same capability with a name attached.
fn raw_spawn_patterns() -> &'static [String; 3] {
    static PATTERNS: std::sync::OnceLock<[String; 3]> = std::sync::OnceLock::new();
    PATTERNS.get_or_init(|| {
        [
            format!("thread{}", "::spawn"),
            format!("thread{}", "::scope"),
            format!("thread{}", "::Builder"),
        ]
    })
}

/// Library files allowed to start OS threads directly. The whole scope of
/// the exemption — everywhere else, library code runs on its caller's
/// thread, so adding a file here is a reviewed decision.
///
/// `crates/serve/src/loadgen.rs`: closed-loop load-generator clients model
/// independent *sessions*, each a thread of its own, as real clients are.
const RAW_SPAWN_ALLOWED_FILES: [&str; 1] = ["crates/serve/src/loadgen.rs"];

fn is_raw_spawn_allowed_file(file: &str) -> bool {
    RAW_SPAWN_ALLOWED_FILES
        .iter()
        .any(|allowed| file == *allowed || file.ends_with(&format!("/{allowed}")))
}

fn unwrap_pattern() -> &'static str {
    static PAT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    PAT.get_or_init(|| format!(".unw{}(", "rap"))
}

// Assembled from pieces like the patterns above, so this scanner's own
// source stays clean under its own rules.
fn unsafe_keyword() -> &'static str {
    static KW: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    KW.get_or_init(|| format!("uns{}", "afe"))
}

fn unsafe_optin_pattern() -> &'static str {
    static PAT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    PAT.get_or_init(|| format!("allow({}_code)", unsafe_keyword()))
}

/// The rule identifier, leaked once: findings carry `&'static str` rule
/// names, and spelling this one as a literal would trip the scanner on its
/// own source.
fn unsafe_rule_name() -> &'static str {
    static NAME: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    NAME.get_or_init(|| format!("{}-scope", unsafe_keyword()))
}

/// Library files allowed to contain `unsafe`. This list is the whole
/// scope — everything else ratchets at zero, so extending it is a reviewed
/// decision, not a drive-by.
///
/// `crates/nn/src/simd.rs`: the `core::arch` AVX2+FMA kernels. Intrinsics
/// are inherently `unsafe fn`; the module confines them behind safe
/// dispatchers whose slice-length `debug_assert`s state the contract, and
/// the property suite pins them bitwise to safe scalar references.
const UNSAFE_ALLOWED_FILES: [&str; 1] = ["crates/nn/src/simd.rs"];

fn is_unsafe_allowed_file(file: &str) -> bool {
    UNSAFE_ALLOWED_FILES
        .iter()
        .any(|allowed| file == *allowed || file.ends_with(&format!("/{allowed}")))
}

/// Does `line` use the `unsafe` keyword (not the `unsafe_code` attribute
/// name, which `forbid`/`deny` attributes legitimately mention)?
fn uses_unsafe_keyword(line: &str) -> bool {
    let kw = unsafe_keyword();
    let mut from = 0;
    while let Some(rel) = line[from..].find(kw) {
        let pos = from + rel;
        from = pos + kw.len();
        let before_ok = line[..pos]
            .chars()
            .next_back()
            .is_none_or(|c| !is_ident_char(c));
        let after_ok = line[pos + kw.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

const ALLOW_MARKER: &str = "det-lint: allow";

/// Consumers that make hash-order irrelevant (order-insensitive folds) or
/// that restore an order (sorts, ordered re-collection).
const ORDER_SAFE: [&str; 14] = [
    ".sum()",
    ".sum::<",
    ".count()",
    ".len()",
    ".min(",
    ".max(",
    ".min_by",
    ".max_by",
    ".all(",
    ".any(",
    ".fold(",
    ".product()",
    "sort",
    "BTree",
];

/// Hash-container re-collection is also order-safe.
const ORDER_SAFE_COLLECT: [&str; 4] = [
    "collect::<HashMap",
    "collect::<HashSet",
    "collect::<std::collections::HashMap",
    "collect::<std::collections::HashSet",
];

/// How many lines after a flagged iteration we look for an order-safe
/// consumer (covers `let mut v: Vec<_> = m.keys().collect();` followed by
/// a `v.sort();` a couple of lines later).
const WINDOW: usize = 4;

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The identifier ending at the end of `s`, if any.
fn trailing_ident(s: &str) -> Option<&str> {
    let end = s.len();
    let start = s
        .char_indices()
        .rev()
        .take_while(|&(_, c)| is_ident_char(c))
        .last()
        .map(|(i, _)| i)?;
    let ident = &s[start..end];
    ident.chars().next().filter(|c| !c.is_numeric())?;
    Some(ident)
}

/// Identifiers this line binds to a `HashMap`/`HashSet` (let-bindings,
/// struct fields, fn params).
fn hash_bound_idents(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    for marker in ["HashMap", "HashSet"] {
        let mut from = 0;
        while let Some(rel) = line[from..].find(marker) {
            let pos = from + rel;
            from = pos + marker.len();
            let before = line[..pos].trim_end();
            // `name: HashMap<..>` or `name = HashMap::new()`.
            let Some(head) = before
                .strip_suffix(':')
                .or_else(|| before.strip_suffix('='))
            else {
                continue;
            };
            if let Some(ident) = trailing_ident(head.trim_end()) {
                if !matches!(ident, "mut" | "pub" | "let" | "in" | "dyn" | "impl") {
                    out.push(ident.to_string());
                }
            }
        }
    }
    out
}

/// Does `line` iterate `ident` (a tracked hash container)?
fn iterates(line: &str, ident: &str) -> bool {
    let methods = [".keys()", ".values()", ".values_mut()", ".iter()", ".iter_mut()", ".into_iter()", ".drain("];
    for m in methods {
        let pat = format!("{ident}{m}");
        if contains_bounded(line, &pat) {
            return true;
        }
    }
    // `for x in &ident {` / `in ident` / `in &self.ident` / `in &s.ident`:
    // take the place expression after ` in `, strip borrows, and see
    // whether its final path segment is the tracked ident.
    let mut from = 0;
    while let Some(rel) = line[from..].find(" in ") {
        let pos = from + rel + 4;
        from = pos;
        let rest = line[pos..].trim_start();
        let rest = rest.strip_prefix('&').unwrap_or(rest);
        let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
        let expr: String = rest
            .chars()
            .take_while(|&c| is_ident_char(c) || c == '.')
            .collect();
        if expr == ident || expr.ends_with(&format!(".{ident}")) {
            return true;
        }
    }
    false
}

/// Substring match where the character before the match is not part of a
/// longer identifier (so `map.keys()` matches inside `self.map.keys()` but
/// ident `ap` does not match `map`).
fn contains_bounded(line: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = line[from..].find(pat) {
        let pos = from + rel;
        from = pos + pat.len();
        let before_ok = line[..pos]
            .chars()
            .next_back()
            .is_none_or(|c| !is_ident_char(c));
        if before_ok {
            return true;
        }
    }
    false
}

fn window_is_order_safe(lines: &[&str], at: usize) -> bool {
    let end = (at + WINDOW).min(lines.len());
    lines[at..end].iter().any(|l| {
        ORDER_SAFE.iter().any(|p| l.contains(p))
            || ORDER_SAFE_COLLECT.iter().any(|p| l.contains(p))
            || l.contains(ALLOW_MARKER)
    })
}

/// Lines of `src` before the first `#[cfg(test)]` attribute — the region
/// the lint applies to. Comment lines (incl. doc examples) are blanked:
/// they are not executable, so nothing in them is a finding.
fn non_test_lines(src: &str) -> Vec<&str> {
    src.lines()
        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
        .map(|l| if l.trim_start().starts_with("//") { "" } else { l })
        .collect()
}

/// Scan one file's source for unordered-iteration and wall-clock findings.
/// `file` is used verbatim in the findings.
pub fn lint_source(file: &str, src: &str) -> Vec<LintFinding> {
    let lines = non_test_lines(src);
    let wall_clock = wall_clock_patterns();
    let clock_exempt = is_binary_path(file) || is_wall_clock_allowed_file(file);
    let raw_spawn = raw_spawn_patterns();
    let spawn_exempt = is_binary_path(file) || is_raw_spawn_allowed_file(file);
    let unsafe_exempt = is_unsafe_allowed_file(file);
    let unsafe_optin = unsafe_optin_pattern();
    let mut findings = Vec::new();
    let mut tracked: Vec<String> = Vec::new();

    for (i, line) in lines.iter().enumerate() {
        // No inline allow-marker for this rule: the file allowlist is the
        // only exemption, so every new unsafe site is a reviewed decision.
        if !unsafe_exempt && (uses_unsafe_keyword(line) || line.contains(unsafe_optin)) {
            findings.push(LintFinding {
                file: file.to_string(),
                line: i + 1,
                rule: unsafe_rule_name(),
                message: format!(
                    "{} code outside the audited allowlist; keep it confined to \
                     the listed kernel modules or extend \
                     UNSAFE_ALLOWED_FILES in review",
                    unsafe_keyword()
                ),
            });
        }
        if !clock_exempt && !line.contains(ALLOW_MARKER) {
            if let Some(pat) = wall_clock.iter().find(|p| line.contains(p.as_str())) {
                findings.push(LintFinding {
                    file: file.to_string(),
                    line: i + 1,
                    rule: "wall-clock",
                    message: format!(
                        "{pat} in library code breaks replayability; route time through \
                         av-trace's Clock trait or move the read into a binary"
                    ),
                });
            }
        }
        if !spawn_exempt && !line.contains(ALLOW_MARKER) {
            if let Some(pat) = raw_spawn.iter().find(|p| line.contains(p.as_str())) {
                findings.push(LintFinding {
                    file: file.to_string(),
                    line: i + 1,
                    rule: "raw-spawn",
                    message: format!(
                        "{pat} in library code starts threads behind its caller's back; \
                         run the work on the calling thread, move the spawn into a \
                         binary, or extend RAW_SPAWN_ALLOWED_FILES in review"
                    ),
                });
            }
        }
        for ident in hash_bound_idents(line) {
            if !tracked.contains(&ident) {
                tracked.push(ident);
            }
        }
        let hit = tracked.iter().find(|id| iterates(line, id));
        if let Some(ident) = hit {
            if !window_is_order_safe(&lines, i) {
                findings.push(LintFinding {
                    file: file.to_string(),
                    line: i + 1,
                    rule: "unordered-iteration",
                    message: format!(
                        "iteration over hash container `{ident}` with no ordering or \
                         order-insensitive consumer nearby; sort it, switch to BTreeMap, \
                         or mark `// {ALLOW_MARKER}: <reason>`"
                    ),
                });
            }
        }
    }
    findings
}

/// Count panic sites (`.unwrap(`) in the non-test region of `src`.
pub fn count_unwraps(src: &str) -> usize {
    let pat = unwrap_pattern();
    non_test_lines(src)
        .iter()
        .map(|l| l.matches(&pat).count())
        .sum()
}

fn is_lintable(path: &Path) -> bool {
    if path.extension().is_none_or(|e| e != "rs") {
        return false;
    }
    !path
        .components()
        .any(|c| matches!(c.as_os_str().to_str(), Some("tests" | "benches" | "target")))
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk(&p, out)?;
        } else if is_lintable(&p) {
            out.push(p);
        }
    }
    Ok(())
}

/// Scan every `crates/*/src` tree under `root` (the repo root).
pub fn lint_repo(root: &Path) -> io::Result<LintReport> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    crate_dirs.sort();
    for c in crate_dirs {
        let src = c.join("src");
        if src.is_dir() {
            walk(&src, &mut files)?;
        }
    }

    let mut findings = Vec::new();
    let mut unwrap_counts = BTreeMap::new();
    for path in files {
        let src = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(lint_source(&rel, &src));
        let n = count_unwraps(&src);
        if n > 0 {
            unwrap_counts.insert(rel, n);
        }
    }
    Ok(LintReport {
        findings,
        unwrap_counts,
    })
}

/// Parse a baseline file (`<count> <path>` per line, `#` comments).
pub fn parse_baseline(text: &str) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((count, path)) = line.split_once(' ') {
            if let Ok(n) = count.parse::<usize>() {
                out.insert(path.trim().to_string(), n);
            }
        }
    }
    out
}

/// Serialize counts in the baseline format (stable order).
pub fn format_baseline(counts: &BTreeMap<String, usize>) -> String {
    let mut s = String::from(
        "# Panic-site ratchet: `<count> <path>` of unwrap calls allowed in\n\
         # non-test code. Counts may only decrease; regenerate with\n\
         # `cargo run -p av-analyze -- lint --write-baseline`.\n",
    );
    for (path, n) in counts {
        s.push_str(&format!("{n} {path}\n"));
    }
    s
}

/// Ratchet check: every file's current count must be ≤ its baseline
/// (absent = 0).
pub fn ratchet_findings(
    counts: &BTreeMap<String, usize>,
    baseline: &BTreeMap<String, usize>,
) -> Vec<LintFinding> {
    counts
        .iter()
        .filter(|(path, &n)| n > baseline.get(*path).copied().unwrap_or(0))
        .map(|(path, &n)| LintFinding {
            file: path.clone(),
            line: 0,
            rule: "unwrap-ratchet",
            message: format!(
                "{n} panic site(s), baseline allows {}; convert to typed errors \
                 or tighten the baseline",
                baseline.get(path).copied().unwrap_or(0)
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsorted_hash_iteration_feeding_a_vec_is_flagged() {
        let src = "\
fn f() {
    let m: HashMap<String, u32> = HashMap::new();
    let v: Vec<&String> = m.keys().collect();
    use_it(v);
    other();
    other();
}
";
        let f = lint_source("x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unordered-iteration");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn sorted_iteration_is_exempt() {
        let src = "\
fn f() {
    let m: HashMap<String, u32> = HashMap::new();
    let mut v: Vec<&String> = m.keys().collect();
    v.sort_unstable();
}
";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn order_insensitive_fold_is_exempt() {
        let src = "\
fn f(m: HashMap<String, u32>) -> u32 {
    m.values().sum()
}
";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn allow_marker_is_exempt() {
        let src = "\
fn f(m: HashMap<String, u32>) {
    for k in m.keys() { // det-lint: allow — order logged nowhere
        side_effect(k);
    }
}
";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn for_loop_over_hash_field_is_flagged() {
        let src = "\
struct S { tables: HashMap<String, u32> }
fn f(s: &S, out: &mut Vec<String>) {
    for (k, _) in &s.tables {
        out.push(k.clone());
    }
    done();
    done();
}
";
        let f = lint_source("x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn recollecting_into_a_hash_container_is_exempt() {
        let src = "\
fn f(m: HashMap<String, u32>) -> HashMap<String, u32> {
    m.into_iter().map(|(k, v)| (k, v + 1)).collect::<HashMap<_, _>>()
}
";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_read_is_flagged() {
        let src = format!("fn f() {{ let t = SystemTime{}(); }}\n", "::now");
        let f = lint_source("x.rs", &src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock");
    }

    #[test]
    fn instant_read_is_flagged_in_library_code() {
        let src = format!("fn f() {{ let t = Instant{}(); }}\n", "::now");
        let f = lint_source("crates/x/src/lib.rs", &src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "wall-clock");
    }

    #[test]
    fn wall_clock_reads_in_binaries_are_exempt() {
        let src = format!(
            "fn main() {{ let a = Instant{0}(); let b = SystemTime{0}(); }}\n",
            "::now"
        );
        assert!(lint_source("crates/bench/src/bin/exec_bench.rs", &src).is_empty());
        assert!(lint_source("crates/x/src/main.rs", &src).is_empty());
    }

    #[test]
    fn wall_clock_allowlist_is_scoped_to_serve_loadgen() {
        let src = format!("fn measure() {{ let t = Instant{}(); }}\n", "::now");
        // The load generator's latency reads are sanctioned...
        assert!(lint_source("crates/serve/src/loadgen.rs", &src).is_empty());
        assert!(lint_source("/abs/repo/crates/serve/src/loadgen.rs", &src).is_empty());
        // ...but the exemption does not leak to the rest of the crate, to
        // similarly named files elsewhere, or to other library code.
        for file in [
            "crates/serve/src/server.rs",
            "crates/serve/src/deployment.rs",
            "crates/online/src/loadgen.rs",
            "crates/serve2/src/loadgen.rs",
        ] {
            let f = lint_source(file, &src);
            assert_eq!(f.len(), 1, "{file} must still be flagged: {f:?}");
            assert_eq!(f[0].rule, "wall-clock");
        }
    }

    #[test]
    fn marked_clock_trait_call_site_is_exempt() {
        let src = format!(
            "fn now() {{ origin: Instant{}(), // det-lint: allow — Clock trait\n}}\n",
            "::now"
        );
        assert!(lint_source("crates/trace/src/clock.rs", &src).is_empty());
    }

    #[test]
    fn unsafe_keyword_is_flagged_outside_allowlist() {
        let kw = unsafe_keyword();
        for src in [
            format!("fn f() {{ {kw} {{ core_op(); }} }}\n"),
            format!("{kw} fn g() {{}}\n"),
            format!("#![allow({kw}_code)]\n"),
        ] {
            let f = lint_source("crates/engine/src/exec.rs", &src);
            assert_eq!(f.len(), 1, "{src:?} -> {f:?}");
            assert_eq!(f[0].rule, "unsafe-scope");
            assert_eq!(f[0].line, 1);
        }
    }

    #[test]
    fn unsafe_scope_allowlist_is_exactly_the_audited_modules() {
        let kw = unsafe_keyword();
        let src = format!("{kw} fn kernel() {{}}\n");
        let allowed = "crates/nn/src/simd.rs";
        assert!(lint_source(allowed, &src).is_empty(), "{allowed}");
        assert!(lint_source(&format!("/abs/repo/{allowed}"), &src).is_empty());
        // No leaking to sibling files, binaries, or similarly named paths.
        for file in [
            "crates/nn/src/tensor.rs",
            "crates/bench/src/bin/nn_bench.rs",
            "crates/engine/src/simd.rs",
            "crates/sched/src/task.rs",
            "crates/sched/src/rank.rs",
            "crates/trace/src/span.rs",
            "crates/trace/src/clock.rs",
        ] {
            let f = lint_source(file, &src);
            assert_eq!(f.len(), 1, "{file} must still be flagged: {f:?}");
            assert_eq!(f[0].rule, "unsafe-scope");
        }
    }

    #[test]
    fn forbidding_unsafe_is_not_a_finding() {
        let kw = unsafe_keyword();
        let src = format!("#![forbid({kw}_code)]\n#![deny({kw}_code)]\nfn safe() {{}}\n");
        assert!(lint_source("crates/engine/src/lib.rs", &src).is_empty());
    }

    #[test]
    fn raw_spawn_is_flagged_in_library_code() {
        for entry in ["::spawn", "::scope", "::Builder"] {
            let src = format!("fn f() {{ std::thread{entry}(work); }}\n");
            let f = lint_source("crates/engine/src/exec.rs", &src);
            assert_eq!(f.len(), 1, "{entry} -> {f:?}");
            assert_eq!(f[0].rule, "raw-spawn");
            assert_eq!(f[0].line, 1);
        }
    }

    #[test]
    fn raw_spawn_allowlist_is_the_load_generator() {
        let src = format!("fn f() {{ std::thread{}(work); }}\n", "::spawn");
        let allowed = "crates/serve/src/loadgen.rs";
        assert!(lint_source(allowed, &src).is_empty(), "{allowed}");
        assert!(lint_source(&format!("/abs/repo/{allowed}"), &src).is_empty());
        // The exemption does not leak to sibling files or lookalike paths.
        for file in [
            "crates/sched/src/pool.rs",
            "crates/serve/src/server.rs",
            "crates/engine/src/par.rs",
            "crates/online/src/loadgen.rs",
        ] {
            let f = lint_source(file, &src);
            assert_eq!(f.len(), 1, "{file} must still be flagged: {f:?}");
            assert_eq!(f[0].rule, "raw-spawn");
        }
    }

    #[test]
    fn raw_spawn_in_binaries_and_tests_is_exempt() {
        let src = format!("fn main() {{ std::thread{}(work); }}\n", "::scope");
        assert!(lint_source("crates/bench/src/bin/serve_bench.rs", &src).is_empty());
        assert!(lint_source("crates/x/src/main.rs", &src).is_empty());
        let test_src = format!(
            "fn f() {{}}\n#[cfg(test)]\nmod t {{ fn g() {{ std::thread{}(work); }} }}\n",
            "::spawn"
        );
        assert!(lint_source("crates/engine/src/exec.rs", &test_src).is_empty());
    }

    #[test]
    fn raw_spawn_allow_marker_exempts_a_line() {
        let src = format!(
            "fn f() {{ std::thread{}(work); // det-lint: allow — reviewed one-off\n}}\n",
            "::spawn"
        );
        assert!(lint_source("crates/engine/src/exec.rs", &src).is_empty());
    }

    #[test]
    fn test_module_is_skipped() {
        let src = "\
fn f() {}
#[cfg(test)]
mod tests {
    fn g(m: HashMap<u8, u8>) { let v: Vec<_> = m.keys().collect(); use_it(v); }
}
";
        assert!(lint_source("x.rs", src).is_empty());
        assert_eq!(count_unwraps("fn f() {}\n#[cfg(test)]\nmod t { fn g() { x.unw\u{0072}ap(); } }"), 0);
    }

    #[test]
    fn pattern_strings_are_cached_per_process() {
        // Each accessor hands back the same allocation on every call — the
        // assembly cost is paid once, not once per scanned file.
        assert!(std::ptr::eq(unwrap_pattern(), unwrap_pattern()));
        assert!(std::ptr::eq(unsafe_keyword(), unsafe_keyword()));
        assert!(std::ptr::eq(unsafe_optin_pattern(), unsafe_optin_pattern()));
        assert!(std::ptr::eq(wall_clock_patterns(), wall_clock_patterns()));
        assert!(std::ptr::eq(raw_spawn_patterns(), raw_spawn_patterns()));
    }

    #[test]
    fn unwrap_ratchet_counts_and_compares() {
        let pat = unwrap_pattern();
        let src = format!("fn f() {{ a{pat}); b{pat}); }}\n");
        assert_eq!(count_unwraps(&src), 2);
        let mut counts = BTreeMap::new();
        counts.insert("a.rs".to_string(), 2);
        let mut baseline = BTreeMap::new();
        baseline.insert("a.rs".to_string(), 2);
        assert!(ratchet_findings(&counts, &baseline).is_empty());
        baseline.insert("a.rs".to_string(), 1);
        let f = ratchet_findings(&counts, &baseline);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unwrap-ratchet");
    }

    #[test]
    fn baseline_roundtrips() {
        let mut counts = BTreeMap::new();
        counts.insert("crates/a/src/x.rs".to_string(), 3);
        counts.insert("crates/b/src/y.rs".to_string(), 1);
        let text = format_baseline(&counts);
        assert_eq!(parse_baseline(&text), counts);
    }
}
