//! Static lock-order analysis over the concurrent crates.
//!
//! A hand-rolled scanner (same philosophy as [`crate::lint`]: no external
//! parser, deterministic, fast enough to run on every CI build) that:
//!
//! 1. extracts **lock identities** — struct fields typed `Mutex<..>`,
//!    `RwLock<..>`, or `Condvar` become nodes named `Struct.field`;
//! 2. tracks **guard liveness** inside each method — a `let`-bound guard
//!    lives until `drop(guard)`, a rebinding, or its enclosing block ends;
//!    un-bound acquisitions (`self.state.lock().expect(..).1 = true`) are
//!    transient and hold nothing across statements;
//! 3. builds the **acquired-while-held graph**: an edge `A → B` means some
//!    code path acquires `B` (directly, or transitively through a resolved
//!    method call) while a guard of `A` is live. Method calls are resolved
//!    through receiver *field types* (`self.cell.swap(..)` on a field
//!    `cell: DeploymentCell` resolves to `DeploymentCell::swap`) and
//!    through guard aliases (`let planner = &mut *guard;` makes `planner.x`
//!    resolve against the mutex's inner type), then closed under a
//!    transitive acquired-set fixpoint;
//! 4. reports **cycles** (potential deadlocks) and **boundary violations**
//!    — edges touching the serve layer's two coordination locks
//!    ([`BOUNDARY_LOCKS`]) that are not on the audited [`ALLOWED_EDGES`]
//!    list — as [`LintFinding`]s, and renders the whole graph as DOT
//!    (condvar waits appear as dashed, informational edges: `Condvar::wait`
//!    atomically releases the mutex, so waits cannot order locks).
//!
//! Known limits, on purpose: free functions are not resolved (the repo's
//! lock-holding paths go through methods), locals other than guard aliases
//! are untyped, and a guard bound inside a nested block is considered live
//! to the end of that block only. The scanner is conservative where it
//! matters — transient acquisitions still count toward a method's acquired
//! set, so `holder → callee-acquires` edges are never missed for resolved
//! calls.

use crate::lint::LintFinding;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose `src/` trees the repo-level analysis scans: the three that
/// share locks across the serving path.
pub const LOCK_CRATES: [&str; 3] = ["serve", "engine", "online"];

/// The serve layer's coordination locks. Any acquired-while-held edge that
/// touches one of these must be on [`ALLOWED_EDGES`]; everything else is a
/// `lock-boundary` finding. Keeping this set to two names is deliberate —
/// the planner mutex serializes re-optimization and the deployment cell
/// serializes epoch swaps, and new code holding either across foreign locks
/// is exactly the class of change that deserves review.
pub const BOUNDARY_LOCKS: [&str; 2] = ["ViewServer.planner", "DeploymentCell.current"];

/// Audited acquired-while-held edges. Each entry documents why holding the
/// first lock across the second is sound.
///
/// - `ViewServer.planner → DeploymentCell.current`: `swap_in_current`
///   publishes the next epoch at the end of re-optimization. The cell's
///   write lock is only ever taken here and in `DeploymentCell::swap`'s
///   other callers under the same planner mutex; readers (`load`) never
///   hold the cell lock across anything.
/// - `ViewServer.planner → CacheShard.state`: the planner's dry-run cache
///   prices candidates during re-optimization. The dry-run cache is owned
///   by the planner (no other thread can reach it), so its shard mutex
///   cannot participate in a cross-thread cycle with the planner lock.
pub const ALLOWED_EDGES: [(&str, &str); 2] = [
    ("ViewServer.planner", "DeploymentCell.current"),
    ("ViewServer.planner", "CacheShard.state"),
];

/// One acquired-while-held edge (or, when `dashed`, a condvar wait).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock held (`Struct.field`).
    pub from: String,
    /// Lock acquired — or condvar waited on — while `from` is held.
    pub to: String,
    /// Repo-relative file of the first site inducing this edge.
    pub file: String,
    /// 1-based line of that site.
    pub line: usize,
    /// Condvar wait (informational; waits release the mutex atomically).
    pub dashed: bool,
}

/// The full analysis result: every lock node, every edge, and the findings
/// (cycles + boundary violations) the CI gate consumes.
#[derive(Debug, Default)]
pub struct LockOrderReport {
    /// All lock identities discovered (`Struct.field`), sorted.
    pub locks: Vec<String>,
    /// Acquired-while-held edges (deduplicated, sorted by endpoints).
    pub edges: Vec<LockEdge>,
    pub findings: Vec<LintFinding>,
}

impl LockOrderReport {
    /// Render the graph in DOT. Solid edges order locks; dashed edges are
    /// condvar waits. Boundary locks are drawn as boxes.
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph lockorder {\n    rankdir=LR;\n");
        for l in &self.locks {
            let shape = if BOUNDARY_LOCKS.contains(&l.as_str()) {
                "box"
            } else {
                "ellipse"
            };
            let _ = writeln!(s, "    \"{l}\" [shape={shape}];");
        }
        for e in &self.edges {
            let style = if e.dashed { ", style=dashed" } else { "" };
            let _ = writeln!(
                s,
                "    \"{}\" -> \"{}\" [label=\"{}:{}\"{}];",
                e.from, e.to, e.file, e.line, style
            );
        }
        s.push_str("}\n");
        s
    }
}

// ---------------------------------------------------------------------------
// Pass 1: struct fields and method inventory.
// ---------------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
struct StructInfo {
    /// field name → leading type path segment (`cell` → `DeploymentCell`).
    field_types: BTreeMap<String, String>,
    /// Lock-typed fields: field name → (`Mutex` | `RwLock`), with the inner
    /// type's leading segment for guard-alias resolution.
    locks: BTreeMap<String, String>,
    /// Condvar-typed fields.
    condvars: BTreeSet<String>,
}

/// Per-method record: everything needed for the fixpoint and edge replay.
#[derive(Debug, Default, Clone)]
struct MethodInfo {
    /// Locks this method acquires directly (including transient sites).
    direct: BTreeSet<String>,
    /// Resolved calls: (callee `Type::method`, file, line, locks held).
    calls: Vec<(String, String, usize, Vec<String>)>,
    /// Nested acquisitions: (held, acquired, file, line).
    nested: Vec<(String, String, String, usize)>,
    /// Condvar waits: (held lock, condvar id, file, line).
    waits: Vec<(String, String, String, usize)>,
}

/// Strip line comments and string literals so pattern matches never fire
/// inside `expect("...")` messages or doc text. Char literals with braces
/// (`'{'`) are blanked too, keeping the brace-depth count honest.
fn sanitize(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '/' if chars.peek() == Some(&'/') => break,
            '\'' => {
                // Char literal (incl. '\\'' and '{') vs lifetime: a literal
                // closes within three chars.
                let mut look = chars.clone();
                let first = look.next();
                let second = look.next();
                let third = look.next();
                let is_char = matches!(
                    (first, second, third),
                    (Some('\\'), _, Some('\'')) | (Some(_), Some('\''), _)
                );
                if is_char {
                    for n in chars.by_ref() {
                        if n == '\'' {
                            break;
                        }
                    }
                    out.push_str("' '");
                } else {
                    out.push(c); // lifetime tick
                }
            }
            _ => out.push(c),
        }
    }
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// First path segment of a type string: `av_engine::ExecCache` → `ExecCache`
/// (last segment, actually — the one that names the type), `Vec<ExecCache>`
/// → `Vec`.
fn type_head(ty: &str) -> String {
    let ty = ty.trim();
    let base: &str = match ty.find('<') {
        Some(i) => &ty[..i],
        None => ty,
    };
    base.rsplit("::")
        .next()
        .unwrap_or(base)
        .trim()
        .trim_end_matches(',')
        .to_string()
}

/// Inner type of `Mutex<T>` / `RwLock<T>`, as a head segment.
fn generic_inner(ty: &str) -> String {
    match (ty.find('<'), ty.rfind('>')) {
        (Some(a), Some(b)) if b > a => type_head(&ty[a + 1..b]),
        _ => String::new(),
    }
}

/// The identifier immediately before `pos` in `line`, if any.
fn ident_before(line: &str, pos: usize) -> Option<&str> {
    let head = &line[..pos];
    let start = head
        .char_indices()
        .rev()
        .take_while(|&(_, c)| is_ident_char(c))
        .last()
        .map(|(i, _)| i)?;
    let id = &head[start..pos];
    id.chars().next().filter(|c| !c.is_numeric())?;
    Some(id)
}

/// Split a struct-body segment on top-level commas (commas inside `<..>` or
/// `(..)` stay with their type) and record each `name: Type` field.
fn parse_fields(segment: &str, info: &mut StructInfo) {
    let mut nest = 0i32;
    let mut part = String::new();
    let mut parts: Vec<String> = Vec::new();
    for c in segment.chars() {
        match c {
            '<' | '(' | '[' => {
                nest += 1;
                part.push(c);
            }
            '>' | ')' | ']' => {
                nest -= 1;
                part.push(c);
            }
            ',' if nest == 0 => {
                parts.push(std::mem::take(&mut part));
            }
            '}' if nest == 0 => break,
            _ => part.push(c),
        }
    }
    parts.push(part);
    for p in parts {
        let p = p.trim();
        let p = p
            .strip_prefix("pub(crate) ")
            .or_else(|| p.strip_prefix("pub(super) "))
            .or_else(|| p.strip_prefix("pub "))
            .unwrap_or(p);
        let Some((field, ty)) = p.split_once(':') else {
            continue;
        };
        let field: String = field
            .trim()
            .chars()
            .take_while(|&c| is_ident_char(c))
            .collect();
        let ty = ty.trim();
        if field.is_empty() || ty.is_empty() {
            continue;
        }
        let head = type_head(ty);
        match head.as_str() {
            "Mutex" | "RwLock" => {
                info.locks.insert(field.clone(), generic_inner(ty));
            }
            "Condvar" => {
                info.condvars.insert(field.clone());
            }
            _ => {}
        }
        // A `Vec<T>` field is typed by its elements, so an indexed call
        // (`self.shards[i].lookup(..)`) resolves to `T::lookup`.
        let head = if head == "Vec" { generic_inner(ty) } else { head };
        info.field_types.insert(field, head);
    }
}

fn collect_structs(files: &[(String, String)]) -> BTreeMap<String, StructInfo> {
    let mut out: BTreeMap<String, StructInfo> = BTreeMap::new();
    for (_, src) in files {
        let mut current: Option<(String, usize)> = None; // (struct, depth at `{`)
        let mut depth = 0usize;
        for raw in src.lines() {
            let line = sanitize(raw);
            let t = line.trim();
            if current.is_none() {
                if let Some(rest) = t
                    .strip_prefix("pub struct ")
                    .or_else(|| t.strip_prefix("struct "))
                    .or_else(|| t.strip_prefix("pub(crate) struct "))
                {
                    let name: String = rest
                        .chars()
                        .take_while(|&c| is_ident_char(c))
                        .collect();
                    if !name.is_empty() && !rest.contains(';') {
                        let info = out.entry(name.clone()).or_default();
                        // Fields declared on the `struct` line itself
                        // (single-line structs) parse immediately.
                        if let Some(body_start) = rest.find('{') {
                            parse_fields(&rest[body_start + 1..], info);
                        }
                        // Only stay "inside" the struct if the line leaves
                        // its brace open.
                        let opens = rest.matches('{').count();
                        let closes = rest.matches('}').count();
                        if opens > closes {
                            current = Some((name, depth));
                        }
                    }
                }
            } else if let Some((name, _)) = current.clone() {
                let info = out.entry(name).or_default();
                parse_fields(t, info);
            }
            for c in line.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if let Some((_, at)) = &current {
                            if depth <= *at {
                                current = None;
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

/// All `Type::method` names, so call resolution only binds to methods that
/// exist (anything else — std, foreign crates — is ignored).
fn collect_method_names(files: &[(String, String)]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (_, src) in files {
        let mut impl_ty: Option<(String, usize)> = None;
        let mut depth = 0usize;
        for raw in src.lines() {
            let line = sanitize(raw);
            let t = line.trim();
            if impl_ty.is_none() {
                if let Some(name) = impl_target(t) {
                    impl_ty = Some((name, depth));
                }
            } else if let Some((ty, _)) = &impl_ty {
                if let Some(m) = fn_name(t) {
                    out.insert(format!("{ty}::{m}"));
                }
            }
            for c in line.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if let Some((_, at)) = &impl_ty {
                            if depth <= *at {
                                impl_ty = None;
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

/// `impl Foo {` / `impl<'a> Foo<'a> {` / `impl Trait for Foo {` → `Foo`.
fn impl_target(t: &str) -> Option<String> {
    let rest = t.strip_prefix("impl")?;
    let rest = rest.trim_start_matches(['<', '\'']).trim();
    // Skip a generics list if present: impl<...> Target
    let rest = if let Some(stripped) = t.strip_prefix("impl<") {
        let close = stripped.find('>')?;
        stripped[close + 1..].trim()
    } else {
        rest
    };
    let rest = match rest.find(" for ") {
        Some(i) => rest[i + 5..].trim(),
        None => rest,
    };
    let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
    (!name.is_empty()).then_some(name)
}

/// `fn name(` / `pub fn name<..>(` → `name`.
fn fn_name(t: &str) -> Option<String> {
    let idx = t.find("fn ")?;
    if idx > 0 {
        let before = t.as_bytes()[idx - 1] as char;
        if is_ident_char(before) {
            return None;
        }
    }
    // Only definitions at statement start (pub fn, fn, const fn...), not
    // closures or strings.
    // The last qualifier is spelled split so the determinism lint's
    // unsafe-scope scan does not flag this keyword table as an unsafe site.
    let head = t[..idx].trim();
    if !head.is_empty()
        && !head.split_whitespace().all(|w| {
            matches!(w, "pub" | "pub(crate)" | "pub(super)" | "const" | "async" | "extern")
                || w == concat!("uns", "afe")
        })
    {
        return None;
    }
    let rest = &t[idx + 3..];
    let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
    (!name.is_empty() && rest[name.len()..].starts_with(['(', '<'])).then_some(name)
}

// ---------------------------------------------------------------------------
// Pass 2: per-method event extraction with guard liveness.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Guard {
    lock: String,
    /// Brace depth at binding; the guard dies when depth drops below this.
    depth: usize,
    /// Inner type head of the locked value, for alias resolution.
    inner: String,
    /// Local names that deref this guard (`let planner = &mut *guard;`).
    aliases: Vec<String>,
}

fn collect_methods(
    files: &[(String, String)],
    structs: &BTreeMap<String, StructInfo>,
    known_methods: &BTreeSet<String>,
) -> BTreeMap<String, MethodInfo> {
    let mut out: BTreeMap<String, MethodInfo> = BTreeMap::new();
    for (file, src) in files {
        let mut impl_ty: Option<(String, usize)> = None;
        let mut method: Option<(String, usize)> = None;
        let mut guards: BTreeMap<String, Guard> = BTreeMap::new();
        let mut graveyard: BTreeMap<String, Guard> = BTreeMap::new();
        let mut depth = 0usize;
        let mut in_tests = false;
        for (ln, raw) in src.lines().enumerate() {
            if raw.trim_start().starts_with("#[cfg(test)]") {
                in_tests = true;
            }
            if in_tests {
                continue;
            }
            let line = sanitize(raw);
            let t = line.trim();
            if impl_ty.is_none() {
                if let Some(name) = impl_target(t) {
                    impl_ty = Some((name, depth));
                }
            } else if method.is_none() {
                if let (Some((ty, _)), Some(m)) = (&impl_ty, fn_name(t)) {
                    method = Some((format!("{ty}::{m}"), depth));
                    guards.clear();
                    graveyard.clear();
                }
            }
            if let (Some((ty, _)), Some((mname, _))) = (&impl_ty, &method) {
                scan_method_line(
                    &line,
                    file,
                    ln + 1,
                    ty,
                    mname,
                    depth,
                    structs,
                    known_methods,
                    &mut guards,
                    &mut graveyard,
                    &mut out,
                );
            }
            for c in line.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth = depth.saturating_sub(1);
                        guards.retain(|_, g| g.depth <= depth);
                        if let Some((_, at)) = &method {
                            if depth <= *at {
                                method = None;
                                guards.clear();
                                graveyard.clear();
                            }
                        }
                        if let Some((_, at)) = &impl_ty {
                            if depth <= *at {
                                impl_ty = None;
                                method = None;
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

/// Scan one sanitized line inside a method body: guard bindings and deaths,
/// acquisitions, condvar waits, and resolvable calls.
#[allow(clippy::too_many_arguments)]
fn scan_method_line(
    line: &str,
    file: &str,
    lineno: usize,
    impl_ty: &str,
    method: &str,
    depth: usize,
    structs: &BTreeMap<String, StructInfo>,
    known_methods: &BTreeSet<String>,
    guards: &mut BTreeMap<String, Guard>,
    graveyard: &mut BTreeMap<String, Guard>,
    out: &mut BTreeMap<String, MethodInfo>,
) {
    let t = line.trim();
    let info = out.entry(method.to_string()).or_default();
    let self_info = structs.get(impl_ty);

    // drop(guard) ends liveness. The guard moves to the graveyard so a
    // later `g = self.cv.wait(g)` (drop on an early-return path, wait on
    // the fallthrough — a blocking queue's `pop` shape) still resolves.
    if let Some(rest) = t.strip_prefix("drop(") {
        let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
        if let Some(g) = guards.remove(&name) {
            graveyard.insert(name, g);
        }
    }

    // Guard alias: `let planner = &mut *guard;` / `let p = &*guard;`.
    if let Some(rest) = t.strip_prefix("let ") {
        let rest = rest.trim_start_matches("mut ");
        if let Some((name_part, rhs)) = rest.split_once('=') {
            let name: String = name_part
                .trim()
                .chars()
                .take_while(|&c| is_ident_char(c))
                .collect();
            let rhs = rhs.trim();
            let deref = rhs
                .strip_prefix("&mut *")
                .or_else(|| rhs.strip_prefix("&*"));
            if let Some(target) = deref {
                let gname: String =
                    target.chars().take_while(|&c| is_ident_char(c)).collect();
                if let Some(g) = guards.get_mut(&gname) {
                    g.aliases.push(name);
                }
            }
        }
    }

    // Acquisitions: `<recv>.<field>.lock()` / `.read()` / `.write()` where
    // recv is `self` or a guard alias, and field is a lock on recv's type.
    for pat in [".lock()", ".read()", ".write()"] {
        let mut from = 0;
        while let Some(rel) = line[from..].find(pat) {
            let pos = from + rel;
            from = pos + pat.len();
            let Some((lock, inner)) = resolve_lock_access(line, pos, impl_ty, guards, structs)
            else {
                continue;
            };
            info.direct.insert(lock.clone());
            for g in guards.values() {
                if g.lock != lock {
                    info.nested.push((
                        g.lock.clone(),
                        lock.clone(),
                        file.to_string(),
                        lineno,
                    ));
                }
            }
            // Bound guard? `let g = ...` or a rebinding `g = ...` at line
            // start. Anything else is a transient acquisition.
            let head = t;
            let bound: Option<String> = if let Some(rest) = head.strip_prefix("let ") {
                let rest = rest.trim_start_matches("mut ");
                let name: String =
                    rest.chars().take_while(|&c| is_ident_char(c)).collect();
                (!name.is_empty()).then_some(name)
            } else if let Some((lhs, _)) = head.split_once('=') {
                let name = lhs.trim();
                (!name.is_empty() && name.chars().all(is_ident_char)).then(|| name.to_string())
            } else {
                None
            };
            if let Some(name) = bound {
                guards.insert(
                    name,
                    Guard {
                        lock,
                        depth,
                        inner,
                        aliases: Vec::new(),
                    },
                );
            }
        }
    }

    // Condvar waits: `<g> = self.<cv>.wait(<g>)` — the guard stays live
    // (wait returns it); record the informational edge.
    for pat in [".wait(", ".wait_while("] {
        let mut from = 0;
        while let Some(rel) = line[from..].find(pat) {
            let pos = from + rel;
            from = pos + pat.len();
            let Some(field) = ident_before(line, pos) else { continue };
            let Some(sinfo) = self_info else { continue };
            if !sinfo.condvars.contains(field) {
                continue;
            }
            let cv = format!("{impl_ty}.{field}");
            let arg_start = pos + pat.len();
            let arg: String = line[arg_start..]
                .chars()
                .take_while(|&c| is_ident_char(c))
                .collect();
            if let Some(g) = guards.get(&arg) {
                info.waits
                    .push((g.lock.clone(), cv, file.to_string(), lineno));
            } else if let Some(g) = graveyard.remove(&arg) {
                // Wait returns the guard: resurrect it live.
                info.waits
                    .push((g.lock.clone(), cv, file.to_string(), lineno));
                guards.insert(arg, g);
            }
        }
    }

    // Resolvable method calls: `self.m(`, `self.field.m(`, `alias.m(`,
    // `alias.field.m(` — record with the currently held locks.
    let held: Vec<String> = guards.values().map(|g| g.lock.clone()).collect();
    for (callee, _col) in resolve_calls(line, impl_ty, guards, structs, known_methods) {
        info.calls
            .push((callee, file.to_string(), lineno, held.clone()));
    }
}

/// Resolve `<recv-chain>.lock()`-style access ending at `pos` (the dot of
/// the pattern): returns the lock id `Struct.field` and the inner type head.
fn resolve_lock_access(
    line: &str,
    pos: usize,
    impl_ty: &str,
    guards: &BTreeMap<String, Guard>,
    structs: &BTreeMap<String, StructInfo>,
) -> Option<(String, String)> {
    let field = ident_before(line, pos)?;
    let dot = pos.checked_sub(field.len() + 1)?;
    if line.as_bytes().get(dot) != Some(&b'.') {
        return None;
    }
    let recv = ident_before(line, dot)?;
    let owner_ty: &str = if recv == "self" {
        impl_ty
    } else if let Some(g) = find_guard_by_alias(guards, recv) {
        &g.inner
    } else {
        return None;
    };
    let sinfo = structs.get(owner_ty)?;
    let inner = sinfo.locks.get(field)?;
    Some((format!("{owner_ty}.{field}"), inner.clone()))
}

fn find_guard_by_alias<'g>(
    guards: &'g BTreeMap<String, Guard>,
    name: &str,
) -> Option<&'g Guard> {
    guards
        .get(name)
        .or_else(|| guards.values().find(|g| g.aliases.iter().any(|a| a == name)))
}

/// Calls on `self`, on `self`'s typed fields, on guard aliases, and on
/// aliases' typed fields, resolved against the known-method inventory.
fn resolve_calls(
    line: &str,
    impl_ty: &str,
    guards: &BTreeMap<String, Guard>,
    structs: &BTreeMap<String, StructInfo>,
    known_methods: &BTreeSet<String>,
) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'(' {
            i += 1;
            continue;
        }
        let Some(m) = ident_before(line, i) else {
            i += 1;
            continue;
        };
        let m_start = i - m.len();
        let Some(dot1) = m_start.checked_sub(1).filter(|&d| bytes[d] == b'.') else {
            i += 1;
            continue;
        };
        // Look through one index expression: `<seg1>[..].<m>(`.
        let seg1_end = match bytes[..dot1].last() {
            Some(b']') => line[..dot1].rfind('[').unwrap_or(dot1),
            _ => dot1,
        };
        let Some(seg1) = ident_before(line, seg1_end) else {
            i += 1;
            continue;
        };
        let seg1_start = seg1_end - seg1.len();
        // Two-segment receiver? `<recv>.<seg1>.<m>(`
        let recv2 = seg1_start
            .checked_sub(1)
            .filter(|&d| bytes[d] == b'.')
            .and_then(|d| ident_before(line, d).map(|r| (r, d)));

        let target_ty: Option<String> = if let Some((recv, _)) = recv2 {
            // recv.seg1.m( — seg1 is a field of recv's type.
            let owner: Option<&str> = if recv == "self" {
                Some(impl_ty)
            } else {
                find_guard_by_alias(guards, recv).map(|g| g.inner.as_str())
            };
            owner
                .and_then(|o| structs.get(o))
                .and_then(|s| s.field_types.get(seg1))
                .cloned()
        } else if seg1 == "self" {
            Some(impl_ty.to_string())
        } else {
            find_guard_by_alias(guards, seg1).map(|g| g.inner.clone())
        };

        if let Some(ty) = target_ty {
            let callee = format!("{ty}::{m}");
            if known_methods.contains(&callee) {
                out.push((callee, i));
            }
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// Fixpoint + graph assembly.
// ---------------------------------------------------------------------------

/// Analyze a set of (repo-relative path, source) pairs.
pub fn analyze_sources(files: &[(String, String)]) -> LockOrderReport {
    let structs = collect_structs(files);
    let known_methods = collect_method_names(files);
    let methods = collect_methods(files, &structs, &known_methods);

    // Transitive acquired sets: direct ∪ callees', to fixpoint.
    let mut acquired: BTreeMap<String, BTreeSet<String>> = methods
        .iter()
        .map(|(m, info)| (m.clone(), info.direct.clone()))
        .collect();
    loop {
        let mut changed = false;
        for (m, info) in &methods {
            let mut add = BTreeSet::new();
            for (callee, _, _, _) in &info.calls {
                if let Some(set) = acquired.get(callee) {
                    add.extend(set.iter().cloned());
                }
            }
            let set = acquired.entry(m.clone()).or_default();
            for l in add {
                changed |= set.insert(l);
            }
        }
        if !changed {
            break;
        }
    }

    // Edges: nested acquisitions + holder → everything a resolved callee
    // transitively acquires.
    let mut edge_map: BTreeMap<(String, String, bool), (String, usize)> = BTreeMap::new();
    let mut add_edge = |from: &str, to: &str, dashed: bool, file: &str, line: usize| {
        edge_map
            .entry((from.to_string(), to.to_string(), dashed))
            .or_insert_with(|| (file.to_string(), line));
    };
    for info in methods.values() {
        for (held, acq, file, line) in &info.nested {
            add_edge(held, acq, false, file, *line);
        }
        for (held, cv, file, line) in &info.waits {
            add_edge(held, cv, true, file, *line);
        }
        for (callee, file, line, held) in &info.calls {
            if held.is_empty() {
                continue;
            }
            if let Some(set) = acquired.get(callee) {
                for h in held {
                    for a in set {
                        if a != h {
                            add_edge(h, a, false, file, *line);
                        } else {
                            // Re-acquiring a held lock through a call is a
                            // guaranteed self-deadlock: keep the self-edge
                            // so the cycle check reports it.
                            add_edge(h, a, false, file, *line);
                        }
                    }
                }
            }
        }
    }

    let mut locks: BTreeSet<String> = BTreeSet::new();
    for (s, info) in &structs {
        for f in info.locks.keys() {
            locks.insert(format!("{s}.{f}"));
        }
        for f in &info.condvars {
            locks.insert(format!("{s}.{f}"));
        }
    }
    let edges: Vec<LockEdge> = edge_map
        .into_iter()
        .map(|((from, to, dashed), (file, line))| LockEdge {
            from,
            to,
            file,
            line,
            dashed,
        })
        .collect();

    let mut findings = Vec::new();

    // Cycle detection over solid edges (colored DFS, deterministic order).
    let solid: BTreeMap<&str, Vec<&LockEdge>> = {
        let mut m: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
        for e in edges.iter().filter(|e| !e.dashed) {
            m.entry(e.from.as_str()).or_default().push(e);
        }
        m
    };
    let mut color: BTreeMap<&str, u8> = BTreeMap::new(); // 0 white, 1 grey, 2 black
    let mut stack: Vec<&str> = Vec::new();
    fn dfs<'a>(
        n: &'a str,
        solid: &BTreeMap<&'a str, Vec<&'a LockEdge>>,
        color: &mut BTreeMap<&'a str, u8>,
        stack: &mut Vec<&'a str>,
        findings: &mut Vec<LintFinding>,
    ) {
        color.insert(n, 1);
        stack.push(n);
        for e in solid.get(n).into_iter().flatten() {
            match color.get(e.to.as_str()).copied().unwrap_or(0) {
                0 => dfs(e.to.as_str(), solid, color, stack, findings),
                1 => {
                    let from = stack
                        .iter()
                        .position(|&s| s == e.to.as_str())
                        .unwrap_or(0);
                    let mut cycle: Vec<&str> = stack[from..].to_vec();
                    cycle.push(e.to.as_str());
                    findings.push(LintFinding {
                        file: e.file.clone(),
                        line: e.line,
                        rule: "lock-cycle",
                        message: format!(
                            "lock acquisition cycle: {} — two threads taking these \
                             locks in different orders can deadlock",
                            cycle.join(" -> ")
                        ),
                    });
                }
                _ => {}
            }
        }
        stack.pop();
        color.insert(n, 2);
    }
    let roots: Vec<&str> = solid.keys().copied().collect();
    for n in roots {
        if color.get(n).copied().unwrap_or(0) == 0 {
            dfs(n, &solid, &mut color, &mut stack, &mut findings);
        }
    }

    // Boundary rule: edges touching the coordination locks must be audited.
    for e in edges.iter().filter(|e| !e.dashed) {
        let touches = BOUNDARY_LOCKS.contains(&e.from.as_str())
            || BOUNDARY_LOCKS.contains(&e.to.as_str());
        let allowed = ALLOWED_EDGES
            .iter()
            .any(|(f, t)| *f == e.from && *t == e.to);
        if touches && !allowed {
            findings.push(LintFinding {
                file: e.file.clone(),
                line: e.line,
                rule: "lock-boundary",
                message: format!(
                    "`{}` held across acquisition of `{}` crosses the planner/\
                     deployment boundary and is not on the audited allowlist \
                     (ALLOWED_EDGES in lockorder.rs); restructure to release \
                     first, or audit the edge in review",
                    e.from, e.to
                ),
            });
        }
    }

    LockOrderReport {
        locks: locks.into_iter().collect(),
        edges,
        findings,
    }
}

/// Analyze the `src/` trees of the given crates under `root`.
pub fn analyze_repo(root: &Path, crate_names: &[&str]) -> io::Result<LockOrderReport> {
    let mut files: Vec<(String, String)> = Vec::new();
    for name in crate_names {
        let src_dir = root.join("crates").join(name).join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut paths: Vec<PathBuf> = Vec::new();
        walk(&src_dir, &mut paths)?;
        for p in paths {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            files.push((rel, fs::read_to_string(&p)?));
        }
    }
    Ok(analyze_sources(&files))
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> LockOrderReport {
        analyze_sources(&[("x.rs".to_string(), src.to_string())])
    }

    #[test]
    fn extracts_lock_fields() {
        let r = analyze(
            "struct S { a: Mutex<u32>, b: RwLock<String>, cv: Condvar, plain: u32 }\n",
        );
        assert_eq!(r.locks, vec!["S.a", "S.b", "S.cv"]);
    }

    #[test]
    fn nested_acquisition_makes_an_edge() {
        let src = "\
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn f(&self) {
        let ga = self.a.lock().expect(\"a\");
        let gb = self.b.lock().expect(\"b\");
        use_both(ga, gb);
    }
}
";
        let r = analyze(src);
        assert_eq!(r.edges.len(), 1);
        assert_eq!(r.edges[0].from, "S.a");
        assert_eq!(r.edges[0].to, "S.b");
        assert_eq!(r.edges[0].line, 5);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn injected_inverted_pair_is_flagged_as_cycle() {
        let src = "\
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn one(&self) {
        let ga = self.a.lock().expect(\"a\");
        let gb = self.b.lock().expect(\"b\");
        touch(ga, gb);
    }
    fn two(&self) {
        let gb = self.b.lock().expect(\"b\");
        let ga = self.a.lock().expect(\"a\");
        touch(ga, gb);
    }
}
";
        let r = analyze(src);
        assert_eq!(r.edges.len(), 2);
        assert!(
            r.findings.iter().any(|f| f.rule == "lock-cycle"),
            "inverted acquisition order must be reported: {:?}",
            r.findings
        );
    }

    #[test]
    fn dropped_guard_does_not_order_locks() {
        let src = "\
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn f(&self) {
        let ga = self.a.lock().expect(\"a\");
        use_it(ga);
        drop(ga);
        let gb = self.b.lock().expect(\"b\");
        use_it(gb);
    }
}
";
        let r = analyze(src);
        assert!(r.edges.is_empty(), "{:?}", r.edges);
    }

    #[test]
    fn block_scoped_guard_dies_at_brace() {
        let src = "\
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn f(&self) {
        {
            let ga = self.a.lock().expect(\"a\");
            use_it(ga);
        }
        let gb = self.b.lock().expect(\"b\");
        use_it(gb);
    }
}
";
        let r = analyze(src);
        assert!(r.edges.is_empty(), "{:?}", r.edges);
    }

    #[test]
    fn reacquire_after_drop_is_not_a_self_cycle() {
        // Acquire, drop, compute, reacquire the same lock.
        let src = "\
struct S { state: Mutex<u32> }
impl S {
    fn f(&self) {
        let mut state = self.state.lock().expect(\"s\");
        drop(state);
        compute();
        state = self.state.lock().expect(\"s\");
        use_it(state);
    }
}
";
        let r = analyze(src);
        assert!(r.edges.is_empty(), "{:?}", r.edges);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn call_while_held_takes_callee_acquisitions() {
        let src = "\
struct Inner { l: Mutex<u32> }
impl Inner {
    fn poke(&self) {
        self.l.lock().expect(\"l\").clone();
    }
}
struct Outer { m: Mutex<u32>, inner: Inner }
impl Outer {
    fn f(&self) {
        let g = self.m.lock().expect(\"m\");
        self.inner.poke();
        use_it(g);
    }
}
";
        let r = analyze(src);
        assert_eq!(r.edges.len(), 1, "{:?}", r.edges);
        assert_eq!(r.edges[0].from, "Outer.m");
        assert_eq!(r.edges[0].to, "Inner.l");
    }

    #[test]
    fn guard_alias_resolves_inner_type_calls() {
        // The ViewServer::reoptimize shape: lock the planner, deref-alias
        // the guard, call through an inner field.
        let src = "\
struct Dry { state: Mutex<u32> }
impl Dry {
    fn cost(&self) {
        self.state.lock().expect(\"s\").clone();
    }
}
struct Planner { dryrun: Dry }
struct Server { planner: Mutex<Planner> }
impl Server {
    fn reopt(&self) {
        let mut guard = self.planner.lock().expect(\"p\");
        let planner = &mut *guard;
        planner.dryrun.cost();
    }
}
";
        let r = analyze(src);
        assert_eq!(r.edges.len(), 1, "{:?}", r.edges);
        assert_eq!(r.edges[0].from, "Server.planner");
        assert_eq!(r.edges[0].to, "Dry.state");
    }

    #[test]
    fn indexed_vec_field_resolves_element_type_calls() {
        let r = analyze(
            r#"
struct Shard { state: Mutex<u32> }
impl Shard {
    fn poke(&self) {
        *self.state.lock().unwrap() += 1;
    }
}
struct Cache { gate: Mutex<()>, shards: Vec<Shard> }
impl Cache {
    fn f(&self, i: usize) {
        let g = self.gate.lock().unwrap();
        self.shards[i % 4].poke();
        drop(g);
    }
}
"#,
        );
        assert_eq!(r.edges.len(), 1, "{:?}", r.edges);
        assert_eq!(r.edges[0].from, "Cache.gate");
        assert_eq!(r.edges[0].to, "Shard.state");
    }

    #[test]
    fn condvar_wait_is_dashed_not_cycle() {
        let src = "\
struct S { state: Mutex<u32>, freed: Condvar }
impl S {
    fn f(&self) {
        let mut state = self.state.lock().expect(\"s\");
        while busy(&state) {
            state = self.freed.wait(state).expect(\"s\");
        }
    }
}
";
        let r = analyze(src);
        assert_eq!(r.edges.len(), 1, "{:?}", r.edges);
        assert!(r.edges[0].dashed);
        assert_eq!(r.edges[0].from, "S.state");
        assert_eq!(r.edges[0].to, "S.freed");
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn boundary_edge_off_allowlist_is_flagged() {
        let src = "\
struct DeploymentCell { current: RwLock<u32> }
impl DeploymentCell {
    fn swap(&self) {
        let mut slot = self.current.write().expect(\"c\");
        use_it(slot);
    }
}
struct Rogue { own: Mutex<u32>, cell: DeploymentCell }
impl Rogue {
    fn f(&self) {
        let g = self.own.lock().expect(\"o\");
        self.cell.swap();
        use_it(g);
    }
}
";
        let r = analyze(src);
        assert!(
            r.findings.iter().any(|f| f.rule == "lock-boundary"),
            "unaudited edge into DeploymentCell.current must be flagged: {:?}",
            r.findings
        );
    }

    #[test]
    fn allowlisted_boundary_edge_is_clean() {
        let src = "\
struct DeploymentCell { current: RwLock<u32> }
impl DeploymentCell {
    fn swap(&self) {
        let mut slot = self.current.write().expect(\"c\");
        use_it(slot);
    }
}
struct Planner { x: u32 }
struct ViewServer { planner: Mutex<Planner>, cell: DeploymentCell }
impl ViewServer {
    fn publish(&self) {
        let g = self.planner.lock().expect(\"p\");
        self.cell.swap();
        use_it(g);
    }
}
";
        let r = analyze(src);
        assert!(
            r.findings.is_empty(),
            "allowlisted planner→cell edge must pass: {:?}",
            r.findings
        );
        assert_eq!(r.edges.len(), 1);
    }

    #[test]
    fn strings_and_comments_do_not_confuse_the_scanner() {
        let src = "\
struct S { a: Mutex<u32> }
impl S {
    fn f(&self) {
        // let g = self.a.lock() — just prose
        let msg = \"self.a.lock() inside a string {\";
        use_it(msg);
    }
}
";
        let r = analyze(src);
        assert!(r.edges.is_empty());
        assert!(r.findings.is_empty());
    }

    #[test]
    fn dot_renders_nodes_and_edges() {
        let src = "\
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn f(&self) {
        let ga = self.a.lock().expect(\"a\");
        let gb = self.b.lock().expect(\"b\");
        use_both(ga, gb);
    }
}
";
        let dot = analyze(src).to_dot();
        assert!(dot.starts_with("digraph lockorder {"));
        assert!(dot.contains("\"S.a\" -> \"S.b\""));
        assert!(dot.contains("x.rs:5"));
    }

    #[test]
    fn repo_lock_graph_is_cycle_free_and_audited() {
        // The real gate, unit-sized: the workspace's own lock graph must
        // stay cycle-free with every boundary edge audited.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("repo root");
        let r = analyze_repo(root, &LOCK_CRATES).expect("scan repo");
        assert!(
            !r.locks.is_empty(),
            "scanner must find the serve/engine lock fields"
        );
        assert!(
            r.edges.iter().any(|e| e.from == "ViewServer.planner"),
            "planner edges must be discovered: {:?}",
            r.edges
        );
        assert!(
            r.findings.is_empty(),
            "repo lock graph has findings: {:#?}",
            r.findings
        );
    }
}
