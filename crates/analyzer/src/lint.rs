//! The repo-specific lint rules, built on the token stream from [`crate::lexer`].
//!
//! Three rules, each encoding an invariant this codebase has been bitten by (or is
//! one preemption away from being bitten by):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-panic` | library error paths return typed errors; `unwrap`/`expect`/`panic!` in non-test library code turn a recoverable fault into a dead rank |
//! | `no-wall-clock` | deterministic simulator paths (`net-sim`, any `chaos.rs`) read time only through the approved clock module, so seeded chaos schedules replay exactly |
//! | `guard-across-blocking` | a `parking_lot` guard is never held across a blocking fabric call (`send`/`wait`/condvar park) — the lock-order half of PR 7's parked-waiter bug |
//! | `no-payload-copy` | message payloads in the fabric/engine hot paths travel as `PayloadBuf` refcounts; `.clone()`/`.to_vec()` on a payload-named value reintroduces a per-hop byte copy |
//!
//! Plus one meta rule, `allow-without-reason`: every allow-annotation must carry
//! a `: reason` suffix, and an annotation without one suppresses nothing.
//!
//! Exemptions: files under `tests/`, `examples/`, `benches/`, files named
//! `tests.rs`, and `#[cfg(test)]`-gated blocks are not library error paths and are
//! skipped entirely.

use crate::lexer::{lex, Token, TokenKind};
use std::fmt;
use std::path::Path;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (stable, used in `allow(...)` annotations).
    pub rule: &'static str,
    /// Human-readable description of the finding.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Static description of one rule, for `analyzer rules` output and the docs table.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule name as used in `allow(...)`.
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every rule the engine knows.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-panic",
        summary: "no unwrap/expect/panic!/unreachable!/todo!/unimplemented! in \
                  non-test library code (typed error propagation instead)",
    },
    RuleInfo {
        name: "no-wall-clock",
        summary: "no Instant::now/SystemTime::now/thread::sleep in deterministic \
                  sim paths (net-sim, chaos.rs) outside the approved clock module",
    },
    RuleInfo {
        name: "guard-across-blocking",
        summary: "no lock guard held across a blocking fabric call \
                  (send/recv/wait/collective_exchange/condvar park/sleep)",
    },
    RuleInfo {
        name: "no-payload-copy",
        summary: "no .clone()/.to_vec() on payload-typed values (payload/envelope/\
                  contribution) in the net-sim/mpi-engine hot paths — share the \
                  PayloadBuf refcount instead",
    },
    RuleInfo {
        name: "allow-without-reason",
        summary: "every analyzer: allow(...) annotation must state a `: reason`",
    },
];

const NO_PANIC: &str = "no-panic";
const NO_WALL_CLOCK: &str = "no-wall-clock";
const GUARD_ACROSS_BLOCKING: &str = "guard-across-blocking";
const NO_PAYLOAD_COPY: &str = "no-payload-copy";
const ALLOW_WITHOUT_REASON: &str = "allow-without-reason";

/// Panicking constructs flagged by `no-panic`: method-call forms.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
/// Panicking constructs flagged by `no-panic`: macro forms.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Calls `guard-across-blocking` considers blocking: fabric p2p and collective
/// entry points, condvar parks, flusher waits, and sleeps.
const BLOCKING_CALLS: &[&str] = &[
    "send",
    "recv",
    "recv_blocking",
    "collective_exchange",
    "wait",
    "wait_for",
    "wait_timeout",
    "wait_idle",
    "sleep",
    "park",
];

/// Guard-producing method names on `parking_lot` lock types.
const GUARD_METHODS: &[&str] = &["lock", "read", "write"];

/// Identifiers `no-payload-copy` treats as payload-typed in the hot paths: the
/// names the fabric and engine bind message bytes to. The heuristic is lexical on
/// purpose — these crates consistently use these names for `PayloadBuf` values, so
/// a copying method on one is a refcount hand-off turned back into a byte copy.
const PAYLOAD_IDENTS: &[&str] = &["payload", "payloads", "envelope", "contribution"];
/// Copying methods `no-payload-copy` flags on those identifiers.
const PAYLOAD_COPY_METHODS: &[&str] = &["clone", "to_vec"];

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

/// Whole-file test/bench/example exemption, by path convention.
fn is_test_like_path(rel: &str) -> bool {
    let rel = rel.replace('\\', "/");
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.ends_with("/tests.rs")
        || rel.starts_with("examples/")
        || rel.contains("/examples/")
        || rel.contains("/benches/")
}

/// Library source in scope for `no-panic` and `guard-across-blocking`: crate
/// `src/` trees plus the root crate, excluding the bench harness (a measurement
/// CLI whose loud failure *is* its error path) and the dependency shims (they
/// mirror external crates whose error model is fixed upstream — e.g.
/// `serde_derive` panics are how a proc macro reports malformed input at compile
/// time, exactly as the real crate does).
fn in_library_scope(rel: &str) -> bool {
    let rel = rel.replace('\\', "/");
    if rel.starts_with("crates/bench/") || rel.starts_with("crates/shims/") {
        return false;
    }
    (rel.starts_with("crates/") && rel.contains("/src/")) || rel.starts_with("src/")
}

/// Deterministic scope for `no-wall-clock`: all of `net-sim`, any file named
/// `chaos.rs` anywhere, and the files in [`WALL_CLOCK_FREE_FILES`], minus the
/// approved clock module (the single place the simulator is allowed to read real
/// time).
fn in_deterministic_scope(rel: &str) -> bool {
    let rel = rel.replace('\\', "/");
    if APPROVED_CLOCK_MODULES.contains(&rel.as_str()) {
        return false;
    }
    rel.starts_with("crates/net-sim/src/")
        || rel.ends_with("/chaos.rs")
        || WALL_CLOCK_FREE_FILES.contains(&rel.as_str())
}

/// Files outside the simulator held to `no-wall-clock`. The MANA wrappers wait for
/// a collective registration round by parking on the fabric's registration board,
/// which also owns the stall bound; a sleep or a wall-clock read there would put a
/// timer back on every collective's hot path.
pub const WALL_CLOCK_FREE_FILES: &[&str] = &["crates/mana/src/wrappers.rs"];

/// The modules allowed to touch the wall clock inside the deterministic scope.
pub const APPROVED_CLOCK_MODULES: &[&str] = &["crates/net-sim/src/clock.rs"];

/// Hot-path scope for `no-payload-copy`: the fabric (mailboxes, chaos lanes,
/// collective slots) and the engine (request tables, collective fan-out) — the
/// layers the zero-copy refactor converted to `PayloadBuf` hand-offs.
fn in_payload_hot_scope(rel: &str) -> bool {
    let rel = rel.replace('\\', "/");
    rel.starts_with("crates/net-sim/src/") || rel.starts_with("crates/mpi-engine/src/")
}

// ---------------------------------------------------------------------------
// cfg(test) block detection
// ---------------------------------------------------------------------------

/// Line ranges covered by `#[cfg(test)] { ... }` blocks (typically `mod tests`).
fn cfg_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // Find the block the attribute gates: first `{` before a `;`.
            let mut j = i + 7; // past `# [ cfg ( test ) ]`
            let mut found = None;
            while j < tokens.len() {
                match &tokens[j].kind {
                    TokenKind::Punct('{') => {
                        found = Some(j);
                        break;
                    }
                    TokenKind::Punct(';') => break, // `mod tests;` — out-of-line file
                    _ => j += 1,
                }
            }
            if let Some(open) = found {
                let start_line = tokens[i].line;
                let mut depth = 0usize;
                let mut k = open;
                while k < tokens.len() {
                    match &tokens[k].kind {
                        TokenKind::Punct('{') => depth += 1,
                        TokenKind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                let end_line = tokens.get(k).map(|t| t.line).unwrap_or(u32::MAX);
                ranges.push((start_line, end_line));
                i = k;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

/// Token-level match for `# [ cfg ( test ) ]` starting at `i`.
fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    let pat: &[TokenKind] = &[
        TokenKind::Punct('#'),
        TokenKind::Punct('['),
        TokenKind::Ident("cfg".into()),
        TokenKind::Punct('('),
        TokenKind::Ident("test".into()),
        TokenKind::Punct(')'),
        TokenKind::Punct(']'),
    ];
    tokens.len() >= i + pat.len() && tokens[i..i + pat.len()].iter().map(|t| &t.kind).eq(pat)
}

fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Lint one file's source, using its repo-relative path for scoping decisions.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Violation> {
    let lexed = lex(source);
    let mut violations = Vec::new();

    if is_test_like_path(rel_path) {
        return violations;
    }

    // An annotation without a reason is itself a finding — an unexplained
    // suppression is worse than none.
    for allow in &lexed.allows {
        if allow.reason.is_none() {
            violations.push(Violation {
                file: rel_path.to_string(),
                line: allow.line,
                rule: ALLOW_WITHOUT_REASON,
                message: format!(
                    "allow({}) has no `: reason` — state why the rule does not apply",
                    allow.rule
                ),
            });
        }
    }
    let test_ranges = cfg_test_ranges(&lexed.tokens);

    let mut candidates = Vec::new();
    if in_library_scope(rel_path) {
        check_no_panic(&lexed.tokens, &mut candidates);
        check_guard_across_blocking(&lexed.tokens, &mut candidates);
    }
    if in_deterministic_scope(rel_path) {
        check_wall_clock(&lexed.tokens, &mut candidates);
    }
    if in_payload_hot_scope(rel_path) {
        check_payload_copy(&lexed.tokens, &mut candidates);
    }

    for (line, rule, message) in candidates {
        if in_ranges(&test_ranges, line) {
            continue;
        }
        // An annotation only suppresses when it carries a reason; a reasonless one
        // was already reported above and suppresses nothing.
        if let Some(allow) = lexed.allowed(rule, line) {
            if allow.reason.is_some() {
                continue;
            }
        }
        violations.push(Violation {
            file: rel_path.to_string(),
            line,
            rule,
            message,
        });
    }
    violations.sort_by_key(|v| v.line);
    violations
}

/// `no-panic`: `.unwrap(` / `.expect(` method calls and `panic!`-family macros.
fn check_no_panic(tokens: &[Token], out: &mut Vec<(u32, &'static str, String)>) {
    for (i, tok) in tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &tok.kind else {
            continue;
        };
        if PANIC_METHODS.contains(&name.as_str())
            && i > 0
            && tokens[i - 1].kind == TokenKind::Punct('.')
            && matches!(
                tokens.get(i + 1).map(|t| &t.kind),
                Some(TokenKind::Punct('('))
            )
        {
            out.push((
                tok.line,
                NO_PANIC,
                format!(".{name}() panics on the error path — propagate a typed error instead"),
            ));
        }
        if PANIC_MACROS.contains(&name.as_str())
            && matches!(
                tokens.get(i + 1).map(|t| &t.kind),
                Some(TokenKind::Punct('!'))
            )
        {
            out.push((
                tok.line,
                NO_PANIC,
                format!("{name}! in library code — return a typed error instead"),
            ));
        }
    }
}

/// `no-wall-clock`: `Instant::now`, `SystemTime::now`, `thread::sleep`.
fn check_wall_clock(tokens: &[Token], out: &mut Vec<(u32, &'static str, String)>) {
    for (i, tok) in tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &tok.kind else {
            continue;
        };
        let followed_by = |offset: usize, want: &str| {
            matches!(
                tokens.get(i + offset).map(|t| &t.kind),
                Some(TokenKind::Ident(id)) if id == want
            )
        };
        let double_colon = |offset: usize| {
            tokens.get(i + offset).map(|t| &t.kind) == Some(&TokenKind::Punct(':'))
                && tokens.get(i + offset + 1).map(|t| &t.kind) == Some(&TokenKind::Punct(':'))
        };
        let call = match name.as_str() {
            "Instant" | "SystemTime" if double_colon(1) && followed_by(3, "now") => {
                format!("{name}::now()")
            }
            "thread" if double_colon(1) && followed_by(3, "sleep") => "thread::sleep".to_string(),
            _ => continue,
        };
        out.push((
            tok.line,
            NO_WALL_CLOCK,
            format!(
                "{call} in a deterministic sim path — route through net_sim::clock \
                 (approved module) so seeded schedules replay"
            ),
        ));
    }
}

/// `no-payload-copy`: a payload-named identifier followed by `.clone(` or
/// `.to_vec(` in the hot-path scope. Matches both `payload.clone()` and chained
/// forms like `envelope.payload.to_vec()` (the flagged ident is the receiver
/// immediately before the copying call).
fn check_payload_copy(tokens: &[Token], out: &mut Vec<(u32, &'static str, String)>) {
    for (i, tok) in tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &tok.kind else {
            continue;
        };
        if !PAYLOAD_IDENTS.contains(&name.as_str()) {
            continue;
        }
        // `NAME . METHOD (` with METHOD a copying call.
        if tokens.get(i + 1).map(|t| &t.kind) != Some(&TokenKind::Punct('.')) {
            continue;
        }
        let Some(TokenKind::Ident(method)) = tokens.get(i + 2).map(|t| &t.kind) else {
            continue;
        };
        if PAYLOAD_COPY_METHODS.contains(&method.as_str())
            && tokens.get(i + 3).map(|t| &t.kind) == Some(&TokenKind::Punct('('))
        {
            out.push((
                tok.line,
                NO_PAYLOAD_COPY,
                format!(
                    "`{name}.{method}()` on a payload-typed value in a zero-copy hot \
                     path — move the PayloadBuf instead (a deliberate refcount share \
                     belongs behind an allow with its reason stated)"
                ),
            ));
        }
    }
}

/// `guard-across-blocking`: token-level scope heuristic.
///
/// A guard is born by a statement of the shape `let [mut] NAME = ....lock();`
/// (or `.read()` / `.write()`) — the binding must *end* with the guard call, so
/// `let n = x.lock().len();` (temporary, dropped at the `;`) does not count. The
/// guard dies at `drop(NAME)` or at the end of its enclosing brace scope. Between
/// birth and death, any call to a known-blocking name flags the guard — unless the
/// guard itself is an argument of the call (the condvar-wait idiom, where the park
/// atomically releases the lock).
fn check_guard_across_blocking(tokens: &[Token], out: &mut Vec<(u32, &'static str, String)>) {
    struct LiveGuard {
        name: String,
        depth: usize,
        born_line: u32,
    }
    let mut depth = 0usize;
    let mut live: Vec<LiveGuard> = Vec::new();
    let mut pending: Option<LiveGuard> = None; // activates at the terminating `;`
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                live.retain(|g| g.depth <= depth);
            }
            TokenKind::Punct(';') => {
                if let Some(guard) = pending.take() {
                    live.push(guard);
                }
            }
            TokenKind::Ident(name) if name == "let" => {
                // `let [mut] NAME = <expr ending in .lock()/.read()/.write()> ;`
                let mut j = i + 1;
                if matches!(&tokens.get(j).map(|t| &t.kind), Some(TokenKind::Ident(id)) if id == "mut")
                {
                    j += 1;
                }
                let Some(TokenKind::Ident(bind_name)) = tokens.get(j).map(|t| &t.kind) else {
                    i += 1;
                    continue;
                };
                if tokens.get(j + 1).map(|t| &t.kind) != Some(&TokenKind::Punct('=')) {
                    i += 1;
                    continue;
                }
                // Find the terminating `;` at neutral nesting, checking the tail.
                let mut k = j + 2;
                let mut nest = 0i32;
                while k < tokens.len() {
                    match &tokens[k].kind {
                        TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => {
                            nest += 1
                        }
                        TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                            nest -= 1
                        }
                        TokenKind::Punct(';') if nest == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                // Tail pattern: ... `.` IDENT∈GUARD_METHODS `(` `)` `;`
                if k >= 4 {
                    let tail: Vec<&TokenKind> = tokens[k.saturating_sub(4)..k]
                        .iter()
                        .map(|t| &t.kind)
                        .collect();
                    if let [TokenKind::Punct('.'), TokenKind::Ident(m), TokenKind::Punct('('), TokenKind::Punct(')')] =
                        tail[..]
                    {
                        if GUARD_METHODS.contains(&m.as_str()) {
                            pending = Some(LiveGuard {
                                name: bind_name.clone(),
                                depth,
                                born_line: tokens[i].line,
                            });
                        }
                    }
                }
                // Fall through: the statement's inner tokens are still scanned for
                // blocking calls on subsequent iterations.
            }
            TokenKind::Ident(name) if name == "drop" => {
                // `drop ( NAME )` releases the guard early.
                if let (
                    Some(TokenKind::Punct('(')),
                    Some(TokenKind::Ident(dropped)),
                    Some(TokenKind::Punct(')')),
                ) = (
                    tokens.get(i + 1).map(|t| &t.kind),
                    tokens.get(i + 2).map(|t| &t.kind),
                    tokens.get(i + 3).map(|t| &t.kind),
                ) {
                    live.retain(|g| &g.name != dropped);
                }
            }
            TokenKind::Ident(name)
                if BLOCKING_CALLS.contains(&name.as_str())
                    && i > 0
                    && matches!(
                        tokens[i - 1].kind,
                        TokenKind::Punct('.') | TokenKind::Punct(':')
                    )
                    && tokens.get(i + 1).map(|t| &t.kind) == Some(&TokenKind::Punct('(')) =>
            {
                // Gather argument idents to exempt the condvar-wait idiom.
                let mut args = Vec::new();
                let mut nest = 0i32;
                let mut k = i + 1;
                while k < tokens.len() {
                    match &tokens[k].kind {
                        TokenKind::Punct('(') => nest += 1,
                        TokenKind::Punct(')') => {
                            nest -= 1;
                            if nest == 0 {
                                break;
                            }
                        }
                        TokenKind::Ident(arg) => args.push(arg.clone()),
                        _ => {}
                    }
                    k += 1;
                }
                for guard in &live {
                    if args.contains(&guard.name) {
                        continue;
                    }
                    out.push((
                        tokens[i].line,
                        GUARD_ACROSS_BLOCKING,
                        format!(
                            "guard `{}` (born line {}) is held across blocking call `{}` — \
                             drop it first, or the next preemption parks every peer behind \
                             this lock",
                            guard.name, guard.born_line, name
                        ),
                    ));
                }
            }
            _ => {}
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Repo walking
// ---------------------------------------------------------------------------

/// Result of linting a whole tree.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings, sorted by file then line.
    pub violations: Vec<Violation>,
}

/// Lint every `.rs` file under `root` (skipping `target/` and dot-directories).
pub fn lint_repo(root: &Path) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut report = LintReport::default();
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))?;
        let rel_str = rel.replace('\\', "/");
        report.violations.extend(lint_source(&rel_str, &source));
        report.files_scanned += 1;
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}
