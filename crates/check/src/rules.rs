//! The rule engine: scan one file's code tokens for determinism and
//! layering hazards, honoring inline waivers and `cfg(test)` regions.
//!
//! Test code (unit-test modules and `#[test]` functions inside
//! `crates/*/src`) is exempt from every rule: tests may time things,
//! use std hashers, and poke transport types — none of it runs inside
//! a measured trial. Integration tests under `tests/` are never
//! scanned at all.
//!
//! Waiver syntax (the reason is mandatory):
//!
//! ```text
//! // sc-check: allow(rule-id) -- why this line is exempt
//! ```
//!
//! A waiver covers findings of that rule on its own line and on the
//! line directly below, so it works both trailing and standing alone.

use crate::config::{self, Severity};
use crate::lex::{lex, Tok, TokKind};

/// Every rule the engine knows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    NoDefaultHasher,
    NoWallClock,
    NoAmbientRandomness,
    NoAmbientThreading,
    NoAmbientPrint,
    NoSyncInDataplane,
    Layering,
    RawAbsoluteTimer,
    UnsafeNeedsSafetyComment,
    AllowNeedsJustification,
    /// Meta-rule: a `sc-check:` comment that does not parse, names an
    /// unknown rule, or omits the mandatory reason.
    WaiverSyntax,
}

impl Rule {
    pub const ALL: &'static [Rule] = &[
        Rule::NoDefaultHasher,
        Rule::NoWallClock,
        Rule::NoAmbientRandomness,
        Rule::NoAmbientThreading,
        Rule::NoAmbientPrint,
        Rule::NoSyncInDataplane,
        Rule::Layering,
        Rule::RawAbsoluteTimer,
        Rule::UnsafeNeedsSafetyComment,
        Rule::AllowNeedsJustification,
        Rule::WaiverSyntax,
    ];

    pub fn id(self) -> &'static str {
        match self {
            Rule::NoDefaultHasher => "no-default-hasher",
            Rule::NoWallClock => "no-wall-clock",
            Rule::NoAmbientRandomness => "no-ambient-randomness",
            Rule::NoAmbientThreading => "no-ambient-threading",
            Rule::NoAmbientPrint => "no-ambient-print",
            Rule::NoSyncInDataplane => "no-sync-in-dataplane",
            Rule::Layering => "layering",
            Rule::RawAbsoluteTimer => "raw-absolute-timer",
            Rule::UnsafeNeedsSafetyComment => "unsafe-needs-safety-comment",
            Rule::AllowNeedsJustification => "allow-needs-justification",
            Rule::WaiverSyntax => "waiver-syntax",
        }
    }

    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == id)
    }
}

/// One finding, ready to print.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    pub rule: Rule,
    pub severity: Severity,
    pub krate: String,
    /// Workspace-relative path.
    pub file: String,
    pub line: u32,
    pub message: String,
}

/// The result of analyzing one source file.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    pub diagnostics: Vec<Diagnostic>,
    /// Findings suppressed by a well-formed waiver.
    pub waived: usize,
}

/// A parsed `sc-check: allow(...)` comment.
struct Waiver {
    line: u32,
    rule: Rule,
}

/// Analyze `src` as `rel_path` (workspace-relative, `/`-separated)
/// inside crate `crate_name`.
pub fn analyze_source(crate_name: &str, rel_path: &str, src: &str) -> FileAnalysis {
    let toks = lex(src);

    // The scannable code stream: everything comments and literals
    // can't fake. (Lifetimes carry no hazard and `Other` is noise.)
    let code: Vec<&Tok> = toks
        .iter()
        .filter(|t| matches!(t.kind, TokKind::Ident | TokKind::Num | TokKind::Punct))
        .collect();

    let comments: Vec<&Tok> = toks
        .iter()
        .filter(|t| matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();

    let mut out = FileAnalysis::default();
    let (waivers, mut waiver_diags) = parse_waivers(&comments, src);
    let test_ranges = test_line_ranges(&code, src);

    let mut findings: Vec<(Rule, u32, String)> = Vec::new();
    scan_idents(crate_name, rel_path, &code, src, &mut findings);
    scan_attrs_and_unsafe(&code, &comments, src, &mut findings);

    for (rule, line, message) in findings {
        if in_test_region(&test_ranges, line) {
            continue;
        }
        if waivers
            .iter()
            .any(|w| w.rule == rule && (w.line == line || w.line + 1 == line))
        {
            out.waived += 1;
            continue;
        }
        let severity = config::severity(rule, crate_name);
        if severity == Severity::Allow {
            continue;
        }
        out.diagnostics.push(Diagnostic {
            rule,
            severity,
            krate: crate_name.to_string(),
            file: rel_path.to_string(),
            line,
            message,
        });
    }

    // Waiver-syntax errors are never themselves waivable and apply even
    // in test regions (a broken waiver anywhere misleads the reader).
    for d in &mut waiver_diags {
        d.krate = crate_name.to_string();
        d.file = rel_path.to_string();
    }
    out.diagnostics.append(&mut waiver_diags);
    out.diagnostics.sort_by_key(|d| (d.line, d.rule));
    out
}

/// Identifier- and path-pattern rules over the code stream.
fn scan_idents(
    crate_name: &str,
    rel_path: &str,
    code: &[&Tok],
    src: &str,
    findings: &mut Vec<(Rule, u32, String)>,
) {
    let threading_allowed = config::THREADING_ALLOWLIST.contains(&rel_path);
    let sans_io = config::SANS_IO_CRATES.contains(&crate_name);
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text(src) {
            name @ ("HashMap" | "HashSet" | "RandomState") => {
                findings.push((
                    Rule::NoDefaultHasher,
                    t.line,
                    format!(
                        "`{name}` defaults to a randomly seeded hasher; use \
                         `sc_net::{{FxHashMap,FxHashSet}}` or a BTree map so \
                         iteration order is identical in every run"
                    ),
                ));
            }
            // `TracePhase::Instant` is the Chrome trace-phase name, not
            // std::time — only that one qualifier is exempt, so
            // `time::Instant` still fires.
            name @ ("Instant" | "SystemTime") if !qualified_by(code, i, "TracePhase", src) => {
                findings.push((
                    Rule::NoWallClock,
                    t.line,
                    format!(
                        "`{name}` reads real time; no crate may — wall time \
                         is the perf ledger's (`benchmark/`), outside the \
                         workspace"
                    ),
                ));
            }
            name @ ("thread_rng" | "ThreadRng" | "OsRng" | "from_entropy") => {
                findings.push((
                    Rule::NoAmbientRandomness,
                    t.line,
                    format!(
                        "`{name}` draws ambient entropy; seed a `SmallRng` from \
                         the scenario seed so runs replay byte-identically"
                    ),
                ));
            }
            // `thread_local!` is a different identifier and stays
            // legal — per-thread caches don't order events, spawns do.
            "thread"
                if !threading_allowed
                    && (path_seq(code, i, &["thread", "spawn"], src)
                        || path_seq(code, i, &["thread", "scope"], src)
                        || path_seq(code, i, &["thread", "Builder"], src)) =>
            {
                findings.push((
                    Rule::NoAmbientThreading,
                    t.line,
                    "spawning threads outside a suite runner creates ambient \
                     parallelism; the kernel and its state machines must stay \
                     single-threaded so event order is a pure function of \
                     the seed"
                        .to_string(),
                ));
            }
            "rayon" if !threading_allowed => {
                findings.push((
                    Rule::NoAmbientThreading,
                    t.line,
                    "`rayon` pools are ambient parallelism; the only sanctioned \
                     threading lives in the suite runners"
                        .to_string(),
                ));
            }
            // Macro call shape only (`name` + `!` + open bracket): a
            // local named `dbg` compared with `!=` is not a finding.
            name @ ("println" | "eprintln" | "print" | "eprint" | "dbg")
                if !rel_path.contains("/bin/")
                    && pb(code, i + 1, src) == b'!'
                    && matches!(pb(code, i + 2, src), b'(' | b'[' | b'{') =>
            {
                findings.push((
                    Rule::NoAmbientPrint,
                    t.line,
                    format!(
                        "`{name}!` writes to ambient stdio from simulation code; \
                         emit a trace event (`Ctx::trace_instant`) or a metrics \
                         counter instead — CLIs under `bin/` may print"
                    ),
                ));
            }
            // One finding a line: `use std::sync::Arc;` is one mistake.
            name if is_sync_primitive(name, code, i, src)
                && findings.last().map(|f| (f.0, f.1))
                    != Some((Rule::NoSyncInDataplane, t.line)) =>
            {
                findings.push((
                    Rule::NoSyncInDataplane,
                    t.line,
                    format!(
                        "`{name}` is cross-thread machinery on the per-event \
                         path; the kernel is single-threaded: use `Rc` / `Cell`; \
                         shared input bytes belong in `sc-scenarios`"
                    ),
                ));
            }
            "rand" if path_seq(code, i, &["rand", "random"], src) => {
                findings.push((
                    Rule::NoAmbientRandomness,
                    t.line,
                    "`rand::random` draws ambient entropy; seed a `SmallRng` \
                     from the scenario seed instead"
                        .to_string(),
                ));
            }
            // Call shape only; relative one-shots (`set_timer_after`) are
            // a different identifier and stay legal.
            "set_timer_at" if pb(code, i + 1, src) == b'(' => {
                findings.push((
                    Rule::RawAbsoluteTimer,
                    t.line,
                    "`set_timer_at` arms an absolute deadline by hand; a \
                     deadline that can move goes through `sc_sim::Wakeup` (one \
                     live timer per state machine, re-armed only when it moves \
                     earlier) — hand-rolled re-arm markers have twice bred \
                     self-seeding duplicate timers"
                        .to_string(),
                ));
            }
            "sc_net" if sans_io && path_seq(code, i, &["sc_net", "channel"], src) => {
                findings.push((
                    Rule::Layering,
                    t.line,
                    format!(
                        "`{crate_name}` is a sans-io state-machine crate and must \
                         not name `sc_net::channel` transport types; take bytes/\
                         timers in and hand actions out (ROADMAP: sans-io core)"
                    ),
                ));
            }
            _ => {}
        }
    }
}

/// Is `code[i]` (spelled `name`) a `std::sync` path or one of the
/// names that only mean something across threads?
fn is_sync_primitive(name: &str, code: &[&Tok], i: usize, src: &str) -> bool {
    match name {
        "Arc" | "Mutex" | "RwLock" => true,
        "sync" => ["std", "core", "alloc"]
            .iter()
            .any(|root| qualified_by(code, i, root, src)),
        _ => name.starts_with("Atomic"),
    }
}

/// The punct byte of `code[i]` (`0` if out of range or not a punct).
fn pb(code: &[&Tok], i: usize, src: &str) -> u8 {
    code.get(i).map(|t| t.punct_byte(src)).unwrap_or(0)
}

/// Is `code[i]` written as `prefix::code[i]`?
fn qualified_by(code: &[&Tok], i: usize, prefix: &str, src: &str) -> bool {
    i >= 3
        && pb(code, i - 1, src) == b':'
        && pb(code, i - 2, src) == b':'
        && code[i - 3].kind == TokKind::Ident
        && code[i - 3].text(src) == prefix
}

/// Does `code[i..]` spell the `::`-joined path `segments`?
fn path_seq(code: &[&Tok], i: usize, segments: &[&str], src: &str) -> bool {
    let mut at = i;
    for (n, seg) in segments.iter().enumerate() {
        let ok = code
            .get(at)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text(src) == *seg);
        if !ok {
            return false;
        }
        at += 1;
        if n + 1 < segments.len() {
            if pb(code, at, src) != b':' || pb(code, at + 1, src) != b':' {
                return false;
            }
            at += 2;
        }
    }
    true
}

/// Attribute-shaped rules: `#[allow]` justification, `unsafe` SAFETY
/// comments.
fn scan_attrs_and_unsafe(
    code: &[&Tok],
    comments: &[&Tok],
    src: &str,
    findings: &mut Vec<(Rule, u32, String)>,
) {
    use std::collections::BTreeSet;
    let comment_lines: BTreeSet<u32> = comments.iter().map(|t| t.line).collect();
    let safety_lines: BTreeSet<u32> = comments
        .iter()
        .filter(|t| t.text(src).contains("SAFETY"))
        .map(|t| t.line)
        .collect();

    for (i, t) in code.iter().enumerate() {
        if t.kind == TokKind::Ident && t.text(src) == "unsafe" {
            let has_safety = (t.line.saturating_sub(3)..=t.line).any(|l| safety_lines.contains(&l));
            if !has_safety {
                findings.push((
                    Rule::UnsafeNeedsSafetyComment,
                    t.line,
                    "`unsafe` without a `// SAFETY:` comment on or directly \
                     above the line stating the upheld invariant"
                        .to_string(),
                ));
            }
        }
        // `#[allow(...)]` / `#![allow(...)]` / `#[expect(...)]`.
        if t.punct_byte(src) == b'#' {
            let mut j = i + 1;
            if pb(code, j, src) == b'!' {
                j += 1;
            }
            if pb(code, j, src) == b'[' {
                let name = code.get(j + 1).map(|t| t.text(src)).unwrap_or("");
                if name == "allow" || name == "expect" {
                    let justified = comment_lines.contains(&t.line)
                        || comment_lines.contains(&t.line.saturating_sub(1));
                    if !justified {
                        findings.push((
                            Rule::AllowNeedsJustification,
                            t.line,
                            format!(
                                "`#[{name}(…)]` without a comment on this line or \
                                 the one above saying why the lint is suppressed"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Parse `sc-check: allow(rule) -- reason` waivers out of comments.
/// Returns well-formed waivers plus diagnostics for malformed ones.
fn parse_waivers(comments: &[&Tok], src: &str) -> (Vec<Waiver>, Vec<Diagnostic>) {
    let mut waivers = Vec::new();
    let mut diags = Vec::new();
    for t in comments {
        let body = comment_body(t, src);
        let Some(rest) = body.strip_prefix("sc-check:") else {
            continue;
        };
        let rest = rest.trim_start();
        let mut fail = |msg: String| {
            diags.push(Diagnostic {
                rule: Rule::WaiverSyntax,
                severity: Severity::Deny,
                krate: String::new(),
                file: String::new(),
                line: t.line,
                message: msg,
            });
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            fail("malformed waiver: expected `sc-check: allow(<rule>) -- <reason>`".to_string());
            continue;
        };
        let Some(close) = args.find(')') else {
            fail("malformed waiver: missing `)` after rule id".to_string());
            continue;
        };
        let rule_id = args[..close].trim();
        let Some(rule) = Rule::from_id(rule_id) else {
            fail(format!(
                "waiver names unknown rule `{rule_id}` (known: {})",
                Rule::ALL
                    .iter()
                    .map(|r| r.id())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            continue;
        };
        let tail = args[close + 1..].trim();
        let reason = tail.strip_prefix("--").map(str::trim).unwrap_or("");
        if reason.is_empty() {
            fail(format!(
                "waiver for `{rule_id}` has no reason; append `-- <why this is sound>`"
            ));
            continue;
        }
        waivers.push(Waiver { line: t.line, rule });
    }
    (waivers, diags)
}

/// A comment's text with the `//` / `/* */` furniture stripped. Doc
/// comments keep their third `/` or `!`, so a waiver cannot hide in
/// rendered documentation.
fn comment_body<'s>(t: &Tok, src: &'s str) -> &'s str {
    let raw = t.text(src);
    if let Some(body) = raw.strip_prefix("//") {
        body.trim()
    } else if let Some(body) = raw.strip_prefix("/*") {
        body.strip_suffix("*/").unwrap_or(body).trim()
    } else {
        raw.trim()
    }
}

/// Line ranges occupied by test-only items: `#[cfg(test)]`- or
/// `#[test]`-attributed modules, functions and statements. A
/// `#[cfg(not(test))]` guard is production code and is NOT skipped.
fn test_line_ranges(code: &[&Tok], src: &str) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if code[i].punct_byte(src) != b'#' {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if pb(code, j, src) == b'!' {
            j += 1;
        }
        if pb(code, j, src) != b'[' {
            i += 1;
            continue;
        }
        let (idents, after_attr) = bracket_group_idents(code, j, src);
        let is_test = idents.contains(&"test") && !idents.contains(&"not");
        if !is_test {
            i = after_attr;
            continue;
        }
        // Skip any further attributes between the test marker and the
        // item (`#[cfg(test)] #[rustfmt::skip] mod tests { … }`).
        let mut k = after_attr;
        while pb(code, k, src) == b'#' {
            let mut a = k + 1;
            if pb(code, a, src) == b'!' {
                a += 1;
            }
            if pb(code, a, src) != b'[' {
                break;
            }
            let (_, next) = bracket_group_idents(code, a, src);
            k = next;
        }
        // The item body: everything to the matching `}` of its first
        // brace, or to the terminating `;` for braceless items.
        let mut depth = 0usize;
        let mut end_line = code.get(k).map(|t| t.line).unwrap_or(code[i].line);
        while let Some(t) = code.get(k) {
            end_line = t.line;
            match t.punct_byte(src) {
                b'{' => depth += 1,
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                b';' if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        ranges.push((code[i].line, end_line));
        i = after_attr;
    }
    ranges
}

/// Collect the identifiers inside the bracket group opening at
/// `code[open]` (which must be `[`); returns them plus the index just
/// past the matching `]` (or EOF for unbalanced input).
fn bracket_group_idents<'s>(code: &[&Tok], open: usize, src: &'s str) -> (Vec<&'s str>, usize) {
    let mut idents = Vec::new();
    let mut depth = 0usize;
    let mut k = open;
    while let Some(t) = code.get(k) {
        match t.punct_byte(src) {
            b'[' | b'(' => depth += 1,
            b']' | b')' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return (idents, k + 1);
                }
            }
            _ => {}
        }
        if t.kind == TokKind::Ident {
            idents.push(t.text(src));
        }
        k += 1;
    }
    (idents, code.len())
}

fn in_test_region(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(a, b)| a <= line && line <= b)
}
