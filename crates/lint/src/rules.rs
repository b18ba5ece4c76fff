//! The rule table and the checks behind it.
//!
//! Each rule is a row in [`RULES`]: a name (used in diagnostics), a
//! one-line summary, the paper section or policy that justifies it, a
//! path filter, and a check function over one file's [`FileAnalysis`].
//! The engine owns traversal and rendering — adding a rule means adding
//! a row here plus its check.
//!
//! Code under `#[cfg(test)]` and integration-test files are exempt
//! from `handler-panic-audit` (tests may panic); the unsafe inventory
//! covers them regardless.

use crate::analysis::{FileAnalysis, Function, HandlerKind};
use crate::engine::{Diagnostic, RuleOutput, UnsafeSite};
use crate::source::TokKind;

/// One row of the rule table.
pub struct Rule {
    /// Stable rule name (kebab-case), used in diagnostics.
    pub name: &'static str,
    /// One-line human summary for `--list-rules`.
    pub summary: &'static str,
    /// The paper section (Herlihy & Koskinen, PPoPP 2008) or policy the
    /// rule enforces.
    pub paper: &'static str,
    /// Whether the rule examines the file at `path` at all.
    pub applies: fn(path: &str) -> bool,
    /// The check itself.
    pub run: fn(&FileAnalysis, &mut RuleOutput),
}

/// The rule table.
pub const RULES: &[Rule] = &[
    Rule {
        name: "handler-panic-audit",
        summary: "no unwrap/expect/panic!/indexing inside undo, deferred-action, version-install, WAL-replay or event-loop closures",
        paper: "§4: commit/abort handlers run inside the transaction runtime; a panic there poisons recovery",
        applies: |_| true,
        run: handler_panic_audit,
    },
    Rule {
        name: "unsafe-inventory",
        summary: "every unsafe block/fn/impl must carry a // SAFETY: comment (or a # Safety doc section)",
        paper: "workspace policy: boosting's correctness argument assumes the base objects' memory safety",
        applies: |_| true,
        run: unsafe_inventory,
    },
    Rule {
        name: "yield-point-coverage",
        summary: "interleaving-relevant sites must carry det::yield_point hooks for the deterministic harness",
        paper: "§5 verification: the schedule explorer only covers sites that yield to it",
        applies: |p| YIELD_SITES.iter().any(|(suffix, _, _)| p.ends_with(suffix)),
        run: yield_point_coverage,
    },
];

/// Sites the deterministic harness must be able to preempt:
/// (path suffix, function name, required identifiers in the body).
/// `yield_point` is implied for every `Point::*` marker; `block_tick`
/// is required where a blocking wait must become a scheduling round.
const YIELD_SITES: &[(&str, &str, &[&str])] = &[
    ("crates/core/src/txn.rs", "log_undo", &["UndoPush"]),
    ("crates/core/src/txn.rs", "log_effect", &["UndoPush"]),
    ("crates/core/src/txn.rs", "release_locks", &["LockRelease"]),
    ("crates/core/src/txn.rs", "commit", &["Commit"]),
    ("crates/core/src/txn.rs", "abort", &["Abort"]),
    ("crates/core/src/backoff.rs", "backoff", &["Backoff"]),
    // One acquisition path for every lock discipline, and one seam
    // through which it (and the semaphore) blocks.
    (
        "crates/core/src/locks/abstract_lock.rs",
        "acquire",
        &["LockAcquire"],
    ),
    ("crates/core/src/locks/deadline.rs", "wait", &["block_tick"]),
    ("crates/rwstm/src/stm.rs", "read", &["StmRead"]),
    (
        "crates/rwstm/src/stm.rs",
        "try_commit",
        &["StmWrite", "StmValidate"],
    ),
    (
        "crates/boosted/src/semaphore.rs",
        "acquire",
        &["LockAcquire"],
    ),
    (
        "crates/wal/src/writer.rs",
        "append_frames_det",
        &["WalAppend"],
    ),
    ("crates/wal/src/writer.rs", "sync_det", &["WalFsync"]),
    (
        "crates/wal/src/writer.rs",
        "roll_segment_det",
        &["WalSegmentRoll"],
    ),
    ("crates/wal/src/group.rs", "lead_det", &["WalLead"]),
    (
        "crates/wal/src/recover.rs",
        "recovery_step_det",
        &["WalRecoveryStep"],
    ),
    // The multi-version read path: replay determinism requires every
    // store operation (version store + delta chain alike — the names
    // are shared deliberately) to yield unconditionally. GC runs
    // inside the install, so the install sites owe both hooks.
    (
        "crates/core/src/mvcc.rs",
        "install",
        &["VersionInstall", "VersionGc"],
    ),
    ("crates/core/src/mvcc.rs", "read_at", &["SnapshotRead"]),
    // The event-driven I/O plane: the readiness tick and the reply
    // flush are the two points a det schedule needs to interleave
    // server loops.
    (
        "crates/server/src/eventloop.rs",
        "epoll_wait_det",
        &["EpollWait"],
    ),
    (
        "crates/server/src/eventloop.rs",
        "flush_conn_det",
        &["ConnFlush"],
    ),
];

/// Whether token `i` is a method call `.name(` with `name` in `names`.
fn method_call(fa: &FileAnalysis, i: usize, names: &[&str]) -> bool {
    i > 0
        && fa.is_punct(i - 1, ".")
        && fa.is_punct(i + 1, "(")
        && matches!(fa.tok(i), Some(t) if t.kind == TokKind::Ident && names.contains(&t.text.as_str()))
}

fn diag(out: &mut RuleOutput, fa: &FileAnalysis, rule: &'static str, i: usize, message: String) {
    let t = &fa.tokens[i];
    out.diags.push(Diagnostic {
        rule,
        path: fa.path.clone(),
        line: t.line,
        col: t.col,
        message,
    });
}

// ---------------------------------------------------------------- rules

/// Panic sources forbidden inside handlers. `debug_assert!` family is
/// allowed: it vanishes in release builds, where handlers actually run
/// under load.
fn handler_panic_audit(fa: &FileAnalysis, out: &mut RuleOutput) {
    const PANIC_MACROS: &[&str] = &[
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
    ];
    for h in &fa.handlers {
        if fa.in_test(h.name_idx) || fa.is_test_file() {
            continue;
        }
        let what = match h.kind {
            HandlerKind::Undo => "undo (abort-replay) closure",
            HandlerKind::DeferCommit => "deferred commit action",
            HandlerKind::DeferAbort => "deferred abort action",
            HandlerKind::VersionInstall => {
                "version-install closure (runs at commit, after the point of no return)"
            }
            HandlerKind::WalReplay => "WAL replay closure (the crash-recovery path)",
            HandlerKind::EventLoop => {
                "event-loop dispatch closure (a panic kills every connection on the loop)"
            }
        };
        for i in h.range.0..=h.range.1 {
            if method_call(fa, i, &["unwrap", "expect"]) {
                diag(
                    out,
                    fa,
                    "handler-panic-audit",
                    i,
                    format!("`.{}()` may panic inside a {what}", fa.tokens[i].text),
                );
            }
            if fa.is_punct(i + 1, "!")
                && matches!(fa.tok(i), Some(t) if t.kind == TokKind::Ident
                    && PANIC_MACROS.contains(&t.text.as_str()))
            {
                diag(
                    out,
                    fa,
                    "handler-panic-audit",
                    i,
                    format!(
                        "`{}!` may panic inside a {what} (debug_assert! is the release-safe \
                         alternative)",
                        fa.tokens[i].text
                    ),
                );
            }
            // Postfix indexing `expr[...]`: `[` directly after an
            // identifier, `)` or `]`.
            if fa.is_punct(i, "[") && i > 0 {
                let prev = &fa.tokens[i - 1];
                let is_postfix = prev.kind == TokKind::Ident
                    || (prev.kind == TokKind::Punct && (prev.text == ")" || prev.text == "]"));
                // Identifier followed by `[` can still be a type or a
                // macro pattern; those don't appear in handler bodies.
                if is_postfix {
                    diag(
                        out,
                        fa,
                        "handler-panic-audit",
                        i,
                        format!("indexing may panic inside a {what}; use `.get(..)`"),
                    );
                }
            }
        }
    }
}

/// Every `unsafe` site needs a written safety argument: a `// SAFETY:`
/// comment immediately above (attributes and doc lines may intervene),
/// a trailing `// SAFETY:` on the same line, or — for `unsafe fn` — a
/// `# Safety` section in its doc comment.
fn unsafe_inventory(fa: &FileAnalysis, out: &mut RuleOutput) {
    for i in 0..fa.tokens.len() {
        if !fa.is_ident(i, "unsafe") {
            continue;
        }
        let kind = match fa.tok(i + 1) {
            Some(t) if t.text == "{" => "block",
            // `unsafe fn(` is a function-*pointer type* (e.g. a vtable
            // field `call: unsafe fn(*mut u8)`), not a declaration — a
            // declaration always has a name between `fn` and `(`. The
            // type has no body to justify; its call sites do.
            Some(t) if t.text == "fn" && fa.tok(i + 2).is_some_and(|n| n.text == "(") => continue,
            Some(t) if t.text == "fn" => "fn",
            Some(t) if t.text == "impl" => "impl",
            Some(t) if t.text == "extern" => "extern",
            Some(t) if t.text == "trait" => "trait",
            // `pub unsafe fn` keywords already consumed `unsafe` last;
            // anything else (e.g. `unsafe` in a trait bound) is skipped.
            _ => continue,
        };
        let line = fa.tokens[i].line;
        let justification = find_safety_comment(fa, line, kind == "fn");
        out.inventory.push(UnsafeSite {
            path: fa.path.clone(),
            line,
            kind: kind.to_string(),
            justification: justification.clone().unwrap_or_default(),
        });
        if justification.is_none() {
            diag(
                out,
                fa,
                "unsafe-inventory",
                i,
                format!("`unsafe` {kind} without a `// SAFETY:` comment"),
            );
        }
    }
}

/// Search for the safety argument attached to an unsafe site at `line`.
fn find_safety_comment(fa: &FileAnalysis, line: u32, accept_safety_doc: bool) -> Option<String> {
    let safety_text = |t: &str| -> Option<String> {
        let trimmed = t.trim_start_matches(['/', '!']).trim();
        trimmed
            .strip_prefix("SAFETY:")
            .map(|r| r.trim().to_string())
    };
    // Trailing comment on the same line.
    for c in &fa.comments {
        if c.line == line {
            if let Some(s) = safety_text(&c.text) {
                return Some(s);
            }
        }
    }
    // Walk upward over comment/attribute lines.
    let first_code_col: std::collections::HashMap<u32, &str> = fa
        .tokens
        .iter()
        .rev()
        .map(|t| (t.line, t.text.as_str()))
        .collect(); // rev() so the *first* token on each line wins
    let mut l = line;
    while l > 1 {
        l -= 1;
        let code_starts = first_code_col.get(&l).copied();
        let comment_here = fa.comments.iter().find(|c| c.line == l);
        match (code_starts, comment_here) {
            // Attribute line (`#[...]`): keep walking.
            (Some("#"), _) => {}
            // Pure comment line: check it.
            (None, Some(c)) => {
                if let Some(s) = safety_text(&c.text) {
                    return Some(s);
                }
                let doc = c.text.starts_with('/') || c.text.starts_with('!');
                if accept_safety_doc && doc && c.text.contains("# Safety") {
                    return Some("documented # Safety contract".to_string());
                }
            }
            // Blank line or code line: stop. (A blank line detaches the
            // comment block; tighten rather than guess.)
            _ => break,
        }
    }
    None
}

/// The deterministic harness (PR 2) can only explore interleavings at
/// sites that yield to it; this keeps the site inventory honest.
fn yield_point_coverage(fa: &FileAnalysis, out: &mut RuleOutput) {
    for (suffix, fn_name, markers) in YIELD_SITES {
        if !fa.path.ends_with(suffix) {
            continue;
        }
        let candidates: Vec<&Function> = fa
            .functions
            .iter()
            .filter(|f| !f.in_test && f.name == *fn_name && f.body.is_some())
            .collect();
        if candidates.is_empty() {
            out.diags.push(Diagnostic {
                rule: "yield-point-coverage",
                path: fa.path.clone(),
                line: 1,
                col: 1,
                message: format!(
                    "expected function `{fn_name}` (a registered yield-point site) was not found"
                ),
            });
            continue;
        }
        let satisfied = candidates.iter().any(|f| {
            let (b0, b1) = f.body.unwrap_or((0, 0));
            markers.iter().all(|m| {
                (b0..=b1).any(|i| fa.is_ident(i, m))
                    && (*m == "block_tick" || (b0..=b1).any(|i| fa.is_ident(i, "yield_point")))
            })
        });
        if !satisfied {
            let f = candidates[0];
            out.diags.push(Diagnostic {
                rule: "yield-point-coverage",
                path: fa.path.clone(),
                line: f.line,
                col: 1,
                message: format!(
                    "`{fn_name}` is missing its deterministic hook(s): expected {}",
                    markers
                        .iter()
                        .map(|m| {
                            if *m == "block_tick" {
                                "det::block_tick()".to_string()
                            } else {
                                format!("det::yield_point(Point::{m})")
                            }
                        })
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        }
    }
}
