//! Traversal, suppression matching, rendering, and the machine-readable
//! artifacts (unsafe inventory, lock-order graph).
//!
//! Per file the engine runs the [`RuleKind::Line`] rules and the CFG
//! dataflow pass ([`crate::rules::cfg_pass`]); the per-function CFGs it
//! collects feed one workspace-level lock-order-graph pass
//! ([`crate::lockgraph`]) whose `potential-deadlock` findings join the
//! per-file diagnostics (and participate in suppression matching like
//! any other rule).

use crate::analysis::{FileAnalysis, Suppression};
use crate::dataflow::TransferMutation;
use crate::lockgraph::{self, FileCfgs, LockOrderGraph};
use crate::rules::{self, RuleKind, RULES, SUPPRESSION_MISSING_REASON};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule name (see [`crate::rules::RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable message.
    pub message: String,
    /// `Some(reason)` when an `allow` comment suppressed this finding.
    pub suppressed: Option<String>,
}

impl Diagnostic {
    /// rustc-style rendering:
    /// `warning[rule]: message\n  --> path:line:col\n   = note: paper ref`
    pub fn render(&self) -> String {
        let paper = RULES
            .iter()
            .find(|r| r.name == self.rule)
            .map(|r| r.paper)
            .unwrap_or("suppression policy: every allow must explain itself");
        format!(
            "warning[{}]: {}\n  --> {}:{}:{}\n   = note: {}",
            self.rule, self.message, self.path, self.line, self.col, paper
        )
    }
}

/// One `unsafe` site for `unsafe_inventory.json`.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    pub path: String,
    pub line: u32,
    /// `block` / `fn` / `impl` / `extern` / `trait`.
    pub kind: String,
    /// The `SAFETY:` text (empty when missing — which is a diagnostic).
    pub justification: String,
}

/// Scratch output a rule writes into.
#[derive(Debug, Default)]
pub struct RuleOutput {
    pub diags: Vec<Diagnostic>,
    pub inventory: Vec<UnsafeSite>,
}

/// Aggregated result of linting a file set.
#[derive(Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    pub inventory: Vec<UnsafeSite>,
    pub files: usize,
    /// The workspace lock-acquisition-order graph (built over every
    /// linted file's transactional methods).
    pub lock_graph: Option<LockOrderGraph>,
}

impl Report {
    /// Findings that survived suppression.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.suppressed.is_none())
    }

    /// Findings silenced by an `allow(...)` comment.
    pub fn suppressed(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.suppressed.is_some())
    }

    fn merge(&mut self, mut other: Report) {
        self.diagnostics.append(&mut other.diagnostics);
        self.inventory.append(&mut other.inventory);
        self.files += other.files;
    }

    fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        self.inventory
            .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    }

    /// Serialize the unsafe inventory as JSON (no external crates, so
    /// hand-rolled; the format is an array of flat objects).
    pub fn inventory_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.inventory.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "  {{\"file\": \"{}\", \"line\": {}, \"kind\": \"{}\", \"justification\": \"{}\"}}",
                json_escape(&s.path),
                s.line,
                json_escape(&s.kind),
                json_escape(&s.justification)
            );
        }
        out.push_str("\n]\n");
        out
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Per-file analysis result, pending the workspace-level pass.
struct FileResult {
    report: Report,
    cfgs: FileCfgs,
    /// Token index → line, for lock-graph witness rendering.
    token_lines: BTreeMap<usize, u32>,
    suppressions: Vec<Suppression>,
}

/// Run the Line rules and the CFG dataflow pass over one file and match
/// its suppressions.
fn lint_one(rel_path: &str, text: &str, mutation: TransferMutation) -> FileResult {
    let fa = FileAnalysis::build(rel_path, text);
    let mut out = RuleOutput::default();
    for rule in RULES {
        if rule.kind == RuleKind::Line && (rule.applies)(&fa.path) {
            (rule.run)(&fa, &mut out);
        }
    }
    let fn_cfgs = rules::cfg_pass(&fa, mutation, &mut out);
    // Apply suppressions: a finding is silenced by an allow comment for
    // its rule targeting its line. Suppressions without a reason are
    // themselves findings — the policy requires a written justification.
    for d in &mut out.diags {
        if let Some(sup) = fa
            .suppressions
            .iter()
            .find(|s| s.rule == d.rule && s.target_line == d.line)
        {
            d.suppressed = Some(sup.reason.clone().unwrap_or_default());
        }
    }
    for sup in &fa.suppressions {
        if sup.reason.is_none() {
            out.diags.push(Diagnostic {
                rule: SUPPRESSION_MISSING_REASON,
                path: fa.path.clone(),
                line: sup.line,
                col: 1,
                message: format!(
                    "suppression `allow({})` must carry a reason: \
                     `// txboost-lint: allow({}): <why this is sound>`",
                    sup.rule, sup.rule
                ),
                suppressed: None,
            });
        }
    }
    FileResult {
        report: Report {
            diagnostics: out.diags,
            inventory: out.inventory,
            files: 1,
            lock_graph: None,
        },
        cfgs: FileCfgs {
            path: fa.path.clone(),
            fns: fn_cfgs,
        },
        token_lines: fa
            .tokens
            .iter()
            .enumerate()
            .map(|(i, t)| (i, t.line))
            .collect(),
        suppressions: fa.suppressions.clone(),
    }
}

/// The workspace-level pass: build the lock-order graph over every
/// file's CFGs, suppression-match its `potential-deadlock` findings,
/// and assemble the final report.
fn finish(files: Vec<FileResult>) -> Report {
    let mut report = Report::default();
    let mut cfgs: Vec<FileCfgs> = Vec::new();
    let mut token_lines: BTreeMap<String, BTreeMap<usize, u32>> = BTreeMap::new();
    let mut sups: BTreeMap<String, Vec<Suppression>> = BTreeMap::new();
    for fr in files {
        token_lines.insert(fr.cfgs.path.clone(), fr.token_lines);
        sups.insert(fr.cfgs.path.clone(), fr.suppressions);
        cfgs.push(fr.cfgs);
        report.merge(fr.report);
    }
    let (graph, mut deadlocks) = lockgraph::build(&cfgs, &token_lines);
    for d in &mut deadlocks {
        if let Some(sup) = sups.get(&d.path).and_then(|v| {
            v.iter()
                .find(|s| s.rule == d.rule && s.target_line == d.line)
        }) {
            d.suppressed = Some(sup.reason.clone().unwrap_or_default());
        }
    }
    report.diagnostics.append(&mut deadlocks);
    report.lock_graph = Some(graph);
    report.sort();
    report
}

/// Lint a single in-memory source file. `rel_path` decides which rules
/// apply (rules filter on path), so mirror the workspace layout when
/// testing (e.g. `crates/boosted/src/foo.rs`). The lock-order graph is
/// built over just this file (intra-file cycles still surface).
pub fn lint_source(rel_path: &str, text: &str) -> Report {
    finish(vec![lint_one(rel_path, text, TransferMutation::None)])
}

/// [`lint_source`] with a deliberately broken dataflow transfer/join
/// function — the mutation-test hook proving the self-tests would catch
/// an analyzer regression.
#[doc(hidden)]
pub fn lint_source_mutated(rel_path: &str, text: &str, mutation: TransferMutation) -> Report {
    finish(vec![lint_one(rel_path, text, mutation)])
}

/// Recursively lint every `.rs` file under `root`. Paths in the report
/// are relative to `root`. Skips `target/`, VCS metadata, the
/// analyzer's own (intentionally violating) fixture trees, and nested
/// cargo workspaces (a different workspace is a different policy
/// domain; lint it by pointing `--path` at it).
pub fn lint_tree(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut results = Vec::new();
    for rel in files {
        let text = fs::read_to_string(root.join(&rel))?;
        results.push(lint_one(&rel, &text, TransferMutation::None));
    }
    Ok(finish(results))
}

/// Whether `dir/Cargo.toml` has a `[workspace]` table, i.e. `dir` is
/// the root of a cargo workspace.
pub fn declares_workspace(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|text| text.lines().any(|l| l.trim() == "[workspace]"))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target"
                || name.starts_with('.')
                || name == "fixtures"
                || declares_workspace(&path)
            {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_with_reason_silences_without_reason_reports() {
        let src = "\
pub fn f(p: *const u8) -> u8 {
    // txboost-lint: allow(unsafe-inventory): caller contract checked at the call site
    unsafe { *p }
}
pub fn g(p: *const u8) -> u8 {
    // txboost-lint: allow(unsafe-inventory)
    unsafe { *p }
}";
        let r = lint_source("crates/x/src/a.rs", src);
        let unsup: Vec<_> = r.unsuppressed().map(|d| d.rule).collect();
        assert_eq!(unsup, vec![SUPPRESSION_MISSING_REASON]);
        assert_eq!(r.suppressed().count(), 2);
    }

    #[test]
    fn inventory_json_is_escaped_and_flat() {
        let mut rep = Report::default();
        rep.inventory.push(UnsafeSite {
            path: "a/b.rs".into(),
            line: 3,
            kind: "block".into(),
            justification: "quote \" and \\ back".into(),
        });
        let j = rep.inventory_json();
        assert!(j.contains("\"file\": \"a/b.rs\""));
        assert!(j.contains("quote \\\" and \\\\ back"));
    }

    #[test]
    fn render_is_rustc_style() {
        let d = Diagnostic {
            rule: "lock-before-mutate",
            path: "crates/boosted/src/x.rs".into(),
            line: 7,
            col: 9,
            message: "m".into(),
            suppressed: None,
        };
        let s = d.render();
        assert!(s.starts_with("warning[lock-before-mutate]: m"));
        assert!(s.contains("--> crates/boosted/src/x.rs:7:9"));
        assert!(s.contains("= note: §3 Rule 2"));
    }
}
