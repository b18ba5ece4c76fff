//! Traversal, rendering, and the unsafe inventory: the engine runs
//! every rule of [`RULES`] whose path filter admits a file, over each
//! `.rs` file of a tree, and collects what they report.

use crate::analysis::FileAnalysis;
use crate::rules::RULES;
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
}

impl Diagnostic {
    /// rustc-style rendering:
    /// `warning[rule]: message\n  --> path:line:col\n   = note: paper ref`
    pub fn render(&self) -> String {
        let paper = RULES
            .iter()
            .find(|r| r.name == self.rule)
            .map_or("", |r| r.paper);
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
}

impl Report {
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

fn json_escape(s: &str) -> String {
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

/// Lint a single in-memory source file. `rel_path` decides which rules
/// apply (rules filter on path), so mirror the workspace layout when
/// testing (e.g. `crates/core/src/backoff.rs`).
pub fn lint_source(rel_path: &str, text: &str) -> Report {
    let fa = FileAnalysis::build(rel_path, text);
    let mut out = RuleOutput::default();
    for rule in RULES {
        if (rule.applies)(&fa.path) {
            (rule.run)(&fa, &mut out);
        }
    }
    Report {
        diagnostics: out.diags,
        inventory: out.inventory,
        files: 1,
    }
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
    let mut report = Report::default();
    for rel in files {
        let text = fs::read_to_string(root.join(&rel))?;
        let mut one = lint_source(&rel, &text);
        report.diagnostics.append(&mut one.diagnostics);
        report.inventory.append(&mut one.inventory);
        report.files += 1;
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
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
            rule: "handler-panic-audit",
            path: "crates/boosted/src/x.rs".into(),
            line: 7,
            col: 9,
            message: "m".into(),
        };
        let s = d.render();
        assert!(s.starts_with("warning[handler-panic-audit]: m"));
        assert!(s.contains("--> crates/boosted/src/x.rs:7:9"));
        assert!(s.contains("= note: §4"));
    }
}
