//! Stale names fail the build: every name DESIGN.md and README.md cite
//! in backticks must still occur in the code.
//!
//! A cited token counts when it is a `::` path of identifiers (a
//! trailing `()` is ignored) whose last segment is CamelCase or
//! snake_case with an underscore. Fenced code blocks are skipped. That
//! last segment must occur as a whole identifier in some non-markdown
//! file, or in a file name, under [`SEARCHED`].

use std::collections::HashSet;
use std::path::Path;

/// Where a cited name may live (`target` directories excluded).
const SEARCHED: [&str; 6] = ["crates", "src", "tests", "benchmark", "scripts", ".github"];

/// Names cited from outside this codebase: Java's locks, which DESIGN
/// maps onto the Rust primitives.
const FOREIGN: [&str; 2] = ["ReentrantLock", "ReentrantReadWriteLock"];

fn is_ident(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn identifiers(text: &str) -> impl Iterator<Item = String> + '_ {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| is_ident(w))
        .map(str::to_owned)
}

/// Add the identifiers of every file name under `dir`, and of every
/// non-markdown file's text, to `words`. This file is left out, so
/// that [`FOREIGN`] cannot vouch for itself.
fn collect(dir: &Path, words: &mut HashSet<String>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() && !path.ends_with("target") {
            collect(&path, words);
        }
        if path.is_dir() || path.ends_with(file!()) {
            continue;
        }
        words.extend(identifiers(&entry.file_name().to_string_lossy()));
        if path.extension().is_none_or(|ext| ext != "md") {
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            words.extend(identifiers(&text));
        }
    }
}

/// The last segment of a backticked `token`, when the check looks at it.
fn checked_segment(token: &str) -> Option<&str> {
    let token = token.strip_suffix("()").unwrap_or(token);
    let segment = token.rsplit("::").next()?;
    let camel = segment.starts_with(|c: char| c.is_ascii_uppercase())
        && segment.contains(|c: char| c.is_ascii_lowercase())
        && !segment.contains('_');
    let snake = segment.contains('_')
        && segment.contains(|c: char| c.is_ascii_lowercase())
        && !segment.contains(|c: char| c.is_ascii_uppercase());
    let shaped = (camel || snake) && !FOREIGN.contains(&segment);
    (shaped && token.split("::").all(is_ident)).then_some(segment)
}

#[test]
fn every_name_the_docs_cite_occurs_in_the_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut words = HashSet::new();
    for dir in SEARCHED {
        collect(&root.join(dir), &mut words);
    }
    let read = words.contains("run_tick") && !words.contains("FOREIGN");
    assert!(read, "the code was read, and this file was not");
    let shapes = [
        "Batcher::run_tick()",
        "GroupCommitWal",
        "run",
        "STATS",
        "a b",
    ];
    let shaped: Vec<_> = shapes.into_iter().filter_map(checked_segment).collect();
    assert_eq!(shaped, ["run_tick", "GroupCommitWal"]);

    let (mut checked, mut stale) = (0, Vec::new());
    for doc in ["DESIGN.md", "README.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        let mut fenced = false;
        for (i, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
            }
            // Odd pieces of a line split on backticks are code spans.
            let spans = line.split('`').skip(1).step_by(2).filter(|_| !fenced);
            for token in spans {
                if let Some(segment) = checked_segment(token) {
                    checked += 1;
                    if !words.contains(segment) {
                        stale.push(format!("{doc}:{}: `{token}`", i + 1));
                    }
                }
            }
        }
    }
    assert!(checked > 100, "only {checked} names checked");
    assert!(
        stale.is_empty(),
        "cited, but in no code:\n{}",
        stale.join("\n")
    );
}
