//! The analyzer's own acceptance gate, as a test: the real workspace
//! must be discipline-clean. Every rule runs over every crate (fixture
//! trees excluded by the walker), no diagnostic may remain, and every
//! unsafe site must carry a SAFETY justification.

use std::path::Path;
use txboost_lint::lint_tree;

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels below the workspace root")
}

#[test]
fn the_workspace_is_discipline_clean() {
    let report = lint_tree(workspace_root()).expect("lint workspace");
    let noisy: Vec<String> = report
        .diagnostics
        .iter()
        .map(|d| format!("{} {}:{}: {}", d.rule, d.path, d.line, d.message))
        .collect();
    assert!(
        noisy.is_empty(),
        "workspace has discipline findings:\n{}",
        noisy.join("\n")
    );
}

#[test]
fn every_workspace_unsafe_site_is_justified() {
    let report = lint_tree(workspace_root()).expect("lint workspace");
    assert!(
        !report.inventory.is_empty(),
        "inventory unexpectedly empty — walker is broken"
    );
    let bare: Vec<String> = report
        .inventory
        .iter()
        .filter(|s| s.justification.trim().is_empty())
        .map(|s| format!("{}:{} ({})", s.path, s.line, s.kind))
        .collect();
    assert!(
        bare.is_empty(),
        "unsafe sites without SAFETY justification:\n{}",
        bare.join("\n")
    );
}
