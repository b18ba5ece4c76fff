//! Golden-diagnostic tests over the fixture trees: the clean tree must
//! stay quiet, and the violations tree must reproduce the expected
//! diagnostics exactly — proving every rule both fires and stays quiet.

use std::path::{Path, PathBuf};
use txboost_lint::{lint_tree, Report, RULES};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn compact(report: &Report) -> Vec<String> {
    report
        .diagnostics
        .iter()
        .map(|d| format!("{} {}:{}", d.rule, d.path, d.line))
        .collect()
}

#[test]
fn clean_fixture_tree_is_quiet() {
    let report = lint_tree(&fixture_root("clean")).expect("lint clean tree");
    let noisy = compact(&report);
    assert!(noisy.is_empty(), "clean fixtures produced: {noisy:#?}");
    // Unsafe sites are inventoried with their justifications.
    assert!(report.inventory.len() >= 3);
    assert!(
        report.inventory.iter().all(|s| !s.justification.is_empty()),
        "clean-tree unsafe sites must all be justified: {:#?}",
        report.inventory
    );
}

#[test]
fn violations_fixture_tree_matches_golden_diagnostics() {
    let root = fixture_root("violations");
    let report = lint_tree(&root).expect("lint violations tree");
    let got = compact(&report);
    let golden = std::fs::read_to_string(root.join("expected_diagnostics.txt"))
        .expect("read expected_diagnostics.txt");
    let expected: Vec<String> = golden
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect();
    assert_eq!(
        got, expected,
        "diagnostics diverged from the golden file\n got: {got:#?}\n expected: {expected:#?}"
    );
}

#[test]
fn every_rule_in_the_table_fires_on_the_violations_tree() {
    let report = lint_tree(&fixture_root("violations")).expect("lint violations tree");
    let fired: std::collections::BTreeSet<&str> =
        report.diagnostics.iter().map(|d| d.rule).collect();
    for rule in RULES {
        assert!(
            fired.contains(rule.name),
            "rule `{}` never fired on the violations fixtures",
            rule.name
        );
    }
}

// ------------------------------------------------- temp-tree tests

/// Materialize `files` (relative path, contents) under a fresh
/// per-test temp directory.
fn temp_tree(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("txboost-lint-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for (rel, text) in files {
        let p = root.join(rel);
        std::fs::create_dir_all(p.parent().expect("file paths have a parent")).expect("mkdir");
        std::fs::write(&p, text).expect("write fixture file");
    }
    root
}

#[test]
fn the_walker_stops_at_a_nested_workspace_but_walks_member_crates() {
    const BARE_UNSAFE: &str = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    let root = temp_tree(
        "nested-ws",
        &[
            ("Cargo.toml", "[workspace]\nmembers = [\"member\"]\n"),
            ("member/Cargo.toml", "[package]\nname = \"member\"\n"),
            ("member/src/lib.rs", BARE_UNSAFE),
            (
                "nested/Cargo.toml",
                "[package]\nname = \"nested\"\n\n[workspace]\n",
            ),
            ("nested/src/lib.rs", BARE_UNSAFE),
        ],
    );
    let report = lint_tree(&root).expect("lint temp tree");
    assert_eq!(
        compact(&report),
        vec!["unsafe-inventory member/src/lib.rs:2"]
    );
    assert_eq!(report.files, 1);
    // The nested workspace is still lintable when named as the root.
    let nested = lint_tree(&root.join("nested")).expect("lint nested tree");
    assert_eq!(compact(&nested), vec!["unsafe-inventory src/lib.rs:2"]);
    std::fs::remove_dir_all(&root).expect("clean up temp tree");
}

#[test]
fn deny_all_exits_nonzero_on_a_finding() {
    let src = std::fs::read_to_string(fixture_root("violations").join("crates/util/src/ffi.rs"))
        .expect("read ffi.rs");
    let root = temp_tree("deny-all", &[("crates/util/src/ffi.rs", &src)]);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_txboost-lint"))
        .args([
            "--path",
            root.to_str().expect("utf-8 temp path"),
            "--deny-all",
        ])
        .output()
        .expect("run txboost-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert_eq!(stdout.matches("warning[").count(), 1, "stdout:\n{stdout}");
    assert!(
        stdout.contains("warning[unsafe-inventory]"),
        "stdout:\n{stdout}"
    );
    std::fs::remove_dir_all(&root).expect("clean up temp tree");
}
