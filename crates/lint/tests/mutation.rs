//! Mutation tests: delete exactly the artifact a rule requires (a
//! SAFETY comment, a yield hook) from clean code, or plant a panic in a
//! handler, and assert the corresponding rule starts firing. This
//! guards against rules that pass because they match nothing.

use std::path::Path;
use txboost_lint::lint_source;

fn clean_fixture(rel: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/clean")
        .join(rel);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

/// Remove whole lines matching `pred`.
fn strip_lines(src: &str, pred: impl Fn(&str) -> bool) -> String {
    src.lines()
        .filter(|l| !pred(l))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn deleting_a_safety_comment_trips_unsafe_inventory() {
    let rel = "crates/util/src/ffi.rs";
    let src = clean_fixture(rel);
    assert_eq!(lint_source(rel, &src).diagnostics.len(), 0);

    let mutated = strip_lines(&src, |l| l.contains("SAFETY:"));
    let report = lint_source(rel, &mutated);
    let fired: Vec<_> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert!(
        fired.contains(&"unsafe-inventory"),
        "removing SAFETY comments must trip unsafe-inventory, got {fired:?}"
    );
}

#[test]
fn deleting_the_yield_hook_trips_yield_point_coverage() {
    let rel = "crates/core/src/backoff.rs";
    let src = clean_fixture(rel);
    assert_eq!(lint_source(rel, &src).diagnostics.len(), 0);

    let mutated = strip_lines(&src, |l| {
        l.contains("yield_point") || l.contains("deterministic")
    });
    let report = lint_source(rel, &mutated);
    let fired: Vec<_> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert!(
        fired.contains(&"yield-point-coverage"),
        "removing the hook must trip yield-point-coverage, got {fired:?}"
    );
}

#[test]
fn deleting_a_lock_path_hook_trips_yield_point_coverage() {
    // The workspace's own files, not fixtures: the one acquisition path
    // owes `LockAcquire`, the one blocking seam owes `block_tick`.
    for (rel, marker) in [
        (
            "crates/core/src/locks/abstract_lock.rs",
            "Point::LockAcquire",
        ),
        ("crates/core/src/locks/deadline.rs", "block_tick)"),
        ("crates/boosted/src/semaphore.rs", "Point::LockAcquire"),
    ] {
        let p = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(rel);
        let src = std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {rel}: {e}"));
        assert_eq!(lint_source(rel, &src).diagnostics.len(), 0);

        let mutated = strip_lines(&src, |l| l.contains(marker));
        assert_ne!(
            mutated.lines().count(),
            src.lines().count(),
            "{rel}: no {marker}"
        );
        let report = lint_source(rel, &mutated);
        let fired: Vec<_> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert!(
            fired.contains(&"yield-point-coverage"),
            "{rel}: removing {marker} must trip yield-point-coverage, got {fired:?}"
        );
    }
}

#[test]
fn deleting_the_mvcc_yield_hooks_trips_yield_point_coverage() {
    let rel = "crates/core/src/mvcc.rs";
    let src = clean_fixture(rel);
    assert_eq!(lint_source(rel, &src).diagnostics.len(), 0);

    // Each store method is a registered site: deleting any one of its
    // hooks must fire (the rule is per-row, not per-file).
    for marker in ["VersionInstall", "SnapshotRead", "VersionGc"] {
        let mutated = strip_lines(&src, |l| l.contains(marker));
        let report = lint_source(rel, &mutated);
        let fired: Vec<_> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert!(
            fired.contains(&"yield-point-coverage"),
            "removing the {marker} hook must trip yield-point-coverage, got {fired:?}"
        );
    }
}

#[test]
fn adding_a_panic_to_the_version_install_closure_is_caught() {
    let rel = "crates/core/src/mvcc.rs";
    let src = clean_fixture(rel);
    let mutated = src.replace(
        "store.install(None, ts);",
        "store.install(None, ts).unwrap();",
    );
    assert_ne!(src, mutated, "fixture lost its version-install closure");
    let report = lint_source(rel, &mutated);
    let fired: Vec<_> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert!(
        fired.contains(&"handler-panic-audit"),
        "an unwrap inside log_version_install must trip handler-panic-audit, got {fired:?}"
    );
}
