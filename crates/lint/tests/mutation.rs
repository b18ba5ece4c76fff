//! Mutation tests, in two directions:
//!
//! 1. Mutate the *fixture*: delete exactly the artifact the discipline
//!    requires (a SAFETY comment, an undo push, a yield hook) and
//!    assert the corresponding rule starts firing. This guards against
//!    rules that pass because they match nothing.
//! 2. Mutate the *analyzer*: break the dataflow transfer/join function
//!    through the [`TransferMutation`] hook and assert the self-tests
//!    would catch the regression (clean code starts flagging, or a
//!    planted bug stops being found).

use std::path::Path;
use txboost_lint::{lint_source, lint_source_mutated, TransferMutation};

fn clean_fixture(rel: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/clean")
        .join(rel);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn violation_fixture(rel: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/violations")
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
    assert_eq!(lint_source(rel, &src).unsuppressed().count(), 0);

    let mutated = strip_lines(&src, |l| l.contains("SAFETY:"));
    let report = lint_source(rel, &mutated);
    let fired: Vec<_> = report.unsuppressed().map(|d| d.rule).collect();
    assert!(
        fired.contains(&"unsafe-inventory"),
        "removing SAFETY comments must trip unsafe-inventory, got {fired:?}"
    );
}

#[test]
fn deleting_the_undo_push_trips_inverse_pairing() {
    let rel = "crates/boosted/src/good_set.rs";
    let src = clean_fixture(rel);
    assert_eq!(lint_source(rel, &src).unsuppressed().count(), 0);

    // Cut the whole `txn.log_undo(...)` statement (through its `});`).
    let lines: Vec<&str> = src.lines().collect();
    let start = lines
        .iter()
        .position(|l| l.contains("log_undo"))
        .expect("fixture has an undo push");
    let end = lines[start..]
        .iter()
        .position(|l| l.trim() == "});")
        .map(|off| start + off)
        .expect("undo closure is brace-terminated");
    let mutated: String = lines
        .iter()
        .enumerate()
        .filter(|(i, _)| *i < start || *i > end)
        .map(|(_, l)| *l)
        .collect::<Vec<_>>()
        .join("\n");

    let report = lint_source(rel, &mutated);
    let fired: Vec<_> = report.unsuppressed().map(|d| d.rule).collect();
    assert!(
        fired.contains(&"inverse-pairing"),
        "removing the undo push must trip inverse-pairing, got {fired:?}"
    );
}

#[test]
fn an_effect_whose_inverse_arm_stops_inverting_trips_inverse_pairing() {
    let rel = "crates/boosted/src/good_map.rs";
    let src = clean_fixture(rel);
    assert_eq!(lint_source(rel, &src).unsuppressed().count(), 0);

    // `remove`'s inverse arm re-inserts the binding; make it look the
    // key up instead. The effect is still registered right after the
    // base call, so only a rule that reads the arm can notice.
    let mutated = src.replace("base.insert(key, old);", "base.contains_key(&key);");
    assert_ne!(src, mutated, "fixture lost its inverse arm");
    let report = lint_source(rel, &mutated);
    let fired: Vec<_> = report.unsuppressed().map(|d| d.rule).collect();
    assert_eq!(
        fired,
        ["inverse-pairing"],
        "an inverse arm that mutates nothing must trip inverse-pairing"
    );
}

#[test]
fn deleting_the_yield_hook_trips_yield_point_coverage() {
    let rel = "crates/core/src/backoff.rs";
    let src = clean_fixture(rel);
    assert_eq!(lint_source(rel, &src).unsuppressed().count(), 0);

    let mutated = strip_lines(&src, |l| {
        l.contains("yield_point") || l.contains("deterministic")
    });
    let report = lint_source(rel, &mutated);
    let fired: Vec<_> = report.unsuppressed().map(|d| d.rule).collect();
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
        assert_eq!(lint_source(rel, &src).unsuppressed().count(), 0);

        let mutated = strip_lines(&src, |l| l.contains(marker));
        assert_ne!(
            mutated.lines().count(),
            src.lines().count(),
            "{rel}: no {marker}"
        );
        let report = lint_source(rel, &mutated);
        let fired: Vec<_> = report.unsuppressed().map(|d| d.rule).collect();
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
    assert_eq!(lint_source(rel, &src).unsuppressed().count(), 0);

    // Each store method is a registered site: deleting any one of its
    // hooks must fire (the rule is per-row, not per-file).
    for marker in ["VersionInstall", "SnapshotRead", "VersionGc"] {
        let mutated = strip_lines(&src, |l| l.contains(marker));
        let report = lint_source(rel, &mutated);
        let fired: Vec<_> = report.unsuppressed().map(|d| d.rule).collect();
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
    let fired: Vec<_> = report.unsuppressed().map(|d| d.rule).collect();
    assert!(
        fired.contains(&"handler-panic-audit"),
        "an unwrap inside log_version_install must trip handler-panic-audit, got {fired:?}"
    );
}

#[test]
fn deleting_the_suppression_reason_trips_the_policy_check() {
    let rel = "crates/boosted/src/good_set.rs";
    let src = clean_fixture(rel);
    // Truncate the allow comment at the `)`: reason gone.
    let mutated: String = src
        .lines()
        .map(|l| {
            if l.contains("txboost-lint: allow(") {
                let cut = l.find("):").map(|i| i + 1).unwrap_or(l.len());
                &l[..cut]
            } else {
                l
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    let report = lint_source(rel, &mutated);
    let fired: Vec<_> = report.unsuppressed().map(|d| d.rule).collect();
    assert!(
        fired.contains(&txboost_lint::SUPPRESSION_MISSING_REASON),
        "stripping the reason must trip the suppression policy, got {fired:?}"
    );
}

// -------------------------------------------- analyzer-side mutations

#[test]
fn breaking_the_acquire_transfer_makes_clean_code_flag() {
    // If acquisitions stop entering the lockset, every lock-covered
    // base call in the clean fixture looks uncovered — the clean-tree
    // self-test would fail loudly. This proves the Rule 2 dataflow is
    // load-bearing, not vacuously green.
    let rel = "crates/boosted/src/good_set.rs";
    let src = clean_fixture(rel);
    assert_eq!(lint_source(rel, &src).unsuppressed().count(), 0);

    let report = lint_source_mutated(rel, &src, TransferMutation::IgnoreAcquires);
    let fired: Vec<_> = report.unsuppressed().map(|d| d.rule).collect();
    assert!(
        fired.contains(&"lock-before-mutate"),
        "with acquisitions ignored, lock-before-mutate must fire on clean code, got {fired:?}"
    );
}

#[test]
fn breaking_the_join_to_union_misses_the_planted_branch_bug() {
    // The one-branch-locked fixture is found only because locksets join
    // by must-intersection; weakening the join to union (a may-analysis)
    // makes the planted bug vanish — which the golden-diagnostics test
    // would catch as a missing line.
    let rel = "crates/boosted/src/bad_branch_lock.rs";
    let src = violation_fixture(rel);
    assert!(lint_source(rel, &src)
        .unsuppressed()
        .any(|d| d.rule == "lock-before-mutate"));

    let report = lint_source_mutated(rel, &src, TransferMutation::UnionAtJoins);
    assert!(
        !report
            .unsuppressed()
            .any(|d| d.rule == "lock-before-mutate"),
        "union-at-joins must lose the one-branch-locked finding (proving the \
         intersection join is what catches it)"
    );
}

// ------------------------------------------- frozen CFG differential

// What the deleted PR-4 line-heuristic engine reported on these two
// fixtures (nothing) is recorded in each fixture's header comment; the
// CFG side of the differential stays asserted here.

#[test]
fn cfg_rule_catches_the_error_path_the_line_heuristic_missed() {
    // The undo is logged after the mutation, but a fallible call in
    // between can exit with the mutation unlogged.
    let rel = "crates/boosted/src/bad_distance.rs";
    let report = lint_source(rel, &violation_fixture(rel));
    assert!(
        report.unsuppressed().any(|d| d.rule == "inverse-pairing"),
        "the CFG rule must flag the mutation that can escape via `?`"
    );
}

#[test]
fn cfg_rule_catches_the_one_branch_lock_the_line_heuristic_missed() {
    let rel = "crates/boosted/src/bad_branch_lock.rs";
    let report = lint_source(rel, &violation_fixture(rel));
    assert!(
        report
            .unsuppressed()
            .any(|d| d.rule == "lock-before-mutate"),
        "the CFG rule must flag the lock-uncovered branch"
    );
}
