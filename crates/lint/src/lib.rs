//! `txboost-lint` — a static analyzer for the transactional-boosting
//! discipline (Herlihy & Koskinen, PPoPP 2008, §3–5).
//!
//! Boosting is correct only if every boosted method follows rules the
//! compiler cannot check: acquire the abstract lock *before* the base
//! call, log the inverse *after* it succeeds, hold every lock two-phase
//! until commit/abort, and never panic inside an abort/commit handler.
//! This crate turns those conventions into machine-checked rules with
//! rustc-style diagnostics, an `// txboost-lint: allow(<rule>): reason`
//! suppression mechanism, and machine-readable artifacts
//! (`unsafe_inventory.json`, `lock_order_graph.json`, SARIF).
//!
//! The analyzer runs in three stages (DESIGN.md §15):
//!
//! 1. [`parser`] — a zero-dependency recursive-descent parser over the
//!    [`source`] token stream, producing statement/expression ASTs for
//!    function bodies;
//! 2. [`mod@cfg`] + [`dataflow`] — per-function control-flow graphs and an
//!    intraprocedural lockset/inverse dataflow, giving path-sensitive
//!    versions of the discipline rules;
//! 3. [`lockgraph`] — a workspace lock-acquisition-order graph with
//!    static deadlock (cycle) detection.
//!
//! Run it over the workspace:
//!
//! ```text
//! cargo run -p txboost-lint -- --workspace --deny-all
//! ```
//!
//! The rule table lives in [`rules::RULES`]; DESIGN.md §10 documents
//! each rule's paper justification and the suppression policy.

pub mod analysis;
pub mod cfg;
pub mod dataflow;
pub mod engine;
pub mod lockgraph;
pub mod parser;
pub mod rules;
pub mod sarif;
pub mod source;

pub use dataflow::TransferMutation;
pub use engine::{
    declares_workspace, lint_source, lint_source_mutated, lint_tree, Diagnostic, Report, UnsafeSite,
};
pub use lockgraph::LockOrderGraph;
pub use rules::{RuleKind, RULES, SUPPRESSION_MISSING_REASON};
pub use sarif::to_sarif;
