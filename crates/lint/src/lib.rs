//! `txboost-lint` — checks the parts of the transactional-boosting
//! discipline (Herlihy & Koskinen, PPoPP 2008) that no run can observe.
//!
//! Rules 2 and 3 — acquire the call's abstract lock before the base
//! call, log its inverse after it — are checked at runtime, per
//! conflict-table entry, by `crates/boosted/tests/conflict_tables.rs`.
//! What is left here is what a correct run never exercises:
//!
//! - `handler-panic-audit`: no panic source inside an undo, deferred,
//!   version-install, WAL-replay or event-loop closure;
//! - `unsafe-inventory`: every `unsafe` site carries a `// SAFETY:`
//!   argument, and all of them are exported to `unsafe_inventory.json`;
//! - `yield-point-coverage`: the deterministic scheduler's hooks sit in
//!   every site it must be able to preempt.
//!
//! A hand-rolled lexer ([`source`]) feeds token-level file analyses
//! ([`analysis`]); the rules ([`rules::RULES`]) are functions from a
//! file's analysis to diagnostics, and [`engine`] walks the tree.
//! DESIGN.md §10 has the rules and the tests that replaced the rest.
//!
//! ```text
//! cargo run -p txboost-lint -- --workspace --deny-all
//! ```

pub mod analysis;
pub mod engine;
pub mod rules;
pub mod source;

pub use engine::{declares_workspace, lint_source, lint_tree, Diagnostic, Report, UnsafeSite};
pub use rules::RULES;
