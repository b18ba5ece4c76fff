//! Offline stand-in for the `crossbeam` crate.
//!
//! The build environment has no crates.io access, so this shim provides
//! the one crossbeam facility the workspace uses: [`epoch`] — an
//! `Atomic`/`Owned`/`Shared`/`Guard` API with *quiescence-based*
//! reclamation: deferred destructions are queued globally and freed
//! whenever the number of live guards reaches zero. That is a coarser
//! grace period than crossbeam's epochs (garbage can accumulate while
//! pins overlap continuously), but it is memory-safe under the same
//! contract and reclaims promptly in test/bench workloads, which always
//! quiesce. Scoped threads come from [`std::thread::scope`].

#![warn(missing_docs)]

pub mod epoch;
