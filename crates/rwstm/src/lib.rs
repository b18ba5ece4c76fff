//! # txboost-rwstm — the read/write-conflict STM baseline
//!
//! The paper's evaluation (Section 4.1, Figure 9) compares boosting
//! against "a transactional red-black tree based on read/write sets",
//! built with DSTM2's *shadow factory*: the first time a transaction
//! writes an object, the factory snapshots it for recovery, and commit
//! fails if any object read was concurrently written.
//!
//! This crate is that baseline, built from scratch: a TL2-style
//! software transactional memory with
//!
//! * a global version clock,
//! * per-object versioned write locks ([`StmVar`]),
//! * buffered writes (writes become visible only at commit — the moral
//!   equivalent of updating the shadow copy),
//! * read-set validation at read time (for opacity — no "zombie"
//!   transactions can observe inconsistent snapshots) and again at
//!   commit.
//!
//! Conflicts are detected purely from reads and writes, with no
//! knowledge of object semantics — so two transactions adding
//! *different* keys to a tree abort each other whenever their paths
//! share a node, even though the operations commute. Quantifying that
//! gap against boosting is the entire point of Figure 9.
//!
//! On top of the STM core, [`rbtree`] implements the transactional
//! red-black tree (object-granularity conflict detection, one
//! [`StmVar`] per tree node, mirroring DSTM2's per-object shadow
//! copies) and [`listset`] the sorted-list set from the paper's
//! introduction.

#![warn(missing_docs)]

pub mod listset;
pub mod rbtree;
mod stm;

pub use stm::{Stm, StmTxn, StmVar};
