//! # Cookbook: boosting your own object
//!
//! Transactional boosting is a recipe, not a fixed menu. This walk-
//! through boosts a linearizable object this workspace does *not* ship
//! — a register file with compare-and-swap — using only `txboost-core`.
//! The same five steps produced every type in `txboost-collections`.
//!
//! ## The recipe
//!
//! 1. **Start from a linearizable object.** Any thread-safe object with
//!    well-defined method semantics works; you never look inside it.
//! 2. **Write the commutativity table** (paper Definition 5.4): for
//!    each pair of method calls (including their *results*), decide
//!    whether applying them in either order yields the same responses
//!    and state. Calls on different registers commute; two writes to
//!    the same register do not.
//! 3. **Pick an abstract-lock discipline** that conservatively covers
//!    the table (Rule 2): any non-commuting pair must map to
//!    conflicting locks. Per-register locks
//!    ([`crate::locks::KeyLockMap`]) are the natural fit here: the
//!    register index picks a slot of a fixed lock table, and two
//!    registers that happen to share a slot merely conflict more than
//!    the table requires — which Rule 2 always permits.
//! 4. **Write the inverse table** (Definition 5.3): `write(r, new)`
//!    returning `old` has inverse `write(r, old)`; a successful
//!    `cas(r, a, b)` has inverse `write(r, a)`; reads invert to
//!    `noop()`. Log the inverse after every successful call.
//! 5. **Classify disposable calls** (Definition 5.5): anything that no
//!    future observation can date — here, nothing; registers are fully
//!    observable, so this object has no disposable methods. (Compare
//!    the semaphore's `release` or the allocator's `free`.)
//!
//! ## The complete implementation
//!
//! ```
//! use std::sync::Arc;
//! use txboost_core::locks::KeyLockMap;
//! use txboost_core::{TxResult, Txn, TxnManager};
//!
//! /// Step 1: the linearizable base object (black box).
//! #[derive(Default)]
//! struct RegisterFile {
//!     regs: [std::sync::atomic::AtomicI64; 8],
//! }
//!
//! impl RegisterFile {
//!     fn read(&self, r: usize) -> i64 {
//!         self.regs[r].load(std::sync::atomic::Ordering::SeqCst)
//!     }
//!     fn write(&self, r: usize, v: i64) -> i64 {
//!         self.regs[r].swap(v, std::sync::atomic::Ordering::SeqCst)
//!     }
//!     fn cas(&self, r: usize, expect: i64, new: i64) -> bool {
//!         self.regs[r]
//!             .compare_exchange(
//!                 expect,
//!                 new,
//!                 std::sync::atomic::Ordering::SeqCst,
//!                 std::sync::atomic::Ordering::SeqCst,
//!             )
//!             .is_ok()
//!     }
//! }
//!
//! /// Steps 2–4: the boosted wrapper.
//! struct BoostedRegisters {
//!     base: Arc<RegisterFile>,
//!     locks: KeyLockMap<usize>, // step 3: per-register discipline
//! }
//!
//! impl BoostedRegisters {
//!     fn new() -> Self {
//!         BoostedRegisters {
//!             base: Arc::new(RegisterFile::default()),
//!             locks: KeyLockMap::new(),
//!         }
//!     }
//!
//!     fn read(&self, txn: &Txn, r: usize) -> TxResult<i64> {
//!         self.locks.lock(txn, &r)?; // reads conflict with writes on r
//!         Ok(self.base.read(r)) // inverse: noop()
//!     }
//!
//!     fn write(&self, txn: &Txn, r: usize, v: i64) -> TxResult<i64> {
//!         self.locks.lock(txn, &r)?;
//!         let old = self.base.write(r, v);
//!         let base = Arc::clone(&self.base);
//!         txn.log_undo(move || {
//!             base.write(r, old); // step 4: restore the old value
//!         });
//!         Ok(old)
//!     }
//!
//!     fn cas(&self, txn: &Txn, r: usize, expect: i64, new: i64) -> TxResult<bool> {
//!         self.locks.lock(txn, &r)?;
//!         let ok = self.base.cas(r, expect, new);
//!         if ok {
//!             let base = Arc::clone(&self.base);
//!             txn.log_undo(move || {
//!                 base.write(r, expect); // inverse of a successful cas
//!             });
//!         } // a failed cas changed nothing: inverse is noop()
//!         Ok(ok)
//!     }
//! }
//!
//! // And it is transactional:
//! let tm = TxnManager::default();
//! let regs = BoostedRegisters::new();
//!
//! tm.run(|t| {
//!     regs.write(t, 0, 10)?;
//!     regs.write(t, 1, 20)
//! })
//! .unwrap();
//!
//! // A failing transaction rolls everything back, in reverse order:
//! let r: Result<(), _> = tm.run(|t| {
//!     regs.write(t, 0, 999)?;
//!     if !regs.cas(t, 1, 21, 31)? {
//!         return Err(t.abort()); // precondition failed: cancel
//!     }
//!     Ok(())
//! });
//! assert!(r.is_err());
//! assert_eq!(tm.run(|t| regs.read(t, 0)).unwrap(), 10); // restored
//! assert_eq!(tm.run(|t| regs.read(t, 1)).unwrap(), 20);
//! ```
//!
//! ## Checking your tables
//!
//! Don't trust hand-derived commutativity/inverse tables: encode the
//! object's sequential specification as a `txboost_model::SequentialSpec`
//! and let `calls_commute` / `is_inverse_of` verify every row over an
//! exhaustive small state space — see `txboost-model`'s tests for the
//! Set (Figure 1) and PQueue (Figure 4) tables done exactly that way.
//!
//! ## What can go wrong
//!
//! * **Too-coarse locks** are always *safe* (Rule 2 is an upper bound on
//!   concurrency, not a correctness knife-edge) — Figure 10 quantifies
//!   what they cost.
//! * **Too-fine locks are unsafe.** If two non-commuting calls can hold
//!   non-conflicting locks, serializability is gone. When in doubt,
//!   conflict.
//! * **Inverses must be logged only for calls that happened.** Log after
//!   the base call returns, conditioned on its result.
//! * **Inverses run with locks still held but must not acquire new
//!   abstract locks** (they cannot deadlock precisely because they only
//!   touch state the transaction already owns — Lemma 5.2).
//! * **Disposable misuse:** deferring a call that *is* observable before
//!   commit (e.g. deferring a semaphore `acquire`) breaks isolation.
//!   Verify disposability with `txboost_model::is_disposable`.
