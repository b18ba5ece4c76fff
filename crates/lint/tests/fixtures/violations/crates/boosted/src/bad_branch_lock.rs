//! Violates lock-before-mutate path-sensitively: the abstract lock is
//! acquired on only one branch, so the base call is reachable with no
//! lock held; the must-intersection at the join catches the uncovered
//! path.
//!
//! Frozen differential, recorded once at commit b9075a2 (the last with
//! the PR-4 line-heuristic engine): its `lock_before_mutate` check saw
//! an acquisition earlier in the token stream and reported nothing on
//! this file. The CFG rule reports `lock-before-mutate` on the
//! `self.base.add` line.

use std::sync::Arc;

pub struct BadBranchLockSet {
    base: Arc<BaseSet>,
    lock: TxMutex,
}

impl BadBranchLockSet {
    pub fn add(&self, txn: &Txn, key: u64) -> TxResult<()> {
        if key % 2 == 0 {
            self.lock.lock(txn)?;
        }
        self.base.add(key);
        let base = Arc::clone(&self.base);
        txn.log_undo(move || {
            base.remove(&key);
        });
        Ok(())
    }
}
