//! Violates inverse-pairing path-sensitively: the undo *is* logged after
//! the mutation, but a fallible call sits between them — on its error
//! path the `?` leaves the method with the mutation unlogged, so abort
//! cannot undo it.
//!
//! Frozen differential, recorded once at commit b9075a2 (the last with
//! the PR-4 line-heuristic engine): its order-based `inverse_pairing`
//! check reported nothing on this file, pairing the mutation with the
//! later registration. The CFG rule reports `inverse-pairing` on the
//! `self.base.add` line.

use std::sync::Arc;

pub struct BadDistanceBag {
    base: Arc<BaseBag>,
    lock: TxMutex,
    journal: Journal,
}

impl BadDistanceBag {
    pub fn add(&self, txn: &Txn, key: u64) -> TxResult<()> {
        self.lock.lock(txn)?;
        self.base.add(key);
        let receipt = self.journal.append(txn, key)?;
        let base = Arc::clone(&self.base);
        txn.log_undo(move || {
            base.remove(&key);
        });
        Ok(receipt)
    }
}
