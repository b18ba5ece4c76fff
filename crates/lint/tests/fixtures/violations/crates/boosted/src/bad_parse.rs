//! Violates parse-failure: `<<` is outside the analyzer's expression
//! grammar, so the path-sensitive rules cannot check this (otherwise
//! disciplined) method. That must be a finding, not silence.

use std::sync::Arc;

pub struct BadParseSet {
    base: Arc<BaseSet>,
    lock: TxMutex,
}

impl BadParseSet {
    pub fn add(&self, txn: &Txn, key: u64) -> TxResult<()> {
        self.lock.lock(txn)?;
        let slot = key << 3;
        self.base.add(slot);
        let base = Arc::clone(&self.base);
        txn.log_undo(move || {
            base.remove(&slot);
        });
        Ok(())
    }
}
