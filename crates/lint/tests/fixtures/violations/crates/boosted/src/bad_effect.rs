//! Violates handler-panic-audit in the install arm of a two-armed
//! effect: `log_effect` registers two handlers at once, and the audit
//! reads each arm on its own. The inverse arm is fine; the install arm
//! unwraps at commit time, after the point of no return.

use std::sync::Arc;

pub struct BadEffectMap {
    base: Arc<Versioned<BaseMap, VersionStore>>,
    locks: KeyLockMap,
}

impl BadEffectMap {
    pub fn put(&self, txn: &Txn, key: u64, value: u64) -> TxResult<()> {
        self.locks.lock(txn, &key)?;
        self.base.insert(key, value);
        txn.log_effect(
            (Arc::clone(&self.base), key, value),
            |(base, key, _)| {
                base.remove(&key);
            },
            |(base, key, value), stamp| {
                base.versions.install(key, Some(value), stamp).unwrap();
            },
        );
        Ok(())
    }
}
