//! Violates inverse-pairing with an effect that is registered where an
//! inverse belongs but whose inverse arm does not invert: it only looks
//! the key up, so an abort leaves the insert in place. Its install arm
//! then violates handler-panic-audit at commit time.

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
                let _ = base.contains_key(&key);
            },
            |(base, key, value), stamp| {
                base.versions.install(key, Some(value), stamp).unwrap();
            },
        );
        Ok(())
    }
}
