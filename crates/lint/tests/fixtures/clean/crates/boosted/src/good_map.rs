//! A fixture boosted map whose mutations log one two-armed effect each:
//! the inverse arm restores the base object on abort, the install arm
//! feeds the committed-version store at commit, and both run off one
//! captured handle. Neither arm can panic in release builds.

use std::sync::Arc;

pub struct GoodMap {
    base: Arc<Versioned<BaseMap, VersionStore>>,
    locks: KeyLockMap,
}

impl GoodMap {
    /// Rule 2 then Rule 3: acquire, call, log both fates of the call.
    pub fn put(&self, txn: &Txn, key: u64, value: u64) -> TxResult<Option<u64>> {
        self.locks.lock(txn, &key)?;
        let previous = self.base.insert(key, value);
        txn.log_effect(
            (Arc::clone(&self.base), key, previous, value),
            |(base, key, previous, _)| {
                match previous {
                    Some(old) => base.insert(key, old),
                    None => base.remove(&key),
                };
            },
            |(base, key, _, value), stamp| base.versions.install(key, Some(value), stamp),
        );
        Ok(previous)
    }

    /// A remove that found nothing changed nothing: no effect to log.
    pub fn remove(&self, txn: &Txn, key: u64) -> TxResult<Option<u64>> {
        self.locks.lock(txn, &key)?;
        let removed = self.base.remove(&key);
        if let Some(old) = removed {
            txn.log_effect(
                (Arc::clone(&self.base), key, old),
                |(base, key, old)| {
                    base.insert(key, old);
                },
                |(base, key, _), stamp| base.versions.install(key, None, stamp),
            );
        }
        Ok(removed)
    }
}
