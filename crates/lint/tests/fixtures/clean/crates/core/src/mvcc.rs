//! Clean multi-version store: every registered yield-point site
//! (`install` on both stores, `read_at`) carries its deterministic
//! hooks — GC runs inside the install, so the install sites yield
//! `VersionGc` as well — and the commit-time version-install closure
//! stays panic-free.

pub struct VersionStore {
    slots: Mutex<Vec<(u64, Option<u64>)>>,
}

impl VersionStore {
    pub fn install(&self, value: Option<u64>, ts: u64) {
        det::yield_point(det::Point::VersionInstall);
        if let Ok(mut slots) = self.slots.lock() {
            slots.push((ts, value));
            let cut = slots.partition_point(|&(t, _)| t < ts);
            slots.drain(..cut);
        }
        det::yield_point(det::Point::VersionGc);
    }

    pub fn read_at(&self, ts: u64) -> Option<u64> {
        det::yield_point(det::Point::SnapshotRead);
        let slots = self.slots.lock().ok()?;
        slots
            .iter()
            .rev()
            .find(|&&(t, _)| t <= ts)
            .and_then(|&(_, v)| v)
    }
}

pub struct DeltaChain {
    deltas: Mutex<Vec<(u64, i64)>>,
}

impl DeltaChain {
    pub fn install(&self, ts: u64, delta: i64, floor: u64) {
        det::yield_point(det::Point::VersionInstall);
        if let Ok(mut deltas) = self.deltas.lock() {
            deltas.push((ts, delta));
            let cut = deltas.partition_point(|&(t, _)| t <= floor);
            deltas.drain(..cut);
        }
        det::yield_point(det::Point::VersionGc);
    }
}

pub fn record_version(txn: &Txn, store: Arc<VersionStore>, ts: u64) {
    txn.log_version_install(move || {
        store.install(None, ts);
    });
}
