//! Violates yield-point-coverage: `install` kept its install hook but
//! lost the `VersionGc` one its folded-in GC owes, and `read_at` (a
//! registered site) is missing entirely.

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
    }
}
