//! Fixture: a panic-free WAL replay closure, with the batch-seal yield
//! hook in place on the leader's path.

pub struct GroupWal;

impl GroupWal {
    fn lead_det(&self) {
        det::yield_point(det::Point::WalBatchSeal);
    }

    pub fn boot(&self, log: &RecoveredLog) {
        log.replay(|record| match record.ops.first() {
            Some(op) => self.apply(op),
            None => true,
        });
    }
}
