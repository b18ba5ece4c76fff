//! Fixture: a panic-free WAL replay closure, with the leader's yield
//! hook in place.

pub struct GroupWal;

impl GroupWal {
    fn lead_det(&self) {
        det::yield_point(det::Point::WalLead);
    }

    pub fn boot(&self, log: &RecoveredLog) {
        log.replay(|record| match record.ops.first() {
            Some(op) => self.apply(op),
            None => true,
        });
    }
}
