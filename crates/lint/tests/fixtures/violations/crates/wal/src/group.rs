//! Fixture: a WAL closure that can panic where a panic is fatal — on
//! the recovery replay path.

pub struct GroupWal;

impl GroupWal {
    fn lead_det(&self) {
        det::yield_point(det::Point::WalLead);
    }

    pub fn boot(&self, log: &RecoveredLog) {
        log.replay(|record| {
            let first = record.ops[0];
            self.apply(first).expect("replay")
        });
    }
}
