//! Error types for the boosting runtime.

use std::fmt;

/// Why a transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AbortReason {
    /// The transaction called [`crate::Txn::abort`] (or user code
    /// returned an explicit abort).
    Explicit,
    /// An abstract-lock acquisition timed out. Timeouts are the paper's
    /// deadlock-avoidance mechanism for two-phase abstract locking: the
    /// victim aborts, releases everything, backs off and retries.
    LockTimeout,
    /// A read/write-conflict STM (the baseline in `txboost-rwstm`)
    /// detected a conflicting access during validation or commit.
    Conflict,
    /// Conditional synchronization failed: a transactional semaphore or
    /// blocking queue waited past its timeout for a condition that never
    /// became true (e.g. `take` on an empty pipeline stage).
    WouldBlock,
    /// A call inside a read-only snapshot transaction
    /// ([`crate::TxnManager::begin_read_only`]) asked for an abstract
    /// lock: it mutates, or it reads an object that keeps no committed
    /// versions (a set, the priority queue). Read-only transactions
    /// never abort on conflicts — this is the one, program-error path
    /// out of them, and it is never retried.
    ReadOnlyViolation,
    /// A read-only transaction's snapshot predates the moment a map it
    /// read began keeping versions: its first snapshot read armed it,
    /// and what the map held before that has no versions to read at an
    /// older timestamp. [`crate::TxnManager::run_read_only`] restarts
    /// the transaction with a fresh snapshot, once per map it arms.
    SnapshotTooOld,
    /// Any other application-specific reason.
    Other,
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbortReason::Explicit => "explicit abort",
            AbortReason::LockTimeout => "abstract-lock acquisition timed out",
            AbortReason::Conflict => "read/write conflict",
            AbortReason::WouldBlock => "conditional synchronization timed out",
            AbortReason::ReadOnlyViolation => {
                "abstract lock requested inside a read-only transaction (a mutation, or a read of an object that keeps no versions)"
            }
            AbortReason::SnapshotTooOld => "snapshot predates the versions of an object it read",
            AbortReason::Other => "aborted",
        };
        f.write_str(s)
    }
}

/// The control-flow token that unwinds an aborting transaction.
///
/// Boosted methods return [`crate::TxResult`]; when anything inside the
/// transaction needs to abort (lock timeout, explicit abort, baseline
/// STM conflict), an `Abort` value propagates out of the user closure
/// via `?`. [`crate::TxnManager::run`] then replays the undo log,
/// releases the transaction's abstract locks, and retries the closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abort {
    reason: AbortReason,
}

impl Abort {
    /// An abort with the given reason.
    pub const fn new(reason: AbortReason) -> Self {
        Abort { reason }
    }

    /// An explicit, user-requested abort.
    pub const fn explicit() -> Self {
        Abort::new(AbortReason::Explicit)
    }

    /// An abort caused by an abstract-lock timeout.
    pub const fn lock_timeout() -> Self {
        Abort::new(AbortReason::LockTimeout)
    }

    /// An abort caused by a read/write conflict (baseline STM).
    pub const fn conflict() -> Self {
        Abort::new(AbortReason::Conflict)
    }

    /// An abort caused by a conditional-synchronization timeout.
    pub const fn would_block() -> Self {
        Abort::new(AbortReason::WouldBlock)
    }

    /// An abort raised by an abstract-lock request inside a read-only
    /// snapshot transaction ([`AbortReason::ReadOnlyViolation`]).
    pub const fn read_only_violation() -> Self {
        Abort::new(AbortReason::ReadOnlyViolation)
    }

    /// An abort of a read-only transaction whose snapshot is older than
    /// the versions an object it read keeps
    /// ([`AbortReason::SnapshotTooOld`]).
    pub const fn snapshot_too_old() -> Self {
        Abort::new(AbortReason::SnapshotTooOld)
    }

    /// The reason this abort was raised.
    pub const fn reason(&self) -> AbortReason {
        self.reason
    }
}

impl fmt::Display for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transaction aborted: {}", self.reason)
    }
}

impl std::error::Error for Abort {}

/// Terminal failure of [`crate::TxnManager::run`].
///
/// `run` retries aborted transactions, so user code normally never sees
/// an [`Abort`]; this error is returned only when the configured retry
/// budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TxnError {
    /// The transaction aborted more times than
    /// [`crate::TxnConfig::max_retries`] allows. Carries the reason of
    /// the final abort.
    RetriesExhausted(AbortReason),
    /// User code aborted explicitly ([`Abort::explicit`]). Explicit
    /// aborts are a *decision*, not a transient conflict, so the retry
    /// loop treats them as terminal: the transaction is rolled back and
    /// not re-attempted.
    ExplicitlyAborted,
    /// A call inside a read-only snapshot transaction
    /// ([`crate::TxnManager::run_read_only`]) asked for an abstract
    /// lock ([`AbortReason::ReadOnlyViolation`]). Like an
    /// explicit abort this is a decision (a program error), not a
    /// transient conflict, and is never retried.
    ReadOnlyViolation,
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::RetriesExhausted(r) => {
                write!(f, "transaction retry budget exhausted (last abort: {r})")
            }
            TxnError::ExplicitlyAborted => f.write_str("transaction explicitly aborted"),
            TxnError::ReadOnlyViolation => AbortReason::ReadOnlyViolation.fmt(f),
        }
    }
}

impl std::error::Error for TxnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_reasons_round_trip() {
        assert_eq!(Abort::explicit().reason(), AbortReason::Explicit);
        assert_eq!(Abort::lock_timeout().reason(), AbortReason::LockTimeout);
        assert_eq!(Abort::conflict().reason(), AbortReason::Conflict);
        assert_eq!(Abort::would_block().reason(), AbortReason::WouldBlock);
        assert_eq!(
            Abort::read_only_violation().reason(),
            AbortReason::ReadOnlyViolation
        );
    }

    #[test]
    fn display_is_informative() {
        let s = Abort::lock_timeout().to_string();
        assert!(s.contains("timed out"), "unexpected display: {s}");
        let e = TxnError::RetriesExhausted(AbortReason::LockTimeout).to_string();
        assert!(e.contains("retry budget"), "unexpected display: {e}");
    }

    #[test]
    fn abort_is_copy_and_eq() {
        let a = Abort::conflict();
        let b = a;
        assert_eq!(a, b);
    }
}
