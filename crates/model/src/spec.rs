//! Sequential specifications of the paper's abstract objects.
//!
//! A specification defines an abstract state and which
//! `(operation, response)` pairs are *legal* in each state — the
//! pre/postcondition style the paper assumes ("the specification for a
//! linearizable base object defines an abstract state, such as a set of
//! integers"). Because some specs are nondeterministic (`assignID()`
//! may return any unused ID), the interface is an acceptance relation,
//! not a function.

use std::collections::BTreeSet;
use std::fmt::Debug;

/// A method call: an operation together with its response — the unit
/// the paper's commutativity and inverse definitions quantify over
/// ("inverses are defined in terms of method calls, not invocations
/// alone").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call<Op, Resp> {
    /// The operation (method + arguments).
    pub op: Op,
    /// Its response.
    pub resp: Resp,
}

impl<Op, Resp> Call<Op, Resp> {
    /// Construct a call.
    pub fn new(op: Op, resp: Resp) -> Self {
        Call { op, resp }
    }
}

/// A sequential specification.
pub trait SequentialSpec {
    /// Canonical abstract state. `Eq` is used as the paper's
    /// "defines the same state" (Definition 5.2); for the canonical
    /// representations used here, observational equivalence and
    /// structural equality coincide.
    type State: Clone + Eq + Debug;
    /// Operations (method name + arguments).
    type Op: Clone + Debug;
    /// Responses.
    type Resp: Clone + PartialEq + Debug;

    /// The initial abstract state.
    fn initial(&self) -> Self::State;

    /// `Some(next)` iff `(op, resp)` is a legal call in `state`,
    /// leaving the object in `next`.
    fn step(&self, state: &Self::State, op: &Self::Op, resp: &Self::Resp) -> Option<Self::State>;
}

// ---------------------------------------------------------------------
// Set (Figure 1)
// ---------------------------------------------------------------------

/// Operations of the integer `Set` (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// `add(x)`
    Add(i64),
    /// `remove(x)`
    Remove(i64),
    /// `contains(x)`
    Contains(i64),
}

/// The paper's `Set` specification: state is a set of integers;
/// `add`/`remove`/`contains` return whether the set was modified /
/// holds the key.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetSpec;

impl SequentialSpec for SetSpec {
    type State = BTreeSet<i64>;
    type Op = SetOp;
    type Resp = bool;

    fn initial(&self) -> Self::State {
        BTreeSet::new()
    }

    fn step(&self, state: &Self::State, op: &Self::Op, resp: &bool) -> Option<Self::State> {
        let mut next = state.clone();
        let actual = match *op {
            SetOp::Add(x) => next.insert(x),
            SetOp::Remove(x) => next.remove(&x),
            SetOp::Contains(x) => next.contains(&x),
        };
        (actual == *resp).then_some(next)
    }
}

impl SetSpec {
    /// Figure 1's inverse table: the inverse call for each Set call.
    /// Calls that did not change the abstract state invert to `None`
    /// (the paper's `noop()`).
    pub fn inverse(call: &Call<SetOp, bool>) -> Option<Call<SetOp, bool>> {
        match (call.op, call.resp) {
            (SetOp::Add(x), true) => Some(Call::new(SetOp::Remove(x), true)),
            (SetOp::Remove(x), true) => Some(Call::new(SetOp::Add(x), true)),
            (SetOp::Add(_) | SetOp::Remove(_), false) | (SetOp::Contains(_), _) => None,
        }
    }
}

// ---------------------------------------------------------------------
// Priority queue (Figure 4)
// ---------------------------------------------------------------------

/// Operations of the `PQueue` (Figure 4). Duplicates allowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PQueueOp {
    /// `add(x)`
    Add(i64),
    /// `removeMin()`
    RemoveMin,
    /// `min()`
    Min,
}

/// Responses of the `PQueue`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PQueueResp {
    /// `add` returns nothing.
    Unit,
    /// The key removed/observed, or `None` on an empty queue.
    Key(Option<i64>),
}

/// The paper's `PQueue` specification: a multiset of keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct PQueueSpec;

impl SequentialSpec for PQueueSpec {
    /// Multiset as a sorted Vec (canonical).
    type State = Vec<i64>;
    type Op = PQueueOp;
    type Resp = PQueueResp;

    fn initial(&self) -> Self::State {
        Vec::new()
    }

    fn step(&self, state: &Self::State, op: &Self::Op, resp: &Self::Resp) -> Option<Self::State> {
        let mut next = state.clone();
        match op {
            PQueueOp::Add(x) => {
                let pos = next.partition_point(|&k| k <= *x);
                next.insert(pos, *x);
                (*resp == PQueueResp::Unit).then_some(next)
            }
            PQueueOp::RemoveMin => {
                let min = if next.is_empty() {
                    None
                } else {
                    Some(next.remove(0))
                };
                (*resp == PQueueResp::Key(min)).then_some(next)
            }
            PQueueOp::Min => {
                let min = next.first().copied();
                (*resp == PQueueResp::Key(min)).then_some(next)
            }
        }
    }
}

// ---------------------------------------------------------------------
// FIFO queue (Figure 6)
// ---------------------------------------------------------------------

/// Operations of the pipeline `BlockingQueue` (Figure 6). Blocking is
/// modelled by legality: `take` on an empty queue is simply not a legal
/// call (the implementation blocks instead of returning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueOp {
    /// `offer(x)`
    Offer(i64),
    /// `take()`
    Take,
}

/// The FIFO queue specification with capacity bound.
#[derive(Debug, Clone, Copy)]
pub struct QueueSpec {
    /// Maximum number of buffered items (`offer` beyond it is illegal —
    /// the implementation blocks).
    pub capacity: usize,
}

impl SequentialSpec for QueueSpec {
    type State = std::collections::VecDeque<i64>;
    type Op = QueueOp;
    type Resp = Option<i64>;

    fn initial(&self) -> Self::State {
        std::collections::VecDeque::new()
    }

    fn step(&self, state: &Self::State, op: &Self::Op, resp: &Self::Resp) -> Option<Self::State> {
        let mut next = state.clone();
        match op {
            QueueOp::Offer(x) => {
                if next.len() >= self.capacity || resp.is_some() {
                    return None;
                }
                next.push_back(*x);
                Some(next)
            }
            QueueOp::Take => {
                let front = next.pop_front()?;
                (*resp == Some(front)).then_some(next)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Unique-ID generator (Figure 8) — a nondeterministic spec
// ---------------------------------------------------------------------

/// Operations of the unique-ID generator (Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdGenOp {
    /// `assignID()`
    Assign,
    /// `releaseID(x)`
    Release(u64),
}

/// The generator's abstract state: the set of IDs **in use** (the pool
/// of unused IDs is its complement).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdGenSpec;

impl SequentialSpec for IdGenSpec {
    type State = BTreeSet<u64>;
    type Op = IdGenOp;
    type Resp = Option<u64>;

    fn initial(&self) -> Self::State {
        BTreeSet::new()
    }

    fn step(&self, state: &Self::State, op: &Self::Op, resp: &Self::Resp) -> Option<Self::State> {
        let mut next = state.clone();
        match op {
            // assignID() may return ANY id not in use.
            IdGenOp::Assign => {
                let id = (*resp)?;
                if !next.insert(id) {
                    return None; // already in use: illegal response
                }
                Some(next)
            }
            IdGenOp::Release(x) => {
                if resp.is_some() || !next.remove(x) {
                    return None;
                }
                Some(next)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Counting semaphore (Section 3.3.1)
// ---------------------------------------------------------------------

/// Operations of the transactional semaphore (Section 3.3.1). Blocking
/// is modelled by legality, as for [`QueueOp`]: `Acquire` in a
/// zero-permit state is simply not a legal call (the implementation
/// blocks instead of returning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemOp {
    /// `acquire()`
    Acquire,
    /// `release()`
    Release,
}

/// Counting-semaphore specification: state is the number of available
/// permits.
#[derive(Debug, Clone, Copy)]
pub struct SemSpec {
    /// Initial permit count.
    pub permits: u64,
}

impl SequentialSpec for SemSpec {
    type State = u64;
    type Op = SemOp;
    type Resp = ();

    fn initial(&self) -> u64 {
        self.permits
    }

    fn step(&self, state: &u64, op: &SemOp, _resp: &()) -> Option<u64> {
        match op {
            SemOp::Acquire => state.checked_sub(1),
            SemOp::Release => Some(state + 1),
        }
    }
}

// ---------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------

/// Operations of the boosted counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterOp {
    /// `add(n)`
    Add(i64),
    /// `get()`
    Get,
}

/// Counter specification: state is the running sum.
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterSpec;

impl SequentialSpec for CounterSpec {
    type State = i64;
    type Op = CounterOp;
    type Resp = Option<i64>;

    fn initial(&self) -> Self::State {
        0
    }

    fn step(&self, state: &Self::State, op: &Self::Op, resp: &Self::Resp) -> Option<Self::State> {
        match op {
            CounterOp::Add(n) => resp.is_none().then_some(state + n),
            CounterOp::Get => (*resp == Some(*state)).then_some(*state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_spec_accepts_only_true_responses() {
        let s = SetSpec;
        let empty = s.initial();
        let with3 = s.step(&empty, &SetOp::Add(3), &true).unwrap();
        assert!(with3.contains(&3));
        assert!(s.step(&empty, &SetOp::Add(3), &false).is_none());
        assert!(s.step(&with3, &SetOp::Add(3), &true).is_none());
        assert!(s.step(&with3, &SetOp::Contains(3), &true).is_some());
        assert!(s.step(&with3, &SetOp::Contains(4), &false).is_some());
    }

    #[test]
    fn pqueue_spec_orders_duplicates() {
        let s = PQueueSpec;
        let mut st = s.initial();
        for x in [5, 1, 5] {
            st = s.step(&st, &PQueueOp::Add(x), &PQueueResp::Unit).unwrap();
        }
        assert_eq!(st, vec![1, 5, 5]);
        let st = s
            .step(&st, &PQueueOp::RemoveMin, &PQueueResp::Key(Some(1)))
            .unwrap();
        assert!(s
            .step(&st, &PQueueOp::RemoveMin, &PQueueResp::Key(Some(9)))
            .is_none());
        assert!(s
            .step(&st, &PQueueOp::Min, &PQueueResp::Key(Some(5)))
            .is_some());
    }

    #[test]
    fn queue_spec_enforces_capacity_and_fifo() {
        let s = QueueSpec { capacity: 2 };
        let st = s.initial();
        let st = s.step(&st, &QueueOp::Offer(1), &None).unwrap();
        let st = s.step(&st, &QueueOp::Offer(2), &None).unwrap();
        assert!(
            s.step(&st, &QueueOp::Offer(3), &None).is_none(),
            "over capacity"
        );
        assert!(s.step(&st, &QueueOp::Take, &Some(2)).is_none(), "not FIFO");
        let st = s.step(&st, &QueueOp::Take, &Some(1)).unwrap();
        let st = s.step(&st, &QueueOp::Take, &Some(2)).unwrap();
        assert!(
            s.step(&st, &QueueOp::Take, &Some(0)).is_none(),
            "empty take"
        );
        assert_eq!(st.len(), 0);
    }

    #[test]
    fn idgen_spec_is_nondeterministic() {
        let s = IdGenSpec;
        let st = s.initial();
        // Any fresh id is acceptable.
        assert!(s.step(&st, &IdGenOp::Assign, &Some(3)).is_some());
        assert!(s.step(&st, &IdGenOp::Assign, &Some(7)).is_some());
        let st = s.step(&st, &IdGenOp::Assign, &Some(3)).unwrap();
        assert!(s.step(&st, &IdGenOp::Assign, &Some(3)).is_none(), "in use");
        assert!(s.step(&st, &IdGenOp::Release(3), &None).is_some());
        assert!(
            s.step(&st, &IdGenOp::Release(9), &None).is_none(),
            "not in use"
        );
    }

    #[test]
    fn set_inverse_table_matches_figure_1() {
        assert_eq!(
            SetSpec::inverse(&Call::new(SetOp::Add(3), true)),
            Some(Call::new(SetOp::Remove(3), true))
        );
        assert_eq!(
            SetSpec::inverse(&Call::new(SetOp::Remove(3), true)),
            Some(Call::new(SetOp::Add(3), true))
        );
        assert_eq!(SetSpec::inverse(&Call::new(SetOp::Add(3), false)), None);
        assert_eq!(SetSpec::inverse(&Call::new(SetOp::Contains(3), true)), None);
    }

    #[test]
    fn sem_spec_blocks_at_zero_permits() {
        let s = SemSpec { permits: 1 };
        let st = s.step(&s.initial(), &SemOp::Acquire, &()).unwrap();
        assert_eq!(st, 0);
        assert!(s.step(&st, &SemOp::Acquire, &()).is_none(), "would block");
        let st = s.step(&st, &SemOp::Release, &()).unwrap();
        assert_eq!(st, 1);
    }

    #[test]
    fn counter_spec_tracks_sum() {
        let s = CounterSpec;
        let st = s.step(&s.initial(), &CounterOp::Add(5), &None).unwrap();
        let st = s.step(&st, &CounterOp::Add(-2), &None).unwrap();
        assert!(s.step(&st, &CounterOp::Get, &Some(3)).is_some());
        assert!(s.step(&st, &CounterOp::Get, &Some(4)).is_none());
    }
}
