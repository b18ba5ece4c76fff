//! Inline entry storage for transaction logs.
//!
//! The paper's pitch (§6) is that boosting's per-call overhead is "a
//! lock acquire plus an inverse log". The original implementation spent
//! a heap allocation per logged closure (`Vec<Box<dyn FnOnce()>>`): one
//! `Box` per inverse, commit action and abort action, plus `Vec` growth.
//! This module removes all of it for the common case.
//!
//! [`ActionLog`] stores each entry *inline* in a fixed-size slot when
//! it fits ([`INLINE_WORDS`] machine words — the widest effect logged
//! by `crates/boosted`, a map `put`, captures one `Arc` handle, a key,
//! the old binding and the new value, which is 5 words for word-sized
//! keys and values), falling back to a `Box` only for oversized
//! captures. The first `N` slots live inside the log itself (and
//! therefore inside [`crate::Txn`], on the stack); only deeper logs
//! spill to a `Vec`. A short transaction — begin, a few boosted calls,
//! commit — performs **zero** log heap allocations, which the `hotpath`
//! bench verifies with a counting allocator.
//!
//! An [`Entry`] is one captured value with **two arms**, because a
//! logged call has two possible fates: `undo` (the inverse — run
//! newest-first on abort) and `install` (the committed-version install
//! — run oldest-first inside the commit window and handed that commit's
//! [`CommitStamp`]). Exactly one arm consumes the value, or neither
//! does and it is dropped; so one push and one captured handle serve
//! both fates. A log only grows until its transaction commits or
//! aborts, which consumes it whole. [`Run`] is the one-armed form (a
//! bare inverse or deferred action), [`Effect`] the two-armed one.
//!
//! Type-erasure works like a hand-rolled three-entry vtable: each slot
//! carries `undo`, `install` and `drop_fn` function pointers
//! instantiated for the concrete entry type at `push` time. Each moves
//! the entry out of the slot; the first two run an arm, the third
//! disposes of it without running either (commit discards an inverse
//! that has no install arm, and each outcome discards the other's
//! deferred actions).

use crate::mvcc::CommitStamp;
use std::mem::{align_of, size_of, MaybeUninit};

/// Number of machine words an entry may occupy and still be stored
/// inline (no heap allocation). Six words = 48 bytes on 64-bit: a
/// boosted map's `put` over word-sized keys and values (`Arc` + key +
/// `Option` of the old value + new value, 5 words) with one to spare.
pub(crate) const INLINE_WORDS: usize = 6;

/// The raw storage of one slot: the entry itself, or — boxed by
/// [`Slot::new`] when it does not fit — a `Box` of it.
type Payload = MaybeUninit<[usize; INLINE_WORDS]>;

/// Whether `E` can be stored inline in a [`Payload`]. Evaluated at
/// monomorphization time, so `push` compiles to exactly one branch.
const fn fits_inline<E>() -> bool {
    size_of::<E>() <= size_of::<[usize; INLINE_WORDS]>()
        && align_of::<E>() <= align_of::<[usize; INLINE_WORDS]>()
}

/// One logged value and its two arms; see the module docs. Consumed
/// exactly once: by `undo`, by `install`, or by being dropped.
pub(crate) trait Entry: Send + 'static {
    /// Whether [`Entry::install`] does anything. A log counts the
    /// entries that say so, and a commit opens its install window only
    /// for a log holding one.
    const INSTALLS: bool;

    /// The abort arm: run the inverse. For a deferred action, run it.
    fn undo(self);

    /// The commit arm: install the committed version at `stamp`.
    fn install(self, stamp: CommitStamp);
}

/// A closure whose only fate is to be run: an inverse with no version
/// to install, or a deferred commit/abort action.
pub(crate) struct Run<F>(pub(crate) F);

impl<F: FnOnce() + Send + 'static> Entry for Run<F> {
    const INSTALLS: bool = false;

    fn undo(self) {
        (self.0)();
    }

    fn install(self, _: CommitStamp) {}
}

/// One captured value `H` (a handle to the object plus the call's
/// arguments and result) and both arms over it.
pub(crate) struct Effect<H, U, I>(pub(crate) H, pub(crate) U, pub(crate) I);

impl<H, U, I> Entry for Effect<H, U, I>
where
    H: Send + 'static,
    U: FnOnce(H) + Send + 'static,
    I: FnOnce(H, CommitStamp) + Send + 'static,
{
    const INSTALLS: bool = true;

    fn undo(self) {
        (self.1)(self.0);
    }

    fn install(self, stamp: CommitStamp) {
        (self.2)(self.0, stamp);
    }
}

/// How an entry too large for a slot is stored: the box is the entry.
impl<E: Entry> Entry for Box<E> {
    const INSTALLS: bool = E::INSTALLS;

    fn undo(self) {
        (*self).undo();
    }

    fn install(self, stamp: CommitStamp) {
        (*self).install(stamp);
    }
}

/// One type-erased entry: payload + a three-entry "vtable".
struct Slot {
    payload: Payload,
    /// Move the entry out of `payload` and run its undo arm.
    undo: unsafe fn(*mut u8),
    /// Move the entry out of `payload` and run its install arm; `None`
    /// for an entry that has none ([`Entry::INSTALLS`]).
    install: Option<unsafe fn(*mut u8, CommitStamp)>,
    /// Dispose of the entry without running either arm.
    drop_fn: unsafe fn(*mut u8),
}

// `Slot` deliberately has no `Drop` impl: slots are consumed manually
// through `undo`/`install`/`drop_fn` exactly once, and containers that
// merely free slot memory (the spill `Vec`) must not double-drop the
// entry.

impl Slot {
    /// Erase `entry` into a slot, boxing it first if it is too large.
    /// Returns the slot and whether it had to be boxed (diagnostics:
    /// the zero-allocation claim is testable).
    fn new<E: Entry>(entry: E) -> (Slot, bool) {
        if fits_inline::<E>() {
            (Slot::inline(entry), false)
        } else {
            (Slot::inline(Box::new(entry)), true)
        }
    }

    /// Erase an entry that fits (a `Box` always does).
    fn inline<E: Entry>(entry: E) -> Slot {
        assert!(fits_inline::<E>(), "entry wider than a slot");
        let mut payload = Payload::uninit();
        // SAFETY: the assert above proved size and alignment; the write
        // moves `entry` into the payload, which exactly one of the
        // three functions below — instantiated for this `E` — will
        // read out, once.
        unsafe { payload.as_mut_ptr().cast::<E>().write(entry) };
        let install: unsafe fn(*mut u8, CommitStamp) = install_arm::<E>;
        Slot {
            payload,
            undo: undo_arm::<E>,
            install: E::INSTALLS.then_some(install),
            drop_fn: drop_arm::<E>,
        }
    }
}

/// # Safety
/// `p` must point at a payload holding a valid `E`, which must never
/// be read again afterwards.
unsafe fn undo_arm<E: Entry>(p: *mut u8) {
    // SAFETY: the caller hands over a payload written by `Slot::inline`
    // with this exact `E`; `read` moves the entry out, so the slot is
    // dead afterwards (the container forgets it without dropping).
    let entry = unsafe { p.cast::<E>().read() };
    entry.undo();
}

/// # Safety
/// Same contract as [`undo_arm`].
unsafe fn install_arm<E: Entry>(p: *mut u8, stamp: CommitStamp) {
    // SAFETY: see `undo_arm`.
    let entry = unsafe { p.cast::<E>().read() };
    entry.install(stamp);
}

/// # Safety
/// Same contract as [`undo_arm`].
unsafe fn drop_arm<E>(p: *mut u8) {
    // SAFETY: see `undo_arm`; `read` moves the entry out and the local
    // binding drops it without running either arm.
    let entry = unsafe { p.cast::<E>().read() };
    drop(entry);
}

/// An entry removed from an [`ActionLog`]: run one of its arms with
/// [`LoggedAction::invoke`] or [`LoggedAction::install`], or drop it to
/// dispose of the entry without running either.
pub(crate) struct LoggedAction {
    slot: Slot,
    live: bool,
}

impl LoggedAction {
    /// Run the undo arm (consuming the entry): the inverse, or the
    /// deferred action.
    pub(crate) fn invoke(mut self) {
        self.live = false;
        // SAFETY: `live` is cleared first so `Drop` will not touch the
        // payload even if the arm panics; the slot was initialized by
        // `Slot::inline` and is consumed exactly once here.
        unsafe { (self.slot.undo)(self.slot.payload.as_mut_ptr().cast::<u8>()) };
    }

    /// Run the install arm at `stamp` (consuming the entry); an entry
    /// without one is dropped.
    pub(crate) fn install(mut self, stamp: CommitStamp) {
        let Some(install) = self.slot.install else {
            return;
        };
        self.live = false;
        // SAFETY: as in `invoke`.
        unsafe { install(self.slot.payload.as_mut_ptr().cast::<u8>(), stamp) };
    }
}

impl Drop for LoggedAction {
    fn drop(&mut self) {
        if self.live {
            // SAFETY: the payload is still initialized (neither arm
            // ran); `drop_fn` consumes it exactly once.
            unsafe { (self.slot.drop_fn)(self.slot.payload.as_mut_ptr().cast::<u8>()) };
        }
    }
}

/// A log of type-erased [`Entry`] values with `N` inline slots and a
/// spill `Vec` for deeper logs, consumed from either end.
///
/// Live slots occupy indices `head..len`; `head` is nonzero only while
/// [`ActionLog::pop_front`] is draining the log, and returns to zero
/// with the last entry. Slot `i` lives in the inline array for `i < N`
/// and in `spill[i - N]` otherwise.
pub(crate) struct ActionLog<const N: usize> {
    inline: [MaybeUninit<Slot>; N],
    spill: Vec<Slot>,
    head: usize,
    len: usize,
    /// Live entries with an install arm.
    installs: usize,
    boxed: usize,
}

impl<const N: usize> Default for ActionLog<N> {
    fn default() -> Self {
        ActionLog {
            inline: [const { MaybeUninit::uninit() }; N],
            spill: Vec::new(),
            head: 0,
            len: 0,
            installs: 0,
            boxed: 0,
        }
    }
}

impl<const N: usize> ActionLog<N> {
    /// An empty log. Allocation-free (`Vec::new` does not allocate).
    pub(crate) fn new() -> Self {
        ActionLog::default()
    }

    /// Number of live (un-consumed) entries.
    pub(crate) fn len(&self) -> usize {
        self.len - self.head
    }

    /// Whether any live entry has an install arm.
    pub(crate) fn has_installs(&self) -> bool {
        self.installs > 0
    }

    /// How many pushed entries were too large for a slot and had to be
    /// boxed (diagnostics; the expected value on every in-tree path is
    /// zero).
    pub(crate) fn boxed_count(&self) -> usize {
        self.boxed
    }

    /// Append `entry`. Allocation-free while the log is at most `N`
    /// deep and the entry fits in [`INLINE_WORDS`] words.
    pub(crate) fn push<E: Entry>(&mut self, entry: E) {
        debug_assert_eq!(self.head, 0, "push into a draining log");
        let (slot, was_boxed) = Slot::new(entry);
        self.boxed += usize::from(was_boxed);
        self.installs += usize::from(E::INSTALLS);
        if self.len < N {
            self.inline[self.len].write(slot);
        } else {
            debug_assert_eq!(self.spill.len(), self.len - N);
            self.spill.push(slot);
        }
        self.len += 1;
    }

    /// Remove and return the most recently pushed entry (LIFO — the
    /// order inverses must replay in).
    pub(crate) fn pop(&mut self) -> Option<LoggedAction> {
        if self.len == self.head {
            return None;
        }
        self.len -= 1;
        let slot = if self.len >= N {
            self.spill.pop().expect("spill length tracks len")
        } else {
            // SAFETY: slot `len` was initialized by `push`; decrementing
            // `len` first removes it from the live range, so it is read
            // out exactly once and never dropped by the container.
            unsafe { self.inline[self.len].assume_init_read() }
        };
        Some(self.removed(slot))
    }

    /// Remove and return the oldest live entry (FIFO — the order
    /// deferred commit/abort actions and version installs run in). The
    /// log is drained where it lies: nothing is moved but the one slot.
    pub(crate) fn pop_front(&mut self) -> Option<LoggedAction> {
        if self.head == self.len {
            return None;
        }
        let i = self.head;
        self.head += 1;
        let slot = if i < N {
            // SAFETY: slot `i` was initialized by `push`; advancing
            // `head` first removes it from the live range, so it is
            // read out exactly once and never dropped by the container.
            unsafe { self.inline[i].assume_init_read() }
        } else {
            // SAFETY: `spill[i - N]` was initialized by `push`;
            // advancing `head` removes it from the live range. The
            // bits left behind in the `Vec` are never consumed again,
            // and freeing them is harmless because `Slot` has no
            // `Drop` impl.
            unsafe { std::ptr::read(self.spill.as_ptr().add(i - N)) }
        };
        Some(self.removed(slot))
    }

    /// Account for `slot` having left the live range. Once the last
    /// live entry is gone, make the log pushable again: `head` back to
    /// zero, and the spill's dead bits (slots `pop_front` read out)
    /// forgotten — `Slot` has no `Drop`.
    fn removed(&mut self, slot: Slot) -> LoggedAction {
        self.installs -= usize::from(slot.install.is_some());
        if self.head == self.len {
            self.head = 0;
            self.len = 0;
            self.spill.clear();
        }
        LoggedAction { slot, live: true }
    }

    /// Discard every entry without running any.
    pub(crate) fn clear(&mut self) {
        while self.pop().is_some() {}
    }
}

impl<const N: usize> Drop for ActionLog<N> {
    fn drop(&mut self) {
        // Dispose of (never run) anything still live. `pop` handles the
        // head boundary, so a partially drained log is fine.
        while self.pop().is_some() {}
    }
}

impl<const N: usize> std::fmt::Debug for ActionLog<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActionLog")
            .field("len", &self.len())
            .field("inline_slots", &N)
            .field("boxed", &self.boxed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    const STAMP: CommitStamp = CommitStamp { ts: 7, floor: 3 };

    type Hits<T> = Arc<Mutex<Vec<T>>>;

    /// A one-armed entry that records `i` when run.
    fn record(hits: &Hits<i32>, i: i32) -> impl Entry {
        let h = Arc::clone(hits);
        Run(move || h.lock().unwrap().push(i))
    }

    /// A two-armed entry that records which arm consumed it, and with
    /// what; the probe counts the captured value's drop.
    fn effect(
        hits: &Hits<(&'static str, i32, u64)>,
        i: i32,
        dropped: &Arc<AtomicUsize>,
    ) -> impl Entry {
        Effect(
            (Arc::clone(hits), i, DropProbe(Arc::clone(dropped))),
            |(h, i, _probe): (Hits<_>, i32, DropProbe)| h.lock().unwrap().push(("undo", i, 0)),
            |(h, i, _probe): (Hits<_>, i32, DropProbe), stamp: CommitStamp| {
                h.lock().unwrap().push(("install", i, stamp.ts));
            },
        )
    }

    #[test]
    fn inline_push_pop_runs_in_lifo_order() {
        let hits = Hits::default();
        let mut log = ActionLog::<4>::new();
        for i in 0..3 {
            log.push(record(&hits, i));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.boxed_count(), 0, "small closures must stay inline");
        while let Some(a) = log.pop() {
            a.invoke();
        }
        assert_eq!(*hits.lock().unwrap(), vec![2, 1, 0]);
    }

    #[test]
    fn spill_preserves_order_past_inline_capacity() {
        let hits = Hits::default();
        let mut log = ActionLog::<2>::new();
        for i in 0..7 {
            log.push(record(&hits, i));
        }
        while let Some(a) = log.pop() {
            a.invoke();
        }
        assert_eq!(*hits.lock().unwrap(), vec![6, 5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn forward_iteration_runs_oldest_first() {
        let hits = Hits::default();
        let mut log = ActionLog::<2>::new();
        for i in 0..5 {
            log.push(record(&hits, i));
        }
        while let Some(a) = log.pop_front() {
            a.invoke();
        }
        assert_eq!(*hits.lock().unwrap(), vec![0, 1, 2, 3, 4]);
        // Drained in place, the log takes pushes again.
        log.push(record(&hits, 5));
        assert_eq!(log.len(), 1);
        log.pop().unwrap().invoke();
        assert_eq!(hits.lock().unwrap().last(), Some(&5));
    }

    #[test]
    fn undo_arms_run_newest_first_and_install_arms_oldest_first() {
        let dropped = Arc::new(AtomicUsize::new(0));
        for (arm, expect) in [("undo", [4, 3, 2, 1, 0]), ("install", [0, 1, 2, 3, 4])] {
            let hits = Hits::default();
            let mut log = ActionLog::<2>::new(); // three of five spill
            for i in 0..5 {
                log.push(effect(&hits, i, &dropped));
            }
            assert!(log.has_installs());
            assert_eq!(log.boxed_count(), 0);
            if arm == "undo" {
                while let Some(a) = log.pop() {
                    a.invoke();
                }
            } else {
                while let Some(a) = log.pop_front() {
                    a.install(STAMP);
                }
            }
            assert!(!log.has_installs());
            let stamp = if arm == "undo" { 0 } else { STAMP.ts };
            let expect: Vec<_> = expect.iter().map(|&i| (arm, i, stamp)).collect();
            assert_eq!(*hits.lock().unwrap(), expect, "exactly one arm per entry");
        }
        assert_eq!(
            dropped.load(Ordering::SeqCst),
            10,
            "each capture consumed once"
        );
    }

    #[test]
    fn one_armed_entries_are_dropped_by_the_other_fate() {
        let hits = Hits::default();
        let installed = Arc::new(AtomicUsize::new(0));
        let mut log = ActionLog::<4>::new();
        log.push(record(&hits, 1));
        assert!(!log.has_installs(), "a bare inverse opens no window");
        let seen = Arc::clone(&installed);
        // An install whose inverse does nothing.
        log.push(Effect(
            seen,
            |_| {},
            |seen: Arc<AtomicUsize>, stamp: CommitStamp| {
                seen.store(stamp.floor as usize, Ordering::SeqCst);
            },
        ));
        assert!(log.has_installs());
        // Commit: the inverse is dropped unrun, the install runs.
        log.pop_front().unwrap().install(STAMP);
        log.pop_front().unwrap().install(STAMP);
        assert_eq!(installed.load(Ordering::SeqCst), STAMP.floor as usize);
        assert!(hits.lock().unwrap().is_empty());
        // Abort: the install is dropped unrun.
        log.push(Effect((), |()| {}, |(), _| panic!("installed on abort")));
        log.pop().unwrap().invoke();
        assert!(!log.has_installs());
    }

    #[test]
    fn oversized_closures_are_boxed_and_still_run() {
        let big = [7u64; 9]; // 72 bytes: cannot fit 6 words
        let out = Arc::new(AtomicUsize::new(0));
        let mut log = ActionLog::<4>::new();
        for _ in 0..2 {
            log.push(Effect(
                (Arc::clone(&out), big),
                |(o, big): (Arc<AtomicUsize>, [u64; 9])| {
                    o.fetch_add(big.iter().sum::<u64>() as usize, Ordering::SeqCst);
                },
                |(o, big): (Arc<AtomicUsize>, [u64; 9]), stamp: CommitStamp| {
                    o.fetch_add(big.len() + stamp.ts as usize, Ordering::SeqCst);
                },
            ));
        }
        assert_eq!(log.boxed_count(), 2);
        assert!(log.has_installs());
        log.pop().unwrap().invoke();
        assert_eq!(out.swap(0, Ordering::SeqCst), 63);
        log.pop().unwrap().install(STAMP);
        assert_eq!(out.load(Ordering::SeqCst), 9 + STAMP.ts as usize);
    }

    #[test]
    fn the_boosted_effect_shapes_stay_inline() {
        // A map `put` over word-sized keys and values is the widest
        // effect `crates/boosted` logs (set `add`/`remove` and counter
        // `add` capture a handle and one word); arms that capture
        // nothing add nothing.
        type Put = (Arc<()>, i64, Option<i64>, i64);
        let mut log = ActionLog::<1>::new();
        log.push(Effect(
            (Arc::new(()), 1, Some(2), 3),
            |_: Put| {},
            |_: Put, _: CommitStamp| {},
        ));
        assert_eq!(log.boxed_count(), 0);
        assert!(!fits_inline::<[usize; INLINE_WORDS + 1]>());
    }

    #[test]
    fn clear_discards_without_running() {
        let hits = Hits::default();
        let dropped = Arc::new(AtomicUsize::new(0));
        let mut log = ActionLog::<2>::new(); // three of five spill
        for i in 0..5 {
            log.push(effect(&hits, i, &dropped));
        }
        log.clear();
        assert_eq!(log.len(), 0);
        assert!(hits.lock().unwrap().is_empty(), "clear must not run");
        assert_eq!(dropped.load(Ordering::SeqCst), 5, "captures must drop");
        assert!(!log.has_installs(), "no install arm is left");
        // Cleared, the log takes pushes again.
        log.push(record(&Hits::default(), 0));
        assert_eq!(log.len(), 1);
        drop(log);
        assert!(hits.lock().unwrap().is_empty());
    }

    #[test]
    fn dropping_a_partially_drained_log_disposes_the_rest() {
        let hits = Hits::default();
        let dropped = Arc::new(AtomicUsize::new(0));
        let mut log = ActionLog::<2>::new();
        for i in 0..6 {
            log.push(effect(&hits, i, &dropped));
        }
        log.pop_front().unwrap().install(STAMP); // front (inline)
        log.pop().unwrap().invoke(); // back (spill)
        drop(log);
        assert_eq!(hits.lock().unwrap().len(), 2);
        assert_eq!(dropped.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn mixed_front_and_back_consumption_stays_consistent() {
        let mut log = ActionLog::<2>::new();
        let hits = Hits::default();
        for i in 0..6 {
            log.push(record(&hits, i));
        }
        log.pop_front().unwrap().invoke(); // 0
        log.pop_front().unwrap().invoke(); // 1
        log.pop_front().unwrap().invoke(); // 2 (crosses into spill)
        log.pop().unwrap().invoke(); // 5
        log.pop_front().unwrap().invoke(); // 3
        log.pop().unwrap().invoke(); // 4
        assert!(log.pop_front().is_none());
        assert_eq!(log.len(), 0);
        assert_eq!(*hits.lock().unwrap(), vec![0, 1, 2, 5, 3, 4]);
    }

    #[test]
    fn boxed_closure_dropped_unrun_does_not_leak_or_run() {
        let ran = Arc::new(AtomicUsize::new(0));
        let dropped = Arc::new(AtomicUsize::new(0));
        let mut log = ActionLog::<1>::new();
        let big = [0u8; 64];
        let r = Arc::clone(&ran);
        let d = DropProbe(Arc::clone(&dropped));
        log.push(Run(move || {
            let _keep = (&d, &big);
            r.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(log.boxed_count(), 1);
        drop(log);
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(dropped.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panicking_action_still_disposes_the_remainder() {
        for arm in ["undo", "install"] {
            let hits = Hits::default();
            let dropped = Arc::new(AtomicUsize::new(0));
            // The panicking entry is the first out: newest for the undo
            // arms, oldest for the install arms.
            let bomb_at = if arm == "undo" { 3 } else { 0 };
            let mut log = ActionLog::<2>::new();
            for i in 0..4 {
                if i == bomb_at {
                    log.push(Effect(
                        DropProbe(Arc::clone(&dropped)),
                        |_probe: DropProbe| panic!("inverse failed"),
                        |_probe: DropProbe, _: CommitStamp| panic!("install failed"),
                    ));
                } else {
                    log.push(effect(&hits, i, &dropped));
                }
            }
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                if arm == "undo" {
                    while let Some(a) = log.pop() {
                        a.invoke();
                    }
                } else {
                    while let Some(a) = log.pop_front() {
                        a.install(STAMP);
                    }
                }
            }));
            assert!(result.is_err(), "{arm}");
            // The panicking entry's capture dropped during unwind; the
            // three never-run entries dropped with the log.
            assert_eq!(dropped.load(Ordering::SeqCst), 4, "{arm}");
            assert!(hits.lock().unwrap().is_empty(), "{arm}");
        }
    }

    /// Counts drops of a captured value.
    struct DropProbe(Arc<AtomicUsize>);
    impl Drop for DropProbe {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
}
