//! Inline closure storage for transaction logs.
//!
//! The paper's pitch (§6) is that boosting's per-call overhead is "a
//! lock acquire plus an inverse log". The original implementation spent
//! a heap allocation per logged closure (`Vec<Box<dyn FnOnce()>>`): one
//! `Box` per inverse, commit action and abort action, plus `Vec` growth.
//! This module removes all of it for the common case.
//!
//! [`ActionLog`] stores each closure *inline* in a fixed-size slot when
//! it fits ([`INLINE_WORDS`] machine words — every inverse logged by
//! `crates/boosted` captures at most an `Arc` handle plus a key and an
//! old value, which is ≤3 words for word-sized keys/values), falling
//! back to a `Box` only for oversized captures. The first
//! [`ActionLog::INLINE_SLOTS`]-many slots live inside the log itself
//! (and therefore inside [`crate::Txn`], on the stack); only deeper
//! logs spill to a `Vec`. A short transaction — begin, a few boosted
//! calls, commit — performs **zero** undo-log heap allocations, which
//! the `ablation_hotpath` bench verifies with a counting allocator.
//!
//! Type-erasure works like a hand-rolled two-entry vtable: each slot
//! carries a `call` and a `drop_fn` function pointer instantiated for
//! the concrete closure type at `push` time. `call` moves the closure
//! out and runs it (abort replay / commit actions); `drop_fn` disposes
//! of it without running (commit discards the undo log, savepoint
//! rollback discards deferred actions).

use std::mem::{align_of, size_of, MaybeUninit};

/// Number of machine words a closure may capture and still be stored
/// inline (no heap allocation). Four words = 32 bytes on 64-bit: enough
/// for every inverse in `crates/boosted` (`Arc` + key + old value) with
/// headroom for an `Arc` + `String`-keyed capture.
pub(crate) const INLINE_WORDS: usize = 4;

/// The raw storage of one slot: either the closure itself (if it fits)
/// or a `*mut F` from `Box::into_raw` (if it does not).
type Payload = MaybeUninit<[usize; INLINE_WORDS]>;

/// Whether `F` can be stored inline in a [`Payload`]. Evaluated at
/// monomorphization time, so `push` compiles to exactly one branch.
const fn fits_inline<F>() -> bool {
    size_of::<F>() <= size_of::<[usize; INLINE_WORDS]>()
        && align_of::<F>() <= align_of::<[usize; INLINE_WORDS]>()
}

/// One type-erased closure: payload + a two-entry "vtable".
struct Slot {
    payload: Payload,
    /// Move the closure out of `payload` and run it. Consumes the slot.
    call: unsafe fn(*mut u8),
    /// Dispose of the closure without running it. Consumes the slot.
    drop_fn: unsafe fn(*mut u8),
}

// `Slot` deliberately has no `Drop` impl: slots are consumed manually
// through `call`/`drop_fn` exactly once, and containers that merely free
// slot memory (the spill `Vec`) must not double-drop the closure.

impl Slot {
    /// Erase `f` into a slot. Returns the slot and whether it had to be
    /// boxed (diagnostics: the zero-allocation claim is testable).
    fn new<F: FnOnce() + Send + 'static>(f: F) -> (Slot, bool) {
        let mut payload = Payload::uninit();
        if fits_inline::<F>() {
            // SAFETY: `fits_inline` proved size and alignment; the write
            // moves `f` into the payload, which `call`/`drop_fn` will
            // read out exactly once.
            unsafe { payload.as_mut_ptr().cast::<F>().write(f) };
            (
                Slot {
                    payload,
                    call: call_inline::<F>,
                    drop_fn: drop_inline::<F>,
                },
                false,
            )
        } else {
            let raw = Box::into_raw(Box::new(f));
            // SAFETY: a thin pointer always fits in (and is aligned for)
            // a word-array payload.
            unsafe { payload.as_mut_ptr().cast::<*mut F>().write(raw) };
            (
                Slot {
                    payload,
                    call: call_boxed::<F>,
                    drop_fn: drop_boxed::<F>,
                },
                true,
            )
        }
    }
}

/// # Safety
/// `p` must point at a payload holding a valid inline `F`, which must
/// never be read again afterwards.
unsafe fn call_inline<F: FnOnce()>(p: *mut u8) {
    // SAFETY: the caller hands over a payload written by `Slot::new`
    // with this exact `F`; `read` moves the closure out, so the slot is
    // dead afterwards (the container forgets it without dropping).
    let f = unsafe { p.cast::<F>().read() };
    f();
}

/// # Safety
/// Same contract as [`call_inline`].
unsafe fn drop_inline<F>(p: *mut u8) {
    // SAFETY: see `call_inline`; `read` moves the closure out and the
    // local binding drops it without running it.
    let f = unsafe { p.cast::<F>().read() };
    drop(f);
}

/// # Safety
/// `p` must point at a payload holding a `*mut F` from `Box::into_raw`,
/// which must never be read again afterwards.
// The `*mut u8` arrives from a `Payload` ([usize; 4]), so it is always
// word-aligned — exactly what `*mut F` needs.
#[allow(clippy::cast_ptr_alignment)]
unsafe fn call_boxed<F: FnOnce()>(p: *mut u8) {
    // SAFETY: the payload was written by `Slot::new`'s boxed branch with
    // this exact `F`; reconstituting the box transfers ownership here.
    let f = unsafe { Box::from_raw(p.cast::<*mut F>().read()) };
    f();
}

/// # Safety
/// Same contract as [`call_boxed`].
// Word-aligned for the same reason as `call_boxed`.
#[allow(clippy::cast_ptr_alignment)]
unsafe fn drop_boxed<F>(p: *mut u8) {
    // SAFETY: see `call_boxed`; dropping the box disposes of the
    // closure without running it.
    let f = unsafe { Box::from_raw(p.cast::<*mut F>().read()) };
    drop(f);
}

/// An action removed from an [`ActionLog`]: run it with
/// [`LoggedAction::invoke`], or drop it to dispose of the closure
/// without running it.
pub(crate) struct LoggedAction {
    slot: Slot,
    live: bool,
}

impl LoggedAction {
    /// Run the closure (consuming it).
    pub(crate) fn invoke(mut self) {
        self.live = false;
        // SAFETY: `live` is cleared first so `Drop` will not touch the
        // payload even if the closure panics; the slot was initialized
        // by `Slot::new` and is consumed exactly once here.
        unsafe { (self.slot.call)(self.slot.payload.as_mut_ptr().cast::<u8>()) };
    }
}

impl Drop for LoggedAction {
    fn drop(&mut self) {
        if self.live {
            // SAFETY: the payload is still initialized (`invoke` never
            // ran); `drop_fn` consumes it exactly once.
            unsafe { (self.slot.drop_fn)(self.slot.payload.as_mut_ptr().cast::<u8>()) };
        }
    }
}

/// A LIFO log of type-erased `FnOnce() + Send` closures with `N`
/// inline slots and a spill `Vec` for deeper logs.
///
/// Live slots occupy indices `head..len`; `head` is nonzero only while
/// [`ActionLog::pop_front`] is draining the log, and returns to zero
/// with the last action. Slot `i` lives in the inline array for `i < N`
/// and in `spill[i - N]` otherwise.
pub(crate) struct ActionLog<const N: usize> {
    inline: [MaybeUninit<Slot>; N],
    spill: Vec<Slot>,
    head: usize,
    len: usize,
    boxed: usize,
}

impl<const N: usize> Default for ActionLog<N> {
    fn default() -> Self {
        ActionLog {
            inline: [const { MaybeUninit::uninit() }; N],
            spill: Vec::new(),
            head: 0,
            len: 0,
            boxed: 0,
        }
    }
}

impl<const N: usize> ActionLog<N> {
    /// An empty log. Allocation-free (`Vec::new` does not allocate).
    pub(crate) fn new() -> Self {
        ActionLog::default()
    }

    /// Number of live (un-consumed) actions.
    pub(crate) fn len(&self) -> usize {
        self.len - self.head
    }

    /// Whether the log holds no live actions.
    pub(crate) fn is_empty(&self) -> bool {
        self.head == self.len
    }

    /// How many pushed closures were too large for a slot and had to be
    /// boxed (diagnostics; the expected value on every in-tree path is
    /// zero).
    pub(crate) fn boxed_count(&self) -> usize {
        self.boxed
    }

    /// Append `f`. Allocation-free while the log is at most `N` deep
    /// and `f`'s captures fit in [`INLINE_WORDS`] words.
    pub(crate) fn push<F: FnOnce() + Send + 'static>(&mut self, f: F) {
        debug_assert_eq!(self.head, 0, "push into a draining log");
        let (slot, was_boxed) = Slot::new(f);
        if was_boxed {
            self.boxed += 1;
        }
        if self.len < N {
            self.inline[self.len].write(slot);
        } else {
            debug_assert_eq!(self.spill.len(), self.len - N);
            self.spill.push(slot);
        }
        self.len += 1;
    }

    /// Remove and return the most recently pushed action (LIFO — the
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
        self.rewind_if_drained();
        Some(LoggedAction { slot, live: true })
    }

    /// Remove and return the oldest live action (FIFO — the order
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
        self.rewind_if_drained();
        Some(LoggedAction { slot, live: true })
    }

    /// Once the last live action is gone, make the log pushable again:
    /// `head` back to zero, and the spill's dead bits (slots
    /// `pop_front` read out) forgotten — `Slot` has no `Drop`.
    fn rewind_if_drained(&mut self) {
        if self.head == self.len {
            self.head = 0;
            self.len = 0;
            self.spill.clear();
        }
    }

    /// Discard (without running) every action past `new_len`, newest
    /// first. This is the savepoint-truncation primitive: it replaces
    /// the old `Vec::split_off` + drop.
    pub(crate) fn truncate(&mut self, new_len: usize) {
        debug_assert_eq!(self.head, 0, "truncate of a draining log");
        while self.len > new_len {
            drop(self.pop());
        }
    }

    /// Discard every action without running any.
    pub(crate) fn clear(&mut self) {
        self.truncate(0);
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
    use std::sync::Arc;

    #[test]
    fn inline_push_pop_runs_in_lifo_order() {
        let hits = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut log = ActionLog::<4>::new();
        for i in 0..3 {
            let h = Arc::clone(&hits);
            log.push(move || h.lock().unwrap().push(i));
        }
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
        assert_eq!(log.boxed_count(), 0, "small closures must stay inline");
        while let Some(a) = log.pop() {
            a.invoke();
        }
        assert_eq!(*hits.lock().unwrap(), vec![2, 1, 0]);
    }

    #[test]
    fn spill_preserves_order_past_inline_capacity() {
        let hits = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut log = ActionLog::<2>::new();
        for i in 0..7 {
            let h = Arc::clone(&hits);
            log.push(move || h.lock().unwrap().push(i));
        }
        while let Some(a) = log.pop() {
            a.invoke();
        }
        assert_eq!(*hits.lock().unwrap(), vec![6, 5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn forward_iteration_runs_oldest_first() {
        let hits = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut log = ActionLog::<2>::new();
        for i in 0..5 {
            let h = Arc::clone(&hits);
            log.push(move || h.lock().unwrap().push(i));
        }
        while let Some(a) = log.pop_front() {
            a.invoke();
        }
        assert_eq!(*hits.lock().unwrap(), vec![0, 1, 2, 3, 4]);
        // Drained in place, the log takes pushes again.
        let h = Arc::clone(&hits);
        log.push(move || h.lock().unwrap().push(5));
        assert_eq!(log.len(), 1);
        log.pop().unwrap().invoke();
        assert_eq!(hits.lock().unwrap().last(), Some(&5));
    }

    #[test]
    fn oversized_closures_are_boxed_and_still_run() {
        let big = [7u64; 9]; // 72 bytes: cannot fit 4 words
        let out = Arc::new(AtomicUsize::new(0));
        let o = Arc::clone(&out);
        let mut log = ActionLog::<4>::new();
        log.push(move || {
            o.store(big.iter().sum::<u64>() as usize, Ordering::SeqCst);
        });
        assert_eq!(log.boxed_count(), 1);
        log.pop().unwrap().invoke();
        assert_eq!(out.load(Ordering::SeqCst), 63);
    }

    #[test]
    fn truncate_discards_without_running() {
        let ran = Arc::new(AtomicUsize::new(0));
        let dropped = Arc::new(AtomicUsize::new(0));
        let mut log = ActionLog::<2>::new();
        for _ in 0..5 {
            let r = Arc::clone(&ran);
            let d = DropProbe(Arc::clone(&dropped));
            log.push(move || {
                let _keep = &d;
                r.fetch_add(1, Ordering::SeqCst);
            });
        }
        log.truncate(2);
        assert_eq!(log.len(), 2);
        assert_eq!(ran.load(Ordering::SeqCst), 0, "truncate must not run");
        assert_eq!(dropped.load(Ordering::SeqCst), 3, "captures must drop");
        drop(log);
        assert_eq!(dropped.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn dropping_a_partially_drained_log_disposes_the_rest() {
        let ran = Arc::new(AtomicUsize::new(0));
        let dropped = Arc::new(AtomicUsize::new(0));
        let mut log = ActionLog::<2>::new();
        for _ in 0..6 {
            let r = Arc::clone(&ran);
            let d = DropProbe(Arc::clone(&dropped));
            log.push(move || {
                let _keep = &d;
                r.fetch_add(1, Ordering::SeqCst);
            });
        }
        log.pop_front().unwrap().invoke(); // front (inline)
        log.pop().unwrap().invoke(); // back (spill)
        drop(log);
        assert_eq!(ran.load(Ordering::SeqCst), 2);
        assert_eq!(dropped.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn mixed_front_and_back_consumption_stays_consistent() {
        let mut log = ActionLog::<2>::new();
        let hits = Arc::new(std::sync::Mutex::new(Vec::new()));
        for i in 0..6 {
            let h = Arc::clone(&hits);
            log.push(move || h.lock().unwrap().push(i));
        }
        log.pop_front().unwrap().invoke(); // 0
        log.pop_front().unwrap().invoke(); // 1
        log.pop_front().unwrap().invoke(); // 2 (crosses into spill)
        log.pop().unwrap().invoke(); // 5
        log.pop_front().unwrap().invoke(); // 3
        log.pop().unwrap().invoke(); // 4
        assert!(log.pop_front().is_none());
        assert!(log.is_empty());
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
        log.push(move || {
            let _keep = (&d, &big);
            r.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(log.boxed_count(), 1);
        drop(log);
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(dropped.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panicking_action_still_disposes_the_remainder() {
        let dropped = Arc::new(AtomicUsize::new(0));
        let mut log = ActionLog::<2>::new();
        for _ in 0..3 {
            let d = DropProbe(Arc::clone(&dropped));
            log.push(move || {
                let _keep = &d;
            });
        }
        let d = DropProbe(Arc::clone(&dropped));
        log.push(move || {
            let _keep = &d;
            panic!("inverse failed");
        });
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            while let Some(a) = log.pop() {
                a.invoke();
            }
        }));
        assert!(result.is_err());
        // The panicking closure's capture dropped during unwind; the
        // three never-run closures dropped with the iterator.
        assert_eq!(dropped.load(Ordering::SeqCst), 4);
    }

    /// Counts drops of a captured value.
    struct DropProbe(Arc<AtomicUsize>);
    impl Drop for DropProbe {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
}
