//! Quiescence-based reclamation with crossbeam-epoch's API shape.
//!
//! The contract is the one crossbeam documents: a pointer passed to
//! [`Guard::defer_destroy`] must already be unreachable for threads that
//! pin *after* the call, and it is destroyed no earlier than the moment
//! every guard that was live at the call has dropped. This shim
//! implements the coarsest correct grace period — garbage is reclaimed
//! when the global count of live guards reaches zero — instead of
//! per-epoch bags. Safety is identical; only reclamation *latency*
//! differs (garbage waits for a global quiescent point).

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of currently live (pinned) guards.
static ACTIVE_GUARDS: AtomicUsize = AtomicUsize::new(0);
/// Hint flag: avoids taking `GARBAGE`'s lock on guard drop when there is
/// nothing to reclaim.
static GARBAGE_NONEMPTY: AtomicBool = AtomicBool::new(false);
/// Deferred destructions awaiting a quiescent point.
static GARBAGE: Mutex<Vec<Deferred>> = Mutex::new(Vec::new());

struct Deferred {
    ptr: *mut (),
    // SAFETY: calling contract — `ptr` must be the `Box::into_raw` of
    // the type `drop_fn` was instantiated for, and called exactly once.
    drop_fn: unsafe fn(*mut ()),
}

// SAFETY: a `Deferred` is only ever executed at a quiescent point (no
// live guards), at which moment no thread can still hold a reference to
// the pointee; the pointee types in this workspace are node types shared
// across threads by construction.
unsafe impl Send for Deferred {}

/// # Safety
/// `ptr` must be a `Box::into_raw`-produced pointer to a live `T`, and
/// this must be its only remaining owner.
unsafe fn drop_box<T>(ptr: *mut ()) {
    // SAFETY: guaranteed by the function's contract above.
    drop(unsafe { Box::from_raw(ptr as *mut T) });
}

/// Run queued destructions if no guard is live. Called by the last
/// unpinning guard; also safe to call at any time.
fn try_collect() {
    let Ok(mut garbage) = GARBAGE.lock() else {
        return;
    };
    // Checked under the lock: a pinned thread deferring concurrently
    // either pushed before we locked (then its guard keeps the count
    // non-zero and we skip) or pushes after we drained (its garbage
    // waits for the next quiescent point).
    if ACTIVE_GUARDS.load(Ordering::SeqCst) != 0 {
        return;
    }
    let drained: Vec<Deferred> = std::mem::take(&mut *garbage);
    GARBAGE_NONEMPTY.store(false, Ordering::SeqCst);
    drop(garbage);
    for d in drained {
        // SAFETY: quiescent point reached; see `Deferred`.
        unsafe { (d.drop_fn)(d.ptr) };
    }
}

/// A pinned participant. While any `Guard` is live, no deferred
/// destruction runs.
#[derive(Debug)]
pub struct Guard {
    pinned: bool,
}

impl Guard {
    /// Queue `shared`'s pointee for destruction once a grace period has
    /// elapsed (here: the next global quiescent point).
    ///
    /// # Safety
    /// The pointee must be unreachable for any thread that pins after
    /// this call, and must not be deferred twice.
    pub unsafe fn defer_destroy<T>(&self, shared: Shared<'_, T>) {
        let ptr = shared.ptr as *mut ();
        debug_assert!(!ptr.is_null(), "defer_destroy of null");
        let mut garbage = GARBAGE.lock().unwrap_or_else(|e| e.into_inner());
        garbage.push(Deferred {
            ptr,
            drop_fn: drop_box::<T>,
        });
        GARBAGE_NONEMPTY.store(true, Ordering::SeqCst);
    }

    /// Flush thread-local garbage to the global queue. All garbage is
    /// global in this shim, so this is a no-op kept for API parity.
    pub fn flush(&self) {}
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.pinned {
            let was_last = ACTIVE_GUARDS.fetch_sub(1, Ordering::SeqCst) == 1;
            if was_last && GARBAGE_NONEMPTY.load(Ordering::SeqCst) {
                try_collect();
            }
        }
    }
}

/// Pin the current thread, deferring all reclamation while the returned
/// guard lives.
pub fn pin() -> Guard {
    ACTIVE_GUARDS.fetch_add(1, Ordering::SeqCst);
    Guard { pinned: true }
}

static UNPROTECTED: Guard = Guard { pinned: false };

/// A guard that does not pin.
///
/// # Safety
/// The caller must guarantee that no concurrent thread can access the
/// data structures touched through this guard (crossbeam's contract);
/// the workspace uses it only in `Drop` impls and single-threaded
/// constructors.
pub unsafe fn unprotected() -> &'static Guard {
    &UNPROTECTED
}

/// Types that carry a raw pointer to `T`: [`Owned`] and [`Shared`].
pub trait Pointer<T> {
    /// Extract the raw pointer.
    fn into_ptr(self) -> *mut T;
    /// Rebuild from a raw pointer previously produced by `into_ptr`.
    ///
    /// # Safety
    /// `ptr` must have come from `into_ptr` of the same implementor.
    unsafe fn from_ptr(ptr: *mut T) -> Self;
}

/// An owned heap allocation, not yet shared.
pub struct Owned<T> {
    ptr: NonNull<T>,
}

// SAFETY: `Owned` is a unique owner, exactly like `Box<T>`.
unsafe impl<T: Send> Send for Owned<T> {}
// SAFETY: shared references to `Owned<T>` only expose `&T`.
unsafe impl<T: Sync> Sync for Owned<T> {}

impl<T> Owned<T> {
    /// Allocate `value` on the heap.
    pub fn new(value: T) -> Self {
        let raw = Box::into_raw(Box::new(value));
        Owned {
            // SAFETY: `Box::into_raw` never returns null.
            ptr: unsafe { NonNull::new_unchecked(raw) },
        }
    }

    /// Convert into a [`Shared`] tied to `_guard`'s lifetime, giving up
    /// unique ownership.
    pub fn into_shared<'g>(self, _guard: &'g Guard) -> Shared<'g, T> {
        let ptr = self.ptr.as_ptr();
        std::mem::forget(self);
        Shared {
            ptr,
            _marker: PhantomData,
        }
    }

    /// Take the value back out.
    pub fn into_box(self) -> Box<T> {
        let ptr = self.ptr.as_ptr();
        std::mem::forget(self);
        // SAFETY: `ptr` came from `Box::into_raw` and ownership is unique.
        unsafe { Box::from_raw(ptr) }
    }
}

impl<T> Deref for Owned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: unique live allocation.
        unsafe { self.ptr.as_ref() }
    }
}

impl<T> DerefMut for Owned<T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: unique live allocation.
        unsafe { self.ptr.as_mut() }
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        // SAFETY: unique live allocation.
        drop(unsafe { Box::from_raw(self.ptr.as_ptr()) });
    }
}

impl<T> Pointer<T> for Owned<T> {
    fn into_ptr(self) -> *mut T {
        let ptr = self.ptr.as_ptr();
        std::mem::forget(self);
        ptr
    }

    // SAFETY: contract inherited from `Pointer::from_ptr` — `ptr` came
    // from `into_ptr`, so it is a live, uniquely-owned allocation.
    unsafe fn from_ptr(ptr: *mut T) -> Self {
        debug_assert!(!ptr.is_null());
        Owned {
            // SAFETY: `into_ptr` pointers originate in `Box::into_raw`
            // and are never null (debug-checked above).
            ptr: unsafe { NonNull::new_unchecked(ptr) },
        }
    }
}

/// A pointer into a concurrent structure, valid while the guard `'g`
/// lives. May be null.
pub struct Shared<'g, T> {
    ptr: *const T,
    _marker: PhantomData<&'g T>,
}

impl<T> Copy for Shared<'_, T> {}
impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> PartialEq for Shared<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.ptr, other.ptr)
    }
}
impl<T> Eq for Shared<'_, T> {}

impl<T> std::fmt::Debug for Shared<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Shared({:p})", self.ptr)
    }
}

impl<'g, T> Shared<'g, T> {
    /// The null pointer.
    pub fn null() -> Self {
        Shared {
            ptr: std::ptr::null(),
            _marker: PhantomData,
        }
    }

    /// Whether this is null.
    pub fn is_null(&self) -> bool {
        self.ptr.is_null()
    }

    /// Borrow the pointee, or `None` if null.
    ///
    /// # Safety
    /// The pointee must be alive (not yet reclaimed); guaranteed while
    /// the guard that produced this pointer is live and the pointee was
    /// reachable when loaded.
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        // SAFETY: the caller upholds the liveness contract above; the
        // `'g` bound ties the borrow to the pinning guard.
        unsafe { self.ptr.as_ref() }
    }

    /// Borrow the pointee without a null check.
    ///
    /// # Safety
    /// As [`Shared::as_ref`], plus the pointer must be non-null.
    pub unsafe fn deref(&self) -> &'g T {
        debug_assert!(!self.ptr.is_null(), "deref of null Shared");
        // SAFETY: non-null (caller contract, debug-checked) and alive
        // while the guard `'g` pins.
        unsafe { &*self.ptr }
    }

    /// Reclaim unique ownership of the pointee.
    ///
    /// # Safety
    /// The caller must be the sole owner (e.g. inside `Drop` with
    /// exclusive access) and the pointer must be non-null.
    pub unsafe fn into_owned(self) -> Owned<T> {
        // SAFETY: sole ownership is the caller's contract; the pointer
        // originally came from `Owned::into_ptr`.
        unsafe { Owned::from_ptr(self.ptr as *mut T) }
    }
}

impl<T> Pointer<T> for Shared<'_, T> {
    fn into_ptr(self) -> *mut T {
        self.ptr as *mut T
    }

    // SAFETY: contract inherited from `Pointer::from_ptr`; a `Shared`
    // adds no new capability (dereferencing it is itself unsafe).
    unsafe fn from_ptr(ptr: *mut T) -> Self {
        Shared {
            ptr,
            _marker: PhantomData,
        }
    }
}

/// Error returned by a failed [`Atomic::compare_exchange`].
pub struct CompareExchangeError<'g, T, P: Pointer<T>> {
    /// The value the atomic actually held.
    pub current: Shared<'g, T>,
    /// The rejected new value, returned to the caller.
    pub new: P,
}

/// An atomic pointer into a concurrent structure.
#[derive(Debug)]
pub struct Atomic<T> {
    ptr: AtomicPtr<T>,
}

// SAFETY: `Atomic` hands out `Shared` references across threads exactly
// like `crossbeam::epoch::Atomic`; the same bounds apply.
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
// SAFETY: as above — the pointee is shared across threads, so both
// `Send` and `Sync` on `T` are required and sufficient.
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// An atomic holding null.
    pub fn null() -> Self {
        Atomic {
            ptr: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// An atomic holding a fresh allocation of `value`.
    pub fn new(value: T) -> Self {
        Atomic {
            ptr: AtomicPtr::new(Owned::new(value).into_ptr()),
        }
    }

    /// Load the current pointer.
    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        // SAFETY: `Shared::from_ptr` of a pointer this atomic holds.
        unsafe { Shared::from_ptr(self.ptr.load(ord)) }
    }

    /// Store `new`, discarding the previous pointer (the caller is
    /// responsible for reclaiming it).
    pub fn store<P: Pointer<T>>(&self, new: P, ord: Ordering) {
        self.ptr.store(new.into_ptr(), ord);
    }

    /// Compare-and-exchange: install `new` iff the current pointer is
    /// `current`. On failure the rejected `new` is handed back in the
    /// error so an `Owned` is not leaked.
    pub fn compare_exchange<'g, P: Pointer<T>>(
        &self,
        current: Shared<'_, T>,
        new: P,
        success: Ordering,
        failure: Ordering,
        _guard: &'g Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, P>> {
        let new_ptr = new.into_ptr();
        match self
            .ptr
            .compare_exchange(current.ptr as *mut T, new_ptr, success, failure)
        {
            // SAFETY: pointers round-tripped through `Pointer`.
            Ok(prev) => Ok(unsafe { Shared::from_ptr(prev) }),
            Err(actual) => Err(CompareExchangeError {
                // SAFETY: `actual` is a pointer this atomic held, i.e.
                // it round-tripped through `Pointer` when stored.
                current: unsafe { Shared::from_ptr(actual) },
                // SAFETY: `new_ptr` came from `new.into_ptr()` above,
                // returning ownership of the rejected value.
                new: unsafe { P::from_ptr(new_ptr) },
            }),
        }
    }
}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Atomic::null()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::SeqCst;
    use std::sync::Arc;

    #[test]
    fn owned_shared_round_trip() {
        let guard = pin();
        let s = Owned::new(41).into_shared(&guard);
        assert!(!s.is_null());
        // SAFETY: just allocated, never shared with another thread.
        assert_eq!(unsafe { *s.deref() }, 41);
        // SAFETY: this test is the sole owner.
        drop(unsafe { s.into_owned() });
    }

    #[test]
    fn compare_exchange_returns_new_on_failure() {
        let guard = pin();
        let a = Atomic::new(1);
        let cur = a.load(SeqCst, &guard);
        let stale = Shared::null();
        let attempt = a.compare_exchange(stale, Owned::new(2), SeqCst, SeqCst, &guard);
        let err = attempt.expect_err("CAS against stale must fail");
        assert_eq!(err.current, cur);
        assert_eq!(*err.new, 2); // ownership came back; freed on drop
                                 // SAFETY: the atomic is local to this test; `cur` is its only
                                 // remaining allocation and nothing else references it.
        unsafe {
            drop(cur.into_owned());
        }
    }

    #[test]
    fn deferred_destruction_waits_for_quiescence() {
        struct NoisyDrop(Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for NoisyDrop {
            fn drop(&mut self) {
                self.0.fetch_add(1, SeqCst);
            }
        }
        let drops = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let outer = pin();
        {
            let inner = pin();
            let s = Owned::new(NoisyDrop(Arc::clone(&drops))).into_shared(&inner);
            // SAFETY: `s` was never published; no other thread can
            // reach it, and it is deferred exactly once.
            unsafe { inner.defer_destroy(s) };
        }
        // `outer` still pins: nothing may be reclaimed yet.
        assert_eq!(drops.load(SeqCst), 0);
        drop(outer);
        // Quiescent: the deferred drop runs at the next zero-guard
        // point. Other tests' guards may overlap briefly, so retry.
        for _ in 0..1000 {
            drop(pin());
            if drops.load(SeqCst) == 1 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(drops.load(SeqCst), 1);
    }
}
