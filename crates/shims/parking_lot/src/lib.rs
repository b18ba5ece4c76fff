//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment for this repository has no access to crates.io,
//! so the workspace vendors the *subset* of the `parking_lot` API it
//! actually uses, implemented on top of `std::sync`. Differences from
//! the real crate that matter here:
//!
//! * no poisoning — a panicking holder simply releases the lock (matches
//!   `parking_lot` semantics; implemented by unwrapping poison errors);
//! * `MutexGuard`/`RwLock` guards are thin wrappers over the `std`
//!   guards, so performance is `std`'s, not `parking_lot`'s — fine for a
//!   reproduction whose benchmarks compare *disciplines*, not mutex
//!   implementations;
//! * only the methods the workspace calls are provided.

#![warn(missing_docs)]

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A mutual-exclusion primitive (std-backed, poison-transparent).
#[derive(Debug)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// RAII guard for [`Mutex`].
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
    /// The mutex `inner` locks, so [`MutexGuard::unlocked`] can re-lock.
    mutex: &'a std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A new mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is acquired.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: self.0.lock().unwrap_or_else(|e| e.into_inner()),
            mutex: &self.0,
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.0.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            inner,
            mutex: &self.0,
        })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> MutexGuard<'_, T> {
    /// Release the lock, run `f`, and re-acquire it before returning
    /// (also when `f` unwinds). An associated function, as in
    /// `parking_lot`: `MutexGuard::unlocked(&mut guard, || ..)`.
    pub fn unlocked<U>(s: &mut Self, f: impl FnOnce() -> U) -> U {
        struct Relock<'g, 'a, T: ?Sized>(&'g mut MutexGuard<'a, T>);
        impl<T: ?Sized> Drop for Relock<'_, '_, T> {
            fn drop(&mut self) {
                let relocked = self.0.mutex.lock().unwrap_or_else(|e| e.into_inner());
                // SAFETY: `unlocked` moved the slot's guard out and dropped
                // it before building this value, so the slot holds stale
                // bits; `write` stores the live guard without dropping them.
                unsafe { std::ptr::write(&mut self.0.inner, relocked) };
            }
        }
        // SAFETY: the guard read out here is dropped exactly once (now,
        // unlocking the mutex), and `Relock` overwrites the slot with a
        // fresh guard on every exit from this function, unwinding
        // included, before `s` is reachable again.
        drop(unsafe { std::ptr::read(&s.inner) });
        let _relock = Relock(s);
        f()
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Result of a timed condition-variable wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable usable with [`MutexGuard`].
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Atomically release the guard's lock and wait for a notification.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.replace_guard(guard, |inner| {
            let g = match self.0.wait(inner) {
                Ok(g) => g,
                Err(e) => e.into_inner(),
            };
            (g, false)
        });
    }

    /// Wait until notified or `timeout` has elapsed.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let timed_out = self.replace_guard(guard, |inner| {
            let (g, res) = match self.0.wait_timeout(inner, timeout) {
                Ok(p) => p,
                Err(e) => e.into_inner(),
            };
            (g, res.timed_out())
        });
        WaitTimeoutResult(timed_out)
    }

    /// Wait until notified or `deadline` is reached.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let now = Instant::now();
        if now >= deadline {
            return WaitTimeoutResult(true);
        }
        self.wait_for(guard, deadline - now)
    }

    /// Run `f` on the `std` guard inside `guard`, putting the returned
    /// guard back. `f` must not panic between taking and returning the
    /// guard (the `std` condvar functions used here do not).
    fn replace_guard<T, R>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        f: impl FnOnce(std::sync::MutexGuard<'_, T>) -> (std::sync::MutexGuard<'_, T>, R),
    ) -> R {
        // SAFETY: `inner` is moved out and unconditionally written back
        // below; `f` (std condvar wait/wait_timeout) returns the guard
        // even on poison and does not unwind.
        unsafe {
            let inner = std::ptr::read(&guard.inner);
            let (inner, out) = f(inner);
            std::ptr::write(&mut guard.inner, inner);
            out
        }
    }
}

/// A readers-writer lock (std-backed, poison-transparent).
#[derive(Debug)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

/// Shared-mode RAII guard for [`RwLock`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);

/// Exclusive-mode RAII guard for [`RwLock`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    /// A new lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire in shared mode.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Acquire in exclusive mode.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(|e| e.into_inner()))
    }

    /// Try to acquire in shared mode without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(g) => Some(RwLockReadGuard(g)),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(RwLockReadGuard(e.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Try to acquire in exclusive mode without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(g) => Some(RwLockWriteGuard(g)),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(RwLockWriteGuard(e.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

pub mod lock_api {
    //! The slice of `lock_api` the workspace names: the [`RawRwLock`]
    //! trait providing `INIT` and the raw lock/unlock operations.

    /// A raw (guard-less) readers-writer lock.
    ///
    /// # Safety contract
    /// `unlock_shared`/`unlock_exclusive` are `unsafe`: the caller must
    /// hold the lock in the corresponding mode.
    pub trait RawRwLock {
        /// Initial (unlocked) value.
        const INIT: Self;
        /// Block until shared mode is acquired.
        fn lock_shared(&self);
        /// Try to acquire shared mode without blocking.
        fn try_lock_shared(&self) -> bool;
        /// Release shared mode.
        ///
        /// # Safety
        /// The caller must hold the lock in shared mode.
        unsafe fn unlock_shared(&self);
        /// Block until exclusive mode is acquired.
        fn lock_exclusive(&self);
        /// Try to acquire exclusive mode without blocking.
        fn try_lock_exclusive(&self) -> bool;
        /// Release exclusive mode.
        ///
        /// # Safety
        /// The caller must hold the lock in exclusive mode.
        unsafe fn unlock_exclusive(&self);
    }
}

/// A raw word-sized readers-writer spin lock.
///
/// State encoding: `0` unlocked, `usize::MAX` write-locked, otherwise
/// the reader count. Blocking acquisitions spin with `yield_now`; the
/// workspace's STM only ever blocks here on the momentary critical
/// sections of committing writers.
#[derive(Debug, Default)]
pub struct RawRwLock {
    state: AtomicUsize,
}

const WRITE_LOCKED: usize = usize::MAX;

impl lock_api::RawRwLock for RawRwLock {
    const INIT: RawRwLock = RawRwLock {
        state: AtomicUsize::new(0),
    };

    fn lock_shared(&self) {
        while !self.try_lock_shared() {
            std::thread::yield_now();
        }
    }

    fn try_lock_shared(&self) -> bool {
        let mut cur = self.state.load(Ordering::Relaxed);
        loop {
            if cur == WRITE_LOCKED {
                return false;
            }
            debug_assert!(cur < WRITE_LOCKED - 1, "reader count overflow");
            match self.state.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    // SAFETY: caller contract (lock_api's) — the current thread holds a
    // shared lock; the decrement then cannot underflow or collide with
    // the writer bit (debug-checked).
    unsafe fn unlock_shared(&self) {
        let prev = self.state.fetch_sub(1, Ordering::Release);
        debug_assert!(prev != 0 && prev != WRITE_LOCKED, "unlock_shared misuse");
    }

    fn lock_exclusive(&self) {
        while !self.try_lock_exclusive() {
            std::thread::yield_now();
        }
    }

    fn try_lock_exclusive(&self) -> bool {
        self.state
            .compare_exchange(0, WRITE_LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    // SAFETY: caller contract (lock_api's) — the current thread holds
    // the exclusive lock, so the state must be exactly WRITE_LOCKED
    // (debug-checked).
    unsafe fn unlock_exclusive(&self) {
        let prev = self.state.swap(0, Ordering::Release);
        debug_assert_eq!(prev, WRITE_LOCKED, "unlock_exclusive misuse");
    }
}

#[cfg(test)]
mod tests {
    use super::lock_api::RawRwLock as _;
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn unlocked_releases_for_the_closure_and_relocks_even_on_unwind() {
        let m = Mutex::new(0);
        let mut g = m.lock();
        MutexGuard::unlocked(&mut g, || *m.try_lock().expect("released inside") += 1);
        assert!(m.try_lock().is_none(), "re-locked afterwards");
        assert_eq!(*g, 1);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            MutexGuard::unlocked(&mut g, || panic!("inside"));
        }));
        assert!(unwound.is_err());
        assert!(m.try_lock().is_none(), "re-locked after the unwind");
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn condvar_wait_until_times_out_and_wakes() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        // Timeout path.
        {
            let (m, cv) = &*pair;
            let mut g = m.lock();
            let res = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(5));
            assert!(res.timed_out());
        }
        // Wake path.
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                let res = cv.wait_until(&mut g, Instant::now() + Duration::from_secs(5));
                assert!(!res.timed_out(), "missed the wakeup");
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        h.join().unwrap();
    }

    #[test]
    fn rwlock_shared_and_exclusive() {
        let l = RwLock::new(7);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!((*a, *b), (7, 7));
            assert!(l.try_write().is_none());
        }
        *l.write() = 8;
        assert_eq!(*l.read(), 8);
    }

    #[test]
    fn raw_rwlock_excludes_properly() {
        let l = RawRwLock::INIT;
        assert!(l.try_lock_shared());
        assert!(l.try_lock_shared());
        assert!(!l.try_lock_exclusive());
        // SAFETY: balances the two successful try_lock_shared above.
        unsafe {
            l.unlock_shared();
            l.unlock_shared();
        }
        assert!(l.try_lock_exclusive());
        assert!(!l.try_lock_shared());
        // SAFETY: balances the successful try_lock_exclusive above.
        unsafe { l.unlock_exclusive() };
        assert!(l.try_lock_shared());
        // SAFETY: balances the successful try_lock_shared above.
        unsafe { l.unlock_shared() };
    }
}
