//! Integration: Section 2's storage management working together —
//! transactional allocation, and reference counting with deferred
//! decrements.

use rand::prelude::*;
use std::sync::Arc;
use transactional_boosting::collections::{BoostedRefCount, DecrPolicy, TxSlabAlloc};
use transactional_boosting::prelude::*;

/// A shared object whose lifetime is governed by a boosted refcount:
/// when the count hits zero, its slab slot is freed (outside any
/// transaction — reclamation is disposable).
struct Managed {
    key: txboost_linearizable::SlabKey,
    rc: BoostedRefCount,
}

#[test]
fn refcounted_slab_objects_are_freed_exactly_when_unreferenced() {
    let tm = TxnManager::default();
    let arena: TxSlabAlloc<String> = TxSlabAlloc::new();

    // Create an object with one reference, wired to free itself.
    let a2 = arena.clone();
    let key = tm.run(move |t| a2.alloc(t, "blob".into())).unwrap();
    let rc = BoostedRefCount::new(1);
    {
        let arena = arena.clone();
        rc.on_zero(move || {
            // Reclamation is itself a disposable action running after
            // the decrementing transaction committed; freeing directly
            // is safe (nobody holds a reference any more).
            arena.with_value(key, std::string::String::clear);
        });
    }
    let obj = Managed { key, rc };

    // Readers take and drop references transactionally; some abort.
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..100 {
        let doomed = rng.random_bool(0.3);
        let rc = obj.rc.clone();
        let arena2 = arena.clone();
        let r = tm.run(move |t| {
            rc.incr(t)?; // immediate: protects the object
            assert!(
                arena2.get(key).is_some(),
                "object vanished while referenced"
            );
            rc.decr(t); // disposable: applied at commit
            if doomed {
                return Err(Abort::explicit());
            }
            Ok(())
        });
        assert_eq!(r.is_ok(), !doomed);
        assert_eq!(obj.rc.effective_count(), 1, "reference leak");
    }

    // Drop the last reference.
    let rc = obj.rc.clone();
    tm.run(move |t| {
        rc.decr(t);
        Ok(())
    })
    .unwrap();
    assert_eq!(obj.rc.effective_count(), 0);
    assert_eq!(obj.rc.reclaim_count(), 1, "reclaimer did not fire");
    assert_eq!(
        arena.get(obj.key),
        Some(String::new()),
        "reclaimer did not run"
    );
}

#[test]
fn batched_decrements_defer_reclamation_until_flush() {
    let tm = TxnManager::default();
    let rc = BoostedRefCount::with_policy(3, DecrPolicy::Batched { batch_size: 10 });
    let reclaimed = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let r2 = Arc::clone(&reclaimed);
    rc.on_zero(move || {
        r2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    });
    for _ in 0..3 {
        let rc2 = rc.clone();
        tm.run(move |t| {
            rc2.decr(t);
            Ok(())
        })
        .unwrap();
    }
    // All three decrements committed, but batched: not yet applied.
    assert_eq!(rc.effective_count(), 0);
    assert_eq!(reclaimed.load(std::sync::atomic::Ordering::SeqCst), 0);
    rc.flush();
    assert_eq!(reclaimed.load(std::sync::atomic::Ordering::SeqCst), 1);
}
