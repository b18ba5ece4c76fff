//! Cross-crate integration scenarios: several boosted objects inside
//! one transaction, pipelines, abort storms, and mixed workloads.

use rand::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use transactional_boosting::collections::ReleasePolicy;
use transactional_boosting::prelude::*;

#[test]
fn one_transaction_spanning_five_object_kinds_commits_atomically() {
    let tm = TxnManager::default();
    let set = BoostedSkipListSet::new();
    let map = BoostedHashMap::new();
    let pq = BoostedPQueue::new();
    let tree = BoostedRbTreeSet::new();
    let counter = BoostedCounter::new();

    tm.run(|t| {
        set.add(t, 1)?;
        map.put(t, "one", 1)?;
        pq.add(t, 1)?;
        tree.add(t, 1)?;
        counter.add(t, 1)?;
        Ok(())
    })
    .unwrap();

    assert_eq!(set.snapshot(), vec![1]);
    assert_eq!(tm.run(|t| map.get(t, &"one")).unwrap(), Some(1));
    assert_eq!(tm.run(|t| pq.min(t)).unwrap(), Some(1));
    assert_eq!(tree.snapshot(), vec![1]);
    assert_eq!(counter.peek(), 1);
}

#[test]
fn one_transaction_spanning_five_object_kinds_aborts_atomically() {
    let tm = TxnManager::default();
    let set = BoostedSkipListSet::new();
    let map = BoostedHashMap::new();
    let pq = BoostedPQueue::new();
    let tree = BoostedRbTreeSet::new();
    let counter = BoostedCounter::new();

    let r: Result<(), _> = tm.run(|t| {
        set.add(t, 1)?;
        map.put(t, "one", 1)?;
        pq.add(t, 1)?;
        tree.add(t, 1)?;
        counter.add(t, 1)?;
        Err(Abort::explicit())
    });
    assert_eq!(r, Err(TxnError::ExplicitlyAborted));

    assert!(set.snapshot().is_empty());
    assert_eq!(tm.run(|t| map.get(t, &"one")).unwrap(), None);
    assert_eq!(tm.run(|t| pq.remove_min(t)).unwrap(), None);
    assert!(tree.is_empty());
    assert_eq!(counter.peek(), 0);
}

#[test]
fn abort_storm_leaves_all_objects_consistent() {
    // Hundreds of multi-object transactions, 50% of which abort at a
    // random prefix. Afterwards every object's state must equal the
    // cumulative effect of exactly the committed transactions.
    let tm = Arc::new(TxnManager::default());
    let map: Arc<BoostedHashMap<u64, i64>> = Arc::new(BoostedHashMap::new());
    let counter = BoostedCounter::new();
    tm.run(|t| {
        for k in 0..8u64 {
            map.put(t, k, 0)?;
        }
        Ok(())
    })
    .unwrap();

    let committed_effect = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for th in 0..8u64 {
            let tm = Arc::clone(&tm);
            let map = Arc::clone(&map);
            let counter = &counter;
            handles.push(s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(th);
                let mut net: i64 = 0;
                for _ in 0..300 {
                    let k = rng.random_range(0..8u64);
                    let delta = rng.random_range(1..10i64);
                    let doomed = rng.random_bool(0.5);
                    let r = tm.run(|t| {
                        let v = map.get(t, &k)?.unwrap();
                        map.put(t, k, v + delta)?;
                        counter.add(t, delta)?;
                        if doomed {
                            return Err(Abort::explicit());
                        }
                        Ok(())
                    });
                    if r.is_ok() {
                        net += delta;
                    }
                }
                net
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum::<i64>()
    });

    let map_total = tm
        .run(|t| {
            let mut sum = 0;
            for k in 0..8u64 {
                sum += map.get(t, &k)?.unwrap();
            }
            Ok(sum)
        })
        .unwrap();
    assert_eq!(map_total, committed_effect, "map state diverged");
    assert_eq!(counter.peek(), committed_effect, "counter state diverged");
}

#[test]
fn semaphore_bounded_resource_pool_never_oversubscribes() {
    // A pool of 3 permits guards a resource; each transaction acquires,
    // "uses" the resource, and releases. Instantaneous usage must never
    // exceed 3 even across aborts.
    let tm = Arc::new(TxnManager::new(TxnConfig {
        lock_timeout: Duration::from_millis(200),
        ..TxnConfig::default()
    }));
    let sem = TSemaphore::new(3);
    let in_use = Arc::new(std::sync::atomic::AtomicI64::new(0));
    std::thread::scope(|s| {
        for th in 0..8u64 {
            let tm = Arc::clone(&tm);
            let sem = sem.clone();
            let in_use = Arc::clone(&in_use);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(th);
                for _ in 0..200 {
                    let doomed = rng.random_bool(0.2);
                    let in_use2 = Arc::clone(&in_use);
                    let r = tm.run(|t| {
                        sem.acquire(t)?;
                        let now = in_use2.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
                        assert!(now <= 3, "pool oversubscribed: {now}");
                        in_use2.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                        sem.release(t);
                        if doomed {
                            return Err(Abort::explicit());
                        }
                        Ok(())
                    });
                    let _ = r;
                }
            });
        }
    });
    assert_eq!(sem.available(), 3, "permits leaked");
}

#[test]
fn producer_consumer_with_aborts_delivers_exactly_once() {
    let tm = Arc::new(TxnManager::new(TxnConfig {
        lock_timeout: Duration::from_millis(200),
        ..TxnConfig::default()
    }));
    let q: BoostedBlockingQueue<i64> = BoostedBlockingQueue::new(4);
    const N: i64 = 500;

    let received = std::thread::scope(|s| {
        {
            let (tm, q) = (Arc::clone(&tm), q.clone());
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(1);
                for i in 0..N {
                    // Some offers are attempted, aborted, retried.
                    loop {
                        let doomed = rng.random_bool(0.1);
                        let r = tm.run(|t| {
                            q.offer(t, i)?;
                            if doomed {
                                return Err(Abort::explicit());
                            }
                            Ok(())
                        });
                        match r {
                            Ok(()) => break,
                            Err(TxnError::ExplicitlyAborted) => {}
                            Err(e) => panic!("producer failed: {e}"),
                        }
                    }
                }
            });
        }
        let (tm, q) = (Arc::clone(&tm), q.clone());
        let consumer = s.spawn(move || {
            let mut rng = StdRng::seed_from_u64(2);
            let mut got = Vec::new();
            while got.len() < N as usize {
                let doomed = rng.random_bool(0.1);
                let r = tm.run(|t| {
                    let v = q.take(t)?;
                    if doomed {
                        return Err(Abort::explicit());
                    }
                    Ok(v)
                });
                match r {
                    Ok(v) => got.push(v),
                    Err(TxnError::ExplicitlyAborted) => {}
                    Err(e) => panic!("consumer failed: {e}"),
                }
            }
            got
        });
        consumer.join().unwrap()
    });
    assert_eq!(
        received,
        (0..N).collect::<Vec<_>>(),
        "not exactly-once/in-order"
    );
}

#[test]
fn idgen_and_map_compose_under_churn() {
    let tm = Arc::new(TxnManager::default());
    let ids = UniqueIdGen::new(ReleasePolicy::Recycle);
    let registry: Arc<BoostedHashMap<u64, u64>> = Arc::new(BoostedHashMap::new());
    let live = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for th in 0..6u64 {
            let tm = Arc::clone(&tm);
            let ids = ids.clone();
            let registry = Arc::clone(&registry);
            handles.push(s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(th);
                let mut mine = Vec::new();
                for _ in 0..300 {
                    if !mine.is_empty() && rng.random_bool(0.4) {
                        let id = mine.swap_remove(rng.random_range(0..mine.len()));
                        tm.run(|t| {
                            registry.remove(t, &id)?;
                            ids.release_id(t, id);
                            Ok(())
                        })
                        .unwrap();
                    } else {
                        let doomed = rng.random_bool(0.15);
                        let r = tm.run(|t| {
                            let id = ids.assign_id(t)?;
                            registry.put(t, id, th)?;
                            if doomed {
                                return Err(Abort::explicit());
                            }
                            Ok(id)
                        });
                        if let Ok(id) = r {
                            mine.push(id);
                        }
                    }
                }
                mine
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect::<Vec<u64>>()
    });
    // Uniqueness of live ids and exact registry correspondence.
    let mut sorted = live.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), live.len(), "duplicate live ids");
    assert_eq!(
        registry.len(),
        live.len(),
        "registry diverged from live set"
    );
}

#[test]
fn boosted_and_rwstm_objects_coexist_in_one_program() {
    // The paper positions boosting as complementing conventional
    // read/write STM ("we envision using boosting to implement
    // libraries of highly-concurrent transactional objects … while
    // ad-hoc user code can be protected by conventional means"). The
    // two runtimes run side by side over independent data.
    use transactional_boosting::rwstm::{Stm, StmVar};
    let tm = TxnManager::default();
    let stm = Stm::default();
    let set = BoostedSkipListSet::new();
    let var = StmVar::new(0i64);

    for i in 0..100 {
        tm.run(|t| set.add(t, i)).unwrap();
        stm.run(|t| {
            let v = var.read(t)?;
            var.write(t, v + 1);
            Ok(())
        })
        .unwrap();
    }
    assert_eq!(set.len(), 100);
    assert_eq!(var.load(), 100);
}

#[test]
fn an_aborted_transaction_leaves_snapshot_and_locked_reads_in_agreement() {
    // Every call below is rolled back by the abort that ends its
    // transaction: neither the base objects (locked reads) nor the
    // committed versions (snapshot reads) may keep any of it. The map
    // is armed first, so its writes log version installs to skip.
    let tm = TxnManager::default();
    let map = BoostedHashMap::new();
    map.arm(std::time::Duration::MAX).unwrap();
    let counter = BoostedCounter::new();
    tm.run(|t| {
        map.put(t, 1, 10)?;
        map.put(t, 2, 20)?;
        counter.add(t, 5)
    })
    .unwrap();

    let aborted: Result<(), _> = tm.run(|t| {
        map.put(t, 1, 99)?;
        map.remove(t, &2)?;
        map.put(t, 4, 40)?;
        counter.add(t, 1000)?;
        Err(Abort::explicit())
    });
    assert!(matches!(aborted, Err(TxnError::ExplicitlyAborted)));

    let read = |t: &Txn| {
        (1..=4)
            .map(|k| map.get(t, &k))
            .collect::<TxResult<Vec<_>>>()
    };
    let expect = vec![Some(10), Some(20), None, None];
    assert_eq!(tm.run(read).unwrap(), expect, "locked reads");
    assert_eq!(tm.run_read_only(read).unwrap(), expect, "snapshot reads");
    // The counter keeps no versions: only a locked read sees it.
    assert_eq!(tm.run(|t| counter.get(t)).unwrap(), 5);
}

#[test]
fn map_set_and_counter_effects_stay_inline() {
    let tm = TxnManager::default();
    let map = BoostedHashMap::<i64, i64>::new();
    let set = BoostedSkipListSet::<i64>::new();
    let counter = BoostedCounter::new();
    tm.run(|t| {
        map.put(t, 1, 10)?; // absent before
        map.put(t, 1, 11)?; // bound before
        map.remove(t, &1)?;
        set.add(t, 1)?;
        set.remove(t, &1)?;
        counter.add(t, 1)?;
        assert_eq!(t.undo_log_len(), 6, "one entry per mutating call");
        assert_eq!(t.boxed_action_count(), 0, "an effect was boxed");
        Ok(())
    })
    .unwrap();
}
