//! The server's object namespace: named boosted-object instances,
//! created on first reference.
//!
//! Namespaces are per-type — the map named `"x"` and the counter named
//! `"x"` are distinct objects — mirroring how the wire protocol's
//! opcodes already select the type. Every lock-bearing object is
//! registered with the server's [`ContentionRegistry`] so `STATS` can
//! attribute abort-causing lock timeouts to the object (and key
//! stripe) that caused them.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use txboost_collections::{
    BoostedCounter, BoostedHashMap, BoostedPQueue, ReleasePolicy, TSemaphore, UniqueIdGen,
};
use txboost_core::ContentionRegistry;

/// One type's name → instance table: look up, else create and insert,
/// under one lock.
#[derive(Debug)]
struct Table<T>(Mutex<HashMap<String, T>>);

impl<T: Clone> Table<T> {
    fn new() -> Self {
        Table(Mutex::new(HashMap::new()))
    }

    fn get_or_create(&self, name: &str, create: impl FnOnce() -> T) -> T {
        let mut table = self.0.lock();
        if let Some(existing) = table.get(name) {
            return existing.clone();
        }
        let created = create();
        table.insert(name.to_string(), created.clone());
        created
    }

    fn len(&self) -> usize {
        self.0.lock().len()
    }
}

/// Named object instances, created lazily.
#[derive(Debug)]
pub struct Namespace {
    maps: Table<Arc<BoostedHashMap<i64, i64>>>,
    counters: Table<Arc<BoostedCounter>>,
    sems: Table<TSemaphore>,
    idgens: Table<UniqueIdGen>,
    pqs: Table<Arc<BoostedPQueue<i64>>>,
    registry: Arc<ContentionRegistry>,
    default_sem_permits: u64,
}

/// Intern an object label for the contention registry.
///
/// [`txboost_core::obs::LockLabel`] carries `&'static str` so that the
/// hot path never touches owned strings; server object names arrive
/// over the wire, so the first (and only the first) reference to each
/// name leaks one small allocation. Bounded by the number of distinct
/// object names a deployment uses — effectively a string intern table.
fn intern_label(kind: &str, name: &str) -> &'static str {
    Box::leak(format!("{kind}:{name}").into_boxed_str())
}

impl Namespace {
    /// An empty namespace reporting contention to `registry`.
    /// Semaphores are created with `default_sem_permits` permits.
    pub fn new(registry: Arc<ContentionRegistry>, default_sem_permits: u64) -> Self {
        Namespace {
            maps: Table::new(),
            counters: Table::new(),
            sems: Table::new(),
            idgens: Table::new(),
            pqs: Table::new(),
            registry,
            default_sem_permits,
        }
    }

    /// The registry objects report contention to.
    pub fn registry(&self) -> &ContentionRegistry {
        &self.registry
    }

    /// The map named `name`, created on first reference.
    pub fn map(&self, name: &str) -> Arc<BoostedHashMap<i64, i64>> {
        self.maps.get_or_create(name, || {
            Arc::new(BoostedHashMap::with_registry(
                intern_label("map", name),
                &self.registry,
            ))
        })
    }

    /// The counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<BoostedCounter> {
        self.counters.get_or_create(name, || {
            Arc::new(BoostedCounter::with_registry(
                intern_label("counter", name),
                &self.registry,
            ))
        })
    }

    /// The semaphore named `name` (created with the configured default
    /// permit count).
    pub fn sem(&self, name: &str) -> TSemaphore {
        self.sems
            .get_or_create(name, || TSemaphore::new(self.default_sem_permits))
    }

    /// The unique-ID generator named `name`.
    pub fn idgen(&self, name: &str) -> UniqueIdGen {
        self.idgens
            .get_or_create(name, || UniqueIdGen::new(ReleasePolicy::Leak))
    }

    /// The priority queue named `name`.
    pub fn pq(&self, name: &str) -> Arc<BoostedPQueue<i64>> {
        self.pqs.get_or_create(name, || {
            Arc::new(BoostedPQueue::with_registry(
                intern_label("pq", name),
                &self.registry,
            ))
        })
    }

    /// Number of live object instances per type:
    /// `(maps, counters, sems, idgens, pqs)`.
    pub fn object_counts(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.maps.len(),
            self.counters.len(),
            self.sems.len(),
            self.idgens.len(),
            self.pqs.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txboost_core::TxnManager;

    #[test]
    fn objects_are_created_once_and_shared() {
        let ns = Namespace::new(Arc::new(ContentionRegistry::new()), 3);
        let m1 = ns.map("a");
        let m2 = ns.map("a");
        assert!(Arc::ptr_eq(&m1, &m2));
        let tm = TxnManager::default();
        tm.run(|t| m1.put(t, 1, 10)).unwrap();
        assert_eq!(tm.run(|t| m2.get(t, &1)).unwrap(), Some(10));
        assert_eq!(ns.object_counts(), (1, 0, 0, 0, 0));
    }

    #[test]
    fn type_namespaces_are_disjoint() {
        let ns = Namespace::new(Arc::new(ContentionRegistry::new()), 3);
        let _ = ns.map("x");
        let _ = ns.counter("x");
        let _ = ns.pq("x");
        assert_eq!(ns.object_counts(), (1, 1, 0, 0, 1));
    }

    #[test]
    fn semaphores_start_with_configured_permits() {
        let ns = Namespace::new(Arc::new(ContentionRegistry::new()), 7);
        assert_eq!(ns.sem("gate").available(), 7);
    }
}
