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

    /// An empty per-run memo over this namespace.
    pub(crate) fn resolved(&self) -> Resolved<'_> {
        Resolved {
            ns: self,
            maps: Memo::new(),
            counters: Memo::new(),
            sems: Memo::new(),
            idgens: Memo::new(),
            pqs: Memo::new(),
        }
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

/// Names per type a [`Resolved`] memo holds at once. Every script shape
/// in the tree names at most two objects of one type; a run naming more
/// (a joint batch of one-op scripts over dozens of counters) recycles
/// the slots round-robin, which costs it the lookups it always paid.
/// Remembering them all instead was measured and lost: a scan over that
/// many names is no cheaper than the hash lookup it replaces.
const MEMO_NAMES: usize = 2;

/// One type's most recently looked-up objects, by name.
#[derive(Debug)]
struct Memo<'s, T> {
    slots: [Option<(&'s str, T)>; MEMO_NAMES],
    /// The slot the next unremembered name takes.
    next: usize,
}

impl<'s, T> Memo<'s, T> {
    fn new() -> Self {
        Memo {
            slots: [const { None }; MEMO_NAMES],
            next: 0,
        }
    }

    /// The object remembered under `name`, else `lookup`'s, remembered.
    fn get(&mut self, name: &'s str, lookup: impl FnOnce() -> T) -> &T {
        let known = |slot: &Option<(&str, T)>| slot.as_ref().is_some_and(|(n, _)| *n == name);
        let at = self.slots.iter().position(known).unwrap_or_else(|| {
            let at = self.next;
            self.next = (at + 1) % MEMO_NAMES;
            self.slots[at] = Some((name, lookup()));
            at
        });
        &self.slots[at].as_ref().expect("matched or just filled").1
    }
}

/// What one executor run has named lately: a (type, name) costs one
/// [`Namespace`] lookup — mutex, hash, handle clone — on first use and a
/// two-slot scan after, across the run's ops, scripts and retry
/// attempts, for as long as the run names at most [`MEMO_NAMES`]
/// objects of that type. Objects are still created lazily, in op order.
#[derive(Debug)]
pub(crate) struct Resolved<'s> {
    ns: &'s Namespace,
    maps: Memo<'s, Arc<BoostedHashMap<i64, i64>>>,
    counters: Memo<'s, Arc<BoostedCounter>>,
    sems: Memo<'s, TSemaphore>,
    idgens: Memo<'s, UniqueIdGen>,
    pqs: Memo<'s, Arc<BoostedPQueue<i64>>>,
}

impl<'s> Resolved<'s> {
    pub(crate) fn map(&mut self, name: &'s str) -> &BoostedHashMap<i64, i64> {
        self.maps.get(name, || self.ns.map(name))
    }

    pub(crate) fn counter(&mut self, name: &'s str) -> &BoostedCounter {
        self.counters.get(name, || self.ns.counter(name))
    }

    pub(crate) fn sem(&mut self, name: &'s str) -> &TSemaphore {
        self.sems.get(name, || self.ns.sem(name))
    }

    pub(crate) fn idgen(&mut self, name: &'s str) -> &UniqueIdGen {
        self.idgens.get(name, || self.ns.idgen(name))
    }

    pub(crate) fn pq(&mut self, name: &'s str) -> &BoostedPQueue<i64> {
        self.pqs.get(name, || self.ns.pq(name))
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
    fn a_memo_looks_up_once_per_name_within_its_slots() {
        let lookups = std::cell::Cell::new(0);
        let mut memo = Memo::new();
        let mut get = |name: &'static str, object: usize| {
            let got = *memo.get(name, || {
                lookups.set(lookups.get() + 1);
                object
            });
            assert_eq!(got, object, "{name}");
        };
        for _ in 0..3 {
            get("a", 0);
            get("b", 1);
            get("a", 0);
        }
        assert_eq!(lookups.get(), MEMO_NAMES);
        // A third name recycles a slot: still the right objects, at the
        // price of a lookup for whichever name was displaced.
        for (object, name) in ["c", "a", "b", "c"].into_iter().enumerate() {
            get(name, 10 + object);
        }
        assert_eq!(lookups.get(), MEMO_NAMES + 4);
    }

    #[test]
    fn semaphores_start_with_configured_permits() {
        let ns = Namespace::new(Arc::new(ContentionRegistry::new()), 7);
        assert_eq!(ns.sem("gate").available(), 7);
    }
}
