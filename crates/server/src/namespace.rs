//! The server's object namespace: named boosted-object instances,
//! created on first reference.
//!
//! Namespaces are per-type — the map named `"x"` and the counter named
//! `"x"` are distinct objects — mirroring how the wire protocol's
//! opcodes already select the type.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use txboost_collections::{
    BoostedCounter, BoostedHashMap, BoostedPQueue, ReleasePolicy, TSemaphore, UniqueIdGen,
};

/// Slots in a [`Table`]'s lock-free index (a power of two; 8 KiB of
/// empty slots per type). The benchmark's busiest type holds 65 names.
const INDEX_SLOTS: usize = 256;

/// Slots a name may occupy: the ones from its hash onward. A name
/// whose window is full when it is created lives in the spill instead,
/// so a lookup compares at most this many names whatever the names are
/// — they arrive over the wire, and the index hash is not keyed.
const PROBE: usize = 8;

/// FNV-1a: a few cycles for the short names scripts use, where the
/// spill map's SipHash costs more than the probe it would save.
fn index_hash(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h as usize
}

/// One index slot: empty, or a name and its object for good.
type IndexSlot<T> = OnceLock<(Box<str>, T)>;

/// What a [`Table`]'s mutex guards: creation, and the names the index
/// had no room for.
#[derive(Debug)]
struct Slow<T: 'static> {
    /// Objects ever created (index and spill together).
    created: usize,
    /// Leaked, so a lookup can hand out a borrow that outlives the
    /// guard: a spilled object lives as long as the process. The
    /// index's own objects drop with it.
    spill: HashMap<String, &'static T>,
}

/// One type's name → instance table. An object cannot go away — the
/// namespace never removes one — so a lookup borrows it: the index is
/// append-only (a slot, once set, never changes), read with acquire
/// loads and no lock, probed linearly from the name's hash. Only a
/// miss takes the mutex: to create the object, or to find it in the
/// spill.
#[derive(Debug)]
struct Table<T: 'static> {
    index: Box<[IndexSlot<T>]>,
    slow: Mutex<Slow<T>>,
}

impl<T> Table<T> {
    fn new() -> Self {
        Table {
            index: (0..INDEX_SLOTS).map(|_| OnceLock::new()).collect(),
            slow: Mutex::new(Slow {
                created: 0,
                spill: HashMap::new(),
            }),
        }
    }

    /// `name`'s probe window: found, or the first empty slot in it, or
    /// neither (the window is full of other names). Creation fills the
    /// first empty slot, so an empty slot ends the search: had `name`
    /// been created, it would sit there or earlier.
    fn probe(&self, name: &str) -> Result<&T, Option<&IndexSlot<T>>> {
        let start = index_hash(name);
        for i in 0..PROBE {
            let slot = &self.index[(start + i) & (INDEX_SLOTS - 1)];
            match slot.get() {
                Some((known, object)) if **known == *name => return Ok(object),
                Some(_) => {}
                None => return Err(Some(slot)),
            }
        }
        Err(None)
    }

    fn get_or_create(&self, name: &str, create: impl FnOnce() -> T) -> &T {
        if let Ok(found) = self.probe(name) {
            return found;
        }
        let mut slow = self.slow.lock();
        // Again under the mutex: every slot is set under it, so what
        // this probe sees is final.
        let vacant = match self.probe(name) {
            Ok(found) => return found,
            Err(vacant) => vacant,
        };
        if let Some(spilled) = slow.spill.get(name) {
            return spilled;
        }
        slow.created += 1;
        match vacant {
            Some(slot) => {
                let (_, object) = slot.get_or_init(|| (name.into(), create()));
                object
            }
            None => {
                let object: &'static T = Box::leak(Box::new(create()));
                slow.spill.insert(name.to_string(), object);
                object
            }
        }
    }

    fn len(&self) -> usize {
        self.slow.lock().created
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
    default_sem_permits: u64,
}

impl Namespace {
    /// An empty namespace. Semaphores are created with
    /// `default_sem_permits` permits.
    pub fn new(default_sem_permits: u64) -> Self {
        Namespace {
            maps: Table::new(),
            counters: Table::new(),
            sems: Table::new(),
            idgens: Table::new(),
            pqs: Table::new(),
            default_sem_permits,
        }
    }

    /// An owned handle to the map named `name`, created on first
    /// reference. (This and the four below are for tests and tools; the
    /// executor borrows the objects instead, through `Resolved`.)
    pub fn map(&self, name: &str) -> Arc<BoostedHashMap<i64, i64>> {
        Arc::clone(self.resolved().map(name))
    }

    /// The counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<BoostedCounter> {
        Arc::clone(self.resolved().counter(name))
    }

    /// The semaphore named `name` (created with the configured default
    /// permit count).
    pub fn sem(&self, name: &str) -> TSemaphore {
        self.resolved().sem(name).clone()
    }

    /// The unique-ID generator named `name`.
    pub fn idgen(&self, name: &str) -> UniqueIdGen {
        self.resolved().idgen(name).clone()
    }

    /// The priority queue named `name`.
    pub fn pq(&self, name: &str) -> Arc<BoostedPQueue<i64>> {
        Arc::clone(self.resolved().pq(name))
    }

    /// The borrowing view of this namespace.
    pub(crate) fn resolved(&self) -> Resolved<'_> {
        Resolved(self)
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

/// Lookups that borrow: an op gets a `&'s` object for the price of a
/// hash and a probe — no lock, no reference count — because the
/// namespace outlives the run and never removes an object. Objects are
/// created on first reference, by a locked script's footprint if any.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Resolved<'s>(&'s Namespace);

impl<'s> Resolved<'s> {
    pub(crate) fn map(self, name: &str) -> &'s Arc<BoostedHashMap<i64, i64>> {
        self.0.maps.get_or_create(name, Arc::default)
    }

    /// The map named `name` if the lock-free index holds it; `None` for
    /// a name nobody created, or one that lives in the spill. Never
    /// creates, never takes the mutex.
    pub(crate) fn existing_map(self, name: &str) -> Option<&'s Arc<BoostedHashMap<i64, i64>>> {
        self.0.maps.probe(name).ok()
    }

    pub(crate) fn counter(self, name: &str) -> &'s Arc<BoostedCounter> {
        self.0.counters.get_or_create(name, Arc::default)
    }

    pub(crate) fn sem(self, name: &str) -> &'s TSemaphore {
        let ns = self.0;
        ns.sems
            .get_or_create(name, || TSemaphore::new(ns.default_sem_permits))
    }

    pub(crate) fn idgen(self, name: &str) -> &'s UniqueIdGen {
        let ns = self.0;
        ns.idgens
            .get_or_create(name, || UniqueIdGen::new(ReleasePolicy::Leak))
    }

    pub(crate) fn pq(self, name: &str) -> &'s Arc<BoostedPQueue<i64>> {
        self.0.pqs.get_or_create(name, Arc::default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use txboost_core::TxnManager;

    #[test]
    fn objects_are_created_once_and_shared() {
        let ns = Namespace::new(3);
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
        let ns = Namespace::new(3);
        let _ = ns.map("x");
        let _ = ns.counter("x");
        let _ = ns.pq("x");
        assert_eq!(ns.object_counts(), (1, 1, 0, 0, 1));
    }

    #[test]
    fn racing_threads_create_each_object_once_past_the_index_capacity() {
        const THREADS: usize = 8;
        const NAMES: usize = INDEX_SLOTS + INDEX_SLOTS / 2;
        let ns = Namespace::new(3);
        let names: Vec<String> = (0..NAMES).map(|i| format!("c{i}")).collect();
        let created = AtomicUsize::new(0);
        let go = std::sync::Barrier::new(THREADS);
        // Each thread's view: the address of the object behind every name.
        let views: Vec<Vec<usize>> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (ns, names, created, go) = (&ns, &names, &created, &go);
                    s.spawn(move || {
                        go.wait();
                        // Everyone walks the names from a different
                        // start, so every name is contended.
                        let mut view = vec![0; NAMES];
                        for i in (0..NAMES).map(|i| (i + t * NAMES / THREADS) % NAMES) {
                            let object = ns.counters.get_or_create(&names[i], || {
                                created.fetch_add(1, Ordering::Relaxed);
                                Arc::new(BoostedCounter::new())
                            });
                            view[i] = Arc::as_ptr(object) as usize;
                        }
                        view
                    })
                })
                .collect();
            let join = |r: std::thread::ScopedJoinHandle<'_, _>| r.join().expect("racer panicked");
            racers.into_iter().map(join).collect()
        });
        assert_eq!(created.into_inner(), NAMES, "an object was created twice");
        assert_eq!(ns.object_counts(), (0, NAMES, 0, 0, 0));
        for view in &views[1..] {
            assert!(view == &views[0], "two threads saw different objects");
        }
        let distinct: std::collections::HashSet<_> = views[0].iter().collect();
        assert_eq!(distinct.len(), NAMES, "two names share an object");
        // More names than slots: the spill holds the rest, and a
        // spilled name resolves to its one object like any other.
        let spilled = ns.counters.slow.lock().spill.len();
        assert!(spilled >= NAMES - INDEX_SLOTS, "spilled {spilled}");
        assert!(Arc::ptr_eq(&ns.counter("c0"), &ns.counter("c0")));
    }

    #[test]
    fn semaphores_start_with_configured_permits() {
        let ns = Namespace::new(7);
        assert_eq!(ns.sem("gate").available(), 7);
    }
}
