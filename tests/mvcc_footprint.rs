//! Heap footprint of the multi-version side-table, measured with this
//! binary's own counting allocator (live bytes, live blocks, and
//! allocation calls, all per thread so parallel tests cannot disturb
//! each other).
//!
//! The claims under test are the ones the version store's layout — a
//! key and its newest version per array entry, superseded versions in
//! a fixed per-shard buffer — exists for: a version store costs a
//! bounded number of bytes per key and no heap block per key; with no
//! reader pinning history it does not grow however often keys are
//! rewritten; steady-state installs and snapshot lookups allocate
//! nothing; and the history a pinned reader does force onto the heap
//! is given back by the first install after its guard drops. A map's
//! store holds versions only once a snapshot has read the map: until
//! then it holds no heap block, however many keys are written. The
//! same allocator pins the lock table's claims: its memory is bounded by
//! its slot count, not by the keys ever locked, and arming allocates none.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use transactional_boosting::core::{MvccDomain, VersionStore};
use transactional_boosting::linearizable::StripedHashMap;
use transactional_boosting::prelude::*;

thread_local! {
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static LIVE_BLOCKS: Cell<isize> = const { Cell::new(0) };
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Add to this thread's counters. `try_with`: the allocator also runs
/// while a thread's locals are being torn down.
fn count(bytes: isize, blocks: isize, calls: u64) {
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
    let _ = LIVE_BLOCKS.try_with(|c| c.set(c.get() + blocks));
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + calls));
}

/// A pass-through allocator that keeps the counters above.
struct CountingAlloc;

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain thread-local cells
// with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: inherits `GlobalAlloc::alloc`'s contract verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, 1, 1);
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: inherits `GlobalAlloc::alloc_zeroed`'s contract verbatim.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, 1, 1);
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: inherits `GlobalAlloc::dealloc`'s contract verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize), -1, 0);
        // SAFETY: `ptr`/`layout` come from a successful alloc above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: inherits `GlobalAlloc::realloc`'s contract verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize, 0, 1);
        // SAFETY: `ptr`/`layout` come from a successful alloc above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// This thread's heap counters at one instant.
struct Heap {
    bytes: isize,
    blocks: isize,
    calls: u64,
}

impl Heap {
    fn now() -> Heap {
        Heap {
            bytes: LIVE_BYTES.get(),
            blocks: LIVE_BLOCKS.get(),
            calls: ALLOC_CALLS.get(),
        }
    }
}

/// One commit on a private domain: every write at one timestamp.
fn commit(domain: &MvccDomain, store: &VersionStore<i64, i64>, writes: &[(i64, Option<i64>)]) {
    domain.commit(|stamp| {
        for &(key, value) in writes {
            store.install(key, value, stamp);
        }
    });
}

#[test]
fn an_unpinned_store_is_flat_blockless_and_allocation_free() {
    const KEYS: i64 = 65_536;
    const FLIPS: i64 = 100_000;
    let domain = Arc::new(MvccDomain::new());
    // Which twin of pair `p` (keys 2p, 2p+1) holds the binding; sized
    // before the first reading so it is in none of the deltas.
    let mut even_holds = vec![false; (KEYS / 2) as usize];
    let empty = Heap::now();
    let store = VersionStore::new(Arc::clone(&domain));
    for key in 0..KEYS {
        commit(&domain, &store, &[(key, Some(key))]);
    }
    for key in (0..KEYS).step_by(2) {
        commit(&domain, &store, &[(key, None)]);
    }
    let sized = Heap::now();
    let per_key = (sized.bytes - empty.bytes) / KEYS as isize;
    assert!(per_key <= 64, "{per_key} version-store bytes per key");
    // The shard array plus at most one table per shard: a constant,
    // whatever the key count — no key owns a heap block.
    let blocks = sized.blocks - empty.blocks;
    assert!(blocks <= 1 + 64, "{blocks} live blocks for {KEYS} keys");

    // Flip bindings between twins (a tombstone and a value per
    // commit), revisiting every pair several times.
    let started = std::time::Instant::now();
    for i in 0..FLIPS {
        let pair = (i * 7919) % (KEYS / 2);
        let held = &mut even_holds[pair as usize];
        let (from, to) = if *held {
            (2 * pair, 2 * pair + 1)
        } else {
            (2 * pair + 1, 2 * pair)
        };
        *held = !*held;
        commit(&domain, &store, &[(from, None), (to, Some(i))]);
    }
    let ns_per_flip = started.elapsed().as_nanos() / FLIPS as u128;
    let flipped = Heap::now();
    // Printed only now: capturing output allocates.
    println!("{KEYS} keys: {per_key} B/key in {blocks} heap blocks");
    println!(
        "{FLIPS} flips: {ns_per_flip} ns/flip, {} allocations, {} B net growth",
        flipped.calls - sized.calls,
        flipped.bytes - sized.bytes
    );
    assert_eq!(
        flipped.calls - sized.calls,
        0,
        "allocations over {FLIPS} flips"
    );
    assert_eq!(
        flipped.bytes - sized.bytes,
        0,
        "net growth over {FLIPS} flips"
    );
    assert!((0..KEYS).all(|key| store.versions(&key) <= 2));
    let snap = domain.metrics.snapshot();
    assert_eq!(snap.installs, (KEYS + KEYS / 2 + 2 * FLIPS) as u64);
}

#[test]
fn a_map_nobody_snapshot_reads_keeps_no_versions() {
    // The store test's keys and flips, through a map no snapshot has
    // read: every heap block the map gains is its base's, and the flips
    // allocate nothing at all.
    const KEYS: i64 = 65_536;
    const FLIPS: i64 = 100_000;
    let tm = TxnManager::default();
    tm.run(|_| Ok(())).unwrap(); // one-time per-thread state
    let mut even_holds = vec![false; (KEYS / 2) as usize];
    // The base alone: the same bindings in a bare striped map.
    let bare = StripedHashMap::new();
    let empty = Heap::now();
    for key in 0..KEYS {
        bare.insert(key, key);
    }
    for key in (0..KEYS).step_by(2) {
        bare.remove(&key);
    }
    let bare_blocks = Heap::now().blocks - empty.blocks;

    let map = BoostedHashMap::<i64, i64>::new();
    let empty = Heap::now();
    for key in 0..KEYS {
        tm.run(|t| map.put(t, key, key)).unwrap();
    }
    for key in (0..KEYS).step_by(2) {
        tm.run(|t| map.remove(t, &key)).unwrap();
    }
    let sized = Heap::now();
    for i in 0..FLIPS {
        let pair = (i * 7919) % (KEYS / 2);
        let held = &mut even_holds[pair as usize];
        let (from, to) = if *held {
            (2 * pair, 2 * pair + 1)
        } else {
            (2 * pair + 1, 2 * pair)
        };
        *held = !*held;
        tm.run(|t| {
            map.remove(t, &from)?;
            map.put(t, to, i).map(|_| ())
        })
        .unwrap();
    }
    let flipped = Heap::now();
    let store_blocks = sized.blocks - empty.blocks - bare_blocks;
    println!(
        "{KEYS} keys, {FLIPS} flips, no snapshot read: {store_blocks} version-store blocks, \
         {} allocations over the flips",
        flipped.calls - sized.calls
    );
    assert_eq!(store_blocks, 0, "a dormant map's store holds heap blocks");
    assert_eq!(
        flipped.calls - sized.calls,
        0,
        "allocations over {FLIPS} flips"
    );
    assert_eq!(
        flipped.bytes - sized.bytes,
        0,
        "net growth over {FLIPS} flips"
    );
}

#[test]
fn arming_a_map_never_used_allocates_nothing() {
    // Its lock table is one array of words, taken whole with the map.
    let map = BoostedHashMap::<i64, i64>::new();
    let before = Heap::now();
    assert!(map.arm(std::time::Duration::MAX).is_ok());
    assert_eq!(Heap::now().calls - before.calls, 0, "allocations arming");
}

#[test]
fn a_four_lookup_snapshot_script_allocates_nothing() {
    let tm = TxnManager::default();
    let map = BoostedHashMap::<i64, i64>::new();
    // Armed before the puts, so they install versions.
    tm.run_read_only(|t| map.get(t, &0)).unwrap();
    for key in 0..1024 {
        tm.run(|t| map.put(t, key, key)).unwrap();
    }
    let scan = |i: i64| {
        tm.run_read_only(|t| {
            let mut sum = 0;
            for k in 0..4 {
                sum += map.get(t, &((i * 4 + k) % 2048))?.unwrap_or(0);
            }
            Ok(sum)
        })
        .unwrap()
    };
    scan(0); // one-time lazy state (the reader registry's first slot)
    let before = Heap::now();
    let total: i64 = (0..10_000).map(scan).sum();
    assert_eq!(
        Heap::now().calls - before.calls,
        0,
        "allocations in 10k scans"
    );
    assert!(total > 0);
}

#[test]
fn a_lock_table_does_not_grow_with_the_keys_it_has_locked() {
    // The hostile-client shape: every transaction probes a key nobody
    // has asked about before (and that is not in the map).
    const KEYS: i64 = 1_000_000;
    let tm = TxnManager::default();
    let empty = Heap::now();
    let map = BoostedHashMap::<i64, i64>::new();
    let probe = |key: i64| assert_eq!(tm.run(|t| map.get(t, &key)).unwrap(), None);
    (0..KEYS / 2).for_each(probe);
    let half = Heap::now();
    (KEYS / 2..KEYS).for_each(probe);
    let full = Heap::now();
    println!(
        "{KEYS} keys locked once: {} B live in {} heap blocks",
        full.bytes - empty.bytes,
        full.blocks - empty.blocks
    );
    assert!(
        full.bytes - empty.bytes <= 512 * 1024,
        "{} live bytes after {KEYS} distinct keys",
        full.bytes - empty.bytes
    );
    assert_eq!(full.blocks, half.blocks, "blocks added by the second half");
    assert_eq!(full.calls, half.calls, "allocations in the second half");
}

#[test]
fn history_spills_while_a_reader_pins_it_and_collapses_after() {
    let domain = Arc::new(MvccDomain::new());
    let store = VersionStore::new(Arc::clone(&domain));
    commit(&domain, &store, &[(0, Some(0))]);
    drop(domain.begin_snapshot()); // warm the registry's first slot
    let unpinned = Heap::now();

    let reader = domain.begin_snapshot();
    for v in 1..=50 {
        commit(&domain, &store, &[(0, Some(v))]);
    }
    assert_eq!(
        store.versions(&0),
        51,
        "every version since the pin is kept"
    );
    assert!(
        Heap::now().bytes > unpinned.bytes,
        "pinned history lives on the heap"
    );
    assert_eq!(store.read_at(&0, reader.ts()), Some(0));

    drop(reader);
    commit(&domain, &store, &[(0, Some(99))]);
    assert_eq!(store.versions(&0), 2, "first install after the drop prunes");
    assert_eq!(Heap::now().bytes, unpinned.bytes, "and frees the spill");
}
