//! Multi-version support for boosted objects: abort-free read-only
//! transactions.
//!
//! Boosting (the PPoPP 2008 methodology) buys write concurrency with
//! abstract locks, but that price is exactly wrong for pure readers:
//! a read-only transaction acquires locks it never needs for conflict
//! detection and can abort or stall behind writers. The multi-version
//! object-based STM line (Juyal/Kulkarni/Kumari/Peri/Somani, arXiv
//! 1712.09803 / 1905.01200) shows the fix at object granularity: keep
//! the few committed versions a reader can still need per key, stamp
//! each commit with a global timestamp, and let read-only transactions
//! return instantly on the newest version at-or-below their snapshot —
//! no locks, no undo log, no aborts.
//!
//! A version must earn its code, so only the boosted map keeps them:
//! its keys are what read-only scripts read. Every other boosted type
//! logs plain inverses, and a transaction touching only those logs no
//! install and never enters [`MvccDomain::commit`]. So every version
//! install in the system is a map key's, made under that key's
//! exclusive lock, and the installs of one key arrive in timestamp
//! order.
//!
//! ## The snapshot protocol
//!
//! * A committing writer enters its domain's **install window** —
//!   [`MvccDomain::commit`], one [`AbstractLock`] word taken with no
//!   deadline — *while its abstract locks are still held*, so timestamp
//!   order extends the lock-serialization order. Inside, it stamps
//!   itself `ts = stable + 1` and installs one version per mutated key
//!   (stamped `ts`); leaving, on every exit, it stores `stable = ts` and
//!   releases the word. Commits therefore install one at a time and
//!   become stable **in timestamp order**: `stable` is always the
//!   largest `S` such that every commit with timestamp ≤ `S` has fully
//!   installed its versions (no holes).
//! * Who waits for whom: a commit that finds the window held waits at
//!   the word — the lock word's brief spin, then a park that the
//!   holder's release wakes. The waiter still holds its transaction's
//!   abstract locks — they are released only once the commit is
//!   stable, or a lock-based reader could see its effects in the base
//!   object before any snapshot can (below). The wait cannot cycle all
//!   the same: the window is the last lock any commit takes, its holder
//!   waits for nothing (an install takes no abstract lock), and arming
//!   a map takes key slots, never the window. The price is paid under
//!   oversubscription: a committer preempted mid-install delays the
//!   commits behind it, locks included.
//! * A read-only transaction snapshots at `S = stable()` via
//!   `ReaderRegistry::register` and reads, per key, the newest
//!   version with timestamp ≤ `S`. Because `S` is below the commit
//!   installing, if any, the snapshot is a consistent prefix of the
//!   serialization order: all-or-nothing per writer, and immutable for
//!   the reader's whole lifetime. That is why read-only transactions
//!   *cannot* abort — there is no conflict left to detect — and why
//!   beginning one never waits.
//! * Real-time order: [`MvccDomain::commit`] returns only after
//!   `stable ≥ ts`, so a commit that has returned is in every snapshot
//!   begun afterwards, by construction. A transaction calls it with its
//!   abstract locks still held and releases them after it returns, so
//!   the same holds for whatever a *lock-based* transaction read from
//!   the base objects: it could take the lock only once the writer was
//!   stable, and a snapshot begun after it contains that writer.
//!
//! ## Version slots and the GC floor
//!
//! A [`VersionStore`] shard is one open-addressed, linearly probed
//! array whose entries are each a key and its newest committed version
//! (32 B for `i64` keys and values). The versions a rewrite supersedes
//! live out of line, in the shard: a small fixed buffer beside the
//! array, and — only while a registered reader pins more history than
//! the buffer holds — a keyed heap store, freed when it empties. A
//! snapshot read at or above a key's newest version is one keyed hash —
//! which picks both the shard and the home entry — one shard lock, and
//! one entry read (more only past a collision); a read below it looks
//! at that key's superseded versions only. An install allocates nothing
//! while the buffer has room. [`VersionStore::prefetch`] starts a key's
//! home entry on its way into the cache without the lock, so a script
//! that announces its reads first (the server's snapshot lookahead)
//! overlaps their misses instead of taking them one by one.
//!
//! A version is dropped once a newer version at-or-below the **GC
//! floor** exists, where the floor is `min(oldest registered reader,
//! stable)` — so no registered snapshot reader can ever lose the
//! version it would read. A shard sweeps its superseded versions
//! whenever an install arrives with a floor above the last one it swept
//! by. Registration and floor computation read the clock under the
//! same registry mutex, which closes the register-vs-GC race: a floor
//! that misses a concurrent registration is guaranteed (by mutex
//! ordering and the clock's monotonicity) to be at-or-below that
//! reader's snapshot. For the same reason a floor stays safe once
//! computed, so a commit reads it once for all its installs
//! ([`MvccDomain::commit`]).
//!
//! Everything here is shared-state-only (no per-`Txn` storage); the
//! transaction integration — snapshot guards on [`crate::Txn`], the
//! effect log whose install arms run at commit — lives in `txn.rs`.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::det::{self, Mutation};
use crate::locks::{AbstractLock, Deadline};
use crate::obs::{HistogramSnapshot, LatencyHistogram};
use crate::TxnId;

/// What [`MvccDomain::commit`] hands its install window, and the
/// window hands every version install in it: neither value exists yet
/// when an install is logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitStamp {
    /// The commit's timestamp: what its versions are stamped with.
    pub ts: u64,
    /// The GC floor read for this commit: what its installs prune by.
    pub floor: u64,
}

/// The global commit-timestamp clock: the install window's lock word
/// and the stable frontier.
///
/// `stable()` is the heart of the protocol: the largest timestamp `S`
/// such that *every* commit with timestamp ≤ `S` has finished
/// installing. A reader snapshotting at `S` therefore never races an
/// install — the one commit installing, if any, is stamped `S + 1`.
///
/// A commit holds the window from stamping itself `stable + 1` until it
/// stores that timestamp into `stable` ([`MvccDomain::commit`]), so
/// commits install one at a time and become stable in timestamp order.
/// The window is an [`AbstractLock`] taken with no deadline: a commit
/// that finds it held waits in the lock word's one blocking loop —
/// spin, then park until the holder's release — on the wall clock or,
/// under a det scheduler, on virtual time.
#[derive(Debug, Default)]
pub struct CommitClock {
    /// The install window: held exclusively by the commit installing.
    window: AbstractLock,
    /// The stable frontier (timestamps start at 1; 0 means "before
    /// every commit"). Written only by the window's holder.
    stable: AtomicU64,
}

impl CommitClock {
    /// The stable frontier: every commit with timestamp ≤ this value
    /// has fully installed its versions. Monotonically non-decreasing.
    pub fn stable(&self) -> u64 {
        self.stable.load(Ordering::Acquire)
    }
}

/// Live snapshot readers, keyed by snapshot timestamp.
///
/// GC may drop a version only when a newer version at-or-below
/// `min(oldest registered reader, stable)` exists; the registry tracks
/// the first operand. Registration reads the clock *under the registry
/// mutex*, and so does [`MvccDomain::gc_floor`] — see the module docs
/// for why that ordering is load-bearing.
#[derive(Debug, Default)]
pub struct ReaderRegistry {
    /// `(snapshot ts, reader count)` pairs; unsorted, at most one
    /// entry per distinct live snapshot timestamp.
    readers: Mutex<Vec<(u64, usize)>>,
}

impl ReaderRegistry {
    /// Register a reader at the clock's current stable timestamp and
    /// return that snapshot timestamp.
    fn register(&self, clock: &CommitClock) -> u64 {
        let mut readers = self.readers.lock().unwrap();
        let ts = clock.stable();
        match readers.iter_mut().find(|(t, _)| *t == ts) {
            Some((_, n)) => *n += 1,
            None => readers.push((ts, 1)),
        }
        ts
    }

    /// Drop one registration at `ts`.
    fn deregister(&self, ts: u64) {
        let mut readers = self.readers.lock().unwrap();
        match readers.iter().position(|(t, _)| *t == ts) {
            Some(i) => {
                readers[i].1 -= 1;
                if readers[i].1 == 0 {
                    readers.swap_remove(i);
                }
            }
            None => debug_assert!(false, "deregister({ts}) without a registration"),
        }
    }

    /// Number of live registrations (diagnostics).
    pub fn live_readers(&self) -> usize {
        self.readers.lock().unwrap().iter().map(|(_, n)| n).sum()
    }
}

/// Counters and histograms for the multi-version read path, exported
/// through the server's STATS surface. All updates are relaxed
/// atomics, cheap enough for the commit path (same policy as
/// [`crate::obs`]).
#[derive(Debug, Default)]
pub struct MvccMetrics {
    /// Versions the installed key retains after each version install.
    pub chain_len: LatencyHistogram,
    /// Snapshot age (in commit timestamps: `stable - snapshot_ts`) at
    /// read-only transaction end — how far behind the frontier
    /// snapshots run.
    pub snapshot_age: LatencyHistogram,
    snapshot_reads: AtomicU64,
    gc_reclaimed: AtomicU64,
    versioned_stores: AtomicU64,
}

impl MvccMetrics {
    /// Record one install that left its key `len` versions after
    /// reclaiming `reclaimed`.
    #[inline]
    fn note_install(&self, len: usize, reclaimed: usize) {
        self.chain_len.record(len as u64);
        if reclaimed > 0 {
            self.gc_reclaimed
                .fetch_add(reclaimed as u64, Ordering::Relaxed);
        }
    }

    #[inline]
    fn note_snapshot_read(&self) {
        self.snapshot_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of the counters and histograms.
    pub fn snapshot(&self) -> MvccSnapshot {
        let chain_len = self.chain_len.snapshot();
        MvccSnapshot {
            // Every install records one chain length and nothing else does.
            installs: chain_len.count(),
            snapshot_reads: self.snapshot_reads.load(Ordering::Relaxed),
            gc_reclaimed: self.gc_reclaimed.load(Ordering::Relaxed),
            versioned_stores: self.versioned_stores.load(Ordering::Relaxed),
            chain_len,
            snapshot_age: self.snapshot_age.snapshot(),
        }
    }
}

/// A point-in-time copy of [`MvccMetrics`].
#[derive(Debug, Clone)]
pub struct MvccSnapshot {
    /// Versions installed by committed writes.
    pub installs: u64,
    /// Reads served from version slots (including misses).
    pub snapshot_reads: u64,
    /// Versions reclaimed by install-time GC.
    pub gc_reclaimed: u64,
    /// Stores seeded so far ([`VersionStore::seed`]): the maps whose
    /// writes install versions because a snapshot read them.
    pub versioned_stores: u64,
    /// Retained-versions-per-key histogram (sampled at install).
    pub chain_len: HistogramSnapshot,
    /// Snapshot-age histogram (sampled at read-only txn end).
    pub snapshot_age: HistogramSnapshot,
}

/// One multi-version world: a commit clock, its reader registry, and
/// the metrics fed by every store attached to it.
///
/// Production code uses the process-wide [`MvccDomain::global`] (the
/// boosted collections default to it, and `TxnManager` stamps commits
/// against it); unit tests build private domains so their clocks and
/// floors do not interfere.
#[derive(Debug, Default)]
pub struct MvccDomain {
    /// The domain's commit-timestamp clock.
    pub clock: CommitClock,
    /// The domain's live-reader registry.
    pub readers: ReaderRegistry,
    /// The domain's MVCC observability surface.
    pub metrics: MvccMetrics,
}

impl MvccDomain {
    /// A fresh, private domain (unit tests; production uses
    /// [`global`](Self::global)).
    pub fn new() -> Self {
        MvccDomain::default()
    }

    /// The process-wide domain shared by every boosted collection and
    /// `TxnManager`; the per-transaction paths touch no reference count.
    pub fn global() -> &'static MvccDomain {
        Self::global_arc()
    }

    /// The global domain as the `Arc` the stores hold (one field type
    /// with the tests' private domains), cloned once per collection.
    fn global_arc() -> &'static Arc<MvccDomain> {
        static GLOBAL: OnceLock<Arc<MvccDomain>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(MvccDomain::new()))
    }

    /// Begin a snapshot read: register at the stable frontier and
    /// return a guard that deregisters (and records the snapshot's final
    /// age) on drop. Never waits: every commit that has returned is
    /// already at-or-below `stable`.
    pub fn begin_snapshot(&self) -> SnapshotGuard<'_> {
        let ts = self.readers.register(&self.clock);
        SnapshotGuard { domain: self, ts }
    }

    /// Run `installs` as one commit: enter the install window, stamp
    /// the commit `stable + 1`, read the GC floor, hand both to the
    /// closure — which passes them on to [`VersionStore::install`] —
    /// and leave, making the commit stable, so it is in every snapshot
    /// begun after this returns. A commit that finds the window held
    /// waits, with no deadline, for the one inside to leave.
    ///
    /// The caller holds whatever serializes it against conflicting
    /// writers (a transaction's abstract locks) from before this call
    /// until after it returns: the timestamp is taken inside the locked
    /// window, and nobody who waited for those locks can see the
    /// commit's effects before a snapshot can. The window is the last
    /// lock a commit takes and its holder waits for nothing, so waiting
    /// for it cannot close a cycle.
    ///
    /// The window closes on every exit, unwinding included: if an
    /// install panics the timestamp is still made stable, so later
    /// commits and snapshots are not wedged behind it. That commit is
    /// *torn* — the versions installed before the panic are stamped with
    /// its timestamp and visible to every snapshot at-or-above it, the
    /// rest are missing, and such a snapshot reads the previous version
    /// of those keys.
    pub fn commit<R>(&self, installs: impl FnOnce(CommitStamp) -> R) -> R {
        /// The window held by `id` for commit `ts`: leaving makes `ts`
        /// stable, then releases the word.
        struct Window<'c> {
            clock: &'c CommitClock,
            id: TxnId,
            ts: u64,
        }
        impl Drop for Window<'_> {
            fn drop(&mut self) {
                self.clock.stable.store(self.ts, Ordering::Release);
                self.clock.window.release(self.id);
            }
        }
        let clock = &self.clock;
        let id = crate::txn::next_txn_id();
        clock
            .window
            .lock_for(id, || Deadline::after(Duration::MAX))
            .expect("a wait with no deadline timed out");
        // Relaxed: only the window's holder stores it, and taking the
        // word ordered this load after the last holder's store.
        let ts = clock.stable.load(Ordering::Relaxed) + 1;
        let _window = Window { clock, id, ts };
        // One registry-mutex pass per commit, not per install: the
        // floor only rises, so a stale one prunes less, never more.
        let floor = self.gc_floor();
        installs(CommitStamp { ts, floor })
    }

    /// The GC floor: versions strictly older than the newest version
    /// at-or-below this timestamp are reclaimable. Reads the clock
    /// under the registry mutex so a concurrent registration can never
    /// end up *below* the floor this returns (mutex ordering makes the
    /// later clock read see at least this stable value).
    pub fn gc_floor(&self) -> u64 {
        let readers = self.readers.readers.lock().unwrap();
        let stable = self.clock.stable();
        if det::mutated(Mutation::IgnoreReaderFloor) {
            return stable;
        }
        readers.iter().map(|&(ts, _)| ts).fold(stable, u64::min)
    }
}

/// RAII registration of one snapshot reader. Holds the GC floor at-or-
/// below `ts()` for its lifetime; records the snapshot's age into the
/// domain metrics on drop.
#[derive(Debug)]
pub struct SnapshotGuard<'d> {
    domain: &'d MvccDomain,
    ts: u64,
}

impl SnapshotGuard<'_> {
    /// The snapshot timestamp this guard pins.
    pub fn ts(&self) -> u64 {
        self.ts
    }
}

impl Drop for SnapshotGuard<'_> {
    fn drop(&mut self) {
        self.domain.readers.deregister(self.ts);
        let age = self.domain.clock.stable().saturating_sub(self.ts);
        self.domain.metrics.snapshot_age.record(age);
    }
}

/// One committed version: `(commit ts, value)`; `None` is a tombstone
/// (the key was absent as of that commit).
type Version<V> = (u64, Option<V>);

/// A version a newer one of its key has superseded: what a snapshot at
/// a timestamp in `[version.0, until)` reads of that key.
#[derive(Debug)]
struct Superseded<V> {
    version: Version<V>,
    /// The timestamp of the key's next newer version.
    until: u64,
}

impl<V> Superseded<V> {
    /// Whether a snapshot at `ts` reads this version.
    fn covers(&self, ts: u64) -> bool {
        self.version.0 <= ts && ts < self.until
    }

    /// Whether no snapshot at-or-above `floor` can need it: a newer
    /// version at-or-below the floor exists — or it is a tombstone that
    /// is the newest version at-or-below the floor. Every older version
    /// of its key is reclaimable then too, so such a tombstone would
    /// lead the key's history, and a read that finds no version
    /// covering its snapshot answers `None` just as the tombstone does.
    fn reclaimable(&self, floor: u64) -> bool {
        self.until <= floor || (self.version.0 <= floor && self.version.1.is_none())
    }
}

/// Superseded versions a shard holds in place before it spills. A
/// commit supersedes one version per key it rewrites, and with no
/// reader pinning history the shard's next install at a higher floor
/// reclaims it, so a few cover the steady state.
const BUFFERED: usize = 4;

/// A shard's superseded versions, every key's together: a fixed buffer,
/// and a keyed heap store for what the buffer cannot hold, allocated
/// only then and freed as soon as a sweep empties it. Whether a version
/// can go depends on nothing but its own record, so neither part is
/// kept in order, and a key's versions may sit in both.
#[derive(Debug)]
struct Older<K, V> {
    buffer: [Option<(K, Superseded<V>)>; BUFFERED],
    spill: Option<HashMap<K, Vec<Superseded<V>>>>,
    /// The highest floor the store has been swept by.
    swept: u64,
}

impl<K: Hash + Eq, V> Older<K, V> {
    fn new() -> Self {
        Older {
            buffer: std::array::from_fn(|_| None),
            spill: None,
            swept: 0,
        }
    }

    /// `key`'s superseded versions, in no order.
    fn of<'s, 'k>(
        &'s self,
        key: &'k K,
    ) -> impl Iterator<Item = &'s Superseded<V>> + use<'s, 'k, K, V> {
        let buffered = self.buffer.iter().flatten();
        let buffered = buffered.filter_map(move |(k, s)| (k == key).then_some(s));
        let spilled = self.spill.as_ref().and_then(|spill| spill.get(key));
        buffered.chain(spilled.into_iter().flatten())
    }

    /// Keep `superseded` unless `floor` already reclaims it; returns the
    /// versions that reclaimed (0 or 1).
    fn keep(&mut self, key: K, superseded: Superseded<V>, floor: u64) -> usize {
        if superseded.reclaimable(floor) {
            return 1;
        }
        match self.buffer.iter_mut().find(|entry| entry.is_none()) {
            Some(free) => *free = Some((key, superseded)),
            None => self
                .spill
                .get_or_insert_with(HashMap::new)
                .entry(key)
                .or_default()
                .push(superseded),
        }
        0
    }

    /// Drop every superseded version `floor` reclaims, unless the store
    /// was swept by a floor at least as high; returns how many went.
    fn sweep(&mut self, floor: u64) -> usize {
        if floor <= self.swept {
            return 0;
        }
        self.swept = floor;
        let mut reclaimed = 0;
        for entry in &mut self.buffer {
            if entry.as_ref().is_some_and(|(_, s)| s.reclaimable(floor)) {
                *entry = None;
                reclaimed += 1;
            }
        }
        if let Some(spill) = &mut self.spill {
            spill.retain(|_, versions| {
                let kept = versions.len();
                versions.retain(|s| !s.reclaimable(floor));
                reclaimed += kept - versions.len();
                !versions.is_empty()
            });
            if spill.is_empty() {
                self.spill = None;
            }
        }
        reclaimed
    }
}

/// Shards in a [`VersionStore`] (power of two); a key's shard is the
/// top bits of its hash, its home entry the low bits.
const STORE_SHARD_BITS: u32 = 6;
const STORE_SHARDS: usize = 1 << STORE_SHARD_BITS;

/// Entries a shard's slot array starts with on its first install.
const MIN_ENTRIES: usize = 8;

/// One entry of a shard's slot array: empty, or a key and its newest
/// committed version (32 B for `K = V = i64`: the `Option` packs into a
/// niche of the version's value tag).
type Entry<K, V> = Option<(K, Version<V>)>;

/// A [`VersionStore`] shard's versions: one open-addressed array of
/// each key's newest version, probed linearly from the home entry
/// `hash & mask`, and the versions those superseded, out of line. The
/// array's length is a power of two (or zero before the first install),
/// it grows once past ¾ full, and an entry, once filled, is never
/// emptied, so a probe ends at the first empty entry: had the key been
/// installed, it would sit there or earlier. Hashes are not stored; a
/// growth recomputes them.
#[derive(Debug)]
struct SlotTable<K, V> {
    entries: Box<[Entry<K, V>]>,
    len: usize,
    older: Older<K, V>,
}

impl<K: Hash + Eq, V> SlotTable<K, V> {
    fn new() -> Self {
        SlotTable {
            entries: Box::new([]),
            len: 0,
            older: Older::new(),
        }
    }

    /// The index of `key`'s entry, or of the empty entry that ends its
    /// probe. The array must be non-empty; the load bound keeps an
    /// empty entry in it.
    fn probe(&self, hash: u64, key: &K) -> usize {
        let mask = self.entries.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match &self.entries[i] {
                Some((known, _)) if known != key => i = (i + 1) & mask,
                _ => return i,
            }
        }
    }

    /// `key`'s newest version, if it was ever installed.
    fn newest(&self, hash: u64, key: &K) -> Option<&Version<V>> {
        if self.len == 0 {
            return None;
        }
        self.entries[self.probe(hash, key)]
            .as_ref()
            .map(|(_, newest)| newest)
    }

    /// The newest value of `key` at-or-below snapshot `ts` (`None`: the
    /// key was absent — or tombstoned — as of `ts`). Only a read below
    /// the key's newest version looks out of line.
    fn read_at(&self, hash: u64, key: &K, ts: u64) -> Option<&V> {
        let (newest, value) = self.newest(hash, key)?;
        if *newest <= ts {
            return value.as_ref();
        }
        let superseded = self.older.of(key).find(|s| s.covers(ts));
        superseded.and_then(|s| s.version.1.as_ref())
    }

    /// Retained versions of `key`: 0 if it was never installed.
    fn versions(&self, hash: u64, key: &K) -> usize {
        self.newest(hash, key)
            .map_or(0, |_| 1 + self.older.of(key).count())
    }

    /// Install the version `(ts, value)` of `key`, or give `key` an
    /// entry holding only it — growing the array first if that would
    /// fill it past ¾, with `hash_of` recomputing the hashes of the keys
    /// it moves. A version newer than the key's newest supersedes it;
    /// one at the same timestamp overwrites it (a transaction that
    /// writes a key twice installs last-write-wins). The shard is swept
    /// by `floor` first if no install swept it that high yet. Returns
    /// the key's retained versions and the versions reclaimed.
    ///
    /// Installs of one key arrive in non-decreasing timestamp order:
    /// installs run only inside [`MvccDomain::commit`]'s window, one
    /// commit at a time, each stamped above every commit before it.
    fn install(
        &mut self,
        hash: u64,
        key: K,
        (ts, value): Version<V>,
        floor: u64,
        hash_of: impl Fn(&K) -> u64,
    ) -> (usize, usize) {
        let mut reclaimed = self.older.sweep(floor);
        if self.len > 0 {
            let i = self.probe(hash, &key);
            if let Some((_, newest)) = &mut self.entries[i] {
                debug_assert!(
                    ts >= newest.0,
                    "install at {ts} below the key's newest version at {}",
                    newest.0
                );
                if ts > newest.0 {
                    let version = std::mem::replace(newest, (ts, value));
                    let superseded = Superseded { version, until: ts };
                    reclaimed += self.older.keep(key, superseded, floor);
                } else {
                    newest.1 = value;
                }
                let key = self.entries[i].as_ref().map(|(key, _)| key);
                let older = key.map_or(0, |key| self.older.of(key).count());
                return (1 + older, reclaimed);
            }
        }
        if 4 * (self.len + 1) > 3 * self.entries.len() {
            self.grow(hash_of);
        }
        let i = self.probe(hash, &key);
        self.entries[i] = Some((key, (ts, value)));
        self.len += 1;
        (1, reclaimed)
    }

    /// Double the array (or allocate the first one) and move every
    /// entry to its place in it.
    fn grow(&mut self, hash_of: impl Fn(&K) -> u64) {
        let len = (2 * self.entries.len()).max(MIN_ENTRIES);
        let old = std::mem::replace(&mut self.entries, (0..len).map(|_| None).collect());
        for (key, newest) in old.into_vec().into_iter().flatten() {
            let i = self.probe(hash_of(&key), &key);
            self.entries[i] = Some((key, newest));
        }
    }

    /// The array's first entry and its index mask, for
    /// [`VersionStore::prefetch`].
    fn view(&mut self) -> (*mut Entry<K, V>, usize) {
        (
            self.entries.as_mut_ptr(),
            self.entries.len().wrapping_sub(1),
        )
    }
}

/// One lock-striped part of a [`VersionStore`]: its versions under a
/// mutex, and beside them a lock-free copy of the slot array's address
/// and mask. The copy is rewritten, under the mutex, whenever the array
/// grows; [`VersionStore::prefetch`] reads it with relaxed loads and
/// uses it only to compute a cache hint, so a stale one only wastes
/// the hint.
#[derive(Debug)]
struct Shard<K, V> {
    table: Mutex<SlotTable<K, V>>,
    base: AtomicPtr<Entry<K, V>>,
    mask: AtomicUsize,
}

impl<K: Hash + Eq, V: Clone> Shard<K, V> {
    /// The newest value of `key` at-or-below snapshot `ts`, under the
    /// shard mutex. Yields exactly once, before the lock.
    fn read_at(&self, hash: KeyHash, key: &K, ts: u64) -> Option<V> {
        det::yield_point(det::Point::SnapshotRead);
        let table = self.table.lock().expect("version shard poisoned");
        table.read_at(hash.0, key, ts).cloned()
    }
}

/// Ask the CPU to start loading the cache line at `p`. A hint reads
/// nothing the program observes and never faults, so `p` may be stale,
/// dangling or null. Compiled out off x86-64 and under Miri.
#[inline]
fn prefetch_hint<T>(p: *const T) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: PREFETCHT0 (SSE, baseline on x86-64) is a hint: it
        // does not dereference `p` in the language's sense, cannot fault
        // on any address and changes no memory the program can read.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast()) };
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = p;
}

/// A key's hash under one [`VersionStore`]'s keyed hasher: what picks
/// its shard and its home entry. [`VersionStore::prefetch`] computes it
/// and hands it on to the read it announces, so the key is hashed once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyHash(u64);

/// A sharded map from key to its retained committed versions — the
/// per-collection version side-table behind the boosted map.
///
/// A key gets its slot on its first install. A key with no slot was
/// never written, hence absent at every snapshot; once created, a slot
/// is never removed (it always keeps its newest version). One keyed
/// hash per call picks both the shard and the home entry; the hash is
/// keyed because keys arrive over the wire, and linear probing clusters
/// under chosen collisions.
///
/// Determinism note: `install` yields to the deterministic scheduler
/// before and after its critical section and a read once —
/// *unconditionally*, never under the shard mutex. Prune amounts depend
/// on cross-test global clock state, so only structural (never
/// value-dependent) yields keep recorded schedules replayable.
#[derive(Debug)]
pub struct VersionStore<K, V> {
    shards: Box<[Shard<K, V>]>,
    hasher: RandomState,
    domain: Arc<MvccDomain>,
}

impl<K, V> VersionStore<K, V>
where
    K: Hash + Eq,
    V: Clone,
{
    /// An empty store stamping and counting against `domain`.
    pub fn new(domain: Arc<MvccDomain>) -> Self {
        let shards = (0..STORE_SHARDS)
            .map(|_| Shard {
                table: Mutex::new(SlotTable::new()),
                base: AtomicPtr::new(std::ptr::null_mut()),
                mask: AtomicUsize::new(0),
            })
            .collect();
        VersionStore {
            shards,
            hasher: RandomState::new(),
            domain,
        }
    }

    /// An empty store on the global domain.
    pub fn new_global() -> Self {
        VersionStore::new(Arc::clone(MvccDomain::global_arc()))
    }

    /// `key`'s hash under this store's keyed hasher.
    fn hash(&self, key: &K) -> KeyHash {
        KeyHash(self.hasher.hash_one(key))
    }

    /// The shard a hash picks: its top bits.
    fn shard(&self, hash: KeyHash) -> &Shard<K, V> {
        &self.shards[(hash.0 >> (64 - STORE_SHARD_BITS)) as usize]
    }

    /// Install `value` (`None` = tombstone) for `key` at the commit
    /// `stamp` came from, sweeping the key's shard by that commit's
    /// floor; the key's slot is created on its first install. This is
    /// what an effect's install arm calls, inside
    /// [`MvccDomain::commit`]'s window.
    pub fn install(&self, key: K, value: Option<V>, stamp: CommitStamp) {
        let CommitStamp { ts, floor } = stamp;
        det::yield_point(det::Point::VersionInstall);
        let (len, reclaimed) = self.put(key, (ts, value), floor);
        det::yield_point(det::Point::VersionGc);
        self.domain.metrics.note_install(len, reclaimed);
    }

    /// [`SlotTable::install`] under `key`'s shard mutex, moving the
    /// shard's lock-free view if the array grew.
    fn put(&self, key: K, version: Version<V>, floor: u64) -> (usize, usize) {
        let hash = self.hash(&key);
        let shard = self.shard(hash);
        let mut table = shard.table.lock().expect("version shard poisoned");
        let entries = table.entries.len();
        let hash_of = |key: &K| self.hasher.hash_one(key);
        let installed = table.install(hash.0, key, version, floor, hash_of);
        if table.entries.len() != entries {
            let (base, mask) = table.view();
            shard.base.store(base, Ordering::Relaxed);
            shard.mask.store(mask, Ordering::Relaxed);
        }
        installed
    }

    /// Start loading `key`'s home entry into the cache, and return the
    /// key's hash for the [`read_prefetched`](Self::read_prefetched)
    /// that finds it there. Takes no lock and yields nowhere: it reads
    /// the shard's lock-free view of its array, which may predate a
    /// growth — then the hint lands somewhere useless, and nothing else
    /// happens.
    pub fn prefetch(&self, key: &K) -> KeyHash {
        let hash = self.hash(key);
        let shard = self.shard(hash);
        let base = shard.base.load(Ordering::Relaxed);
        let mask = shard.mask.load(Ordering::Relaxed);
        prefetch_hint(base.wrapping_add(hash.0 as usize & mask));
        hash
    }

    /// Start keeping versions: give every binding `bindings` visits its
    /// first version, at the domain's stable timestamp, and return that
    /// timestamp. A map that kept none while no snapshot read it calls
    /// this once, holding off every writer of its keys, so the bindings
    /// are its committed state at that timestamp; a snapshot below it
    /// has nothing to read here. The store must have had no install.
    /// Counted once in [`MvccSnapshot::versioned_stores`], and yields
    /// nowhere, however many bindings there are.
    pub fn seed(&self, bindings: impl FnOnce(&mut dyn FnMut(&K, &V))) -> u64
    where
        K: Clone,
    {
        let ts = self.domain.clock.stable();
        bindings(&mut |key, value| {
            self.put(key.clone(), (ts, Some(value.clone())), 0);
        });
        self.domain
            .metrics
            .versioned_stores
            .fetch_add(1, Ordering::Relaxed);
        ts
    }

    /// The newest value for `key` at-or-below snapshot `ts`.
    pub fn read_at(&self, key: &K, ts: u64) -> Option<V> {
        self.read_prefetched(key, self.hash(key), ts)
    }

    /// [`read_at`](Self::read_at) for a key [`prefetch`](Self::prefetch)
    /// has hashed: the same read, one keyed hash cheaper. Yields (and
    /// counts) exactly one snapshot read whether or not the key has a
    /// slot, so schedules stay replayable.
    pub fn read_prefetched(&self, key: &K, hash: KeyHash, ts: u64) -> Option<V> {
        debug_assert_eq!(hash, self.hash(key), "a hash from another store");
        self.domain.metrics.note_snapshot_read();
        self.shard(hash).read_at(hash, key, ts)
    }

    /// Retained versions of `key`, 0 if it was never written (test
    /// introspection).
    pub fn versions(&self, key: &K) -> usize {
        let hash = self.hash(key);
        let table = self
            .shard(hash)
            .table
            .lock()
            .expect("version shard poisoned");
        table.versions(hash.0, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicBool;

    fn domain() -> Arc<MvccDomain> {
        Arc::new(MvccDomain::new())
    }

    #[test]
    fn clock_starts_before_every_commit() {
        let d = domain();
        assert_eq!(d.clock.stable(), 0);
        let ts = d.commit(|stamp| {
            assert_eq!(d.clock.stable(), 0, "stable inside its own window");
            stamp.ts
        });
        assert_eq!((ts, d.clock.stable()), (1, 1));
    }

    #[test]
    fn a_commit_returns_after_older_installs_and_the_next_snapshot_contains_it() {
        // T0 stays inside its window: T1 waits at the window word, and
        // `stable` does not move, until T0 leaves; then T1 commits at
        // the next timestamp, and a snapshot begun once T1 has returned
        // contains both without waiting.
        let d = domain();
        let (entered, release) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|s| {
            s.spawn(|| {
                d.commit(|_| {
                    entered.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                });
            });
            while !entered.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let later = s.spawn(|| d.commit(|stamp| stamp.ts));
            while !d.clock.window.has_waiters() {
                std::thread::yield_now();
            }
            assert!(!later.is_finished(), "T1 returned ahead of T0's installs");
            assert_eq!(d.clock.stable(), 0, "T0 still installing");
            release.store(true, Ordering::SeqCst);
            let t1 = later.join().unwrap();
            assert_eq!((t1, d.clock.stable()), (2, 2));
            assert_eq!(
                d.begin_snapshot().ts(),
                t1,
                "snapshot misses a returned commit"
            );
        });
        assert_eq!(d.clock.window.holders(), (None, 0), "the window left held");
    }

    #[test]
    fn unserialized_committers_all_become_stable_in_order() {
        // Nothing but the window orders these commits. Each returns only
        // once stable covers it, and the last leaves stable at the count.
        const THREADS: u64 = 4;
        const COMMITS: u64 = 20_000;
        let d = domain();
        let store: VersionStore<u64, u64> = VersionStore::new(Arc::clone(&d));
        std::thread::scope(|s| {
            for key in 0..THREADS {
                let (d, store) = (&d, &store);
                s.spawn(move || {
                    for i in 0..COMMITS {
                        let ts = d.commit(|stamp| {
                            store.install(key, Some(i), stamp);
                            stamp.ts
                        });
                        assert!(d.clock.stable() >= ts, "returned before stable");
                    }
                });
            }
        });
        assert_eq!(d.clock.stable(), THREADS * COMMITS);
    }

    #[test]
    fn a_panicking_install_window_still_publishes() {
        let d = domain();
        let store: VersionStore<u64, i64> = VersionStore::new(Arc::clone(&d));
        let torn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.commit(|stamp| {
                store.install(0, Some(1), stamp);
                panic!("install failed");
            });
        }));
        assert!(torn.is_err());
        // Neither a later writer nor a later snapshot is wedged.
        let t2 = d.commit(|stamp| stamp.ts);
        let snap = d.begin_snapshot();
        assert_eq!((t2, snap.ts(), d.clock.stable()), (2, 2, 2));
        assert_eq!(
            store.read_at(&0, snap.ts()),
            Some(1),
            "the half that landed"
        );
    }

    #[test]
    fn snapshot_guards_pin_and_release_the_floor() {
        let d = domain();
        let t1 = d.commit(|stamp| stamp.ts);
        let old = d.begin_snapshot();
        assert_eq!(old.ts(), t1);
        for _ in 0..3 {
            d.commit(|_| ());
        }
        assert_eq!(d.gc_floor(), t1, "oldest reader pins the floor");
        let young = d.begin_snapshot();
        assert_eq!(d.gc_floor(), t1, "still pinned by the older reader");
        drop(old);
        assert_eq!(d.gc_floor(), young.ts());
        drop(young);
        assert_eq!(d.gc_floor(), d.clock.stable(), "no readers: floor = stable");
        assert_eq!(d.readers.live_readers(), 0);
    }

    /// Stages one mutation for the thread that installs it, and
    /// schedules nothing.
    struct Staging(Mutation);

    impl det::DetScheduler for Staging {
        fn yield_point(&self, _tid: usize, _point: det::Point) {}
        fn block_tick(&self, _tid: usize) {}
        fn virtual_now(&self) -> u64 {
            0
        }
        fn mutated(&self, m: Mutation) -> bool {
            m == self.0
        }
    }

    #[test]
    fn a_staged_mutation_is_inert_on_a_thread_without_a_scheduler() {
        let d = domain();
        let pinned = d.commit(|stamp| stamp.ts);
        let reader = d.begin_snapshot();
        let stable = d.commit(|stamp| stamp.ts);
        let (staged_tx, staged) = std::sync::mpsc::channel();
        let (done, done_rx) = std::sync::mpsc::channel::<()>();
        let staging = Arc::clone(&d);
        let (staged_floor, installed, plain_floor) = std::thread::scope(|s| {
            s.spawn(move || {
                det::install(Arc::new(Staging(Mutation::IgnoreReaderFloor)), 0);
                let _ = staged_tx.send(staging.gc_floor());
                let _ = done_rx.recv();
                det::uninstall();
            });
            let staged_floor = staged.recv();
            let seen = (staged_floor, det::installed(), d.gc_floor());
            let _ = done.send(());
            seen
        });
        assert_eq!(
            staged_floor,
            Ok(stable),
            "the staging thread skips the reader"
        );
        assert!(installed > 0);
        assert_eq!(plain_floor, pinned, "a thread with no scheduler honours it");
        drop(reader);
    }

    /// One key's versions in a table of their own: what the tests
    /// below install and read, under the shard's sweep rule.
    struct OneKey<V>(SlotTable<u64, V>);

    impl<V> OneKey<V> {
        fn new(ts: u64, value: Option<V>) -> Self {
            let mut table = SlotTable::new();
            table.install(0, 0, (ts, value), 0, |_| 0);
            OneKey(table)
        }

        /// Install `(ts, value)` by `floor`; returns the versions
        /// reclaimed.
        fn install(&mut self, ts: u64, value: Option<V>, floor: u64) -> usize {
            self.0.install(0, 0, (ts, value), floor, |_| 0).1
        }

        fn read_at(&self, ts: u64) -> Option<&V> {
            self.0.read_at(0, &0, ts)
        }

        fn versions(&self) -> usize {
            self.0.versions(0, &0)
        }
    }

    #[test]
    fn slot_reads_the_newest_version_at_or_below_the_snapshot() {
        // Floor 0 throughout: nothing may be pruned.
        let mut slot = OneKey::new(2, Some(20i64));
        slot.install(5, Some(50), 0);
        slot.install(9, Some(90), 0);
        assert_eq!(slot.read_at(1), None, "before the first version");
        assert_eq!(slot.read_at(2), Some(&20));
        assert_eq!(slot.read_at(4), Some(&20));
        assert_eq!(slot.read_at(5), Some(&50));
        assert_eq!(slot.read_at(100), Some(&90));
        slot.install(11, None, 0); // tombstone: removed
        assert_eq!(slot.read_at(10), Some(&90));
        assert_eq!(slot.read_at(11), None);
        assert_eq!(slot.versions(), 4);
    }

    #[test]
    fn a_same_timestamp_install_wins() {
        let mut slot = OneKey::new(3, Some(30));
        slot.install(7, Some(70), 0);
        slot.install(7, Some(71), 0); // the newest version, rewritten
        assert_eq!(slot.versions(), 2, "one version per commit timestamp");
        assert_eq!(slot.read_at(4), Some(&30));
        assert_eq!(slot.read_at(8), Some(&71));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "below the key's newest version")]
    fn an_install_below_the_newest_version_is_refused() {
        let mut slot = OneKey::new(7, Some(70));
        slot.install(5, Some(50), 0);
    }

    #[test]
    fn every_install_prunes_to_the_newest_version_at_or_below_the_floor() {
        let mut slot = OneKey::new(1, Some(1));
        for ts in 2..=5u64 {
            assert_eq!(
                slot.install(ts, Some(ts), 0),
                0,
                "floor 0 pins every version"
            );
        }
        assert_eq!(slot.versions(), 5);
        // Floor 4: versions 1..3 go (4 is the newest ≤ floor, 5 and 6
        // are above it).
        assert_eq!(slot.install(6, Some(6), 4), 3);
        assert_eq!(slot.versions(), 3);
        assert_eq!(slot.read_at(4), Some(&4), "newest ≤ floor survives");
        assert_eq!(slot.read_at(5), Some(&5));
        // A floor at-or-above the newest version leaves only it.
        assert_eq!(slot.install(6, Some(60), 6), 2);
        assert_eq!(slot.versions(), 1);
        assert_eq!(slot.read_at(9), Some(&60));
    }

    #[test]
    fn gc_drops_a_leading_tombstone() {
        // [tombstone, value]: once the floor reaches the tombstone it
        // reads like the empty prefix, so it goes.
        let mut slot = OneKey::new(1, None);
        assert_eq!(slot.install(2, Some(5), 1), 1);
        assert_eq!(slot.versions(), 1);
        assert_eq!(slot.read_at(1), None);
        // A tombstone that shadows an older value must stay until the
        // floor passes it.
        let mut slot = OneKey::new(1, Some(5));
        slot.install(2, None, 0);
        assert_eq!(slot.install(3, Some(6), 1), 0);
        assert_eq!(slot.read_at(2), None);
        assert_eq!(slot.install(4, Some(7), 2), 2, "value and its tombstone");
        assert_eq!(slot.read_at(2), None);
        assert_eq!(slot.read_at(3), Some(&6));
    }

    #[test]
    fn an_entry_is_a_key_and_one_version_and_no_wider() {
        // What the footprint claim rests on: an entry is its key and its
        // newest version — no tag, no stored hash, no room for another.
        use std::mem::size_of;
        assert_eq!(size_of::<Entry<i64, i64>>(), 32);
        assert_eq!(
            size_of::<Entry<i64, i64>>(),
            size_of::<i64>() + size_of::<Version<i64>>()
        );
    }

    #[test]
    fn superseded_versions_spill_past_the_buffer_and_the_spill_is_freed() {
        // Floor 0 keeps every version: two keys rewritten three times
        // each overflow the shard's buffer.
        let mut table = SlotTable::new();
        for ts in 1..=4u64 {
            for key in [1u64, 2] {
                table.install(0, key, (ts, Some(ts * 10 + key)), 0, |_| 0);
            }
        }
        assert!(
            table.older.spill.is_some(),
            "six versions in a buffer of four"
        );
        for key in [1u64, 2] {
            assert_eq!(table.versions(0, &key), 4);
            for ts in 1..=4 {
                assert_eq!(table.read_at(0, &key, ts), Some(&(ts * 10 + key)));
            }
        }
        // A floor past every rewrite reclaims all six and frees the spill.
        assert_eq!(table.install(0, 1, (5, Some(51)), 4, |_| 0), (2, 6));
        assert!(table.older.spill.is_none());
        assert_eq!((table.versions(0, &1), table.versions(0, &2)), (2, 1));
        assert_eq!(table.read_at(0, &1, 4), Some(&41));
    }

    /// The key in each entry of a table's array, in array order.
    fn entries(table: &SlotTable<u64, u64>) -> Vec<Option<u64>> {
        table
            .entries
            .iter()
            .map(|e| e.as_ref().map(|(k, _)| *k))
            .collect()
    }

    #[test]
    fn a_probe_from_the_last_entry_wraps_to_the_first() {
        // Every key's home is entry 7, the last of the first array.
        let hash_of = |_: &u64| 7;
        let mut table = SlotTable::new();
        for key in 0..3u64 {
            table.install(7, key, (1, Some(key * 10)), 0, hash_of);
        }
        assert_eq!(table.entries.len(), 8);
        let mut expect = vec![None; 8];
        (expect[7], expect[0], expect[1]) = (Some(0), Some(1), Some(2));
        assert_eq!(entries(&table), expect);
        for key in 0..3u64 {
            assert_eq!(table.read_at(7, &key, 1), Some(&(key * 10)));
        }
        // The probe for an absent key wraps too, and stops at entry 2.
        assert_eq!(table.versions(7, &3), 0);
        // A rewrite finds the wrapped entry instead of adding one.
        assert_eq!(table.install(7, 2, (2, None), 0, hash_of), (2, 0));
        assert_eq!((table.len, table.read_at(7, &2, 2)), (3, None));
    }

    #[test]
    fn the_array_grows_past_three_quarters_full_and_only_then() {
        let mut table = SlotTable::new();
        assert_eq!(
            table.entries.len(),
            0,
            "nothing allocated before an install"
        );
        for key in 0..1000u64 {
            table.install(key, key, (1, Some(key)), 0, |k| *k);
            let n = table.len as u64;
            let len = table.entries.len() as u64;
            // The smallest power of two (at least the first array) that
            // holds `n` keys at most ¾ full.
            let mut least = MIN_ENTRIES as u64;
            while 4 * n > 3 * least {
                least *= 2;
            }
            assert_eq!(len, least, "{n} keys in {len} entries");
        }
    }

    #[test]
    fn growth_keeps_every_version_readable_at_every_snapshot() {
        // Four keys share each home entry, so every growth moves
        // clusters that wrap; floor 0 keeps every version.
        const KEYS: u64 = 40;
        let hash_of = |k: &u64| k / 4;
        let mut table = SlotTable::new();
        let mut model: HashMap<u64, Vec<Version<u64>>> = HashMap::new();
        let check = |table: &SlotTable<u64, u64>, model: &HashMap<u64, Vec<Version<u64>>>, last| {
            for key in 0..KEYS {
                for ts in 0..=last {
                    let want = model
                        .get(&key)
                        .and_then(|vs| vs.iter().rev().find(|(t, _)| *t <= ts))
                        .and_then(|(_, v)| v.as_ref());
                    let got = table.read_at(hash_of(&key), &key, ts);
                    assert_eq!(got, want, "key {key} at snapshot {ts}");
                }
            }
        };
        let mut ts = 0;
        for round in 0..3 {
            for key in 0..KEYS {
                ts += 1;
                // Every third version a tombstone.
                let value = (ts % 3 != 0).then_some(ts);
                let grew_from = table.entries.len();
                table.install(hash_of(&key), key, (ts, value), 0, hash_of);
                model.entry(key).or_default().push((ts, value));
                if table.entries.len() != grew_from || (round, key) == (2, KEYS - 1) {
                    check(&table, &model, ts);
                }
            }
        }
        assert_eq!(table.len, KEYS as usize);
        assert!((0..KEYS).all(|k| table.versions(hash_of(&k), &k) == 3));
    }

    /// Each shard's array length.
    fn array_lens<V: Clone>(store: &VersionStore<u64, V>) -> Vec<usize> {
        let len = |s: &Shard<u64, V>| s.table.lock().unwrap().entries.len();
        store.shards.iter().map(len).collect()
    }

    #[test]
    fn concurrent_growth_leaves_stale_prefetch_views_harmless() {
        // One writer inserts fresh keys until every shard's array has
        // grown twice, while readers prefetch and read — through views
        // the growth may have left stale — under snapshots. Key `k <
        // OLD` holds `k` from the first commit on; fresh key `OLD + i`
        // is installed by the writer's commit `i`, at timestamp `i + 2`.
        const OLD: u64 = 384;
        let d = domain();
        let store: VersionStore<u64, u64> = VersionStore::new(Arc::clone(&d));
        d.commit(|stamp| (0..OLD).for_each(|k| store.install(k, Some(k), stamp)));
        let first = array_lens(&store);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for reader in 0..2u64 {
                let (d, store, done) = (&d, &store, &done);
                s.spawn(move || {
                    let mut rounds = 0u64;
                    while !done.load(Ordering::Relaxed) || rounds < 100 {
                        let snap = d.begin_snapshot();
                        let fresh = snap.ts().saturating_sub(2);
                        let keys = [0, 1, 2, 3].map(|j| (rounds * 4 + j + reader * 7) * 13 % OLD);
                        let probes = [fresh.saturating_sub(1), fresh, fresh + 1].map(|i| OLD + i);
                        let hashes = keys.map(|k| store.prefetch(&k));
                        let fresh_hashes = probes.map(|k| store.prefetch(&k));
                        for (k, hash) in keys.into_iter().zip(hashes) {
                            let got = store.read_prefetched(&k, hash, snap.ts());
                            assert_eq!(got, Some(k), "old key {k}");
                        }
                        for (k, hash) in probes.into_iter().zip(fresh_hashes) {
                            let i = k - OLD;
                            let want = (snap.ts() >= i + 2).then_some(i);
                            let got = store.read_prefetched(&k, hash, snap.ts());
                            assert_eq!(got, want, "fresh key {k}");
                        }
                        rounds += 1;
                    }
                });
            }
            let mut i = 0;
            while array_lens(&store)
                .iter()
                .zip(&first)
                .any(|(now, was)| *now < 4 * was)
            {
                let ts = d.commit(|stamp| {
                    store.install(OLD + i, Some(i), stamp);
                    stamp.ts
                });
                assert_eq!(ts, i + 2);
                i += 1;
            }
            done.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn store_reads_route_through_per_key_slots() {
        let d = domain();
        let store: VersionStore<u64, i64> = VersionStore::new(Arc::clone(&d));
        d.commit(|stamp| {
            store.install(7, Some(70), stamp);
            store.install(8, Some(80), stamp);
        });
        let s = d.clock.stable();
        assert_eq!(store.read_at(&7, s), Some(70));
        assert_eq!(store.read_at(&8, s), Some(80));
        assert_eq!(store.read_at(&9, s), None, "never-written key");
        assert_eq!(store.read_at(&7, s - 1), None, "before the commit");
        assert_eq!((store.versions(&7), store.versions(&9)), (1, 0));
    }

    #[test]
    fn each_shards_prefetch_view_follows_its_array() {
        let d = domain();
        let store: VersionStore<u64, i64> = VersionStore::new(Arc::clone(&d));
        d.commit(|stamp| (0..2000).for_each(|k| store.install(k, Some(1), stamp)));
        for shard in &*store.shards {
            let table = shard.table.lock().unwrap();
            let view = (
                shard.base.load(Ordering::Relaxed),
                shard.mask.load(Ordering::Relaxed),
            );
            assert_eq!(
                view,
                (table.entries.as_ptr().cast_mut(), table.entries.len() - 1)
            );
        }
    }

    #[test]
    fn metrics_count_installs_reads_and_reclaims() {
        let d = domain();
        let store: VersionStore<u64, i64> = VersionStore::new(Arc::clone(&d));
        for _ in 0..4 {
            d.commit(|stamp| store.install(0, Some(1), stamp));
        }
        let _ = store.read_at(&0, d.clock.stable());
        drop(d.begin_snapshot());
        let snap = d.metrics.snapshot();
        assert_eq!(snap.installs, 4);
        assert_eq!(snap.snapshot_reads, 1);
        assert_eq!(snap.gc_reclaimed, 2, "installs 3 and 4 each drop one");
        assert_eq!(snap.chain_len.count(), 4);
        assert_eq!(snap.snapshot_age.count(), 1);
    }

    #[test]
    fn concurrent_commits_and_snapshots_agree() {
        // Writers transfer between two keys; a snapshot must never see
        // the sum mid-transfer. The writer mutex stands in for the
        // abstract locks a real boosted transaction holds across its
        // read-modify-write.
        let d = domain();
        let store: Arc<VersionStore<u64, i64>> = Arc::new(VersionStore::new(Arc::clone(&d)));
        d.commit(|stamp| {
            store.install(0, Some(100), stamp);
            store.install(1, Some(100), stamp);
        });
        let serial = Arc::new(Mutex::new(()));
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let d = Arc::clone(&d);
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                let serial = Arc::clone(&serial);
                std::thread::spawn(move || {
                    let mut moved = 1i64;
                    while !stop.load(Ordering::Relaxed) {
                        let guard = serial.lock().unwrap();
                        // A "transfer": both installs carry one ts, so
                        // they are atomic to any snapshot.
                        let s = d.clock.stable();
                        let a = store.read_at(&0, s).unwrap();
                        let b = store.read_at(&1, s).unwrap();
                        d.commit(|stamp| {
                            store.install(0, Some(a - moved), stamp);
                            store.install(1, Some(b + moved), stamp);
                        });
                        drop(guard);
                        moved = -moved;
                    }
                })
            })
            .collect();
        for _ in 0..500 {
            let snap = d.begin_snapshot();
            let a = store.read_at(&0, snap.ts()).unwrap_or(0);
            let b = store.read_at(&1, snap.ts()).unwrap_or(0);
            assert_eq!(a + b, 200, "torn snapshot at ts {}", snap.ts());
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }
}
