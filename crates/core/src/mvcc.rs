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
//! ## The snapshot protocol
//!
//! * [`CommitClock::reserve`] hands a committing writer a fresh
//!   timestamp `ts` *while its abstract locks are still held*, so
//!   timestamp order extends the lock-serialization order.
//! * The writer installs one version per mutated key (stamped `ts`),
//!   then calls [`CommitClock::publish`], which marks `ts` finished and
//!   returns once the clock's **stable** timestamp covers it. Commits
//!   become stable **in timestamp order**: `stable` moves from `S` to
//!   `S + 1` only when commit `S + 1` is marked finished, so it is
//!   always the largest `S` such that every commit with timestamp ≤ `S`
//!   has fully installed its versions (no holes). Whoever finds the
//!   next commit finished moves `stable` over it, so a commit that
//!   finished early is carried along by the older one it waited for.
//! * Who waits for whom: a writer that finishes its installs while an
//!   *older* timestamp is still installing waits for that commit — a
//!   brief spin, then a park that the advance reaching it wakes. Only a
//!   commit *mid-install* can hold anyone back; one that has finished
//!   cannot, whether or not its thread is running. The waiter still
//!   holds its transaction's abstract locks — they are released only
//!   once the commit is stable, or a lock-based reader could see its
//!   effects in the base object before any snapshot can (below). The
//!   wait cannot cycle all the same: it holds no mutex, the commit it
//!   waits for is past its last lock acquisition (an install window
//!   takes no abstract lock), and it waits only for older timestamps.
//!   The price is paid under oversubscription: a committer preempted
//!   mid-install delays the commits behind it, locks included.
//! * A read-only transaction snapshots at `S = stable()` via
//!   `ReaderRegistry::register` and reads, per key, the newest
//!   version with timestamp ≤ `S`. Because `S` is below every
//!   in-flight commit, the snapshot is a consistent prefix of the
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
//! array whose entries *are* the versions: a [`Slot`] holds the key's
//! two newest versions inline and spills to the heap only while a
//! registered reader pins more. A snapshot read is one keyed hash —
//! which picks both the shard and the home entry — one shard lock, and
//! one entry read (more only past a collision); an install into an
//! existing slot allocates nothing. [`VersionStore::prefetch`] starts a
//! key's home entry on its way into the cache without the lock, so a
//! script that announces its reads first (the server's snapshot
//! lookahead) overlaps their misses instead of taking them one by one.
//!
//! Every install prunes: a version is dropped as soon as a newer
//! version at-or-below the **GC floor** exists, where the floor is
//! `min(oldest registered reader, stable)` — so no registered snapshot
//! reader can ever lose the version it would read. Registration and
//! floor computation read the clock under the same registry mutex,
//! which closes the register-vs-GC race: a floor that misses a
//! concurrent registration is guaranteed (by mutex ordering and the
//! clock's monotonicity) to be at-or-below that reader's snapshot. For
//! the same reason a floor stays safe once computed, so a commit reads
//! it once for all its installs ([`MvccDomain::commit`]).
//!
//! Everything here is shared-state-only (no per-`Txn` storage); the
//! transaction integration — snapshot guards on [`crate::Txn`], the
//! effect log whose install arms run at commit — lives in `txn.rs`.

use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::backoff::SpinWait;
use crate::det::{self, Mutation};
use crate::locks::Deadline;
use crate::obs::{HistogramSnapshot, LatencyHistogram};

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

/// Commits that can be between [`CommitClock::reserve`] and the stable
/// frontier at once (power of two). Each is one thread inside
/// `commit`, so the bound is never met short of that many committing
/// threads; one more waits, in [`CommitClock::publish`], for the oldest.
const IN_FLIGHT: u64 = 64;

/// The global commit-timestamp clock.
///
/// `stable()` is the heart of the protocol: the largest timestamp `S`
/// such that *every* reserved timestamp ≤ `S` has finished installing.
/// A reader snapshotting at `S` therefore never races an in-flight
/// install — writers still installing all carry timestamps > `S`.
///
/// Commits become stable in timestamp order and without a lock: a
/// finished commit marks its slot of a small ring, and whoever finds
/// the slot after `stable` marked moves `stable` over it — its own or
/// a later commit's, so a commit that finished early is carried past
/// by the older one it was waiting for and holds nobody back while its
/// thread is off the CPU. The park mutex and condvar are for a commit
/// that must wait for an older one still installing, and for the one
/// that wakes it.
#[derive(Debug)]
pub struct CommitClock {
    /// Next timestamp to hand out (timestamps start at 1; 0 means
    /// "before every commit").
    next: AtomicU64,
    /// The stable frontier.
    stable: AtomicU64,
    /// `installed[ts % IN_FLIGHT] == ts` once commit `ts` has finished
    /// installing; the slot is reused by `ts + IN_FLIGHT`, which
    /// `publish` holds back until `stable` has passed `ts`.
    installed: [AtomicU64; IN_FLIGHT as usize],
    /// Commits parked (or about to park) until `stable` reaches them;
    /// read by whoever advances `stable`, after advancing it.
    waiters: AtomicU64,
    park: parking_lot::Mutex<()>,
    stable_advanced: parking_lot::Condvar,
}

impl Default for CommitClock {
    fn default() -> Self {
        CommitClock {
            next: AtomicU64::new(1),
            stable: AtomicU64::new(0),
            installed: [const { AtomicU64::new(0) }; IN_FLIGHT as usize],
            waiters: AtomicU64::new(0),
            park: parking_lot::Mutex::new(()),
            stable_advanced: parking_lot::Condvar::new(),
        }
    }
}

impl CommitClock {
    /// Reserve the next commit timestamp. Relaxed: the value publishes
    /// nothing, and `stable` cannot pass it before its own
    /// [`publish`](Self::publish).
    pub fn reserve(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Mark `ts` fully installed, move the stable frontier as far as it
    /// will go, and return once it covers `ts` — at once if every older
    /// commit had finished, else when the last of them has (it moves
    /// `stable` over `ts` on its way).
    ///
    /// Every access below is `SeqCst`. For visibility release/acquire
    /// would do: the slot store follows this commit's installs, the
    /// advancing compare-exchanges form one chain, and a reader that
    /// observes `stable() >= ts` (an `Acquire` load) therefore observes
    /// every version install of every commit ≤ `ts`. `SeqCst` is for
    /// the two store-then-load races. Of two commits finishing together
    /// one must see the other's slot: if the older one's advance stops
    /// short of the younger's slot, that slot was stored later in the
    /// one total order, so the younger's advance — later still — starts
    /// from where the older one stopped and moves `stable` over itself;
    /// nobody waits for a mark nobody will read. And an advance must see
    /// the count of a commit that is about to park, or that commit's
    /// re-check the advance.
    pub fn publish(&self, ts: u64) {
        if Self::cannot_wait() {
            self.stable.fetch_max(ts, Ordering::SeqCst);
            return;
        }
        let slot = &self.installed[(ts % IN_FLIGHT) as usize];
        // The slot's last user, `ts - IN_FLIGHT`, must be stable first.
        self.wait_until(|| ts <= self.stable.load(Ordering::SeqCst) + IN_FLIGHT);
        slot.store(ts, Ordering::SeqCst);
        self.advance();
        self.wait_until(|| self.stable.load(Ordering::SeqCst) >= ts);
    }

    /// Move `stable` over every consecutive finished commit, and wake
    /// the parked commits if that reached any.
    fn advance(&self) {
        let mut stable = self.stable.load(Ordering::SeqCst);
        let mut advanced = false;
        loop {
            let next = stable + 1;
            let slot = &self.installed[(next % IN_FLIGHT) as usize];
            if slot.load(Ordering::SeqCst) != next {
                break;
            }
            // Losing the race means someone else made `next` stable —
            // or went past it out of order (`cannot_wait`); go on from
            // where they stopped.
            match self
                .stable
                .compare_exchange(stable, next, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => (stable, advanced) = (next, true),
                Err(now) => stable = now,
            }
        }
        if advanced && self.waiters.load(Ordering::SeqCst) > 0 {
            // Take and drop the park mutex first: a waiter that counted
            // itself but has not reached `wait` still holds it, so the
            // notify lands after it is waiting.
            drop(self.park.lock());
            self.stable_advanced.notify_all();
        }
    }

    /// Return once `ready()`: at once if it already is, else spin
    /// briefly — an install window is a few hundred nanoseconds — then
    /// park until an advance notifies. The caller holds no mutex and no
    /// abstract lock a committer could need, and under a det scheduler
    /// each parked wait is a scheduling round in which the commit it
    /// waits for can run.
    fn wait_until(&self, ready: impl Fn() -> bool) {
        if ready() {
            return;
        }
        let mut spin = SpinWait::new();
        while spin.spin() {
            if ready() {
                return;
            }
        }
        let mut parked = self.park.lock();
        self.waiters.fetch_add(1, Ordering::SeqCst);
        while !ready() {
            // Every advance notifies while `waiters > 0`; the bound
            // only paces a re-check.
            Deadline::after(Duration::from_millis(1)).wait(&self.stable_advanced, &mut parked);
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Whether this publish must go ahead of older ones: the run staged
    /// [`Mutation::PublishOutOfOrder`], or the thread is unwinding under
    /// a det scheduler, where a wait cannot yield to the commit it waits
    /// for ([`det::block_tick`] is a no-op while panicking) and would
    /// hang the run whose failure is being reported.
    fn cannot_wait() -> bool {
        det::active() && (std::thread::panicking() || det::mutated(Mutation::PublishOutOfOrder))
    }

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
    /// Versions reclaimed (or deltas folded) by install-time GC.
    pub gc_reclaimed: u64,
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

    /// Run `installs` as one commit: read the GC floor, reserve a
    /// timestamp, hand both to the closure — the install window, which
    /// passes them on to [`VersionStore::install`] and
    /// [`DeltaChain::install`] — and publish, waiting, if need be, for
    /// every older commit to publish first, so the commit is in every
    /// snapshot begun after this returns.
    ///
    /// The caller holds whatever serializes it against conflicting
    /// writers (a transaction's abstract locks) from before this call
    /// until after it returns: the timestamp is reserved inside the
    /// locked window, and nobody who waited for those locks can see the
    /// commit's effects before a snapshot can.
    ///
    /// The window closes on every exit, unwinding included: if an
    /// install panics the timestamp is still published, so later commits
    /// and snapshots are not wedged behind it. That commit is *torn* —
    /// the versions installed before the panic are stamped with its
    /// timestamp and visible to every snapshot at-or-above it, the rest
    /// are missing, and such a snapshot reads the previous version of
    /// those keys.
    pub fn commit<R>(&self, installs: impl FnOnce(CommitStamp) -> R) -> R {
        struct Window<'d>(&'d CommitClock, u64);
        impl Drop for Window<'_> {
            fn drop(&mut self) {
                self.0.publish(self.1);
            }
        }
        // One registry-mutex pass per commit, not per install: the
        // floor only rises, so a stale one prunes less, never more.
        let floor = self.gc_floor();
        let ts = self.clock.reserve();
        let _window = Window(&self.clock, ts);
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

/// The versions of one key below its newest, ascending by timestamp:
/// none, one held inline, or — only while a registered reader pins
/// that much history — a heap vector.
#[derive(Debug)]
enum Older<V> {
    None,
    One(Version<V>),
    // Boxed so the enum stays the size of one version: the pointer
    // fits beside `One`'s niche, a `Vec`'s three words would not.
    #[allow(clippy::box_collection)]
    Many(Box<Vec<Version<V>>>),
}

impl<V> Older<V> {
    fn as_slice(&self) -> &[Version<V>] {
        match self {
            Older::None => &[],
            Older::One(v) => std::slice::from_ref(v),
            Older::Many(vs) => vs,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Version<V>] {
        match self {
            Older::None => &mut [],
            Older::One(v) => std::slice::from_mut(v),
            Older::Many(vs) => vs,
        }
    }

    fn insert(&mut self, i: usize, version: Version<V>) {
        *self = match std::mem::replace(self, Older::None) {
            Older::None => Older::One(version),
            Older::One(only) => {
                let mut vs = vec![only];
                vs.insert(i, version);
                Older::Many(Box::new(vs))
            }
            Older::Many(mut vs) => {
                vs.insert(i, version);
                Older::Many(vs)
            }
        };
    }

    /// Drop the `n` oldest versions, returning to the inline forms
    /// (and freeing the heap vector) once at most one is left.
    fn drop_oldest(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        *self = match std::mem::replace(self, Older::None) {
            Older::Many(mut vs) => {
                vs.drain(..n);
                if vs.len() > 1 {
                    Older::Many(vs)
                } else {
                    vs.pop().map_or(Older::None, Older::One)
                }
            }
            _ => Older::None,
        };
    }
}

/// Every retained committed version of one key — the entry type of a
/// [`VersionStore`] shard, and the unit both of snapshot reads (newest
/// version ≤ snapshot ts) and of GC.
///
/// Two versions fit inline: a commit's timestamp is above the floor
/// it prunes by, so two is what a rewritten key holds when no reader
/// pins more. A slot is plain data under the shard mutex; the
/// deterministic yield points sit in [`VersionStore`], outside it.
#[derive(Debug)]
pub struct Slot<V> {
    newest: Version<V>,
    older: Older<V>,
}

impl<V> Slot<V> {
    /// A slot holding the single version committed at `ts`.
    pub fn new(ts: u64, value: Option<V>) -> Self {
        Slot {
            newest: (ts, value),
            older: Older::None,
        }
    }

    /// Install the version committed at `ts` (`None` = tombstone) and
    /// prune by `floor`; returns how many versions were dropped.
    ///
    /// Installs may arrive out of timestamp order (commits race
    /// between `reserve` and `publish`), so the version is sorted in; a
    /// same-timestamp version is overwritten (one transaction writing
    /// a key twice installs last-write-wins).
    pub fn install(&mut self, ts: u64, value: Option<V>, floor: u64) -> usize {
        // Prune first, so a rewrite makes room inline instead of
        // spilling; again after, for what the new version supersedes.
        let reclaimed = self.prune(floor);
        match ts.cmp(&self.newest.0) {
            std::cmp::Ordering::Greater => {
                let prev = std::mem::replace(&mut self.newest, (ts, value));
                self.older.insert(self.older.as_slice().len(), prev);
            }
            std::cmp::Ordering::Equal => self.newest.1 = value,
            std::cmp::Ordering::Less => {
                let older = self.older.as_mut_slice();
                let i = older.partition_point(|&(t, _)| t < ts);
                match older.get_mut(i) {
                    Some(same) if same.0 == ts => same.1 = value,
                    _ => self.older.insert(i, (ts, value)),
                }
            }
        }
        reclaimed + self.prune(floor)
    }

    /// Drop every version no snapshot at-or-above `floor` can read: a
    /// version goes iff a newer version ≤ `floor` exists — plus one
    /// special case: a tombstone that *is* the newest version ≤
    /// `floor`, with nothing older left, reads identically to an empty
    /// prefix and goes too (unless it is all the slot holds).
    fn prune(&mut self, floor: u64) -> usize {
        let older = self.older.as_slice();
        let cut = if self.newest.0 <= floor {
            older.len()
        } else {
            let at_or_below = older.partition_point(|&(t, _)| t <= floor);
            match at_or_below.checked_sub(1) {
                Some(keep) if older[keep].1.is_some() => keep,
                _ => at_or_below,
            }
        };
        self.older.drop_oldest(cut);
        cut
    }

    /// The newest value at-or-below snapshot `ts` (`None`: the key was
    /// absent — or tombstoned — as of `ts`).
    pub fn read_at(&self, ts: u64) -> Option<&V> {
        if self.newest.0 <= ts {
            return self.newest.1.as_ref();
        }
        let older = self.older.as_slice();
        let i = older.partition_point(|&(t, _)| t <= ts);
        older[..i].last().and_then(|(_, v)| v.as_ref())
    }

    /// Number of retained versions (at least one).
    pub fn versions(&self) -> usize {
        1 + self.older.as_slice().len()
    }
}

/// The counter's versions: a folded base plus per-commit deltas.
///
/// A counter version cannot be captured as a full value at install
/// time — concurrent writers hold the *shared* counter lock, so the
/// base object's sum includes their uncommitted increments. Deltas
/// commute, so each commit installs only its own delta; a snapshot
/// read sums `base + deltas ≤ ts`, and GC folds reclaimable deltas
/// into the base instead of dropping state.
///
/// Determinism note: here and in [`VersionStore`], `install` yields
/// to the deterministic scheduler before and after its critical
/// section and `read_at` once — *unconditionally*, never under the
/// mutex. Prune amounts depend on cross-test global clock state, so
/// only structural (never value-dependent) yields keep recorded
/// schedules replayable.
#[derive(Debug)]
pub struct DeltaChain {
    domain: Arc<MvccDomain>,
    inner: Mutex<DeltaInner>,
}

#[derive(Debug, Default)]
struct DeltaInner {
    /// Every delta with ts ≤ `base_ts` has been folded into
    /// `base_value`. Invariant: `base_ts ≤` every registered reader's
    /// snapshot (folding only crosses the GC floor).
    base_ts: u64,
    base_value: i64,
    /// `(commit ts, delta)` sorted by timestamp; duplicates allowed
    /// (same-commit deltas just sum).
    deltas: Vec<(u64, i64)>,
}

impl DeltaChain {
    /// An empty delta chain (counter value 0 at every timestamp).
    pub fn new(domain: Arc<MvccDomain>) -> Self {
        DeltaChain {
            domain,
            inner: Mutex::new(DeltaInner::default()),
        }
    }

    /// An empty delta chain on the global domain.
    pub fn new_global() -> Self {
        DeltaChain::new(Arc::clone(MvccDomain::global_arc()))
    }

    /// Install the delta committed at `ts`, then fold every delta
    /// at-or-below `floor` into the base. Nothing is lost — folding
    /// moves a delta into `base_value` — and the floor rule is the
    /// slots': no registered snapshot sinks below `base_ts`. (The
    /// `Vec` keeps its capacity: steady-state installs do not allocate.)
    pub fn install(&self, ts: u64, delta: i64, floor: u64) {
        det::yield_point(det::Point::VersionInstall);
        let (len, folded) = {
            let mut inner = self.inner.lock().expect("delta chain poisoned");
            debug_assert!(ts > inner.base_ts, "install below the folded base");
            let i = inner.deltas.partition_point(|&(t, _)| t <= ts);
            inner.deltas.insert(i, (ts, delta));
            let cut = inner.deltas.partition_point(|&(t, _)| t <= floor);
            if cut > 0 {
                inner.base_ts = inner.deltas[cut - 1].0;
                inner.base_value += inner.deltas.drain(..cut).map(|(_, d)| d).sum::<i64>();
            }
            (inner.deltas.len() + 1, cut)
        };
        det::yield_point(det::Point::VersionGc);
        self.domain.metrics.note_install(len, folded);
    }

    /// The counter value at snapshot `ts`: base plus every delta ≤
    /// `ts`. Callers must hold a snapshot at-or-above the GC floor
    /// (any [`SnapshotGuard`] qualifies), so `base_ts ≤ ts` holds.
    pub fn read_at(&self, ts: u64) -> i64 {
        det::yield_point(det::Point::SnapshotRead);
        self.domain.metrics.note_snapshot_read();
        let inner = self.inner.lock().expect("delta chain poisoned");
        debug_assert!(inner.base_ts <= ts, "snapshot read below the folded base");
        inner.base_value
            + inner
                .deltas
                .iter()
                .take_while(|&&(t, _)| t <= ts)
                .map(|&(_, d)| d)
                .sum::<i64>()
    }
}

/// Shards in a [`VersionStore`] (power of two); a key's shard is the
/// top bits of its hash, its home entry the low bits.
const STORE_SHARD_BITS: u32 = 6;
const STORE_SHARDS: usize = 1 << STORE_SHARD_BITS;

/// Entries a shard's slot array starts with on its first install.
const MIN_ENTRIES: usize = 8;

/// One entry of a shard's slot array: empty, or a key and every
/// retained version of it (56 B for `K = V = i64`: the `Option` packs
/// into a niche of the slot's version tags).
type Entry<K, V> = Option<(K, Slot<V>)>;

/// A [`VersionStore`] shard's slots: one open-addressed array, probed
/// linearly from the home entry `hash & mask`. Its length is a power of
/// two (or zero before the first install), it grows once past ¾ full,
/// and an entry, once filled, is never emptied, so a probe ends at the
/// first empty entry: had the key been installed, it would sit there or
/// earlier. Hashes are not stored; a growth recomputes them.
#[derive(Debug)]
struct SlotTable<K, V> {
    entries: Box<[Entry<K, V>]>,
    len: usize,
}

impl<K: Eq, V> SlotTable<K, V> {
    fn new() -> Self {
        SlotTable {
            entries: Box::new([]),
            len: 0,
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

    /// `key`'s slot, if it was ever installed.
    fn get(&self, hash: u64, key: &K) -> Option<&Slot<V>> {
        if self.len == 0 {
            return None;
        }
        self.entries[self.probe(hash, key)]
            .as_ref()
            .map(|(_, slot)| slot)
    }

    /// Install the version `(ts, value)` of `key`, pruning by `floor`
    /// ([`Slot::install`]), or give `key` a slot holding only it —
    /// growing the array first if that would fill it past ¾, with
    /// `hash_of` recomputing the hashes of the keys it moves. Returns
    /// the key's retained versions and the versions reclaimed.
    fn install(
        &mut self,
        hash: u64,
        key: K,
        version: Version<V>,
        floor: u64,
        hash_of: impl Fn(&K) -> u64,
    ) -> (usize, usize) {
        let (ts, value) = version;
        if self.len > 0 {
            let i = self.probe(hash, &key);
            if let Some((_, slot)) = &mut self.entries[i] {
                let reclaimed = slot.install(ts, value, floor);
                return (slot.versions(), reclaimed);
            }
        }
        if 4 * (self.len + 1) > 3 * self.entries.len() {
            self.grow(hash_of);
        }
        let i = self.probe(hash, &key);
        self.entries[i] = Some((key, Slot::new(ts, value)));
        self.len += 1;
        (1, 0)
    }

    /// Double the array (or allocate the first one) and move every
    /// entry to its place in it.
    fn grow(&mut self, hash_of: impl Fn(&K) -> u64) {
        let len = (2 * self.entries.len()).max(MIN_ENTRIES);
        let old = std::mem::replace(&mut self.entries, (0..len).map(|_| None).collect());
        for (key, slot) in old.into_vec().into_iter().flatten() {
            let i = self.probe(hash_of(&key), &key);
            self.entries[i] = Some((key, slot));
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

/// One lock-striped part of a [`VersionStore`]: its slot array under a
/// mutex, and beside it a lock-free copy of the array's address and
/// mask. The copy is rewritten, under the mutex, whenever the array
/// grows; [`VersionStore::prefetch`] reads it with relaxed loads and
/// uses it only to compute a cache hint, so a stale one only wastes
/// the hint.
#[derive(Debug)]
struct Shard<K, V> {
    table: Mutex<SlotTable<K, V>>,
    base: AtomicPtr<Entry<K, V>>,
    mask: AtomicUsize,
}

impl<K: Eq, V: Clone> Shard<K, V> {
    /// The newest value of `key` at-or-below snapshot `ts`, under the
    /// shard mutex. Yields exactly once, before the lock.
    fn read_at(&self, hash: KeyHash, key: &K, ts: u64) -> Option<V> {
        det::yield_point(det::Point::SnapshotRead);
        let table = self.table.lock().expect("version shard poisoned");
        table
            .get(hash.0, key)
            .and_then(|slot| slot.read_at(ts))
            .cloned()
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

/// A sharded map from key to [`Slot`] — the per-collection version
/// side-table behind the boosted map and sets.
///
/// Slots are created on first install. A key with no slot was never
/// written, hence absent at every snapshot; once created, a slot is
/// never removed (it always keeps its newest version). One keyed hash
/// per call picks both the shard and the home entry; the hash is keyed
/// because keys arrive over the wire, and linear probing clusters
/// under chosen collisions.
#[derive(Debug)]
pub struct VersionStore<K, V> {
    shards: Box<[Shard<K, V>]>,
    hasher: RandomState,
    domain: Arc<MvccDomain>,
}

impl<K, V> VersionStore<K, V>
where
    K: std::hash::Hash + Eq,
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
    /// `stamp` came from, pruning the key's slot by that commit's floor
    /// (see [`Slot::install`]); the slot is created on first install.
    /// This is what an effect's install arm calls, inside
    /// [`MvccDomain::commit`]'s window.
    pub fn install(&self, key: K, value: Option<V>, stamp: CommitStamp) {
        let CommitStamp { ts, floor } = stamp;
        det::yield_point(det::Point::VersionInstall);
        let (len, reclaimed) = {
            let hash = self.hash(&key);
            let shard = self.shard(hash);
            let mut table = shard.table.lock().expect("version shard poisoned");
            let entries = table.entries.len();
            let hash_of = |key: &K| self.hasher.hash_one(key);
            let installed = table.install(hash.0, key, (ts, value), floor, hash_of);
            if table.entries.len() != entries {
                let (base, mask) = table.view();
                shard.base.store(base, Ordering::Relaxed);
                shard.mask.store(mask, Ordering::Relaxed);
            }
            installed
        };
        det::yield_point(det::Point::VersionGc);
        self.domain.metrics.note_install(len, reclaimed);
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
        table.get(hash.0, key).map_or(0, Slot::versions)
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
        let clock = CommitClock::default();
        assert_eq!(clock.stable(), 0);
        let ts = clock.reserve();
        assert_eq!(ts, 1);
        assert_eq!(clock.stable(), 0, "reserved but unpublished");
        clock.publish(ts);
        assert_eq!(clock.stable(), 1);
    }

    /// Spin until a publisher is parked behind its predecessor.
    fn until_a_publisher_waits(clock: &CommitClock) {
        while clock.waiters.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_commit_returns_after_older_installs_and_the_next_snapshot_contains_it() {
        // T0's install window is held open while T1 (a later timestamp)
        // finishes its installs: T1's `commit` may not return — and
        // `stable` may not move — until T0 publishes, and a snapshot
        // begun once T1 has returned contains both without waiting.
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
            until_a_publisher_waits(&d.clock);
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
        assert_eq!(d.clock.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn stable_waits_for_the_oldest_pending_commit() {
        let clock = CommitClock::default();
        let a = clock.reserve();
        let b = clock.reserve();
        std::thread::scope(|s| {
            s.spawn(|| clock.publish(b));
            until_a_publisher_waits(&clock);
            // a (the oldest) is still installing: nothing newer is stable.
            assert_eq!(clock.stable(), a - 1);
            clock.publish(a);
            // a carried b along: b's thread need not run for the commits
            // behind it to go ahead.
            assert_eq!(clock.stable(), b);
        });
    }

    #[test]
    fn a_commit_that_would_reuse_a_live_ring_slot_waits_for_it() {
        // Timestamps 2..=65 finish while 1 is still installing; 65
        // shares 1's slot and must not mark it until 1 is stable.
        let clock = CommitClock::default();
        let oldest = clock.reserve();
        std::thread::scope(|s| {
            for _ in 0..IN_FLIGHT {
                let ts = clock.reserve();
                let clock = &clock;
                s.spawn(move || clock.publish(ts));
            }
            while clock.waiters.load(Ordering::SeqCst) < IN_FLIGHT {
                std::thread::yield_now();
            }
            assert_eq!(clock.stable(), 0);
            let shared = &clock.installed[(oldest % IN_FLIGHT) as usize];
            assert_eq!(shared.load(Ordering::SeqCst), 0, "slot taken early");
            clock.publish(oldest);
        });
        assert_eq!(clock.stable(), oldest + IN_FLIGHT);
    }

    #[test]
    fn unserialized_committers_all_become_stable_in_order() {
        // Nothing but the clock orders these commits. Each returns only
        // once stable covers it, and the last leaves stable at the count.
        const THREADS: u64 = 4;
        const COMMITS: u64 = 20_000;
        let d = domain();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let mine = DeltaChain::new(Arc::clone(&d));
                    for _ in 0..COMMITS {
                        let ts = d.commit(|stamp| {
                            mine.install(stamp.ts, 1, stamp.floor);
                            stamp.ts
                        });
                        assert!(d.clock.stable() >= ts, "returned before stable");
                    }
                });
            }
        });
        assert_eq!(d.clock.stable(), THREADS * COMMITS);
        assert_eq!(d.clock.waiters.load(Ordering::SeqCst), 0);
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
        let t1 = d.clock.reserve();
        d.clock.publish(t1);
        let old = d.begin_snapshot();
        assert_eq!(old.ts(), t1);
        for _ in 0..3 {
            let ts = d.clock.reserve();
            d.clock.publish(ts);
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
        let pinned = d.clock.reserve();
        d.clock.publish(pinned);
        let reader = d.begin_snapshot();
        let stable = d.clock.reserve();
        d.clock.publish(stable);
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

    #[test]
    fn slot_reads_the_newest_version_at_or_below_the_snapshot() {
        // Floor 0 throughout: nothing may be pruned.
        let mut slot = Slot::new(2, Some(20i64));
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
    fn out_of_order_installs_sort_in_and_a_same_timestamp_install_wins() {
        let mut slot = Slot::new(7, Some(70));
        slot.install(3, Some(30), 0);
        slot.install(5, Some(50), 0);
        assert_eq!(slot.read_at(4), Some(&30));
        assert_eq!(slot.read_at(6), Some(&50));
        assert_eq!(slot.read_at(8), Some(&70));
        slot.install(7, Some(71), 0); // the newest version, rewritten
        slot.install(3, Some(31), 0); // and one below it
        assert_eq!(slot.versions(), 3, "one version per commit timestamp");
        assert_eq!(slot.read_at(4), Some(&31));
        assert_eq!(slot.read_at(8), Some(&71));
    }

    #[test]
    fn every_install_prunes_to_the_newest_version_at_or_below_the_floor() {
        let mut slot = Slot::new(1, Some(1));
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
        let mut slot = Slot::new(1, None);
        assert_eq!(slot.install(2, Some(5), 1), 1);
        assert_eq!(slot.versions(), 1);
        assert_eq!(slot.read_at(1), None);
        // A tombstone that shadows an older value must stay until the
        // floor passes it.
        let mut slot = Slot::new(1, Some(5));
        slot.install(2, None, 0);
        assert_eq!(slot.install(3, Some(6), 1), 0);
        assert_eq!(slot.read_at(2), None);
        assert_eq!(slot.install(4, Some(7), 2), 2, "value and its tombstone");
        assert_eq!(slot.read_at(2), None);
        assert_eq!(slot.read_at(3), Some(&6));
    }

    #[test]
    fn a_slot_is_two_inline_versions_and_no_wider() {
        // What the footprint claim rests on: the `older` side adds one
        // version's worth of bytes, not a `Vec` header on top.
        use std::mem::size_of;
        assert_eq!(size_of::<Slot<i64>>(), 2 * size_of::<Version<i64>>());
        assert_eq!(size_of::<Slot<()>>(), 2 * size_of::<Version<()>>());
        // And an entry is its key and its slot: no tag, no stored hash.
        assert_eq!(size_of::<Entry<i64, i64>>(), 56);
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
            let slot = table.get(7, &key).expect("installed key");
            assert_eq!(slot.read_at(1), Some(&(key * 10)));
        }
        // The probe for an absent key wraps too, and stops at entry 2.
        assert!(table.get(7, &3).is_none());
        // A rewrite finds the wrapped entry instead of adding one.
        assert_eq!(table.install(7, 2, (2, None), 0, hash_of), (2, 0));
        assert_eq!((table.len, table.get(7, &2).unwrap().read_at(2)), (3, None));
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
                    let got = table.get(hash_of(&key), &key).and_then(|s| s.read_at(ts));
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
        assert!((0..KEYS).all(|k| table.get(hash_of(&k), &k).unwrap().versions() == 3));
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
    fn delta_chain_sums_deltas_at_or_below_the_snapshot() {
        let deltas = DeltaChain::new(domain());
        deltas.install(2, 10, 0);
        deltas.install(9, 1, 0);
        deltas.install(5, -3, 0);
        assert_eq!(deltas.read_at(1), 0);
        assert_eq!(deltas.read_at(2), 10);
        assert_eq!(deltas.read_at(5), 7);
        assert_eq!(deltas.read_at(100), 8);
    }

    #[test]
    fn delta_installs_fold_into_the_base_without_changing_reads() {
        let d = domain();
        let deltas = DeltaChain::new(Arc::clone(&d));
        for _ in 0..6 {
            d.commit(|stamp| deltas.install(stamp.ts, 1, stamp.floor));
        }
        // Each install folds everything its floor (the previous
        // commit) covers: only the last delta is still unfolded.
        assert_eq!(d.metrics.snapshot().gc_reclaimed, 5);
        assert_eq!(deltas.read_at(d.clock.stable()), 6, "folding loses nothing");
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
