//! The red-black tree of Section 4.1: one algorithm, its sequential
//! set, and that set's coarse-locked linearizable wrapper.
//!
//! Section 4.1 of the paper starts from "a sequential red-black tree
//! implementation" and derives two competitors:
//!
//! * the **boosted** class makes every sequential method `synchronized`
//!   — here [`SyncRbTreeSet`], a mutex around [`RbTreeSet`] — yielding
//!   a linearizable base type with no thread-level concurrency, then
//!   protects the transactional wrapper with a single two-phase lock;
//! * the **shadow-copy** class feeds the same sequential code to the
//!   read/write STM: `txboost-rwstm`'s `StmRbTreeSet` is a
//!   [`NodeStore`] with one `StmVar` per node, so the code below runs
//!   there unchanged, every node it reads joining the read set and
//!   every node it updates copied into the write set.
//!
//! The algorithm is CLRS's — find, insert with its fixup, delete with
//! transplant and its fixup, both rotations, an in-order walk and an
//! invariant checker — written once, as [`NodeStore`]'s provided
//! methods, against six storage operations. It reads a node whole, by
//! value, wherever it needs any field of it: that is the STM's unit of
//! conflict, and in [`RbTreeSet`]'s `Vec` arena (no per-node allocation
//! churn, no parent-pointer `Rc` cycles) it is a copy of the node, key
//! included.

use crate::LinearizableSet;
use parking_lot::Mutex;
use std::cmp::Ordering;
use std::convert::Infallible;

/// The index that names no node (see [`NodeStore`]).
const NIL: usize = usize::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Color {
    Red,
    Black,
}

/// Child sides, indexing [`RbNode`]'s `child`. CLRS writes each
/// rotation and fixup case once and gets its mirror by exchanging left
/// and right; so does this code, with `1 - side` the other side.
const LEFT: usize = 0;
const RIGHT: usize = 1;

/// A tree node as a [`NodeStore`] keeps it: a key, a colour and its
/// parent and child indices. Opaque: a store only holds, copies and
/// hands back what the algorithm gives it.
#[derive(Debug, Clone)]
pub struct RbNode<K> {
    key: K,
    color: Color,
    child: [usize; 2],
    parent: usize,
}

/// Where a red-black tree keeps its nodes; the provided methods are
/// the tree.
///
/// Nodes are addressed by `usize`, and `usize::MAX` names no node (the
/// empty tree's root, a leaf's missing child). A store operation that
/// fails stops the algorithm midway and its error comes back out
/// unchanged: a sequential store never fails (`Infallible`), a
/// transactional one aborts and relies on its transaction to discard
/// the half-done update.
pub trait NodeStore {
    /// The set's element type.
    type Key: Ord + Clone;
    /// Why a store operation failed.
    type Error;

    /// The root's index.
    fn root(&self) -> Result<usize, Self::Error>;
    /// Make `x` the root.
    fn set_root(&mut self, x: usize);
    /// A copy of node `x`.
    fn node(&self, x: usize) -> Result<RbNode<Self::Key>, Self::Error>;
    /// Apply `f` to node `x`.
    fn update(
        &mut self,
        x: usize,
        f: impl FnOnce(&mut RbNode<Self::Key>),
    ) -> Result<(), Self::Error>;
    /// Keep `node` in a free slot and return the slot's index.
    fn alloc(&mut self, node: RbNode<Self::Key>) -> Result<usize, Self::Error>;
    /// Give back slot `x`, already unlinked from the tree.
    fn free(&mut self, x: usize) -> Result<(), Self::Error>;

    /// Whether `key` is in the set.
    fn contains(&self, key: &Self::Key) -> Result<bool, Self::Error> {
        Ok(find(self, key)? != NIL)
    }

    /// Insert `key`; returns `true` iff the set changed.
    fn add(&mut self, key: Self::Key) -> Result<bool, Self::Error> {
        let mut parent = NIL;
        let mut x = self.root()?;
        while x != NIL {
            parent = x;
            let n = self.node(x)?;
            match key.cmp(&n.key) {
                Ordering::Less => x = n.child[LEFT],
                Ordering::Greater => x = n.child[RIGHT],
                Ordering::Equal => return Ok(false),
            }
        }
        // Parent set by a second update: the STM store counts it (Fig. 9).
        let z = self.alloc(RbNode {
            key: key.clone(),
            color: Color::Red,
            child: [NIL; 2],
            parent: NIL,
        })?;
        self.update(z, |n| n.parent = parent)?;
        if parent == NIL {
            self.set_root(z);
        } else {
            let side = if key < self.node(parent)?.key {
                LEFT
            } else {
                RIGHT
            };
            self.update(parent, |n| n.child[side] = z)?;
        }
        insert_fixup(self, z)?;
        Ok(true)
    }

    /// Remove `key`; returns `true` iff the set changed.
    fn remove(&mut self, key: &Self::Key) -> Result<bool, Self::Error> {
        let z = find(self, key)?;
        if z == NIL {
            return Ok(false);
        }
        // CLRS delete. `x` is the node that moves into `y`'s old
        // position; `x_parent` tracks its parent because `x` may be NIL
        // (there is no sentinel node).
        let zn = self.node(z)?;
        let mut y_color = zn.color;
        let x;
        let x_parent;
        if zn.child[LEFT] == NIL || zn.child[RIGHT] == NIL {
            // At most one child: it takes `z`'s place.
            x = if zn.child[LEFT] == NIL {
                zn.child[RIGHT]
            } else {
                zn.child[LEFT]
            };
            x_parent = zn.parent;
            transplant(self, z, x)?;
        } else {
            let y = minimum(self, zn.child[RIGHT])?;
            let yn = self.node(y)?;
            y_color = yn.color;
            x = yn.child[RIGHT];
            if yn.parent == z {
                x_parent = y;
            } else {
                x_parent = yn.parent;
                transplant(self, y, x)?;
                let zr = self.node(z)?.child[RIGHT];
                self.update(y, |n| n.child[RIGHT] = zr)?;
                self.update(zr, |n| n.parent = y)?;
            }
            transplant(self, z, y)?;
            let zl = self.node(z)?.child[LEFT];
            self.update(y, |n| n.child[LEFT] = zl)?;
            self.update(zl, |n| n.parent = y)?;
            let zc = self.node(z)?.color;
            set_color(self, y, zc)?;
        }
        self.free(z)?;
        if y_color == Color::Black {
            delete_fixup(self, x, x_parent)?;
        }
        Ok(true)
    }

    /// Keys in ascending order.
    fn to_sorted_vec(&self) -> Result<Vec<Self::Key>, Self::Error> {
        let mut out = Vec::new();
        let mut stack = Vec::new();
        let mut x = self.root()?;
        while x != NIL || !stack.is_empty() {
            while x != NIL {
                stack.push(x);
                x = self.node(x)?.child[LEFT];
            }
            let n = self.node(stack.pop().unwrap())?;
            out.push(n.key);
            x = n.child[RIGHT];
        }
        Ok(out)
    }

    /// Validate every red-black invariant, parent pointers included;
    /// the inner result is the tree's black height or what is broken.
    fn check_invariants(&self) -> Result<Result<usize, String>, Self::Error> {
        let root = self.root()?;
        if root != NIL && self.node(root)?.color == Color::Red {
            return Ok(Err("root is red".into()));
        }
        check_subtree(self, root, NIL, None, None)
    }
}

fn find<S: NodeStore + ?Sized>(s: &S, key: &S::Key) -> Result<usize, S::Error> {
    let mut x = s.root()?;
    while x != NIL {
        let n = s.node(x)?;
        match key.cmp(&n.key) {
            Ordering::Less => x = n.child[LEFT],
            Ordering::Greater => x = n.child[RIGHT],
            Ordering::Equal => return Ok(x),
        }
    }
    Ok(NIL)
}

fn color<S: NodeStore + ?Sized>(s: &S, x: usize) -> Result<Color, S::Error> {
    if x == NIL {
        Ok(Color::Black)
    } else {
        Ok(s.node(x)?.color)
    }
}

fn set_color<S: NodeStore + ?Sized>(s: &mut S, x: usize, c: Color) -> Result<(), S::Error> {
    if x != NIL {
        s.update(x, |n| n.color = c)?;
    }
    Ok(())
}

fn parent<S: NodeStore + ?Sized>(s: &S, x: usize) -> Result<usize, S::Error> {
    if x == NIL {
        Ok(NIL)
    } else {
        Ok(s.node(x)?.parent)
    }
}

/// `parent` (NIL: the root slot) adopts `y` where it had `x`.
fn replace_child<S: NodeStore + ?Sized>(
    s: &mut S,
    parent: usize,
    x: usize,
    y: usize,
) -> Result<(), S::Error> {
    if parent == NIL {
        s.set_root(y);
        Ok(())
    } else {
        s.update(parent, |n| {
            let side = if n.child[LEFT] == x { LEFT } else { RIGHT };
            n.child[side] = y;
        })
    }
}

/// Rotate `x` down to `side` (CLRS LEFT-ROTATE for `LEFT`): its child
/// on the other side takes its place.
fn rotate<S: NodeStore + ?Sized>(s: &mut S, x: usize, side: usize) -> Result<(), S::Error> {
    let other = 1 - side;
    let xn = s.node(x)?;
    let y = xn.child[other];
    let inner = s.node(y)?.child[side];
    s.update(x, |n| n.child[other] = inner)?;
    if inner != NIL {
        s.update(inner, |n| n.parent = x)?;
    }
    s.update(y, |n| n.parent = xn.parent)?;
    replace_child(s, xn.parent, x, y)?;
    s.update(y, |n| n.child[side] = x)?;
    s.update(x, |n| n.parent = y)
}

fn insert_fixup<S: NodeStore + ?Sized>(s: &mut S, mut z: usize) -> Result<(), S::Error> {
    loop {
        let p = parent(s, z)?;
        if color(s, p)? != Color::Red {
            break;
        }
        let g = parent(s, p)?;
        let gn = s.node(g)?;
        // `p` hangs off `g` at `side`; the uncle is on the other.
        let side = if p == gn.child[LEFT] { LEFT } else { RIGHT };
        let uncle = gn.child[1 - side];
        if color(s, uncle)? == Color::Red {
            set_color(s, p, Color::Black)?;
            set_color(s, uncle, Color::Black)?;
            set_color(s, g, Color::Red)?;
            z = g;
        } else {
            if z == s.node(p)?.child[1 - side] {
                z = p;
                rotate(s, z, side)?;
            }
            let p = parent(s, z)?;
            let g = parent(s, p)?;
            set_color(s, p, Color::Black)?;
            set_color(s, g, Color::Red)?;
            rotate(s, g, 1 - side)?;
        }
    }
    let r = s.root()?;
    set_color(s, r, Color::Black)
}

fn minimum<S: NodeStore + ?Sized>(s: &S, mut x: usize) -> Result<usize, S::Error> {
    loop {
        let l = s.node(x)?.child[LEFT];
        if l == NIL {
            return Ok(x);
        }
        x = l;
    }
}

/// `u`'s parent adopts `v` in `u`'s place (`v` may be NIL).
fn transplant<S: NodeStore + ?Sized>(s: &mut S, u: usize, v: usize) -> Result<(), S::Error> {
    let up = s.node(u)?.parent;
    replace_child(s, up, u, v)?;
    if v != NIL {
        s.update(v, |n| n.parent = up)?;
    }
    Ok(())
}

fn delete_fixup<S: NodeStore + ?Sized>(
    s: &mut S,
    mut x: usize,
    mut x_parent: usize,
) -> Result<(), S::Error> {
    loop {
        let root = s.root()?;
        if x == root || color(s, x)? != Color::Black || x_parent == NIL {
            break;
        }
        // `x` hangs off `x_parent` at `side`; its sibling `w` is on the
        // other.
        let pn = s.node(x_parent)?;
        let side = if x == pn.child[LEFT] { LEFT } else { RIGHT };
        let other = 1 - side;
        let mut w = pn.child[other];
        if color(s, w)? == Color::Red {
            set_color(s, w, Color::Black)?;
            set_color(s, x_parent, Color::Red)?;
            rotate(s, x_parent, side)?;
            w = s.node(x_parent)?.child[other];
        }
        let wn = s.node(w)?;
        if color(s, wn.child[side])? == Color::Black && color(s, wn.child[other])? == Color::Black {
            set_color(s, w, Color::Red)?;
            x = x_parent;
            x_parent = parent(s, x)?;
        } else {
            if color(s, wn.child[other])? == Color::Black {
                let near = s.node(w)?.child[side];
                set_color(s, near, Color::Black)?;
                set_color(s, w, Color::Red)?;
                rotate(s, w, other)?;
                w = s.node(x_parent)?.child[other];
            }
            let pc = color(s, x_parent)?;
            set_color(s, w, pc)?;
            set_color(s, x_parent, Color::Black)?;
            let far = s.node(w)?.child[other];
            set_color(s, far, Color::Black)?;
            rotate(s, x_parent, side)?;
            x = s.root()?;
            x_parent = NIL;
        }
    }
    set_color(s, x, Color::Black)
}

/// Check the subtree at `x`, whose parent must be `parent` and whose
/// keys must lie strictly between `min` and `max`; the inner result is
/// its black height.
fn check_subtree<S: NodeStore + ?Sized>(
    s: &S,
    x: usize,
    parent: usize,
    min: Option<&S::Key>,
    max: Option<&S::Key>,
) -> Result<Result<usize, String>, S::Error> {
    if x == NIL {
        return Ok(Ok(1)); // NIL counts as black
    }
    let n = s.node(x)?;
    if n.parent != parent {
        return Ok(Err("wrong parent pointer".into()));
    }
    if min.is_some_and(|lo| n.key <= *lo) {
        return Ok(Err("BST order violated (left bound)".into()));
    }
    if max.is_some_and(|hi| n.key >= *hi) {
        return Ok(Err("BST order violated (right bound)".into()));
    }
    let [left, right] = n.child;
    if n.color == Color::Red && (color(s, left)? == Color::Red || color(s, right)? == Color::Red) {
        return Ok(Err("red node has a red child".into()));
    }
    let lh = match check_subtree(s, left, x, min, Some(&n.key))? {
        Ok(h) => h,
        e @ Err(_) => return Ok(e),
    };
    let rh = match check_subtree(s, right, x, Some(&n.key), max)? {
        Ok(h) => h,
        e @ Err(_) => return Ok(e),
    };
    if lh != rh {
        return Ok(Err(format!("black-height mismatch: {lh} vs {rh}")));
    }
    Ok(Ok(lh + usize::from(n.color == Color::Black)))
}

/// [`RbTreeSet`]'s store: a `Vec` arena whose freed slots are reused.
#[derive(Debug)]
struct Arena<K> {
    nodes: Vec<RbNode<K>>,
    free: Vec<usize>,
    root: usize,
}

impl<K> Default for Arena<K> {
    fn default() -> Self {
        Arena {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
        }
    }
}

impl<K: Ord + Clone> NodeStore for Arena<K> {
    type Key = K;
    type Error = Infallible;

    fn root(&self) -> Result<usize, Infallible> {
        Ok(self.root)
    }

    fn set_root(&mut self, x: usize) {
        self.root = x;
    }

    fn node(&self, x: usize) -> Result<RbNode<K>, Infallible> {
        Ok(self.nodes[x].clone())
    }

    fn update(&mut self, x: usize, f: impl FnOnce(&mut RbNode<K>)) -> Result<(), Infallible> {
        f(&mut self.nodes[x]);
        Ok(())
    }

    fn alloc(&mut self, node: RbNode<K>) -> Result<usize, Infallible> {
        Ok(match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        })
    }

    fn free(&mut self, x: usize) -> Result<(), Infallible> {
        self.free.push(x);
        Ok(())
    }
}

/// A sequential red-black tree implementing a sorted set.
///
/// All operations are O(log n); the tree stays balanced per the usual
/// red-black invariants (validated by
/// [`check_invariants`](RbTreeSet::check_invariants)).
#[derive(Debug, Default)]
pub struct RbTreeSet<K> {
    arena: Arena<K>,
    len: usize,
}

impl<K: Ord + Clone> RbTreeSet<K> {
    /// An empty set.
    pub fn new() -> Self {
        RbTreeSet {
            arena: Arena::default(),
            len: 0,
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `key` is in the set.
    pub fn contains(&self, key: &K) -> bool {
        let Ok(found) = self.arena.contains(key);
        found
    }

    /// Insert `key`; returns `true` iff the set changed.
    pub fn add(&mut self, key: K) -> bool {
        let Ok(added) = self.arena.add(key);
        self.len += usize::from(added);
        added
    }

    /// Remove `key`; returns `true` iff the set changed.
    pub fn remove(&mut self, key: &K) -> bool {
        let Ok(removed) = self.arena.remove(key);
        self.len -= usize::from(removed);
        removed
    }

    /// Keys in ascending order.
    pub fn to_sorted_vec(&self) -> Vec<K> {
        let Ok(keys) = self.arena.to_sorted_vec();
        keys
    }

    /// Validate every red-black invariant; returns the tree's black
    /// height or an error description. Test-support API, also useful as
    /// a corruption canary in long-running processes.
    pub fn check_invariants(&self) -> Result<usize, String> {
        let Ok(checked) = self.arena.check_invariants();
        checked
    }
}

/// The "synchronized methods" linearizable wrapper of Section 4.1: the
/// sequential tree behind one mutex — a linearizable base type with no
/// thread-level concurrency, exactly what the paper boosts with a
/// single two-phase transactional lock.
#[derive(Debug)]
pub struct SyncRbTreeSet<K> {
    inner: Mutex<RbTreeSet<K>>,
}

impl<K: Ord + Clone> Default for SyncRbTreeSet<K> {
    fn default() -> Self {
        SyncRbTreeSet::new()
    }
}

impl<K: Ord + Clone> SyncRbTreeSet<K> {
    /// An empty set.
    pub fn new() -> Self {
        SyncRbTreeSet {
            inner: Mutex::new(RbTreeSet::new()),
        }
    }

    /// Validate the underlying tree's invariants.
    pub fn check_invariants(&self) -> Result<usize, String> {
        self.inner.lock().check_invariants()
    }
}

impl<K: Ord + Clone> LinearizableSet<K> for SyncRbTreeSet<K> {
    fn add(&self, key: K) -> bool {
        self.inner.lock().add(key)
    }

    fn remove(&self, key: &K) -> bool {
        self.inner.lock().remove(key)
    }

    fn contains(&self, key: &K) -> bool {
        self.inner.lock().contains(key)
    }

    fn len(&self) -> usize {
        self.inner.lock().len()
    }

    fn snapshot(&self) -> Vec<K> {
        self.inner.lock().to_sorted_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    #[test]
    fn basic_add_remove_contains() {
        let mut t = RbTreeSet::new();
        assert!(t.is_empty());
        assert!(t.add(5));
        assert!(!t.add(5));
        assert!(t.contains(&5));
        assert!(!t.contains(&4));
        assert!(t.remove(&5));
        assert!(!t.remove(&5));
        assert!(t.is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn ascending_inserts_stay_balanced() {
        let mut t = RbTreeSet::new();
        for i in 0..1024 {
            assert!(t.add(i));
            t.check_invariants()
                .unwrap_or_else(|e| panic!("after add({i}): {e}"));
        }
        assert_eq!(t.len(), 1024);
        let bh = t.check_invariants().unwrap();
        assert!(bh <= 12, "tree degenerated: black height {bh}");
        assert_eq!(t.to_sorted_vec(), (0..1024).collect::<Vec<_>>());
    }

    #[test]
    fn descending_inserts_stay_balanced() {
        let mut t = RbTreeSet::new();
        for i in (0..1024).rev() {
            t.add(i);
        }
        t.check_invariants().unwrap();
        assert_eq!(t.to_sorted_vec(), (0..1024).collect::<Vec<_>>());
    }

    #[test]
    fn remove_every_other_keeps_invariants() {
        let mut t = RbTreeSet::new();
        for i in 0..512 {
            t.add(i);
        }
        for i in (0..512).step_by(2) {
            assert!(t.remove(&i));
            t.check_invariants()
                .unwrap_or_else(|e| panic!("after remove({i}): {e}"));
        }
        assert_eq!(t.len(), 256);
        assert_eq!(
            t.to_sorted_vec(),
            (0..512).filter(|i| i % 2 == 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn matches_btreeset_oracle_with_invariant_checks() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = RbTreeSet::new();
        let mut oracle = BTreeSet::new();
        for step in 0..30_000 {
            let k: i32 = rng.random_range(0..300);
            match rng.random_range(0..3) {
                0 => assert_eq!(t.add(k), oracle.insert(k), "step {step} add({k})"),
                1 => assert_eq!(t.remove(&k), oracle.remove(&k), "step {step} remove({k})"),
                _ => assert_eq!(t.contains(&k), oracle.contains(&k), "step {step}"),
            }
            if step % 512 == 0 {
                t.check_invariants()
                    .unwrap_or_else(|e| panic!("step {step}: {e}"));
                assert_eq!(t.len(), oracle.len());
            }
        }
        t.check_invariants().unwrap();
        assert_eq!(
            t.to_sorted_vec(),
            oracle.iter().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn default_is_an_empty_tree() {
        let mut t = RbTreeSet::default();
        assert!(!t.contains(&1));
        assert!(t.add(1));
        assert_eq!(t.check_invariants(), Ok(2)); // black root over NIL
        assert!(SyncRbTreeSet::<i64>::default().is_empty());
    }

    #[test]
    fn arena_slots_are_recycled() {
        let mut t = RbTreeSet::new();
        for i in 0..100 {
            t.add(i);
        }
        for i in 0..100 {
            t.remove(&i);
        }
        let allocated = t.arena.nodes.len();
        for i in 100..200 {
            t.add(i);
        }
        assert_eq!(t.arena.nodes.len(), allocated, "free list not reused");
        t.check_invariants().unwrap();
    }

    #[test]
    fn sync_wrapper_is_linearizable_under_contention() {
        let t = Arc::new(SyncRbTreeSet::new());
        let threads = 8;
        let per = 1_000i64;
        let mut handles = Vec::new();
        for th in 0..threads {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    assert!(t.add(th * per + i));
                }
                for i in (0..per).step_by(2) {
                    assert!(t.remove(&(th * per + i)));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), (threads * per / 2) as usize);
    }

    #[test]
    fn sync_wrapper_reads_during_mutation_are_safe() {
        let t = Arc::new(SyncRbTreeSet::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (t2, stop2) = (Arc::clone(&t), Arc::clone(&stop));
        let reader = std::thread::spawn(move || {
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = t2.contains(&50);
            }
        });
        for round in 0..200 {
            for i in 0..100 {
                t.add(i);
            }
            for i in 0..100 {
                t.remove(&i);
            }
            if round % 50 == 0 {
                t.check_invariants().unwrap();
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        reader.join().unwrap();
    }
}
