//! A base object and its committed versions behind one handle.

use std::ops::Deref;

/// A linearizable base object plus the side-table of committed versions
/// that serves read-only snapshot transactions (see
/// `txboost_core::mvcc`), allocated together: a mutating call logs one
/// effect capturing one `Arc` of this, whose inverse arm calls the base
/// and whose install arm feeds `versions`.
///
/// Dereferences to the base, so a boosted object spells its base-object
/// calls `self.base.<method>(..)` whether or not the base is versioned.
#[derive(Debug)]
pub(crate) struct Versioned<B, S> {
    base: B,
    pub(crate) versions: S,
}

impl<B, S> Versioned<B, S> {
    pub(crate) fn new(base: B, versions: S) -> Self {
        Versioned { base, versions }
    }
}

impl<B, S> Deref for Versioned<B, S> {
    type Target = B;

    fn deref(&self) -> &B {
        &self.base
    }
}
