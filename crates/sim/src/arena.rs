//! Dense typed arenas for hot per-endpoint state.
//!
//! The million-UE engine keeps per-endpoint hot state in contiguous
//! struct-of-arrays stores instead of scattered boxed structs, so the
//! steady-state wake path walks cache lines instead of chasing
//! pointers. [`Arena`] is the building block: a dense `Vec`-backed
//! store addressed by a stable [`ArenaId`] handed out at insertion.
//!
//! The arena is deliberately append-only (no per-slot free list): the
//! simulation's endpoint population is fixed at build time, and an
//! append-only store keeps iteration order == insertion order, which
//! the deterministic engine relies on. `clear` resets the whole store
//! for reuse between runs while keeping its capacity.
//!
//! The kernel crate has no telemetry dependency, so the arena exposes
//! its occupancy via plain accessors ([`Arena::len`],
//! [`Arena::capacity`], [`Arena::bytes_capacity`]) and consumers
//! publish the `sim.arena.*` gauges.

/// Stable handle into an [`Arena`]: a dense index, valid until the
/// arena is cleared.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ArenaId(pub u32);

/// A dense append-only typed store. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct Arena<T> {
    slots: Vec<T>,
}

impl<T> Arena<T> {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self { slots: Vec::new() }
    }

    /// An empty arena with room for `cap` entries before reallocating.
    /// Pre-sizing matters at N=1M: one allocation instead of a
    /// doubling cascade, and `bytes_capacity` is exact from the start.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            slots: Vec::with_capacity(cap),
        }
    }

    /// Append a value and return its stable handle.
    ///
    /// # Panics
    /// Panics if the arena already holds `u32::MAX` entries.
    pub fn push(&mut self, value: T) -> ArenaId {
        let id = u32::try_from(self.slots.len()).expect("arena overflow");
        self.slots.push(value);
        ArenaId(id)
    }

    /// Shared access to the entry at `id`.
    #[must_use]
    pub fn get(&self, id: ArenaId) -> &T {
        &self.slots[id.0 as usize]
    }

    /// Exclusive access to the entry at `id`.
    #[must_use]
    pub fn get_mut(&mut self, id: ArenaId) -> &mut T {
        &mut self.slots[id.0 as usize]
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the arena holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Allocated capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Bytes of backing storage currently allocated (capacity × entry
    /// size) — what the `sim.arena.*.bytes` gauges report.
    #[must_use]
    pub fn bytes_capacity(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<T>()
    }

    /// Drop all entries, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Iterate entries in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.slots.iter()
    }

    /// Iterate entries mutably in insertion order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.slots.iter_mut()
    }
}

impl<'a, T> IntoIterator for &'a Arena<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.slots.iter()
    }
}

impl<'a, T> IntoIterator for &'a mut Arena<T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.slots.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let mut a = Arena::new();
        let x = a.push(10u64);
        let y = a.push(20u64);
        assert_eq!(*a.get(x), 10);
        assert_eq!(*a.get(y), 20);
        *a.get_mut(x) += 1;
        assert_eq!(*a.get(x), 11);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
    }

    #[test]
    fn ids_are_dense_insertion_order() {
        let mut a = Arena::new();
        for i in 0..100u32 {
            assert_eq!(a.push(i), ArenaId(i));
        }
        let collected: Vec<u32> = a.iter().copied().collect();
        assert_eq!(collected, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn with_capacity_is_exact_and_clear_keeps_it() {
        let mut a: Arena<[u8; 48]> = Arena::with_capacity(1000);
        assert!(a.capacity() >= 1000);
        assert_eq!(a.bytes_capacity(), a.capacity() * 48);
        a.push([0; 48]);
        let cap = a.capacity();
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.capacity(), cap);
    }
}
