//! A hierarchical timing wheel (Varghese–Lauck) over [`SimTime`].
//!
//! [`TimerWheel`] is a drop-in replacement for [`EventQueue`](crate::EventQueue)
//! on hot scheduling paths: same pop order (earliest instant first, FIFO
//! by insertion within an instant), but O(1) amortized insert/cancel
//! instead of O(log n), and no stale entries — cancelling a timer removes
//! it immediately rather than leaving a generation-tagged tombstone to be
//! skipped later.
//!
//! # Structure
//!
//! Time is the raw nanosecond count of [`SimTime`]. The wheel keeps a
//! monotone scan position `cur` and 11 levels of 64 slots each; level `l`
//! buckets pending entries by bits `[6l, 6l+6)` of their deadline
//! (6 bits/level × 11 levels = 66 bits ≥ the full 64-bit range, so any
//! deadline, including [`SimTime::FAR_FUTURE`], fits without overflow
//! wraparound). An entry due at `t > cur` lands at the level of the
//! highest bit where `t` differs from `cur` — which is exactly the
//! deepest level at which `t`'s slot index exceeds `cur`'s, so scanning
//! each level for the first occupied slot *after* `cur`'s finds the
//! global minimum. To make it poppable, `cur` jumps to the earliest
//! deadline in that bucket: the entries due exactly then become ready
//! and the rest are re-filed against the new `cur` (see `ensure_ready`
//! for why no other bucket is disturbed) — a lone timer, however far
//! out, is ready in one step, not one step per level.
//!
//! Entries with a deadline at or before `cur` go straight to the `ready`
//! buffer, keeping their original deadline; `ready` is kept sorted by
//! `(deadline, seq)`, so even "schedule in the past" inserts (the
//! engine's *as-soon-as-possible* polls) pop in exactly the order
//! [`EventQueue`](crate::EventQueue) would produce.
//!
//! # Freelist pool
//!
//! Entries live in a slab (`Vec<Node>`) with an embedded freelist; slots
//! store `u32` slab indices. Once the slab has grown to the high-water
//! mark of concurrently pending timers, insert/cancel/pop allocate
//! nothing — the freelist is the pool.
//!
//! Bucket buffers are pooled per level the same way. An empty bucket owns
//! no storage: when a bucket empties (drained by `ensure_ready`, or by its
//! last `cancel`), its buffer goes on its level's spare stack, and a
//! bucket that starts filling takes one from there. A level therefore
//! keeps as many buffers as it ever had non-empty buckets at once, not
//! one per slot each at its own all-time peak.
//!
//! # Determinism contract
//!
//! For any interleaved sequence of `push`/`pop`/`pop_due` calls,
//! `TimerWheel` returns exactly what `EventQueue` returns (property-tested
//! against it as an oracle in this module). `cancel` additionally removes
//! an entry in O(1); a cancelled-then-reinserted timer behaves like a
//! fresh push (new sequence number, FIFO slot at the back of its instant).

use crate::time::SimTime;

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64
const LEVELS: usize = 11; // 6 × 11 = 66 bits ≥ 64

/// Handle to a pending timer, returned by [`TimerWheel::insert`].
///
/// The handle is validated on [`cancel`](TimerWheel::cancel): cancelling
/// a timer that already fired (or was already cancelled) is a no-op
/// returning `None`, even if its slab cell has since been reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerId {
    cell: u32,
    seq: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// In `slots[level * SLOTS + slot]` at position `idx`.
    Slot { level: u8, slot: u8, idx: u32 },
    /// In the `ready` buffer (position found by scan; cancels here are
    /// rare and the buffer is small).
    Ready,
    /// Not pending (fired, cancelled, or never used).
    Free,
}

struct Node<E> {
    at: SimTime,
    seq: u64,
    event: Option<E>,
    loc: Loc,
}

/// A hierarchical timing wheel with [`EventQueue`](crate::EventQueue)-equivalent
/// ordering and O(1) insert/cancel. See the module docs for the design.
pub struct TimerWheel<E> {
    /// Monotone scan position (ns). All slot-resident entries are due
    /// strictly after `cur`; everything due at or before it is in `ready`.
    cur: u64,
    next_seq: u64,
    /// `LEVELS × SLOTS` buckets of slab indices, flattened. An empty
    /// bucket owns no storage.
    slots: Vec<Vec<u32>>,
    /// Per level, the emptied buffers of its buckets (cleared, capacity
    /// kept) for the next bucket there that starts filling.
    spare: [Vec<Vec<u32>>; LEVELS],
    /// Per-level bitmap of non-empty slots.
    occupied: [u64; LEVELS],
    /// Entry storage; freed cells are recycled via `free`.
    slab: Vec<Node<E>>,
    /// Freelist of slab cells (the allocation pool).
    free: Vec<u32>,
    /// Due entries, sorted by `(at, seq)` from `ready_head` on.
    ready: Vec<u32>,
    ready_head: usize,
    ready_dirty: bool,
    len: usize,
    /// Jumps performed by `ensure_ready`.
    #[cfg(test)]
    steps: u64,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// An empty wheel positioned at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            cur: 0,
            next_seq: 0,
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            spare: std::array::from_fn(|_| Vec::new()),
            occupied: [0; LEVELS],
            slab: Vec::new(),
            free: Vec::new(),
            ready: Vec::new(),
            ready_head: 0,
            ready_dirty: false,
            len: 0,
            #[cfg(test)]
            steps: 0,
        }
    }

    /// Number of pending timers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no timers are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop all pending timers (outstanding [`TimerId`]s become stale).
    /// Bucket, slab and freelist capacity is retained; the scan position
    /// is not rewound — time stays monotone across a clear.
    pub fn clear(&mut self) {
        if self.len == 0 && self.ready.is_empty() {
            return;
        }
        for (idx, bucket) in self.slots.iter_mut().enumerate() {
            if !bucket.is_empty() {
                bucket.clear();
                self.spare[idx / SLOTS].push(std::mem::take(bucket));
            }
        }
        self.occupied = [0; LEVELS];
        self.slab.clear();
        self.free.clear();
        self.ready.clear();
        self.ready_head = 0;
        self.ready_dirty = false;
        self.len = 0;
    }

    /// Schedule `event` at instant `at`. Equivalent to
    /// [`EventQueue::push`](crate::EventQueue::push), additionally
    /// returning a handle usable with [`cancel`](Self::cancel).
    #[inline]
    pub fn insert(&mut self, at: SimTime, event: E) -> TimerId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let cell = match self.free.pop() {
            Some(c) => {
                // Field by field: building a `Node` and assigning it
                // copies the event twice. A freed cell's `loc` is
                // already `Free`.
                let node = &mut self.slab[c as usize];
                node.at = at;
                node.seq = seq;
                node.event = Some(event);
                c
            }
            None => {
                let c = u32::try_from(self.slab.len()).expect("timer wheel slab overflow");
                self.slab.push(Node {
                    at,
                    seq,
                    event: Some(event),
                    loc: Loc::Free,
                });
                c
            }
        };
        self.place(cell);
        self.len += 1;
        TimerId { cell, seq }
    }

    /// File `cell` into the slot (or ready buffer) dictated by its
    /// deadline relative to `cur`.
    fn place(&mut self, cell: u32) {
        let at = self.slab[cell as usize].at.as_nanos();
        let t = at.max(self.cur);
        let xor = t ^ self.cur;
        if xor == 0 {
            // Due now (or scheduled in the past): straight to ready.
            self.slab[cell as usize].loc = Loc::Ready;
            self.ready.push(cell);
            self.ready_dirty = true;
            return;
        }
        let level = ((63 - xor.leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((t >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let bucket = &mut self.slots[level * SLOTS + slot];
        if bucket.capacity() == 0 {
            take_spare(bucket, &mut self.spare[level]);
        }
        self.slab[cell as usize].loc = Loc::Slot {
            level: level as u8,
            slot: slot as u8,
            idx: bucket.len() as u32,
        };
        bucket.push(cell);
        self.occupied[level] |= 1 << slot;
    }

    /// Cancel a pending timer in O(1), returning its event, or `None` if
    /// the handle is stale (the timer already fired or was cancelled).
    pub fn cancel(&mut self, id: TimerId) -> Option<E> {
        let node = self.slab.get(id.cell as usize)?;
        if node.seq != id.seq || node.loc == Loc::Free {
            return None;
        }
        match node.loc {
            Loc::Slot { level, slot, idx } => {
                let bucket = &mut self.slots[level as usize * SLOTS + slot as usize];
                bucket.swap_remove(idx as usize);
                if let Some(&moved) = bucket.get(idx as usize) {
                    self.slab[moved as usize].loc = Loc::Slot { level, slot, idx };
                }
                if bucket.is_empty() {
                    self.occupied[level as usize] &= !(1 << slot);
                    self.spare[level as usize].push(std::mem::take(bucket));
                }
            }
            Loc::Ready => {
                // Rare path: linear scan of the (small) due buffer.
                let pos = self.ready[self.ready_head..]
                    .iter()
                    .position(|&c| c == id.cell)
                    .expect("ready entry missing")
                    + self.ready_head;
                self.ready.swap_remove(pos);
                self.ready_dirty = true;
            }
            Loc::Free => unreachable!(),
        }
        let node = &mut self.slab[id.cell as usize];
        node.loc = Loc::Free;
        let ev = node.event.take();
        self.free.push(id.cell);
        self.len -= 1;
        ev
    }

    /// Make the ready buffer hold the earliest pending entries (sorted),
    /// advancing `cur` in one jump if nothing is ready yet; `false` if the
    /// wheel is empty.
    ///
    /// The first occupied bucket the level scan finds holds the global
    /// minimum, and every lower level is empty. `cur` jumps straight to
    /// the minimum deadline in that bucket: any instant inside the
    /// bucket's span leaves `cur`'s slot index unchanged at that level
    /// and above, so no resident entry elsewhere ends up at or below
    /// `cur`'s index. Entries due exactly then go to `ready`; the rest of
    /// the bucket is re-filed against the new `cur`, strictly lower down
    /// (a level-0 bucket is one exact nanosecond and empties into `ready`).
    fn ensure_ready(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        if self.ready_head == self.ready.len() {
            self.ready.clear();
            self.ready_head = 0;
            #[cfg(test)]
            {
                self.steps += 1;
            }
            // Every resident entry sits above `cur`'s index at its level,
            // so the lowest occupied slot of the lowest occupied level is
            // the earliest bucket.
            let level = (self.occupied.iter())
                .position(|&mask| mask != 0)
                .expect("pending entries but no occupied slot");
            let slot = self.occupied[level].trailing_zeros() as usize;
            debug_assert!(
                slot as u64 > (self.cur >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1),
                "resident entry at or below the scan position"
            );
            let idx = level * SLOTS + slot;
            let mut bucket = std::mem::take(&mut self.slots[idx]);
            self.occupied[level] &= !(1 << slot);
            self.cur = bucket
                .iter()
                .map(|&c| self.slab[c as usize].at.as_nanos())
                .min()
                .expect("occupied bit set on an empty bucket");
            for &cell in &bucket {
                self.place(cell);
            }
            bucket.clear();
            self.spare[level].push(bucket);
        }
        if self.ready_dirty {
            let (ready, slab) = (&mut self.ready, &self.slab);
            ready[self.ready_head..].sort_unstable_by_key(|&c| {
                let n = &slab[c as usize];
                (n.at, n.seq)
            });
            self.ready_dirty = false;
        }
        true
    }

    /// The instant of the earliest pending timer.
    ///
    /// Takes `&mut self` (unlike
    /// [`EventQueue::peek_time`](crate::EventQueue::peek_time)) because
    /// peeking may advance the internal scan position.
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if !self.ensure_ready() {
            return None;
        }
        Some(self.slab[self.ready[self.ready_head] as usize].at)
    }

    /// Pop the earliest pending timer.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.ensure_ready() {
            return None;
        }
        Some(self.take_ready_front())
    }

    /// Pop the earliest timer only if it is due at or before `now`.
    #[inline]
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        if !self.ensure_ready() || self.slab[self.ready[self.ready_head] as usize].at > now {
            return None;
        }
        Some(self.take_ready_front())
    }

    #[inline]
    fn take_ready_front(&mut self) -> (SimTime, E) {
        let cell = self.ready[self.ready_head];
        self.ready_head += 1;
        if self.ready_head == self.ready.len() {
            self.ready.clear();
            self.ready_head = 0;
        }
        self.free.push(cell);
        self.len -= 1;
        // The event moves last, with nothing that can unwind after it, so
        // it is copied once — slab to caller — and not via a temporary.
        let node = &mut self.slab[cell as usize];
        node.loc = Loc::Free;
        let ev = node.event.take().expect("ready entry without event");
        (node.at, ev)
    }

    /// Bucket storage retained, in slab indices: every bucket's capacity
    /// plus every spare buffer's.
    #[cfg(test)]
    fn retained_bucket_capacity(&self) -> usize {
        let spares = self.spare.iter().flatten();
        (self.slots.iter().chain(spares)).map(Vec::capacity).sum()
    }
}

/// Give an empty, storage-less `bucket` the top buffer of its level's
/// `spare` stack, if there is one. Out of line so that `place` stays
/// small: inline, this take slowed a pop/re-arm loop at the mega world's
/// timer spacing by about a third.
#[cold]
#[inline(never)]
fn take_spare(bucket: &mut Vec<u32>, spare: &mut Vec<Vec<u32>>) {
    if let Some(buf) = spare.pop() {
        *bucket = buf;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut w = TimerWheel::new();
        w.insert(SimTime::from_secs(3), "c");
        w.insert(SimTime::from_secs(1), "a");
        w.insert(SimTime::from_secs(2), "b");
        assert_eq!(w.pop().unwrap().1, "a");
        assert_eq!(w.pop().unwrap().1, "b");
        assert_eq!(w.pop().unwrap().1, "c");
        assert!(w.pop().is_none());
    }

    #[test]
    fn same_time_is_fifo() {
        let mut w = TimerWheel::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            w.insert(t, i);
        }
        for i in 0..100 {
            assert_eq!(w.pop().unwrap().1, i);
        }
    }

    #[test]
    fn pop_due_respects_now() {
        let mut w = TimerWheel::new();
        w.insert(SimTime::from_secs(5), "later");
        assert!(w.pop_due(SimTime::from_secs(4)).is_none());
        assert_eq!(w.pop_due(SimTime::from_secs(5)).unwrap().1, "later");
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut w = TimerWheel::new();
        w.insert(SimTime::from_secs(2), ());
        w.insert(SimTime::from_secs(1) + SimDuration::from_nanos(1), ());
        let t = w.peek_time().unwrap();
        assert_eq!(w.pop().unwrap().0, t);
    }

    #[test]
    fn past_insert_pops_before_later_entries() {
        let mut w = TimerWheel::new();
        w.insert(SimTime::from_secs(10), "ten");
        // Advance the scan position to t=10s…
        assert_eq!(w.peek_time(), Some(SimTime::from_secs(10)));
        // …then schedule in the past: must still pop first, at its
        // original instant.
        w.insert(SimTime::from_secs(2), "two");
        assert_eq!(w.pop().unwrap(), (SimTime::from_secs(2), "two"));
        assert_eq!(w.pop().unwrap(), (SimTime::from_secs(10), "ten"));
    }

    #[test]
    fn cancel_removes_and_returns_event() {
        let mut w = TimerWheel::new();
        let a = w.insert(SimTime::from_secs(1), "a");
        let b = w.insert(SimTime::from_secs(2), "b");
        assert_eq!(w.cancel(a), Some("a"));
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop().unwrap().1, "b");
        // Stale handles (fired or already cancelled) are no-ops.
        assert_eq!(w.cancel(a), None);
        assert_eq!(w.cancel(b), None);
    }

    #[test]
    fn cancel_from_ready_buffer() {
        let mut w = TimerWheel::new();
        let t = SimTime::from_secs(1);
        let ids: Vec<_> = (0..4).map(|i| w.insert(t, i)).collect();
        assert_eq!(w.peek_time(), Some(t)); // all four now in ready
        assert_eq!(w.cancel(ids[1]), Some(1));
        assert_eq!(w.pop().unwrap().1, 0);
        assert_eq!(w.pop().unwrap().1, 2);
        assert_eq!(w.pop().unwrap().1, 3);
        assert!(w.pop().is_none());
    }

    #[test]
    fn stale_handle_against_recycled_cell() {
        let mut w = TimerWheel::new();
        let a = w.insert(SimTime::from_secs(1), 1u32);
        w.pop().unwrap();
        // The freed cell is recycled by the next insert; the old handle
        // must not cancel the new timer.
        let b = w.insert(SimTime::from_secs(2), 2u32);
        assert_eq!(a.cell, b.cell);
        assert_eq!(w.cancel(a), None);
        assert_eq!(w.pop().unwrap().1, 2);
    }

    #[test]
    fn far_future_deadline() {
        let mut w = TimerWheel::new();
        w.insert(SimTime::FAR_FUTURE, "end");
        w.insert(SimTime::from_secs(1), "soon");
        assert_eq!(w.pop().unwrap().1, "soon");
        assert_eq!(w.pop().unwrap(), (SimTime::FAR_FUTURE, "end"));
    }

    #[test]
    fn len_and_clear() {
        let mut w = TimerWheel::new();
        w.insert(SimTime::ZERO, 1);
        w.insert(SimTime::from_secs(100), 2);
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
        w.clear();
        assert!(w.is_empty());
        assert!(w.pop().is_none());
        // Reusable after clear.
        w.insert(SimTime::from_secs(1), 3);
        assert_eq!(w.pop().unwrap().1, 3);
    }

    #[test]
    fn lone_timer_is_ready_in_one_step() {
        // 10 ms from `cur` = 0 files at level 3; the jump must not walk
        // it down through levels 2, 1 and 0.
        let mut w = TimerWheel::new();
        w.insert(SimTime::from_millis(10), ());
        assert_eq!(w.peek_time(), Some(SimTime::from_millis(10)));
        assert_eq!(w.steps, 1);
        // Empty again: peeking scans nothing.
        w.pop().unwrap();
        assert_eq!(w.peek_time(), None);
        assert_eq!(w.steps, 1);
    }

    #[test]
    fn jump_keeps_fifo_among_entries_sharing_the_minimum() {
        // Four entries in one level-3 bucket, two of them at its minimum.
        let at = |ns| SimTime::from_millis(10) + SimDuration::from_nanos(ns);
        let mut w = TimerWheel::new();
        w.insert(at(700), "d");
        w.insert(at(5), "a");
        w.insert(at(9), "c");
        w.insert(at(5), "b");
        assert_eq!(w.peek_time(), Some(at(5)));
        assert_eq!(w.steps, 1);
        // An insert at the instant the wheel now stands on queues behind
        // the two already due; one before it pops first.
        w.insert(at(5), "b2");
        w.insert(at(1), "past");
        let order: Vec<_> = std::iter::from_fn(|| w.pop()).collect();
        assert_eq!(
            order,
            vec![
                (at(1), "past"),
                (at(5), "a"),
                (at(5), "b"),
                (at(5), "b2"),
                (at(9), "c"),
                (at(700), "d"),
            ]
        );
    }

    #[test]
    fn emptied_buckets_own_no_storage() {
        let mut w = TimerWheel::new();
        let ids: Vec<_> = (0..100)
            .map(|i| w.insert(SimTime::from_millis(10) + SimDuration::from_nanos(i), i))
            .collect();
        for id in ids {
            w.cancel(id).unwrap();
        }
        assert!(w.slots.iter().all(|b| b.capacity() == 0));
        let spares: Vec<usize> = w.spare.iter().flatten().map(Vec::capacity).collect();
        assert!(matches!(spares[..], [c] if c >= 100), "{spares:?}");
        // The next bucket to fill at that level (3) takes the spare.
        w.insert(SimTime::from_millis(12), 0);
        assert!(w.spare.iter().all(Vec::is_empty));
        assert_eq!(w.retained_bucket_capacity(), spares[0]);
        // Drained into `ready`, the bucket gives its buffer back.
        assert_eq!(w.pop(), Some((SimTime::from_millis(12), 0)));
        assert!(w.slots.iter().all(|b| b.capacity() == 0));
    }

    /// Mega-fleet re-arm churn: 65 536 timers, each re-armed 100 ms after
    /// it fires, for 2.4 simulated s — more than two revolutions of level
    /// 4 (64 slots of 2^24 ns ≈ 1.07 s), so every level-4 slot is once
    /// the bucket ≈ 11k timers fall into. Bucket storage stays within 4×
    /// the pending count (2.75× measured); a buffer kept per slot at its
    /// own peak retains 18×.
    #[test]
    fn rearm_churn_keeps_bucket_storage_bounded() {
        const N: u64 = 65_536;
        const PERIOD: u64 = 100_000_000;
        let mut w = TimerWheel::new();
        for i in 0..N {
            w.insert(SimTime::from_nanos(i * PERIOD / N), ());
        }
        while let Some((at, ())) = w.pop_due(SimTime::from_millis(2_400)) {
            w.insert(at + SimDuration::from_nanos(PERIOD), ());
        }
        assert_eq!(w.len() as u64, N);
        // No buffer ever shrinks, so what is retained now is the peak.
        let retained = w.retained_bucket_capacity();
        assert!(
            retained <= 4 * N as usize,
            "{retained} slab indices of bucket storage for {N} pending timers"
        );
    }

    #[test]
    fn freelist_recycles_cells() {
        let mut w = TimerWheel::new();
        for round in 0..10 {
            for i in 0..8u64 {
                w.insert(SimTime::from_nanos(round * 1000 + i), i);
            }
            while w.pop().is_some() {}
        }
        // High-water mark, not total inserts.
        assert!(w.slab.len() <= 8, "slab grew to {}", w.slab.len());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::queue::EventQueue;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    proptest! {
        /// Pops are globally sorted by time, FIFO within a timestamp —
        /// the same contract `queue.rs` pins for `EventQueue`.
        #[test]
        fn prop_pops_sorted_fifo(times in proptest::collection::vec(0u64..50, 1..200)) {
            let mut w = TimerWheel::new();
            for (i, t) in times.iter().enumerate() {
                w.insert(SimTime::from_nanos(*t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((at, seq)) = w.pop() {
                if let Some((lt, lseq)) = last {
                    prop_assert!(at >= lt);
                    if at == lt {
                        prop_assert!(seq > lseq, "FIFO within a timestamp");
                    }
                }
                last = Some((at, seq));
            }
        }

        /// Interleaved push/pop/pop_due against `EventQueue` as the
        /// oracle: identical output, including boundary behaviour and
        /// scheduling in the past after the wheel has advanced.
        #[test]
        fn prop_matches_event_queue(
            ops in proptest::collection::vec((0u64..2_000_000, 0u8..3), 1..300),
        ) {
            let mut q = EventQueue::new();
            let mut w = TimerWheel::new();
            for (i, (t, op)) in ops.iter().enumerate() {
                match op {
                    0 => {
                        q.push(SimTime::from_nanos(*t), i);
                        w.insert(SimTime::from_nanos(*t), i);
                    }
                    1 => prop_assert_eq!(q.pop(), w.pop()),
                    _ => prop_assert_eq!(
                        q.pop_due(SimTime::from_nanos(*t)),
                        w.pop_due(SimTime::from_nanos(*t))
                    ),
                }
                prop_assert_eq!(q.len(), w.len());
            }
            loop {
                let (a, b) = (q.pop(), w.pop());
                prop_assert_eq!(a, b);
                if b.is_none() {
                    break;
                }
            }
        }

        /// Cancel/re-arm equivalence: a timer that is cancelled and
        /// re-inserted behaves exactly like a queue where the entry was
        /// never pushed and the replacement was pushed at re-arm time.
        /// Drives both structures through arm/re-arm/fire cycles.
        #[test]
        fn prop_cancel_rearm_matches_oracle(
            ops in proptest::collection::vec((0u64..100_000, 0u8..4, 0usize..8), 1..200),
        ) {
            let mut o = Oracle::default();
            let mut w = TimerWheel::new();
            let mut live: [Option<TimerId>; 8] = [None; 8];
            for (t, op, key) in ops {
                match op {
                    0 | 1 => rearm(&mut o, &mut w, &mut live, key, SimTime::from_nanos(t)),
                    2 => {
                        // Cancel `key` if armed.
                        if let Some(id) = live[key].take() {
                            prop_assert_eq!(w.cancel(id), Some(key));
                        }
                        o.cancel(key);
                    }
                    _ => {
                        let got = w.pop();
                        if let Some((_, k)) = got {
                            live[k] = None;
                        }
                        prop_assert_eq!(o.pop_due(SimTime::FAR_FUTURE), got);
                    }
                }
            }
            loop {
                let got = w.pop();
                prop_assert_eq!(o.pop_due(SimTime::FAR_FUTURE), got);
                if got.is_none() {
                    break;
                }
            }
        }

        /// What the jump exercises: a wheel holding one to three timers
        /// whose deadlines lie anywhere from nanoseconds to minutes ahead
        /// (levels 0 to 6), re-armed and cancelled between pops, armed at
        /// the instant the wheel stands on, in its past, and at a
        /// deadline another timer already holds (FIFO inside the instant).
        #[test]
        fn prop_sparse_spread_matches_oracle(
            ops in proptest::collection::vec((0u32..38, any::<u64>(), 0u8..8, 0usize..3), 1..120),
        ) {
            let mut o = Oracle::default();
            let mut w = TimerWheel::new();
            let mut live: [Option<TimerId>; 8] = [None; 8];
            let (mut now, mut last_armed) = (SimTime::ZERO, SimTime::ZERO);
            for (exp, bits, op, key) in ops {
                // 2^exp ≤ delta < 2^(exp+1) ns: up to ~4.6 minutes.
                let delta = SimDuration::from_nanos((1u64 << exp) | (bits & ((1u64 << exp) - 1)));
                match op {
                    0..=3 => {
                        let at = match op {
                            0 | 1 => now + delta,
                            2 => [now, last_armed][(bits & 1) as usize],
                            _ => SimTime::from_nanos(now.as_nanos().saturating_sub(delta.as_nanos())),
                        };
                        rearm(&mut o, &mut w, &mut live, key, at);
                        last_armed = at;
                    }
                    4 => {
                        if let Some(id) = live[key].take() {
                            prop_assert_eq!(w.cancel(id), Some(key));
                        }
                        o.cancel(key);
                    }
                    _ => {
                        let horizon = if op == 5 { SimTime::FAR_FUTURE } else { now + delta };
                        prop_assert_eq!(o.peek_time(), w.peek_time());
                        let got = w.pop_due(horizon);
                        prop_assert_eq!(o.pop_due(horizon), got);
                        if let Some((at, k)) = got {
                            live[k] = None;
                            now = now.max(at);
                        }
                    }
                }
                prop_assert_eq!(live.iter().flatten().count(), w.len());
            }
            loop {
                let got = w.pop();
                prop_assert_eq!(o.pop_due(SimTime::FAR_FUTURE), got);
                if got.is_none() {
                    break;
                }
            }
        }
    }

    proptest! {
        /// Ties at the earliest pending instant: `k` timers share it and
        /// others wait behind it, a peek moves `cur` onto it (all `k` go
        /// to `ready`), and later inserts land behind `cur` — in its
        /// past or on it — or after it, between pops. The wheel pops
        /// what `EventQueue` pops. Order only: how often `ready` is
        /// re-sorted on the way is a cost, not a result.
        #[test]
        fn prop_ties_at_the_earliest_instant_match_event_queue(
            k in 1usize..200,
            tie in 1u64..1_000_000_000,
            later in proptest::collection::vec(1u64..1_000_000, 0..20),
            ops in proptest::collection::vec((0u8..4, any::<u64>()), 1..150),
        ) {
            let mut q = EventQueue::new();
            let mut w = TimerWheel::new();
            let t = SimTime::from_nanos(tie);
            let arms = std::iter::repeat_n(t, k)
                .chain(later.iter().map(|&d| t + SimDuration::from_nanos(d)));
            for (i, at) in arms.enumerate() {
                q.push(at, i);
                w.insert(at, i);
            }
            prop_assert_eq!(w.peek_time(), Some(t));
            let mut i = k + later.len();
            for (op, x) in ops {
                if op == 3 {
                    prop_assert_eq!(q.pop(), w.pop());
                    continue;
                }
                let at = match op {
                    0 => SimTime::from_nanos(x % (tie + 1)),
                    1 => t,
                    _ => t + SimDuration::from_nanos(x % 1_000_000),
                };
                q.push(at, i);
                w.insert(at, i);
                i += 1;
            }
            loop {
                let (a, b) = (q.pop(), w.pop());
                prop_assert_eq!(a, b);
                if b.is_none() {
                    break;
                }
            }
        }
    }

    /// `EventQueue` as the oracle for a wheel with `cancel`: one timer
    /// per key, cancelled entries left in the heap and skipped when they
    /// surface (the generation-style lazy invalidation the wheel
    /// replaces).
    #[derive(Default)]
    struct Oracle {
        q: EventQueue<usize>,
        /// The nonce of each key's live push.
        live: [Option<usize>; 8],
        nonce: usize,
    }

    impl Oracle {
        fn arm(&mut self, key: usize, at: SimTime) {
            self.live[key] = Some(self.nonce);
            self.q.push(at, (key << 32) | self.nonce);
            self.nonce += 1;
        }

        fn cancel(&mut self, key: usize) {
            self.live[key] = None;
        }

        fn skip_stale(&mut self) {
            while let Some((_, &v)) = self.q.peek() {
                if self.live[v >> 32] == Some(v & 0xffff_ffff) {
                    break;
                }
                self.q.pop();
            }
        }

        fn peek_time(&mut self) -> Option<SimTime> {
            self.skip_stale();
            self.q.peek_time()
        }

        fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, usize)> {
            self.skip_stale();
            let (at, v) = self.q.pop_due(now)?;
            self.live[v >> 32] = None;
            Some((at, v >> 32))
        }
    }

    /// (Re-)arm `key` at `at` in both structures, cancelling its live
    /// entry first.
    fn rearm(
        o: &mut Oracle,
        w: &mut TimerWheel<usize>,
        live: &mut [Option<TimerId>; 8],
        key: usize,
        at: SimTime,
    ) {
        if let Some(id) = live[key].take() {
            w.cancel(id);
        }
        o.arm(key, at);
        live[key] = Some(w.insert(at, key));
    }
}
