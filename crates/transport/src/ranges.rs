//! The one sequence scoreboard type of this crate (DESIGN §9): TCP's SACK
//! scoreboard and out-of-order queue, MPTCP's data-level reassembly
//! queue and QUIC's lost / received ranges. A sorted `Vec` makes lookups
//! binary searches and front removals `drain(..k)`, which keeps the
//! capacity a loss episode grew.
//!
//! A set is filled by one of two inserts, and the choice is behaviour:
//! [`RangeSet::merge`] coalesces, so the set stays disjoint;
//! [`RangeSet::insert_max`] keys by start and merges nothing, because TCP
//! advertises a receiver's entries as its SACK blocks, one per received
//! segment (DESIGN §11), and the committed figures depend on that.

/// Sequence ranges `[start, end)` sorted by start, with the sum of their
/// lengths kept up to date.
#[derive(Debug, Default)]
pub(crate) struct RangeSet {
    ranges: Vec<(u64, u64)>,
    total: u64,
}

impl RangeSet {
    pub(crate) fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The ranges in start order.
    pub(crate) fn as_slice(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// Sum of `end - start` over the entries.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Coalescing insert: `[start, end)` absorbs every entry it overlaps
    /// or touches. Only for a set filled by `merge` alone, whose entries
    /// are then disjoint and non-adjacent (so their ends are sorted too).
    pub(crate) fn merge(&mut self, start: u64, end: u64) {
        debug_assert!(start <= end);
        let lo = self.ranges.partition_point(|&(_, e)| e < start);
        let hi = self.ranges.partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.ranges.insert(lo, (start, end));
            self.total += end - start;
            return;
        }
        let merged = (start.min(self.ranges[lo].0), end.max(self.ranges[hi - 1].1));
        let absorbed: u64 = self.ranges[lo..hi].iter().map(|&(s, e)| e - s).sum();
        self.total = self.total - absorbed + (merged.1 - merged.0);
        self.ranges[lo] = merged;
        self.ranges.drain(lo + 1..hi);
    }

    /// Keyed insert: the entry starting at `start` ends at the larger of
    /// its end and `end`; nothing is merged.
    pub(crate) fn insert_max(&mut self, start: u64, end: u64) {
        match self.ranges.binary_search_by_key(&start, |&(s, _)| s) {
            Ok(i) => {
                let e = &mut self.ranges[i].1;
                if end > *e {
                    self.total += end - *e;
                    *e = end;
                }
            }
            Err(i) => {
                self.ranges.insert(i, (start, end));
                self.total += end - start;
            }
        }
    }

    /// Move `cursor` through every entry starting at or below it
    /// (transitively), remove those entries and return the new cursor:
    /// what a receiver's in-order point does when a hole fills.
    pub(crate) fn absorb(&mut self, mut cursor: u64) -> u64 {
        let mut k = 0;
        for &(s, e) in &self.ranges {
            if s > cursor {
                break;
            }
            cursor = cursor.max(e);
            self.total -= e - s;
            k += 1;
        }
        self.ranges.drain(..k);
        cursor
    }

    /// Drop everything below `floor`, clipping an entry that straddles
    /// it: what a cumulative ACK does to the sender's scoreboard. Only for
    /// a set filled by `merge`.
    pub(crate) fn trim_below(&mut self, floor: u64) {
        let k = self.ranges.partition_point(|&(_, e)| e <= floor);
        self.total -= self.ranges[..k].iter().map(|&(s, e)| e - s).sum::<u64>();
        self.ranges.drain(..k);
        if let Some(first) = self.ranges.first_mut() {
            if first.0 < floor {
                self.total -= floor - first.0;
                first.0 = floor;
            }
        }
    }

    /// The entry with the greatest start at or below `seq`, if it reaches
    /// past `seq`.
    pub(crate) fn covering(&self, seq: u64) -> Option<(u64, u64)> {
        let i = self.ranges.partition_point(|&(s, _)| s <= seq);
        self.ranges[..i].last().copied().filter(|&(_, e)| e > seq)
    }

    /// The lowest start at or above `seq`.
    pub(crate) fn next_start(&self, seq: u64) -> Option<u64> {
        let i = self.ranges.partition_point(|&(s, _)| s < seq);
        self.ranges.get(i).map(|&(s, _)| s)
    }

    /// Take at most `max` from the front of the lowest entry.
    pub(crate) fn pop_front(&mut self, max: u64) -> Option<(u64, u64)> {
        let first = self.ranges.first_mut()?;
        let (start, end) = (first.0, first.1.min(first.0 + max));
        if end < first.1 {
            first.0 = end;
        } else {
            self.ranges.remove(0);
        }
        self.total -= end - start;
        Some((start, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::push_sack_blocks;
    use cellbricks_net::{TcpFlags, TcpSegment, MAX_SACK_BLOCKS};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// The `BTreeMap` loops `RangeSet` replaced, kept as its oracle.
    #[derive(Default)]
    struct Reference {
        map: BTreeMap<u64, u64>,
        /// The old SACK selection flattened the map here every segment.
        scratch: Vec<(u64, u64)>,
    }

    impl Reference {
        fn merge(&mut self, mut start: u64, mut end: u64) {
            loop {
                let overlap = (self.map.range(..=end).next_back())
                    .filter(|&(_, &e)| e >= start)
                    .map(|(&s, &e)| (s, e));
                match overlap {
                    Some((s, e)) => {
                        self.map.remove(&s);
                        start = start.min(s);
                        end = end.max(e);
                    }
                    None => break,
                }
            }
            self.map.insert(start, end);
        }

        fn insert_max(&mut self, start: u64, end: u64) {
            let entry = self.map.entry(start).or_insert(end);
            *entry = (*entry).max(end);
        }

        fn absorb(&mut self, mut cursor: u64) -> u64 {
            while let Some((&s, &e)) = self.map.range(..=cursor).next_back() {
                if s <= cursor {
                    self.map.remove(&s);
                    cursor = cursor.max(e);
                } else {
                    break;
                }
            }
            cursor
        }

        fn trim_below(&mut self, floor: u64) {
            while let Some((&key, &end)) = self.map.range(..floor).next() {
                self.map.remove(&key);
                if end > floor {
                    self.map.insert(floor, end);
                }
            }
        }

        fn covering(&self, seq: u64) -> Option<(u64, u64)> {
            (self.map.range(..=seq).next_back())
                .filter(|(_, &e)| e > seq)
                .map(|(&s, &e)| (s, e))
        }

        fn next_start(&self, seq: u64) -> Option<u64> {
            self.map.range(seq..).next().map(|(&s, _)| s)
        }

        fn pop_front(&mut self, max: u64) -> Option<(u64, u64)> {
            let (&s, &e) = self.map.iter().next()?;
            let len = (e - s).min(max);
            self.map.remove(&s);
            if s + len < e {
                self.map.insert(s + len, e);
            }
            Some((s, s + len))
        }

        fn push_sack_blocks(
            &mut self,
            seg: &mut TcpSegment,
            recent: Option<u64>,
            rotate: &mut usize,
        ) {
            if let Some(recent) = recent {
                if let Some((&rs, &re)) = self.map.range(..=recent).next_back() {
                    if re > recent {
                        seg.push_sack(rs, re);
                    }
                }
            }
            if !self.map.is_empty() {
                self.scratch.clear();
                self.scratch.extend(self.map.iter().map(|(&s, &e)| (s, e)));
                let n = self.scratch.len();
                let mut idx = *rotate;
                for _ in 0..n {
                    if seg.sack_len() >= MAX_SACK_BLOCKS {
                        break;
                    }
                    let block = self.scratch[idx % n];
                    if !seg.sack_blocks().any(|b| b == block) {
                        seg.push_sack(block.0, block.1);
                    }
                    idx += 1;
                }
                *rotate = idx % n.max(1);
            }
        }

        fn contents(&self) -> Vec<(u64, u64)> {
            self.map.iter().map(|(&s, &e)| (s, e)).collect()
        }
    }

    /// Which caller's operation mix a case drives.
    #[derive(Clone, Copy, Debug)]
    enum Mix {
        /// TCP sender: SACK blocks merged above `snd_una`, cumulative-ACK
        /// trims, hole-scan lookups.
        Scoreboard,
        /// TCP / MPTCP receiver: arrivals absorbed at the in-order point or
        /// queued by start, SACK blocks picked from the queue.
        Reassembly,
        /// QUIC received stream / packet ranges: merged above the in-order
        /// point, then absorbed.
        QuicReceive,
        /// QUIC lost ranges: merged, popped an MTU at a time from the front.
        QuicLost,
    }

    fn arb_mix() -> impl Strategy<Value = Mix> {
        prop_oneof![
            Just(Mix::Scoreboard),
            Just(Mix::Reassembly),
            Just(Mix::QuicReceive),
            Just(Mix::QuicLost),
        ]
    }

    fn points(ranges: &[(u64, u64)]) -> BTreeSet<u64> {
        ranges.iter().flat_map(|&(s, e)| s..e).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every caller's operation mix leaves `RangeSet` and the old
        /// `BTreeMap` loops with the same entries and the same answers;
        /// the running total matches a recount; a coalesced set stays
        /// disjoint, non-adjacent and covers exactly the points a
        /// brute-force model holds; and the SACK blocks picked by index
        /// match the old flatten-and-rotate, block for block.
        #[test]
        fn prop_matches_btreemap_reference(
            mix in arb_mix(),
            ops in proptest::collection::vec((0u8..4, 0u64..400, 1u64..48), 0..160),
        ) {
            let mut set = RangeSet::default();
            let mut reference = Reference::default();
            let mut model = BTreeSet::new();
            // `snd_una`, `rcv_nxt` or the QUIC in-order point.
            let mut cursor = 0u64;
            let mut recent = None;
            let (mut rotate, mut ref_rotate) = (0usize, 0usize);
            for (kind, at, len) in ops {
                let (start, end) = (at, at + len);
                match (mix, kind) {
                    (Mix::Scoreboard, 0 | 1) => {
                        if end > cursor {
                            set.merge(start.max(cursor), end);
                            reference.merge(start.max(cursor), end);
                            model.extend(start.max(cursor)..end);
                        }
                    }
                    (Mix::Scoreboard, 2) => {
                        cursor = cursor.max(at);
                        set.trim_below(cursor);
                        reference.trim_below(cursor);
                        model.retain(|&p| p >= cursor);
                    }
                    (Mix::Reassembly, 0 | 1) if end > cursor => {
                        if start <= cursor {
                            cursor = set.absorb(end);
                            prop_assert_eq!(cursor, reference.absorb(end));
                        } else {
                            set.insert_max(start, end);
                            reference.insert_max(start, end);
                            recent = Some(start);
                        }
                    }
                    (Mix::Reassembly, 0 | 1) => {}
                    (Mix::Reassembly, 2) => {
                        let mut seg = TcpSegment::new(1, 2, TcpFlags::ACK);
                        seg.ack = cursor;
                        let mut ref_seg = seg.clone();
                        push_sack_blocks(&mut seg, &set, recent, &mut rotate);
                        reference.push_sack_blocks(&mut ref_seg, recent, &mut ref_rotate);
                        prop_assert_eq!(
                            seg.sack_blocks().collect::<Vec<_>>(),
                            ref_seg.sack_blocks().collect::<Vec<_>>()
                        );
                        prop_assert_eq!(rotate, ref_rotate);
                    }
                    (Mix::Scoreboard | Mix::Reassembly, _) => {
                        prop_assert_eq!(set.covering(at), reference.covering(at));
                        prop_assert_eq!(set.next_start(at), reference.next_start(at));
                    }
                    (Mix::QuicReceive, _) => {
                        if end > cursor {
                            set.merge(start.max(cursor), end);
                            reference.merge(start.max(cursor), end);
                            model.extend(start.max(cursor)..end);
                            let next = set.absorb(cursor);
                            prop_assert_eq!(next, reference.absorb(cursor));
                            model.retain(|&p| p >= next);
                            cursor = next;
                        }
                    }
                    (Mix::QuicLost, 3) => {
                        let popped = set.pop_front(len);
                        prop_assert_eq!(popped, reference.pop_front(len));
                        if let Some((s, e)) = popped {
                            prop_assert!(s < e && e - s <= len);
                            model.retain(|p| !(s..e).contains(p));
                        }
                    }
                    (Mix::QuicLost, _) => {
                        set.merge(start, end);
                        reference.merge(start, end);
                        model.extend(start..end);
                    }
                }
                let entries = set.as_slice();
                prop_assert_eq!(entries, &reference.contents()[..]);
                prop_assert_eq!(set.is_empty(), entries.is_empty());
                prop_assert_eq!(set.total(), entries.iter().map(|&(s, e)| e - s).sum::<u64>());
                if !matches!(mix, Mix::Reassembly) {
                    for w in entries.windows(2) {
                        prop_assert!(w[0].1 < w[1].0, "not disjoint: {entries:?}");
                    }
                    prop_assert!(entries.iter().all(|&(s, e)| s < e));
                    prop_assert_eq!(&points(entries), &model);
                }
            }
        }
    }
}
