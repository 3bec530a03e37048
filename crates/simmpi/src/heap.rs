//! Four-ary min-heap for the event scheduler's run queue.
//!
//! Once group wake-ups are batched (see [`crate::sched`]), the run queue
//! only carries per-rank wake-ups: compute slices and p2p receives. A
//! microbenchmark (since removed) measured three candidates on that
//! access pattern — the old
//! `BinaryHeap<Reverse<(VirtualTime, usize, u64)>>`, this four-ary heap,
//! and a bucketed calendar queue. The calendar queue loses by 30–100×
//! (the schedule's instants cluster so tightly that bucket scans
//! dominate); the four-ary heap and the binary heap are within a few
//! percent of each other at 4,096–16,384 entries (the whole queue fits
//! in L2, so the four-ary layout's cache advantage doesn't bite yet).
//! The four-ary heap is kept for its halved depth — the gap widens in
//! its favor as worlds outgrow cache — and for the tighter contract
//! below (generation excluded from the ordering key). See DESIGN.md §14.
//!
//! Ordering is by `(at, rank)` only. The generation is payload: the
//! scheduler's staleness check (`gen != gens[rank]`) makes popping two
//! entries for the same `(at, rank)` in either order equivalent, so the
//! heap does not need to (and deliberately does not) order on it.

use cluster_sim::time::VirtualTime;

/// One scheduled wake-up: rank `rank` resumes at instant `at`, valid only
/// if `gen` still matches the scheduler's per-rank generation counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeapEntry {
    /// Wake-up instant.
    pub at: VirtualTime,
    /// Rank to resume.
    pub rank: u32,
    /// Scheduler generation stamp (staleness payload, not an order key).
    pub gen: u64,
}

impl HeapEntry {
    /// Ordering key packed into one integer: `(at, rank)` compares as a
    /// single u128, which sifts measurably faster than tuple comparison.
    #[inline]
    fn key(&self) -> u128 {
        ((self.at.0 as u128) << 32) | self.rank as u128
    }
}

/// Four-ary min-heap ordered by `(at, rank)`.
#[derive(Debug, Default)]
pub struct FourAryHeap {
    items: Vec<HeapEntry>,
}

impl FourAryHeap {
    /// An empty heap.
    pub fn new() -> Self {
        FourAryHeap { items: Vec::new() }
    }

    /// An empty heap with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        FourAryHeap {
            items: Vec::with_capacity(cap),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The minimum entry, if any.
    #[inline]
    pub fn peek(&self) -> Option<&HeapEntry> {
        self.items.first()
    }

    /// Insert an entry.
    #[inline]
    pub fn push(&mut self, e: HeapEntry) {
        self.items.push(e);
        self.sift_up(self.items.len() - 1);
    }

    /// Remove and return the minimum entry.
    pub fn pop(&mut self) -> Option<HeapEntry> {
        let n = self.items.len();
        match n {
            0 => None,
            1 => self.items.pop(),
            _ => {
                self.items.swap(0, n - 1);
                let top = self.items.pop();
                self.sift_down(0);
                top
            }
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.items[i];
        let e_key = e.key();
        while i > 0 {
            let parent = (i - 1) >> 2;
            if self.items[parent].key() <= e_key {
                break;
            }
            self.items[i] = self.items[parent];
            i = parent;
        }
        self.items[i] = e;
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.items.len();
        let e = self.items[i];
        let e_key = e.key();
        loop {
            let first = (i << 2) + 1;
            if first >= n {
                break;
            }
            // Smallest of up to four children; the slice lets the bounds
            // checks fold into one.
            let children = &self.items[first..(first + 4).min(n)];
            let mut min = first;
            let mut min_key = children[0].key();
            for (off, child) in children.iter().enumerate().skip(1) {
                let k = child.key();
                if k < min_key {
                    min = first + off;
                    min_key = k;
                }
            }
            if e_key <= min_key {
                break;
            }
            self.items[i] = self.items[min];
            i = min;
        }
        self.items[i] = e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(at: u64, rank: u32, gen: u64) -> HeapEntry {
        HeapEntry {
            at: VirtualTime(at),
            rank,
            gen,
        }
    }

    #[test]
    fn pops_in_instant_then_rank_order() {
        let mut h = FourAryHeap::new();
        for entry in [e(30, 1, 0), e(10, 2, 0), e(10, 0, 0), e(20, 5, 0)] {
            h.push(entry);
        }
        let order: Vec<_> = std::iter::from_fn(|| h.pop())
            .map(|x| (x.at.0, x.rank))
            .collect();
        assert_eq!(order, vec![(10, 0), (10, 2), (20, 5), (30, 1)]);
        assert!(h.is_empty());
    }

    #[test]
    fn matches_binary_heap_on_random_sequences() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // Deterministic xorshift stream; interleave pushes and pops.
        let mut h = FourAryHeap::new();
        let mut oracle: BinaryHeap<Reverse<(VirtualTime, u32, u64)>> = BinaryHeap::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for step in 0..10_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if !x.is_multiple_of(3) || oracle.is_empty() {
                let at = VirtualTime(x % 1000);
                let rank = (x >> 10) as u32 % 64;
                h.push(e(at.0, rank, step));
                oracle.push(Reverse((at, rank, step)));
            } else {
                let got = h.pop().unwrap();
                let Reverse((at, rank, _)) = oracle.pop().unwrap();
                // Generations may differ when (at, rank) ties: both orders
                // are valid for the scheduler (staleness check disambiguates),
                // so compare the ordering key only — but keep the oracle's
                // multiset consistent by requiring the key to match exactly.
                assert_eq!((got.at, got.rank), (at, rank), "step {step}");
            }
            assert_eq!(h.len(), oracle.len());
        }
    }
}
