//! The pod event loop's pending arrivals: a sorted run plus a heap.
//!
//! The fast engine admits arrivals in exact `(arrival, id)` order — the
//! canonical key the frozen reference engine pops its `BinaryHeap` by —
//! so the queue must reproduce that order bit for bit, not merely a
//! stable arrival order. It holds keys, not requests: `(arrival, id,
//! index)`, where the index points into the engine's trace.
//!
//! Almost every key arrives in order, and goes to the back of a sorted
//! [`VecDeque`]: O(1) push, peek and pop. The engine pushes its input in
//! canonical order behind the feed's watermark, and closed-loop reissues
//! come in completion order, one think time after the clock. Any key
//! below the run's back goes to a [`BinaryHeap`]: a fed request at the
//! watermark's own arrival with a lower id than one already pushed,
//! since the watermark promises `arrival ≥ W`, not `> W`. A pop takes
//! the smaller of the run's front and the heap's top, so the queue is an
//! exact two-way merge whatever the mix of pushes.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A pending arrival: `(arrival, id, index into the engine's trace)`.
/// Ids are unique, so the index never decides the order.
pub(crate) type ArrivalKey = (u64, usize, usize);

/// Exact-ordered arrival queue: pops strictly by `(arrival, id)`.
#[derive(Debug, Default)]
pub(crate) struct ArrivalQueue {
    /// Keys pushed at or after the run's back, in order.
    run: VecDeque<ArrivalKey>,
    /// Every other key.
    heap: BinaryHeap<Reverse<ArrivalKey>>,
}

impl ArrivalQueue {
    pub(crate) fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// The smallest key, O(1).
    fn peek(&self) -> Option<ArrivalKey> {
        let top = self.heap.peek().map(|&Reverse(k)| k);
        match self.run.front() {
            Some(&r) => Some(top.map_or(r, |h| h.min(r))),
            None => top,
        }
    }

    /// Arrival cycle of the exact `(arrival, id)` minimum, O(1).
    pub(crate) fn peek_arrival(&self) -> Option<u64> {
        self.peek().map(|(a, ..)| a)
    }

    /// Inserts `key`: O(1) at or after the run's back, O(log heap)
    /// otherwise.
    pub(crate) fn push(&mut self, key: ArrivalKey) {
        if self.run.back().is_none_or(|&b| key >= b) {
            self.run.push_back(key);
        } else {
            self.heap.push(Reverse(key));
        }
    }

    /// Removes and returns the exact `(arrival, id)` minimum.
    pub(crate) fn pop(&mut self) -> Option<ArrivalKey> {
        match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(Reverse(h))) if h < r => self.heap.pop().map(|Reverse(k)| k),
            (Some(_), _) => self.run.pop_front(),
            (None, _) => self.heap.pop().map(|Reverse(k)| k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A key with its id as the trace index, as a fresh trace has.
    fn key(id: usize, arrival: u64) -> ArrivalKey {
        (arrival, id, id)
    }

    /// Deterministic xorshift — keeps the tests seed-stable without
    /// pulling in an RNG dependency.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self, bound: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % bound
        }
    }

    /// A queue holding all of `keys`, pushed in canonical order as the
    /// pod engine does.
    fn seeded(keys: &[ArrivalKey]) -> ArrivalQueue {
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        let mut q = ArrivalQueue::default();
        for k in sorted {
            q.push(k);
        }
        q
    }

    #[test]
    fn drains_in_exact_key_order() {
        let mut rng = Lcg(0x9E3779B97F4A7C15);
        // Duplicated arrival cycles force the id tie-break.
        let mut keys: Vec<ArrivalKey> = (0..500).map(|id| key(id, rng.next(800))).collect();
        let mut q = seeded(&keys);
        keys.sort_unstable();
        for want in keys {
            assert_eq!(q.peek_arrival(), Some(want.0));
            assert_eq!(q.pop(), Some(want));
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    /// Pops drain everything due by a monotone `now`, and each step then
    /// pushes up to two keys at random cycles after `now`, so a push
    /// often lands below the run's back and takes the heap. Mirrors a
    /// `BinaryHeap` oracle key for key.
    #[test]
    fn interleaved_pushes_match_heap_oracle() {
        let mut rng = Lcg(42);
        let seed: Vec<ArrivalKey> = (0..64).map(|id| key(id, rng.next(64))).collect();
        let mut q = seeded(&seed);
        let mut oracle: BinaryHeap<Reverse<ArrivalKey>> =
            seed.iter().map(|&k| Reverse(k)).collect();

        let (mut now, mut next_id) = (0u64, seed.len());
        let (mut popped, mut heap_max) = (0usize, 0usize);
        for _ in 0..2000 {
            now += rng.next(5000);
            while oracle.peek().is_some_and(|Reverse((a, ..))| *a <= now) {
                let Reverse(want) = oracle.pop().expect("peeked");
                assert_eq!(q.peek_arrival(), Some(want.0));
                assert_eq!(q.pop(), Some(want));
                popped += 1;
            }
            for _ in 0..rng.next(3) {
                let k = key(next_id, now + 1 + rng.next(200_000));
                next_id += 1;
                oracle.push(Reverse(k));
                q.push(k);
            }
            heap_max = heap_max.max(q.heap.len());
            assert_eq!(q.peek_arrival(), oracle.peek().map(|Reverse((a, ..))| *a));
            assert_eq!(q.is_empty(), oracle.is_empty());
        }
        assert!(
            popped > 1000 && heap_max > 10,
            "{popped} pops, heap up to {heap_max}"
        );
    }

    /// A streamed feed pushes canonical batches and drains below each
    /// batch's watermark between them; the queue pops in exact key order
    /// at any batch size.
    #[test]
    fn streamed_pops_are_exact_at_any_width() {
        let mut rng = Lcg(7);
        let mut keys: Vec<ArrivalKey> = (0..400).map(|id| key(id, rng.next(3_000))).collect();
        keys.sort_unstable();
        for chunk in [1, 4, 37, 512] {
            let mut q = ArrivalQueue::default();
            let mut popped = Vec::new();
            for batch in keys.chunks(chunk) {
                for &k in batch {
                    q.push(k);
                }
                // Drain everything strictly before the batch's last
                // arrival, as an engine below that watermark would.
                let w = batch.last().expect("non-empty chunk").0;
                while q.peek_arrival().is_some_and(|a| a < w) {
                    popped.push(q.pop().expect("peeked"));
                }
            }
            while let Some(k) = q.pop() {
                popped.push(k);
            }
            assert_eq!(popped, keys, "batches of {chunk}");
        }
    }

    #[test]
    fn empty_and_single_element() {
        let mut q = seeded(&[]);
        assert!(q.is_empty());
        assert_eq!(q.peek_arrival(), None);
        assert_eq!(q.pop(), None);
        q.push(key(3, 17));
        assert_eq!(q.peek_arrival(), Some(17));
        assert_eq!(q.pop(), Some(key(3, 17)));
        assert!(q.is_empty());
    }

    /// An equal-arrival key with a lower id delivered after a higher one
    /// (a watermark that moved between them) takes the heap path and
    /// still pops first.
    #[test]
    fn lower_id_at_an_equal_arrival_pops_first() {
        let mut q = ArrivalQueue::default();
        q.push(key(5, 100));
        q.push(key(9, 100));
        q.push(key(7, 100));
        assert_eq!(q.heap.len(), 1, "the out-of-order key goes to the heap");
        q.push(key(2, 100));
        assert_eq!(q.peek_arrival(), Some(100));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, id, _)| id)
            .collect();
        assert_eq!(order, [2, 5, 7, 9]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random interleavings of in-order pushes, out-of-order pushes
        /// and pops match a `BinaryHeap` oracle key for key.
        #[test]
        fn matches_a_heap_oracle(seed in 0u64..u64::MAX, n in 0usize..300) {
            let mut rng = Lcg(seed | 1);
            let mut q = ArrivalQueue::default();
            let mut oracle: BinaryHeap<Reverse<ArrivalKey>> = BinaryHeap::new();
            let mut last = 0u64;
            for id in 0..n {
                let x = rng.next(64);
                match rng.next(4) {
                    // In order: at or after the latest pushed arrival.
                    0 | 1 => {
                        last += x % 8;
                        q.push(key(id, last));
                        oracle.push(Reverse(key(id, last)));
                    }
                    // Out of order: any arrival, often below the run's back.
                    2 => {
                        q.push(key(id, x));
                        oracle.push(Reverse(key(id, x)));
                    }
                    _ => {
                        prop_assert_eq!(q.pop(), oracle.pop().map(|Reverse(k)| k));
                    }
                }
                prop_assert_eq!(q.peek_arrival(), oracle.peek().map(|Reverse((a, ..))| *a));
                prop_assert_eq!(q.is_empty(), oracle.is_empty());
            }
            while let Some(Reverse(want)) = oracle.pop() {
                prop_assert_eq!(q.pop(), Some(want));
            }
            prop_assert!(q.is_empty());
        }
    }
}
