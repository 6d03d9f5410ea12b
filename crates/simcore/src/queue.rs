//! The deterministic event queue.
//!
//! Events are ordered by `(time, class, sequence number)`. The
//! monotonically increasing sequence number gives FIFO delivery for events
//! with identical time and class, which makes simulation results
//! independent of queue internals and therefore reproducible.
//!
//! The queue is one [`std::collections::BinaryHeap`] whose slots carry the
//! whole delivery order packed into a single `u128` key, so each sift step
//! is one integer compare:
//!
//! * bits 64..128 — the time, sign bit flipped so that negative times still
//!   sort before positive ones as unsigned integers,
//! * bits 56..64 — the event-class rank ([`EventClass::rank`]),
//! * bits 0..56 — the insertion sequence number.
//!
//! Because no two keys are equal, the order is total: the same pushes pop
//! in the same sequence whatever the heap's internal layout, which the
//! golden trace hashes in `tests/golden_determinism.rs` pin end to end.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::event::EventClass;
use crate::time::SimTime;

/// Bits of the key holding the insertion sequence number.
const SEQ_BITS: u32 = 56;
/// Flips the time's sign bit: maps `i64` order onto `u64` order.
const SIGN: u64 = 1 << 63;

struct Entry<E> {
    /// `(time, class rank, seq)` packed as described in the module docs.
    key: u128,
    payload: E,
}

impl<E> Entry<E> {
    fn time(&self) -> SimTime {
        SimTime::new(((self.key >> 64) as u64 ^ SIGN) as i64)
    }

    fn class(&self) -> EventClass {
        EventClass::from_rank((self.key >> SEQ_BITS) as u8)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the smallest key
        // on top.
        other.key.cmp(&self.key)
    }
}

/// A priority queue of timestamped events with stable, deterministic order.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue; it allocates on the first push and grows as needed.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `cap` events before it reallocates.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedule `payload` to fire at `time` within ordering `class`.
    ///
    /// Panics after 2^56 pushes, when the sequence number would no longer
    /// fit its bits of the key.
    pub fn push(&mut self, time: SimTime, class: EventClass, payload: E) {
        let seq = self.next_seq;
        assert!(seq >> SEQ_BITS == 0, "event sequence numbers exhausted");
        self.next_seq += 1;
        let hi = time.secs() as u64 ^ SIGN;
        let key = (u128::from(hi) << 64) | (u128::from(class.rank()) << SEQ_BITS) | u128::from(seq);
        self.heap.push(Entry { key, payload });
    }

    /// Time and class of the next event to fire, if any.
    pub fn peek(&self) -> Option<(SimTime, EventClass)> {
        self.heap.peek().map(|e| (e.time(), e.class()))
    }

    /// Remove and return the next event as `(time, class, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, EventClass, E)> {
        self.heap.pop().map(|e| (e.time(), e.class(), e.payload))
    }

    /// Pop *all* events scheduled for the earliest pending instant into
    /// `batch` (in delivery order) and return that instant.
    ///
    /// Returns `None` (leaving `batch` untouched) when the queue is empty.
    pub fn pop_batch(&mut self, batch: &mut Vec<E>) -> Option<SimTime> {
        let first = self.heap.pop()?;
        let (t, instant) = (first.time(), first.key >> 64);
        batch.push(first.payload);
        // One sift per drained event: pop through the peek guard rather
        // than peeking and then popping.
        while let Some(top) = self.heap.peek_mut() {
            if top.key >> 64 != instant {
                break;
            }
            batch.push(PeekMut::pop(top).payload);
        }
        Some(t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: i64) -> SimTime {
        SimTime::new(s)
    }

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), EventClass::Arrival, 3);
        q.push(t(10), EventClass::Arrival, 1);
        q.push(t(20), EventClass::Arrival, 2);
        q.push(t(-5), EventClass::Arrival, 0);
        assert_eq!(drain(&mut q), vec![0, 1, 2, 3]);
    }

    #[test]
    fn class_breaks_time_ties() {
        let mut q = EventQueue::new();
        q.push(t(5), EventClass::Tick, "tick");
        q.push(t(5), EventClass::Arrival, "arrival");
        q.push(t(5), EventClass::Completion, "completion");
        assert_eq!(drain(&mut q), vec!["completion", "arrival", "tick"]);
    }

    #[test]
    fn fifo_within_same_time_and_class() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(7), EventClass::Arrival, i);
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(t(i64::MAX), EventClass::Epilogue, 0);
        assert_eq!(q.peek(), Some((t(i64::MAX), EventClass::Epilogue)));
        assert_eq!(q.len(), 1);
        let (time, class, _) = q.pop().unwrap();
        assert_eq!((time, class), (t(i64::MAX), EventClass::Epilogue));
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
    }
}
