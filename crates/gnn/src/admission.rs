//! Work-conserving admission queue — the many-clients front half of the
//! serving daemon.
//!
//! Concurrent connection handlers [`AdmissionQueue::push`] jobs as they
//! arrive; a single batcher thread pulls batches with
//! [`AdmissionQueue::next_batch`]. The one rule is that nothing ready to
//! run waits: `next_batch` blocks only while the queue is empty, and once
//! anything is queued it takes everything queued, up to the queue's
//! `max_weight` (graphs, for the daemon), at once. A lone request
//! therefore dispatches immediately, and requests that arrive while a
//! batch runs coalesce into the next one, so batches grow with load on
//! their own — no timer is involved.
//!
//! Items are never split across batches and always dispatch in FIFO
//! arrival order, so a multi-graph request stays one atomic unit (the
//! hot-swap "no mixed-model response" guarantee builds on this). Batch
//! *composition* depends on arrival timing, but downstream arithmetic does
//! not: [`crate::predict_heads`] is bit-identical for any batch
//! shape, which is what makes coalescing safe under the workspace's
//! determinism invariant (`docs/ARCHITECTURE.md` shows where this sits in
//! the daemon's request lifecycle).
//!
//! # Examples
//!
//! ```
//! use pg_gnn::AdmissionQueue;
//!
//! let q = AdmissionQueue::new(32);
//! q.push("first", 4);
//! q.push("second", 2);
//! // Both are queued, so both dispatch together, without waiting.
//! assert_eq!(q.next_batch(), Some(vec!["first", "second"]));
//! q.close();
//! assert_eq!(q.next_batch(), None);
//! ```

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

struct Queued<T> {
    item: T,
    weight: usize,
}

struct State<T> {
    items: VecDeque<Queued<T>>,
    closed: bool,
}

/// A thread-safe admission queue that hands out everything queued, up to
/// a weight cap, as one batch. See the module docs for the dispatch rule.
pub struct AdmissionQueue<T> {
    max_weight: usize,
    state: Mutex<State<T>>,
    cv: Condvar,
}

impl<T> AdmissionQueue<T> {
    /// An empty queue whose batches hold at most `max_weight` (unless one
    /// item alone is heavier).
    ///
    /// # Panics
    ///
    /// Panics if `max_weight` is zero.
    pub fn new(max_weight: usize) -> Self {
        assert!(max_weight > 0, "max batch weight must be positive");
        AdmissionQueue {
            max_weight,
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // A poisoned mutex means a producer panicked while holding the
        // lock; the queue state itself (a VecDeque + a flag) is still
        // coherent, and a daemon must keep serving the other connections.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits an item with the given weight (clamped to at least 1).
    /// Returns `false` — without enqueueing — once the queue is closed.
    pub fn push(&self, item: T, weight: usize) -> bool {
        let mut st = self.lock();
        if st.closed {
            return false;
        }
        st.items.push_back(Queued {
            item,
            weight: weight.max(1),
        });
        drop(st);
        self.cv.notify_one();
        true
    }

    /// Closes the queue: pending items still drain as batches, further
    /// pushes are rejected, and [`AdmissionQueue::next_batch`] returns
    /// `None` once empty.
    pub fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    /// `true` once [`AdmissionQueue::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Items currently queued (diagnostics only; racy by nature).
    pub fn pending(&self) -> usize {
        self.lock().items.len()
    }

    /// Blocks while the queue is empty, then returns everything queued up
    /// to `max_weight`, in FIFO order — or `None` once the queue is closed
    /// and drained. A batch holds at least one item; items are never
    /// split, so one oversized item dispatches alone.
    pub fn next_batch(&self) -> Option<Vec<T>> {
        let mut st = self.lock();
        while st.items.is_empty() {
            if st.closed {
                return None;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        let mut batch = Vec::new();
        let mut weight = 0usize;
        while let Some(front) = st.items.front() {
            if !batch.is_empty() && weight + front.weight > self.max_weight {
                break;
            }
            let Some(q) = st.items.pop_front() else {
                break;
            };
            weight += q.weight;
            batch.push(q.item);
        }
        Some(batch)
    }
}

impl<T> std::fmt::Debug for AdmissionQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionQueue")
            .field("max_weight", &self.max_weight)
            .field("pending", &self.pending())
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lone_item_dispatches_without_waiting() {
        // Far below max_weight, and nothing else will ever arrive: the
        // item must come straight back (a wait here would hang the test).
        let q = AdmissionQueue::new(1_000);
        q.push(7u32, 1);
        assert_eq!(q.next_batch(), Some(vec![7]));
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn queued_items_coalesce_up_to_max_weight() {
        let q = AdmissionQueue::new(4);
        for c in ['a', 'b', 'c', 'd', 'e', 'f'] {
            q.push(c, 1);
        }
        assert_eq!(q.next_batch(), Some(vec!['a', 'b', 'c', 'd']));
        assert_eq!(q.next_batch(), Some(vec!['e', 'f']));
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn items_are_never_split_and_stay_fifo() {
        let q = AdmissionQueue::new(4);
        q.push("first", 3);
        q.push("second", 3);
        q.push("third", 1);
        q.close();
        // 3 + 3 > 4: the second item must wait for the next batch.
        assert_eq!(q.next_batch(), Some(vec!["first"]));
        assert_eq!(q.next_batch(), Some(vec!["second", "third"]));
        assert_eq!(q.next_batch(), None);
    }

    #[test]
    fn oversized_item_dispatches_alone() {
        let q = AdmissionQueue::new(4);
        q.push("huge", 100);
        q.push("next", 1);
        q.close();
        assert_eq!(q.next_batch(), Some(vec!["huge"]));
        assert_eq!(q.next_batch(), Some(vec!["next"]));
        assert_eq!(q.next_batch(), None);
    }

    #[test]
    fn close_rejects_pushes_and_drains() {
        let q = AdmissionQueue::new(8);
        assert!(q.push(1, 1));
        q.close();
        assert!(!q.push(2, 1), "closed queue must reject pushes");
        assert_eq!(q.next_batch(), Some(vec![1]));
        assert_eq!(q.next_batch(), None);
        assert_eq!(q.next_batch(), None, "stays None after drain");
    }

    #[test]
    fn zero_weight_counts_as_one() {
        let q = AdmissionQueue::new(2);
        q.push('x', 0);
        q.push('y', 0);
        assert_eq!(q.next_batch(), Some(vec!['x', 'y']));
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let q = Arc::new(AdmissionQueue::new(8));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        assert!(q.push(p * 1000 + i, 1));
                    }
                })
            })
            .collect();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(batch) = q.next_batch() {
                    assert!(batch.len() <= 8, "batch overflow: {}", batch.len());
                    seen.extend(batch);
                }
                seen
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut seen = consumer.join().unwrap();
        seen.sort_unstable();
        let mut expect: Vec<i32> = (0..4)
            .flat_map(|p| (0..50).map(move |i| p * 1000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    #[should_panic(expected = "max batch weight must be positive")]
    fn zero_max_weight_rejected() {
        AdmissionQueue::<()>::new(0);
    }
}
