//! A bounded micro-batching queue that no server path uses.
//!
//! `memes serve`'s connection readers answer their own lookups (one
//! [`SnapshotStore`] load per request, DESIGN.md §12), so nothing in
//! the server pushes to or drains this queue, and
//! `ServerConfig::{queue_max, batch_max}` configure nothing. Its one
//! driver is the benchmark's `serve.queue_handoff_ns` probe, which
//! times a [`BatchQueue::try_push`] / [`BatchQueue::drain_into`] hop;
//! the queue is deleted together with that probe (ROADMAP item 8(b)).
//!
//! [`SnapshotStore`]: crate::SnapshotStore

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Outcome of a [`BatchQueue::try_push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Push {
    /// The item was enqueued.
    Accepted,
    /// The queue is at capacity; the item was rejected.
    Full,
    /// The queue has been closed for shutdown; the item was rejected.
    Closed,
}

/// A blocking bounded MPMC queue with batched draining and shutdown.
#[derive(Debug)]
pub struct BatchQueue<T> {
    inner: Mutex<QueueState<T>>,
    ready: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> Default for BatchQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BatchQueue<T> {
    /// An open, empty, effectively unbounded queue.
    pub fn new() -> Self {
        Self::bounded(usize::MAX)
    }

    /// An open, empty queue holding at most `capacity` items (at least
    /// one; a zero capacity could never admit anything).
    pub fn bounded(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// This queue's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueue one item. Arrivals during shutdown get [`Push::Closed`];
    /// arrivals past `capacity` get [`Push::Full`] — in both cases the
    /// item is dropped, never silently queued forever.
    pub fn try_push(&self, item: T) -> Push {
        let mut state = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if state.closed {
            return Push::Closed;
        }
        if state.items.len() >= self.capacity {
            return Push::Full;
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
        Push::Accepted
    }

    /// Block until at least one item is available (or the queue closes),
    /// then move up to `max` items into `out` (cleared first). Returns
    /// the number drained; `0` means the queue is closed **and** empty —
    /// the worker's signal to exit.
    pub fn drain_into(&self, max: usize, out: &mut Vec<T>) -> usize {
        out.clear();
        let mut state = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if !state.items.is_empty() {
                let take = state.items.len().min(max.max(1));
                out.extend(state.items.drain(..take));
                // More items may remain for a sibling worker.
                if !state.items.is_empty() {
                    self.ready.notify_one();
                }
                return out.len();
            }
            if state.closed {
                return 0;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Close the queue: wake every blocked worker; already-queued items
    /// are still drained, new pushes are rejected.
    pub fn close(&self) {
        let mut state = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        state.closed = true;
        drop(state);
        self.ready.notify_all();
    }

    /// Items currently queued (racy; for metrics and tests).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .items
            .len()
    }

    /// Whether the queue is currently empty (racy; for tests).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn drains_in_batches_up_to_max() {
        let q = BatchQueue::new();
        for i in 0..10 {
            assert_eq!(q.try_push(i), Push::Accepted);
        }
        let mut out = Vec::new();
        assert_eq!(q.drain_into(4, &mut out), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(q.drain_into(100, &mut out), 6);
        assert_eq!(out, vec![4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn close_wakes_workers_and_rejects_pushes() {
        let q: Arc<BatchQueue<u32>> = Arc::new(BatchQueue::new());
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                let mut total = 0;
                loop {
                    let n = q.drain_into(8, &mut out);
                    if n == 0 {
                        return total;
                    }
                    total += n;
                }
            })
        };
        for i in 0..5 {
            assert_eq!(q.try_push(i), Push::Accepted);
        }
        q.close();
        assert_eq!(
            q.try_push(99),
            Push::Closed,
            "pushes after close must be rejected"
        );
        assert_eq!(worker.join().unwrap(), 5);
    }

    #[test]
    fn bounded_queue_rejects_overflow_and_recovers_after_drain() {
        let q = BatchQueue::bounded(2);
        assert_eq!(q.capacity(), 2);
        assert_eq!(q.try_push(1u32), Push::Accepted);
        assert_eq!(q.try_push(2), Push::Accepted);
        assert_eq!(q.try_push(3), Push::Full, "third push must shed");
        assert_eq!(q.len(), 2, "rejected items are not queued");

        let mut out = Vec::new();
        assert_eq!(q.drain_into(1, &mut out), 1);
        assert_eq!(q.try_push(4), Push::Accepted, "room frees after a drain");
        assert_eq!(q.drain_into(10, &mut out), 2);
        assert_eq!(out, vec![2, 4]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let q = BatchQueue::bounded(0);
        assert_eq!(q.capacity(), 1);
        assert_eq!(q.try_push(7u32), Push::Accepted);
        assert_eq!(q.try_push(8), Push::Full);
    }

    #[test]
    fn zero_max_still_makes_progress() {
        let q = BatchQueue::new();
        q.try_push(7u32);
        let mut out = Vec::new();
        assert_eq!(q.drain_into(0, &mut out), 1);
    }
}
