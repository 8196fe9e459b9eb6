//! Epoch-swapped snapshot publication.
//!
//! Readers call [`SnapshotStore::load`] once per lookup and get an
//! `Arc<Snapshot>` pinning one consistent generation for as long as
//! they hold it; a reload calls
//! [`SnapshotStore::swap`], which installs the new snapshot for all
//! *future* loads without pausing in-flight readers — traffic never
//! stops, and a reader never observes a half-swapped state. The
//! generation counter is the epoch: every installed snapshot gets the
//! next one, and the server's `serve.snapshot_generation` gauge reports
//! it at start and after each protocol `reload`.
//!
//! The store is a `RwLock<Arc<Snapshot>>` rather than a bare atomic
//! pointer: the lock is held only for the `Arc` clone (load) or the
//! pointer replacement (swap), both allocation-free and nanoseconds
//! long, and the std-only implementation stays `forbid(unsafe_code)`.

use crate::snapshot::Snapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// A shared, hot-swappable handle to the current [`Snapshot`].
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<Snapshot>>,
    generation: AtomicU64,
}

impl SnapshotStore {
    /// Install `snapshot` as generation 1.
    pub fn new(snapshot: Snapshot) -> Self {
        Self {
            current: RwLock::new(Arc::new(snapshot.with_generation(1))),
            generation: AtomicU64::new(1),
        }
    }

    /// The current snapshot. Cheap (one `Arc` clone, no allocation)
    /// and never blocked by a concurrent swap for longer than the
    /// pointer replacement itself.
    pub fn load(&self) -> Arc<Snapshot> {
        // A poisoned lock would mean a reader or swapper panicked while
        // holding it; the guarded value is still a valid Arc, so keep
        // serving rather than propagating the panic.
        let guard = self.current.read().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(&guard)
    }

    /// Install `snapshot` as the next generation and return the handle
    /// now being served. In-flight readers keep their old `Arc`; the
    /// old snapshot is freed when the last of them drops it.
    pub fn swap(&self, snapshot: Snapshot) -> Arc<Snapshot> {
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let fresh = Arc::new(snapshot.with_generation(generation));
        let mut guard = self.current.write().unwrap_or_else(PoisonError::into_inner);
        *guard = Arc::clone(&fresh);
        fresh
    }

    /// The generation currently being served.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{ServeScratch, DEFAULT_THETA};

    #[test]
    fn swap_bumps_generation_and_keeps_old_readers_alive() {
        let output = crate::testutil::tiny_output();
        let store = SnapshotStore::new(Snapshot::build(output, None, DEFAULT_THETA, 0).unwrap());
        assert_eq!(store.generation(), 1);
        let old = store.load();
        assert_eq!(old.generation(), 1);

        let fresh = store.swap(Snapshot::build(output, None, DEFAULT_THETA, 0).unwrap());
        assert_eq!(fresh.generation(), 2);
        assert_eq!(store.generation(), 2);
        assert_eq!(store.load().generation(), 2);

        // The pre-swap reader still holds a fully valid generation-1
        // snapshot and can keep answering queries from it.
        assert_eq!(old.generation(), 1);
        let mut scratch = ServeScratch::new();
        for rec in old.records() {
            assert!(old.lookup(rec.medoid, &mut scratch).is_some());
        }
    }
}
