//! Multi-file fixture: the lock-taking callee. `Queue::reload_under_lock`
//! calls [`Store::load_snapshot`] while holding `Queue::mu`; the
//! transitive acquisition of `Store::inner` is what makes that call
//! site a blocking-while-locked finding. This file itself is clean.

use std::sync::Mutex;

pub struct Store {
    inner: Mutex<u64>,
}

impl Store {
    /// Acquires `Store::inner` for the duration of the read.
    pub fn load_snapshot(&self) -> u64 {
        // lint:allow(panic-reachable): fixture mutex is never poisoned
        *self.inner.lock().unwrap()
    }
}
