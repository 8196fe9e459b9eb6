//! Multi-file fixture: deadlock-shaped locking. Covers the inversion
//! pair, same-lock re-acquisition, blocking primitives and a blocking
//! `std::fs` path call under a guard, a lock-taking callee invoked while locked (cross-file, see
//! `store.rs`), and the condvar-wait exemption.

use std::sync::mpsc::Receiver;
use std::sync::{Condvar, Mutex};

pub struct Queue {
    mu: Mutex<Vec<u64>>,
    aux: Mutex<u64>,
    cv: Condvar,
}

impl Queue {
    /// Takes `mu` then `aux`: one half of the inversion pair.
    pub fn push_counted(&self, v: u64) {
        // lint:allow(panic-reachable): fixture mutex is never poisoned
        let mut g = self.mu.lock().unwrap();
        // lint:allow(panic-reachable): fixture mutex is never poisoned
        let mut c = self.aux.lock().unwrap(); //~ lock-order
        g.push(v);
        *c += 1;
    }

    /// Takes `aux` then `mu`: the opposite order — both sides of the
    /// inverted pair are flagged, each citing the other.
    pub fn drain_counted(&self) -> u64 {
        // lint:allow(panic-reachable): fixture mutex is never poisoned
        let mut c = self.aux.lock().unwrap();
        // lint:allow(panic-reachable): fixture mutex is never poisoned
        let mut g = self.mu.lock().unwrap(); //~ lock-order
        let n = g.len() as u64;
        g.clear();
        *c -= n;
        n
    }

    /// Re-acquires the lock its own guard still holds: guaranteed
    /// self-deadlock with std mutexes.
    pub fn double_lock(&self) -> usize {
        // lint:allow(panic-reachable): fixture mutex is never poisoned
        let a = self.mu.lock().unwrap();
        // lint:allow(panic-reachable): fixture mutex is never poisoned
        let b = self.mu.lock().unwrap(); //~ lock-order
        a.len() + b.len()
    }

    /// Blocks on a channel while holding the guard.
    pub fn drain_blocking(&self, rx: &Receiver<u64>) -> u64 {
        // lint:allow(panic-reachable): fixture mutex is never poisoned
        let g = self.mu.lock().unwrap();
        let v = rx.recv().unwrap_or(0); //~ lock-order
        v + g.len() as u64
    }

    /// Reads a file while holding the guard: `fs::read_to_string` is a
    /// blocking path call, not a method.
    pub fn reload_from_disk(&self) -> usize {
        // lint:allow(panic-reachable): fixture mutex is never poisoned
        let g = self.mu.lock().unwrap();
        let text = std::fs::read_to_string("queue.txt").unwrap_or_default(); //~ lock-order
        text.len() + g.len()
    }

    /// Calls a function that takes another lock while `mu` is held —
    /// the callee lives in `store.rs`.
    pub fn reload_under_lock(&self, store: &Store) -> u64 {
        // lint:allow(panic-reachable): fixture mutex is never poisoned
        let g = self.mu.lock().unwrap();
        let v = store.load_snapshot(); //~ lock-order
        drop(g);
        v
    }

    /// `Condvar::wait(guard)` atomically releases its own guard: clean.
    pub fn wait_for_item(&self) -> u64 {
        // lint:allow(panic-reachable): fixture mutex is never poisoned
        let mut g = self.mu.lock().unwrap();
        while g.is_empty() {
            // lint:allow(panic-reachable): fixture mutex is never poisoned
            g = self.cv.wait(g).unwrap();
        }
        g.first().copied().unwrap_or(0)
    }
}
