//! The live-socket table: one stream clone per admitted connection.
//!
//! The server's pool members are scoped threads of its first member,
//! whose scope joins them; the table only knows which sockets are live
//! (DESIGN.md §12 "Connection lifecycle and overload").
//! [`ConnRegistry::admit`] refuses a connection once `max_conns` are
//! live, and the leading member sheds it typed. The serving member's
//! [`ConnGuard`] frees its slot when the connection ends, also while
//! unwinding. [`ConnRegistry::shutdown_all`] wakes every member parked
//! on a socket for drain. Every change republishes the
//! `serve.connections` gauge; sockets are shut down and the gauge set
//! only outside the table lock.

use meme_metrics::Metrics;
use std::net::{Shutdown, TcpStream};
use std::sync::{Mutex, PoisonError};

/// The live connections, each by id with a clone of its stream.
#[derive(Debug)]
pub struct ConnRegistry {
    table: Mutex<Table>,
    metrics: Metrics,
}

#[derive(Debug, Default)]
struct Table {
    live: Vec<(u64, TcpStream)>,
    next_id: u64,
}

/// A serving member's hold on its slot. Dropping it frees the slot and shuts
/// the socket down: the table's clone would otherwise keep it open,
/// and the peer would never see EOF.
#[derive(Debug)]
pub struct ConnGuard<'r> {
    registry: &'r ConnRegistry,
    id: u64,
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        if let Some(stream) = self.registry.take(self.id) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

impl ConnRegistry {
    /// An empty table publishing `serve.connections` to `metrics`.
    pub fn new(metrics: Metrics) -> Self {
        Self {
            table: Mutex::default(),
            metrics,
        }
    }

    /// Admit `stream` if fewer than `max_conns` are live, keeping one
    /// clone of it for [`shutdown_all`](Self::shutdown_all). `None`
    /// means the connection must be shed; so does a stream that cannot
    /// be cloned, which drain could never wake.
    pub fn admit(&self, stream: &TcpStream, max_conns: usize) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = {
            let mut table = self.table.lock().unwrap_or_else(PoisonError::into_inner);
            if table.live.len() >= max_conns.max(1) {
                return None;
            }
            table.next_id += 1;
            let id = table.next_id;
            table.live.push((id, clone));
            id
        };
        self.publish();
        Some(id)
    }

    /// The guard a member takes before serving slot `id`.
    pub fn guard(&self, id: u64) -> ConnGuard<'_> {
        ConnGuard { registry: self, id }
    }

    /// Take slot `id`'s stream clone out of the table, freeing the
    /// slot: a member's guard when its connection ends, or the leader
    /// when no member could be spawned to lead in its place.
    pub fn take(&self, id: u64) -> Option<TcpStream> {
        let taken = {
            let mut table = self.table.lock().unwrap_or_else(PoisonError::into_inner);
            let at = table.live.iter().position(|(live, _)| *live == id);
            at.map(|at| table.live.swap_remove(at).1)
        };
        self.publish();
        taken
    }

    /// Connections currently live.
    pub fn active(&self) -> usize {
        let table = self.table.lock().unwrap_or_else(PoisonError::into_inner);
        table.live.len()
    }

    /// Empty the table and shut every socket in it down:
    /// `Shutdown::Both` wakes a member parked in `read` or `write` at
    /// once, with no waiting out a timeout.
    pub fn shutdown_all(&self) {
        let live = {
            let mut table = self.table.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut table.live)
        };
        for (_, stream) in live {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.publish();
    }

    /// Set `serve.connections` to the live count. Two members leaving
    /// at once can write their counts out of order, so each re-reads
    /// after writing and writes again if the count moved.
    fn publish(&self) {
        loop {
            let live = self.active();
            self.metrics.gauge("serve.connections", live as f64);
            if self.active() == live {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A loopback socket pair for table tests.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        (client, server_side)
    }

    #[test]
    fn admission_cap_refuses_and_a_dropped_guard_frees_the_slot() {
        let reg = ConnRegistry::new(Metrics::disabled());
        let (_c1, s1) = pair();
        let (_c2, s2) = pair();

        let first = reg.admit(&s1, 1).expect("first connection fits");
        assert_eq!(reg.active(), 1);
        assert!(reg.admit(&s2, 1).is_none(), "cap of 1 refuses the second");

        drop(reg.guard(first));
        assert_eq!(reg.active(), 0);
        let second = reg.admit(&s2, 1).expect("slot freed by the guard");
        assert!(reg.take(second).is_some());
        assert!(reg.take(second).is_none(), "a slot is freed once");
    }

    #[test]
    fn shutdown_all_wakes_a_parked_reader() {
        let reg = ConnRegistry::new(Metrics::disabled());
        let (mut client, mut server_side) = pair();
        reg.admit(&server_side, 8).expect("admit");
        std::thread::scope(|s| {
            // A blocking read with no timeout: only the table's socket
            // shutdown can end it.
            s.spawn(move || while server_side.read(&mut [0u8; 16]).is_ok_and(|n| n > 0) {});
            reg.shutdown_all();
        });
        assert_eq!(reg.active(), 0);
        // The peer sees the shutdown as EOF or reset, not a hang.
        let _ = client.write_all(b"x");
    }

    #[test]
    fn guard_drop_sends_eof_despite_the_table_clone() {
        let reg = ConnRegistry::new(Metrics::disabled());
        let (mut client, server_side) = pair();
        let id = reg.admit(&server_side, 4).expect("admit");
        // The table still holds a live clone; only the guard's
        // shutdown can make the peer see the connection end.
        drop(server_side);
        drop(reg.guard(id));
        let mut buf = [0u8; 8];
        assert_eq!(client.read(&mut buf).unwrap_or(0), 0, "peer sees EOF");
    }

    #[test]
    fn every_change_publishes_the_live_count() {
        let metrics = Metrics::enabled();
        let reg = ConnRegistry::new(metrics.clone());
        let gauge = || metrics.registry().unwrap().snapshot().gauges["serve.connections"];
        let (_c1, s1) = pair();
        let (_c2, s2) = pair();
        let first = reg.admit(&s1, 4).unwrap();
        reg.admit(&s2, 4).unwrap();
        assert_eq!(gauge(), 2.0);
        drop(reg.guard(first));
        assert_eq!(gauge(), 1.0);
        reg.shutdown_all();
        assert_eq!(gauge(), 0.0);
    }
}
