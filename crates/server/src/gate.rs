//! The compute gate: backpressure for requests that need computing —
//! not response-cache hits, and not `/query` specs the query engine's
//! LRU already holds or refuses (the connection thread parses the spec
//! and looks it up before it enters the gate).
//!
//! Connection threads compute their own requests, so the gate is what
//! bounds compute concurrency: at most `limit` requests compute at
//! once ([`ServerConfig::workers`](crate::ServerConfig)), at most
//! `backlog` more wait for a slot, and [`Gate::enter`] refuses the rest
//! at once so the caller can answer `503 server saturated` instead of
//! queueing unboundedly.

use std::sync::{Condvar, Mutex, PoisonError};

use crate::lock;

/// Counts requests computing and waiting; see the module docs.
#[derive(Debug)]
pub(crate) struct Gate {
    limit: usize,
    backlog: usize,
    slots: Mutex<Slots>,
    freed: Condvar,
}

#[derive(Debug, Default)]
struct Slots {
    running: usize,
    waiting: usize,
}

/// A held compute slot; dropping it frees the slot for the next waiter.
pub(crate) struct Permit<'a>(&'a Gate);

impl Gate {
    /// A gate admitting `limit` (at least 1) computes plus `backlog`
    /// waiters.
    pub fn new(limit: usize, backlog: usize) -> Gate {
        Gate {
            limit: limit.max(1),
            backlog,
            slots: Mutex::default(),
            freed: Condvar::new(),
        }
    }

    /// Takes a slot, waiting for one while the backlog has room; `None`
    /// when every slot is busy and the backlog is full.
    pub fn enter(&self) -> Option<Permit<'_>> {
        let mut slots = lock(&self.slots);
        if slots.running >= self.limit {
            if slots.waiting >= self.backlog {
                return None;
            }
            slots.waiting += 1;
            while slots.running >= self.limit {
                slots = self
                    .freed
                    .wait(slots)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            slots.waiting -= 1;
        }
        slots.running += 1;
        Some(Permit(self))
    }

    /// Requests waiting for a slot right now.
    #[cfg(test)]
    pub fn waiting(&self) -> usize {
        lock(&self.slots).waiting
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        lock(&self.0.slots).running -= 1;
        self.0.freed.notify_one();
    }
}
