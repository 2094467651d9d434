//! A shared worker-thread budget for engines that coexist in one process.
//!
//! A multi-tenant service runs many sweeps concurrently; if every session
//! spawned its configured `workers` threads the process would oversubscribe
//! the machine by the session count. A [`WorkerPool`] is the service-wide
//! budget: each sweep acquires a grant for the threads it wants, gets at
//! most what is currently free — but always at least one, so a sweep can
//! never deadlock waiting on a sibling — and returns the budget when the
//! sweep finishes (the grant's `Drop`). A grant counts the thread that
//! calls the sweep: a grant of `k` runs the caller plus `k - 1` spawned
//! helpers, so a grant of one spawns no thread at all.
//!
//! The pool only shapes *parallelism*, never *results*: by the engine's
//! determinism contract the merged sweep output is byte-identical for any
//! worker count, so a grant smaller than requested changes wall clock and
//! nothing else.

use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

/// A process-wide worker-thread budget shared by concurrent sweeps.
#[derive(Debug)]
pub struct WorkerPool {
    /// Threads currently unclaimed. May go negative transiently: a sweep
    /// is always granted at least one thread even when the pool is
    /// exhausted, so total oversubscription is bounded by the number of
    /// concurrently running sweeps.
    available: AtomicIsize,
    capacity: usize,
}

impl WorkerPool {
    /// A pool with a total budget of `capacity` worker threads (≥ 1).
    pub fn new(capacity: usize) -> Arc<Self> {
        let capacity = capacity.max(1);
        Arc::new(WorkerPool {
            available: AtomicIsize::new(capacity as isize),
            capacity,
        })
    }

    /// The pool's total budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Threads currently unclaimed (clamped at 0 when oversubscribed).
    pub fn available(&self) -> usize {
        self.available.load(Ordering::Acquire).max(0) as usize
    }

    /// Claims up to `want` threads: the grant holds `min(want, free)` but
    /// never less than one. Returns immediately — a sweep shrinks rather
    /// than waits.
    pub fn acquire(self: &Arc<Self>, want: usize) -> PoolGrant {
        let want = want.max(1);
        let mut avail = self.available.load(Ordering::Acquire);
        loop {
            let take = want.min(avail.max(1) as usize);
            match self.available.compare_exchange_weak(
                avail,
                avail - take as isize,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    return PoolGrant {
                        pool: Arc::clone(self),
                        granted: take,
                    }
                }
                Err(current) => avail = current,
            }
        }
    }
}

/// A claim on pool threads; returns them on drop.
#[derive(Debug)]
pub struct PoolGrant {
    pool: Arc<WorkerPool>,
    granted: usize,
}

impl PoolGrant {
    /// Threads this grant holds (≥ 1).
    pub fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for PoolGrant {
    fn drop(&mut self) {
        self.pool
            .available
            .fetch_add(self.granted as isize, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_what_is_free_and_takes_it_back_on_drop() {
        let pool = WorkerPool::new(8);
        let a = pool.acquire(6);
        assert_eq!(a.granted(), 6);
        assert_eq!(pool.available(), 2);
        let b = pool.acquire(6);
        assert_eq!(b.granted(), 2, "second sweep shrinks to what is left");
        assert_eq!(pool.available(), 0);
        drop(a);
        assert_eq!(pool.available(), 6);
        drop(b);
        assert_eq!(pool.available(), 8);
    }

    #[test]
    fn exhausted_pool_still_grants_one_thread() {
        let pool = WorkerPool::new(2);
        let a = pool.acquire(2);
        assert_eq!(a.granted(), 2);
        let b = pool.acquire(4);
        assert_eq!(b.granted(), 1, "progress beats starvation");
        assert_eq!(pool.available(), 0, "clamped view of a negative balance");
        drop(b);
        drop(a);
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn zero_capacity_is_promoted_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.capacity(), 1);
        assert_eq!(pool.acquire(3).granted(), 1);
    }
}
