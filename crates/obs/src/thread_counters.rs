//! Event counters that many threads bump without sharing a cache line.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Slots per counter set. Threads beyond this many share slots, which
/// stays exact (every bump is atomic) and costs only contention.
const SLOTS: usize = 16;

/// One thread's counts, alone on its cache lines. Two lines, because
/// x86's adjacent-line prefetcher fetches lines in pairs.
#[repr(align(128))]
struct Slot<const N: usize>([AtomicU64; N]);

impl<const N: usize> Default for Slot<N> {
    fn default() -> Self {
        Slot(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

/// This thread's slot index, picked round-robin on its first bump.
#[inline]
fn slot_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SLOTS;
    }
    SLOT.with(|slot| *slot)
}

/// `N` event counters bumped through `&self` by any number of threads.
///
/// Each thread bumps only its own slot, so concurrent bumps never write a
/// shared cache line. A read sums the slots; totals are plain sums, so
/// they are the same however the work was spread over threads. Reads see
/// every bump made before them in happens-before order (a joined worker's
/// bumps, for one); the counts publish no other data, so bumps are
/// `Relaxed`.
///
/// # Example
///
/// ```
/// use remnant_obs::ThreadCounters;
///
/// let counters: ThreadCounters<2> = ThreadCounters::default();
/// std::thread::scope(|scope| {
///     for _ in 0..4 {
///         scope.spawn(|| {
///             for _ in 0..100 {
///                 counters.bump(0);
///             }
///             counters.bump(1);
///         });
///     }
/// });
/// assert_eq!(counters.totals(), [400, 4]);
/// ```
pub struct ThreadCounters<const N: usize> {
    slots: [Slot<N>; SLOTS],
}

impl<const N: usize> ThreadCounters<N> {
    /// Adds one to counter `counter`.
    ///
    /// # Panics
    ///
    /// Panics if `counter >= N`.
    #[inline]
    pub fn bump(&self, counter: usize) {
        // The index is already below `SLOTS`; reducing it again proves it,
        // so an inlined bump has no panic path. With one, a caller holding
        // a large value (`World::query`'s pending response) must keep it
        // ready to drop on unwind, which cost more than the bump.
        self.slots[slot_index() % SLOTS].0[counter].fetch_add(1, Ordering::Relaxed);
    }

    /// The total of counter `counter` over every thread.
    ///
    /// # Panics
    ///
    /// Panics if `counter >= N`.
    pub fn get(&self, counter: usize) -> u64 {
        self.slots
            .iter()
            .map(|slot| slot.0[counter].load(Ordering::Relaxed))
            .sum()
    }

    /// Every counter's total, in counter order.
    pub fn totals(&self) -> [u64; N] {
        std::array::from_fn(|counter| self.get(counter))
    }
}

impl<const N: usize> Default for ThreadCounters<N> {
    fn default() -> Self {
        ThreadCounters {
            slots: std::array::from_fn(|_| Slot::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn totals_sum_every_thread_including_threads_past_the_slot_count() {
        let counters: ThreadCounters<3> = ThreadCounters::default();
        let threads = SLOTS + 3;
        let start = Barrier::new(threads);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (counters, start) = (&counters, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..1_000 {
                        counters.bump((t + i) % 3);
                    }
                });
            }
        });
        assert_eq!(
            counters.totals().iter().sum::<u64>(),
            threads as u64 * 1_000
        );
        let expected: [u64; 3] = std::array::from_fn(|c| {
            (0..threads)
                .map(|t| (0..1_000).filter(|i| (t + i) % 3 == c).count() as u64)
                .sum()
        });
        assert_eq!(counters.totals(), expected);
    }
}
