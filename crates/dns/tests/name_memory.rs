//! A memory budget for interned names.
//!
//! Every interned name's payload and text are carved from shared arena
//! chunks, so interning a fresh name makes no allocation of its own: the
//! only allocations are a new chunk now and then and the growth of the
//! intern table. This test pins both the allocation rate and the bytes
//! each name holds, so per-name boxes do not creep back.
//!
//! The counting allocator sees the whole process, so this file holds
//! exactly one test: no other test may allocate concurrently in this
//! binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use remnant_dns::DomainName;

/// Names interned by the test, counting their parents.
const NAMES: usize = 10_000;
/// Allocations (fresh or grown) allowed per interned name.
const ALLOCATIONS_PER_NAME: f64 = 0.05;
/// Live heap bytes allowed per interned name: its 40-byte payload, its
/// text (32 bytes on average here), its intern-table slot and its share
/// of partly used chunks. The probe measured 81.1 B per name; with a box
/// per payload, text and label-offset array it measured 109.8 B in three
/// allocations per name.
const BYTES_PER_NAME: f64 = 88.0;

/// Counts every allocation and reallocation and the bytes live on the
/// heap, then defers to the system.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn interning_fresh_names_stays_within_memory_budget() {
    // Set the interner up, and reserve the probe's spelling buffer, before
    // anything is counted.
    let _ = DomainName::parse("warm-up.name-memory.example").expect("valid name");
    let mut text = String::with_capacity(64);

    let names_before = DomainName::interned_count();
    let (allocations_before, bytes_before) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    );
    // Site-like names: a `www` host under a fresh apex, so each site
    // interns two names, as a generated world's sites do.
    for site in 0..NAMES / 2 {
        text.clear();
        write!(text, "www.site-{site:05}.name-memory.example").expect("a String takes any text");
        let www = DomainName::parse(&text).expect("valid name");
        assert_eq!(www.label_count(), 4);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations_before;
    let bytes = LIVE_BYTES.load(Ordering::Relaxed) - bytes_before;
    let names = DomainName::interned_count() - names_before;

    assert_eq!(names, NAMES, "every probe name is fresh");
    let per_name = allocations as f64 / names as f64;
    let bytes_per_name = bytes as f64 / names as f64;
    assert!(
        per_name <= ALLOCATIONS_PER_NAME,
        "interning made {per_name:.3} allocations per name, budget {ALLOCATIONS_PER_NAME}"
    );
    assert!(
        bytes_per_name <= BYTES_PER_NAME,
        "interning holds {bytes_per_name:.1} bytes per name, budget {BYTES_PER_NAME}"
    );
}
