//! An allocation budget for one collection round.
//!
//! Each site-round resolves the `www` host's A records and the apex's NS
//! records: a root referral, a hosting or provider answer, and the apex NS
//! answer. Every one of those sections holds at most two records, and a
//! record set that small is a value, so answering, caching and returning
//! them allocates nothing. What is left is each shard's resolver cache and
//! block, and the growth of the block's columns, which each site's row is
//! appended to. Moving two-record sets back onto the heap, building a
//! `Vec` and then copying it into a set, re-grouping glue through a map,
//! or building per-site record `Vec`s before copying them into the block
//! would each add allocations. This test pins the budget so those copies
//! do not creep back.
//!
//! The counting allocator sees the whole process, so this file holds
//! exactly one test: no other test may allocate concurrently in this
//! binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use remnant_core::collector::{RecordCollector, Target};
use remnant_engine::{EngineConfig, ScanEngine};
use remnant_net::Region;
use remnant_world::{World, WorldConfig};

/// Allocations (fresh or grown) allowed per collected site-round.
const BUDGET_PER_SITE_ROUND: f64 = 1.0;

/// Counts every allocation and reallocation, then defers to the system.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn collection_round_stays_within_allocation_budget() {
    let mut world = World::generate(WorldConfig::small(7));
    world.step_days(1);
    let targets: Vec<Target> = world
        .sites()
        .iter()
        .map(|s| (s.apex.clone(), s.www.clone()))
        .collect();
    let engine = ScanEngine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);

    let (allocations_before, bytes_before) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let (snapshot, stats) = collector.collect_with(&engine, &world, &targets, 0);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations_before;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes_before;

    assert_eq!(snapshot.len(), targets.len());
    assert!(stats.items() > 0, "the round resolved something");
    let sites = targets.len() as f64;
    let per_site = allocations as f64 / sites;
    assert!(
        per_site <= BUDGET_PER_SITE_ROUND,
        "collection made {per_site:.2} allocations ({:.0} bytes) per site-round, \
         budget {BUDGET_PER_SITE_ROUND}",
        bytes as f64 / sites
    );
}
