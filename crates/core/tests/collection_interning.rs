//! A collection round must not grow the process-wide name interner.
//!
//! The interner never evicts, so any name the answer path builds while
//! resolving (a `www.`/`dev.`/`mail.` probe that no zone holds) stays
//! allocated for the rest of the process. Answering code compares against
//! names the world already holds instead; this test pins that contract.
//!
//! The count is process-wide, so this file holds exactly one test: no
//! other test may intern names concurrently in this binary.

use remnant_core::collector::{RecordCollector, Target};
use remnant_dns::DomainName;
use remnant_engine::{EngineConfig, ScanEngine};
use remnant_net::Region;
use remnant_world::{World, WorldConfig};

#[test]
fn collection_round_interns_no_names() {
    let mut world = World::generate(WorldConfig::small(7));
    world.step_days(1);
    let targets: Vec<Target> = world
        .sites()
        .iter()
        .map(|s| (s.apex.clone(), s.www.clone()))
        .collect();
    let engine = ScanEngine::new(EngineConfig::default());
    let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);

    let before = DomainName::interned_count();
    let (snapshot, stats) = collector.collect_with(&engine, &world, &targets, 0);
    let after = DomainName::interned_count();

    assert_eq!(snapshot.len(), targets.len());
    assert!(stats.items() > 0, "the round resolved something");
    assert_eq!(
        after,
        before,
        "collection interned {} new names",
        after - before
    );
}
