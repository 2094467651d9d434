//! A round's recorded block size is the size its blocks were cut at.
//!
//! The collector packs one block per engine shard, so a non-default
//! `shard_size` cuts non-default blocks. The snapshot and its round file
//! must record that size: the classified view locates a rank's column by
//! dividing by it.

use remnant_core::collector::{RecordCollector, Target};
use remnant_core::{BehaviorDetector, SpillConfig};
use remnant_engine::{EngineConfig, ScanEngine};
use remnant_net::Region;
use remnant_query::{ClassifiedStore, SnapshotStore};
use remnant_world::{World, WorldConfig};

#[test]
fn spilled_block_size_follows_the_shard_plan() {
    let world = World::generate(WorldConfig::new(300, 23));
    let targets: Vec<Target> = world
        .sites()
        .iter()
        .map(|s| (s.apex.clone(), s.www.clone()))
        .collect();
    // 32-site shards: 32-site blocks.
    let engine = ScanEngine::new(EngineConfig {
        workers: 2,
        shard_size: 32,
        seed: 23,
    });
    let dir = std::env::temp_dir().join(format!("remnant-block-layout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
    let (snapshot, _) = collector
        .collect_spilled(&engine, &world, &targets, 0, &SpillConfig::new(&dir))
        .expect("spill round succeeds");

    let store = SnapshotStore::open(&dir).expect("store opens");
    let classified = ClassifiedStore::build(&store);
    let round = &classified.rounds()[0];
    let raw = BehaviorDetector::new().classify_snapshot(&snapshot);
    // The second block, where a wrong size first goes astray, then all.
    for (rank, class) in raw.iter().enumerate().skip(32).take(32) {
        assert_eq!(round.class_at(rank), *class, "rank {rank}");
    }
    for (rank, class) in raw.iter().enumerate() {
        assert_eq!(round.class_at(rank), *class, "rank {rank}");
    }
    assert_eq!(snapshot.block_size(), 32);
    assert_eq!(store.block_size(), 32);
    let _ = std::fs::remove_dir_all(&dir);
}
