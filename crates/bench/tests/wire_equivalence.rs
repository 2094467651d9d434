//! The wire-path differential contract: collecting a snapshot through
//! [`WireTransport`] — every query and response serialized to RFC 1035
//! frames and parsed back — must be byte-identical to the in-process
//! path, at any worker count. Any lossy corner of the codec, or any
//! ambient nondeterminism on the wire path, shows up here as a diff.

use remnant::core::RecordCollector;
use remnant::dns::{DnsTransport, DomainName, QueryStats};
use remnant::engine::{EngineConfig, ScanEngine};
use remnant::net::Region;
use remnant::wire::WireTransport;
use remnant::world::{World, WorldConfig};

fn snapshot_with<T: DnsTransport + Sync>(world: &World, transport: &T, workers: usize) -> String {
    let engine = ScanEngine::new(EngineConfig {
        workers,
        shard_size: 128,
        seed: 7,
        ..EngineConfig::default()
    });
    let targets: Vec<(DomainName, DomainName)> = world
        .sites()
        .iter()
        .map(|s| (s.apex.clone(), s.www.clone()))
        .collect();
    let mut collector = RecordCollector::new(world.clock(), Region::Oregon);
    let (snapshot, _stats) = collector.collect_with(&engine, transport, &targets, 0);
    snapshot.encode()
}

#[test]
fn wire_path_is_byte_identical_to_in_process_at_any_worker_count() {
    let world = World::generate(WorldConfig::small(17));

    let in_process_1 = snapshot_with(&world, &world, 1);
    let in_process_8 = snapshot_with(&world, &world, 8);
    assert_eq!(
        in_process_1, in_process_8,
        "in-process path must be worker-count invariant"
    );

    let wire_1_transport = WireTransport::new(&world);
    let wire_1 = snapshot_with(&world, &wire_1_transport, 1);
    let wire_8_transport = WireTransport::new(&world);
    let wire_8 = snapshot_with(&world, &wire_8_transport, 8);

    assert_eq!(
        wire_1, in_process_1,
        "serializing every exchange through the codec changed the snapshot"
    );
    assert_eq!(
        wire_8, in_process_1,
        "wire path diverged from in-process at 8 workers"
    );

    // The codec saw real traffic and never failed.
    let (encoded_1, decoded_1, errors_1) = wire_1_transport.codec_stats();
    let (encoded_8, decoded_8, errors_8) = wire_8_transport.codec_stats();
    assert!(encoded_1 > 0, "wire path actually ran");
    assert_eq!(errors_1, 0, "codec errors on real resolver traffic");
    assert_eq!(errors_8, 0);
    assert_eq!(encoded_1, decoded_1, "every frame produced was parsed back");
    assert_eq!(
        (encoded_1, decoded_1),
        (encoded_8, decoded_8),
        "frame volume must not vary with worker count"
    );

    // Exchange totals match too, at both worker counts.
    let stats_1 = wire_1_transport.query_stats();
    let stats_8 = wire_8_transport.query_stats();
    assert_eq!(stats_1, stats_8);
    assert_ne!(stats_1, QueryStats::default());
}
