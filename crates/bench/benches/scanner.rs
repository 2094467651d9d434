//! Measurement-toolkit benchmarks: snapshot collection, fingerprint
//! matching, adoption classification, a fresh block's derivation, the
//! fleet harvest, and the snapshot passes' shard fold.

#[path = "../../core/tests/reference/mod.rs"]
mod reference;

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use remnant::core::adoption::{Adoption, PackedAdoption};
use remnant::core::collector::{RecordCollector, Target};
use remnant::core::residual::cloudflare::fleet_candidates;
use remnant::core::residual::incapsula::token_candidates;
use remnant::core::residual::{
    CloudflareScanner, CLOUDFLARE_NS_FINGERPRINT, INCAPSULA_CNAME_FINGERPRINT,
};
use remnant::core::{
    BehaviorDetector, DerivedColumn, DnsSnapshot, ProviderMatcher, SnapshotPasses,
};
use remnant::net::Region;
use remnant::sim::SimTime;
use remnant::world::{World, WorldConfig};

use reference::ReferencePasses;

/// One round as the fold takes it: when it was taken and its shards.
type Round = (SimTime, Vec<Arc<DerivedColumn>>);

/// Rounds of the shard fold and fleet harvest benches.
const FOLD_ROUNDS: u32 = 14;

/// Fleet hosts the 14 rounds' harvest finds.
const PINNED_FLEET: usize = 267;

fn bench_scanner(c: &mut Criterion) {
    let world = World::generate(WorldConfig {
        population: 2_000,
        seed: 2,
        warmup_days: 0,
        calibration: remnant::world::Calibration::paper(),
    });
    let targets: Vec<Target> = world
        .sites()
        .iter()
        .map(|s| (s.apex.clone(), s.www.clone()))
        .collect();
    let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
    let snapshot = collector.collect(&world, &targets, 0);
    let detector = BehaviorDetector::new();
    let matcher = ProviderMatcher::new();
    let (snapshots, full, delta) = fold_rounds(world.fork(), &targets);

    let mut group = c.benchmark_group("scanner");
    group.throughput(Throughput::Elements(targets.len() as u64));

    group.bench_function("collect_snapshot_2k_sites", |b| {
        let mut day = 1;
        b.iter(|| {
            day += 1;
            collector.collect(&world, &targets, day)
        });
    });

    group.bench_function("classify_snapshot_2k_sites", |b| {
        b.iter(|| detector.classify_snapshot(&snapshot));
    });

    group.bench_function("match_records_2k_sites", |b| {
        b.iter(|| {
            let mut matched = 0usize;
            for loaded in snapshot.blocks() {
                matched += loaded
                    .block
                    .sites()
                    .filter(|site| matcher.match_view(*site).a.is_some())
                    .count();
            }
            matched
        });
    });

    // One site per iteration.
    group.throughput(Throughput::Elements(1));
    group.bench_function("classify_one", |b| {
        let records = (0..snapshot.len())
            .filter_map(|rank| snapshot.site(rank))
            .find(|r| !r.is_empty())
            .expect("resolved site");
        b.iter(|| Adoption::classify(&matcher, &records));
    });

    // One fresh collection block, derived in one walk; first checked
    // against the detector and the two residual record walks.
    let block = &snapshot.blocks().next().expect("a block").block;
    assert_eq!(block.len(), 512);
    let (classes, multi_cdn) = detector.classify_block(block);
    let (fleet_sites, fleet_ns) = fleet_candidates(block, CLOUDFLARE_NS_FINGERPRINT)
        .into_iter()
        .unzip();
    let walked = DerivedColumn {
        classes: classes.iter().map(PackedAdoption::pack).collect(),
        multi_cdn,
        fleet_sites,
        fleet_ns,
        incap_tokens: token_candidates(block, INCAPSULA_CNAME_FINGERPRINT),
    };
    assert_eq!(
        DerivedColumn::derive(block),
        walked,
        "one walk equals the three"
    );
    group.throughput(Throughput::Elements(block.len() as u64));
    group.bench_function("derive_block_512", |b| {
        b.iter(|| DerivedColumn::derive(block));
    });

    // A campaign's steady state: every candidate of 14 rounds is already
    // in the fleet, which is pinned before timing, so each round is the
    // membership probes alone and resolves nothing.
    let mut scanner = CloudflareScanner::new(world.clock(), CLOUDFLARE_NS_FINGERPRINT);
    let harvest = |scanner: &mut CloudflareScanner| {
        for snapshot in &snapshots {
            scanner.harvest_fleet(&world, snapshot);
        }
        scanner.fleet_size()
    };
    assert_eq!(harvest(&mut scanner), PINNED_FLEET, "the harvested fleet");
    group.throughput(Throughput::Elements(
        u64::from(FOLD_ROUNDS) * targets.len() as u64,
    ));
    group.bench_function("harvest_fleet_14_rounds", |b| {
        b.iter(|| harvest(&mut scanner));
    });
    assert_eq!(scanner.fleet_size(), PINNED_FLEET, "no host joined");
    group.finish();

    // The shard fold over a campaign: every shard new each round (full
    // collection), or every other shard chained from the previous round
    // (delta). Both are first checked against the per-site reference.
    let mut group = c.benchmark_group("passes");
    group.throughput(Throughput::Elements(
        u64::from(FOLD_ROUNDS) * targets.len() as u64,
    ));
    for (name, rounds) in [
        ("fold_full_14x2k_sites", &full),
        ("fold_delta_14x2k_sites", &delta),
    ] {
        assert_eq!(
            format!("{:?}", fold(targets.len(), rounds)),
            format!("{:?}", reference_fold(targets.len(), rounds)),
            "{name}: the shard fold matches the per-site reference"
        );
        group.bench_function(name, |b| b.iter(|| fold(targets.len(), rounds)));
    }
    group.finish();
}

/// `FOLD_ROUNDS` daily rounds of `world`: their snapshots, as
/// full-collection rounds (every shard a fresh column) and as delta
/// rounds, where shard `i` of round `r > 0` is round `r - 1`'s own column
/// whenever `i + r` is even.
fn fold_rounds(mut world: World, targets: &[Target]) -> (Vec<DnsSnapshot>, Vec<Round>, Vec<Round>) {
    let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
    let mut snapshots = Vec::new();
    let mut full: Vec<Round> = Vec::new();
    let mut delta: Vec<Round> = Vec::new();
    for day in 0..FOLD_ROUNDS {
        let snapshot = collector.collect(&world, targets, day);
        let shards: Vec<Arc<DerivedColumn>> = snapshot
            .block_sources()
            .map(|(_, source)| Arc::clone(source.derived()))
            .collect();
        let chained = match delta.last() {
            Some((_, prev)) => shards
                .iter()
                .enumerate()
                .map(|(i, shard)| {
                    if (i + day as usize).is_multiple_of(2) {
                        Arc::clone(&prev[i])
                    } else {
                        Arc::clone(shard)
                    }
                })
                .collect(),
            None => shards.clone(),
        };
        full.push((snapshot.taken_at, shards));
        delta.push((snapshot.taken_at, chained));
        snapshots.push(snapshot);
        world.step_hours(24);
    }
    (snapshots, full, delta)
}

fn fold(sites: usize, rounds: &[Round]) -> remnant::core::SnapshotAggregates {
    let mut passes = SnapshotPasses::new(sites);
    for (day, (taken_at, shards)) in (0..).zip(rounds) {
        passes.observe_shards(day, *taken_at, shards);
    }
    passes.finish()
}

fn reference_fold(sites: usize, rounds: &[Round]) -> remnant::core::SnapshotAggregates {
    let mut passes = ReferencePasses::new(sites);
    for (day, (taken_at, shards)) in (0..).zip(rounds) {
        let mut classes: Vec<Adoption> = Vec::with_capacity(sites);
        let mut multi_cdn = Vec::new();
        for shard in shards {
            multi_cdn.extend(shard.multi_cdn.iter().map(|&i| classes.len() + i as usize));
            classes.extend(shard.classes.iter().map(|c| c.unpack()));
        }
        passes.observe(day, *taken_at, classes, &multi_cdn);
    }
    passes.finish()
}

criterion_group!(benches, bench_scanner);
criterion_main!(benches);
