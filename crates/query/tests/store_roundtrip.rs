//! The store's core contract, end to end: a spill directory left behind
//! by a campaign reopens into the exact snapshot sequence the campaign
//! produced (byte-identical text dumps, identical derived columns), query
//! plans over the store reproduce the live study's reports without
//! reading a byte after open, and a damaged directory — a missing or
//! duplicated round, a header whose plan the frames present do not back —
//! fails with a typed error at open instead of allocating from the
//! header.

use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use remnant_core::spill::SpillWriter;
use remnant_core::study::{CollectionMode, StudyConfig, StudyReport};
use remnant_core::{BlockSource, DnsSnapshot, SiteRecords, SpillConfig, SpillMeta, StudySession};
use remnant_query::{
    PassesPlan, PlanContext, ResidualScanPlan, RoundKind, SnapshotStore, StoreError,
};
use remnant_sim::SimTime;
use remnant_world::{World, WorldConfig};

const POPULATION: usize = 1_200;
const WEEKS: u32 = 2;
const SEED: u64 = 23;

/// Runs one campaign, capturing every daily snapshot. With a tag, rounds
/// spill to a fresh temp directory whose path is returned.
fn run_campaign(
    mode: CollectionMode,
    workers: usize,
    spill_tag: Option<&str>,
) -> (Vec<DnsSnapshot>, StudyReport, Option<PathBuf>) {
    let mut config = StudyConfig::builder()
        .weeks(WEEKS)
        .seed(SEED)
        .workers(workers)
        .collection_mode(mode);
    let mut dir = None;
    if let Some(tag) = spill_tag {
        let path = std::env::temp_dir().join(format!("remnant-query-{tag}"));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("temp spill dir");
        config = config.spill(SpillConfig {
            resident_shards: 2,
            ..SpillConfig::new(&path)
        });
        dir = Some(path);
    }
    let config = config.build().expect("valid study config");
    let mut world = World::generate(WorldConfig::new(POPULATION, SEED));
    let mut snapshots = Vec::new();
    let report = StudySession::new(config, &world).run(&mut world, &mut |snapshot| {
        snapshots.push(snapshot.clone());
    });
    (snapshots, report, dir)
}

/// A reopened round equals the live one: text dump (records and block
/// layout) byte for byte, and every block's derived column.
fn assert_reopens_identically(reopened: &DnsSnapshot, live: &DnsSnapshot, round: usize) {
    assert_eq!(
        reopened.encode(),
        live.encode(),
        "round {round} must reopen byte-identically"
    );
    assert!(
        reopened.derived_columns().eq(live.derived_columns()),
        "round {round} must reopen with identical derived columns"
    );
}

#[test]
fn full_spill_campaign_reopens_byte_identically() {
    let (snapshots, _, dir) = run_campaign(CollectionMode::Full, 2, Some("full-roundtrip"));
    let dir = dir.unwrap();
    let store = SnapshotStore::open(&dir).expect("store opens");

    assert_eq!(store.len(), snapshots.len());
    assert_eq!(store.sites(), POPULATION);
    for (i, live) in snapshots.iter().enumerate() {
        let meta = store.meta(i);
        assert_eq!(meta.round, i as u64);
        assert_eq!(meta.day, live.day);
        assert_eq!(meta.kind, RoundKind::Full);
        assert_eq!(meta.taken_at, live.taken_at);
        // Every reconstructed round, byte for byte.
        assert_reopens_identically(&store.snapshot(i), live, i);
        // A full round's chain points at exactly its own file.
        assert_eq!(store.chain_depth(i), 1);
    }
}

#[test]
fn delta_spill_campaign_reopens_byte_identically_and_shares_structure() {
    let (snapshots, _, dir) = run_campaign(CollectionMode::Delta, 2, Some("delta-roundtrip"));
    let dir = dir.unwrap();
    let store = SnapshotStore::open(&dir).expect("store opens");

    assert_eq!(store.len(), snapshots.len());
    for (i, live) in snapshots.iter().enumerate() {
        assert_eq!(store.meta(i).kind, RoundKind::Delta);
        assert_reopens_identically(&store.snapshot(i), live, i);
    }

    // Generation diffs: the first round is all-dirty (nothing to chain
    // from), and at least one later round chains clean shards from
    // earlier files — the structural sharing the delta writer promises.
    let diffs = store.generation_diff();
    assert_eq!(diffs[0].dirty as u32, store.shard_count());
    assert_eq!(diffs[0].clean, 0);
    assert!(
        diffs[1..].iter().any(|d| d.clean > 0),
        "some later round should chain clean shards"
    );
    let deepest = (0..store.len())
        .map(|i| store.chain_depth(i))
        .max()
        .unwrap();
    assert!(
        deepest > 1,
        "a delta round's chain should span multiple files"
    );
}

#[test]
fn passes_plan_reproduces_the_live_reports() {
    let (snapshots, report, dir) = run_campaign(CollectionMode::Delta, 2, Some("plan-equiv"));

    // From disk.
    let store = SnapshotStore::open(dir.unwrap()).expect("store opens");
    let aggregates = PassesPlan.execute_with(&PlanContext::new(&store, 1));
    assert_eq!(&aggregates.adoption, report.adoption());
    assert_eq!(
        format!("{:?}", aggregates.behaviors),
        format!("{:?}", report.behaviors())
    );
    assert_eq!(
        format!("{:?}", aggregates.pauses),
        format!("{:?}", report.pauses())
    );

    // From memory: the same plan over resident snapshots.
    let resident = SnapshotStore::in_memory(snapshots).expect("in-memory store");
    let from_memory = PassesPlan.execute_with(&PlanContext::new(&resident, 1));
    assert_eq!(&from_memory.adoption, report.adoption());
    assert_eq!(
        format!("{:?}", from_memory.behaviors),
        format!("{:?}", aggregates.behaviors)
    );
}

/// The plans read only what `SnapshotStore::open` loaded: with every
/// round file cut to zero bytes underneath the open store (whose spill
/// files keep their handles, so any record-frame read now fails), a fresh
/// `PlanContext` still yields the plans' results from before the cut.
#[test]
fn plans_do_no_io_after_open() {
    let (_, _, dir) = run_campaign(CollectionMode::Delta, 2, Some("no-io-after-open"));
    let dir = dir.unwrap();
    let store = SnapshotStore::open(&dir).expect("store opens");
    let (passes, residual) = {
        let ctx = PlanContext::new(&store, 1);
        (
            PassesPlan.execute_with(&ctx),
            ResidualScanPlan::default().execute_with(&ctx),
        )
    };

    for entry in std::fs::read_dir(&dir).expect("spill dir lists") {
        let path = entry.expect("dir entry").path();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .and_then(|file| file.set_len(0))
            .expect("round file truncated");
    }
    let (_, source) = store.snapshot(0).block_sources().next().expect("a block");
    assert!(
        source.spill_ref().expect("a spilled block").load().is_err(),
        "a record-frame read after the cut must fail"
    );

    let ctx = PlanContext::new(&store, 1);
    assert_eq!(
        format!("{:?}", PassesPlan.execute_with(&ctx)),
        format!("{passes:?}")
    );
    assert_eq!(ResidualScanPlan::default().execute_with(&ctx), residual);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_round_is_a_typed_error() {
    let (_, _, dir) = run_campaign(CollectionMode::Full, 1, Some("missing-round"));
    let dir = dir.unwrap();

    // Punch a hole in the middle: an interrupted-run directory.
    std::fs::remove_file(dir.join("full-r00003.rsnb")).expect("round file exists");
    match SnapshotStore::open(&dir) {
        Err(StoreError::MissingRound { round }) => assert_eq!(round, 3),
        other => panic!("expected MissingRound, got {other:?}"),
    }

    // Lose the head: every chain is orphaned.
    std::fs::remove_file(dir.join("full-r00000.rsnb")).expect("round file exists");
    match SnapshotStore::open(&dir) {
        Err(StoreError::MissingRound { round }) => assert_eq!(round, 0),
        other => panic!("expected MissingRound, got {other:?}"),
    }
}

#[test]
fn duplicate_round_is_a_typed_error() {
    let (_, _, dir) = run_campaign(CollectionMode::Full, 1, Some("dup-round"));
    let dir = dir.unwrap();
    // A full and a delta file claiming the same round: the mixed leftovers
    // of a restarted campaign.
    std::fs::copy(dir.join("full-r00002.rsnb"), dir.join("delta-r00002.rsnb"))
        .expect("copy round file");
    match SnapshotStore::open(&dir) {
        Err(StoreError::DuplicateRound { round }) => assert_eq!(round, 2),
        other => panic!("expected DuplicateRound, got {other:?}"),
    }
}

#[test]
fn unrelated_files_are_ignored_and_empty_dirs_are_typed() {
    let empty = std::env::temp_dir().join("remnant-query-empty");
    let _ = std::fs::remove_dir_all(&empty);
    std::fs::create_dir_all(&empty).expect("temp dir");
    assert!(matches!(
        SnapshotStore::open(&empty),
        Err(StoreError::NoRounds)
    ));
    // Non-round files don't count as rounds.
    std::fs::write(empty.join("README.txt"), b"not a round").unwrap();
    std::fs::write(empty.join("full-rxyz.rsnb"), b"not a round").unwrap();
    assert!(matches!(
        SnapshotStore::open(&empty),
        Err(StoreError::NoRounds)
    ));
}

/// A fresh, empty directory for one test.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("remnant-query-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// `sites` one-address sites packed into blocks of `block_size`.
fn blocks(sites: u8, block_size: usize) -> Vec<BlockSource> {
    let mut builder = DnsSnapshot::builder(SimTime::EPOCH, 0, block_size);
    for i in 0..sites {
        builder.push(SiteRecords {
            a: vec![Ipv4Addr::new(10, 0, 0, i)],
            ..SiteRecords::default()
        });
    }
    builder.finish().block_sources().map(|(_, s)| s).collect()
}

/// Writes `full-r00000.rsnb` into `dir` under `meta`, holding `blocks` as
/// shards 0, 1, …, and returns its path.
fn write_first_round(dir: &Path, meta: SpillMeta, blocks: &[BlockSource]) -> PathBuf {
    let path = dir.join("full-r00000.rsnb");
    let mut writer = SpillWriter::create(&path, meta).expect("round file created");
    for (shard, block) in blocks.iter().enumerate() {
        writer
            .append_block(shard as u32, &block.load(), Arc::clone(block.derived()))
            .expect("block appended");
    }
    writer.finish().expect("round file finished");
    path
}

#[test]
fn header_shard_count_is_checked_before_anything_is_sized_from_it() {
    let dir = fresh_dir("huge-shard-count");
    let meta = SpillMeta {
        taken_at: SimTime::EPOCH,
        day: 0,
        sites: 20,
        block_size: 10,
        shard_count: 2,
    };
    let path = write_first_round(&dir, meta, &blocks(20, 10));
    let good = std::fs::read(&path).expect("round file readable");
    SnapshotStore::open(&dir).expect("the intact file opens");

    // Header bytes 32..36 hold `shard_count`: claim u32::MAX shards.
    let mut bad = good.clone();
    bad[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, &bad).expect("patched file");
    match SnapshotStore::open(&dir) {
        Err(StoreError::PlanMismatch { round, field }) => {
            assert_eq!((round, field), (0, "shard_count"));
        }
        other => panic!("expected PlanMismatch, got {other:?}"),
    }

    // Make the header self-consistent (bytes 24..32 hold `sites`): the
    // footer still lists two shards, so the round is rejected all the same.
    bad[24..32].copy_from_slice(&(u64::from(u32::MAX) * 10).to_le_bytes());
    std::fs::write(&path, &bad).expect("patched file");
    match SnapshotStore::open(&dir) {
        Err(StoreError::PlanMismatch { round, field }) => {
            assert_eq!((round, field), (0, "shard_count"));
        }
        other => panic!("expected PlanMismatch, got {other:?}"),
    }
}

#[test]
fn shards_must_hold_the_header_site_count() {
    // Two 10-site shards under a header planning 100 sites in two blocks
    // of 50: a plan sized from the header would index past the columns.
    let dir = fresh_dir("short-shards");
    let meta = SpillMeta {
        taken_at: SimTime::EPOCH,
        day: 0,
        sites: 100,
        block_size: 50,
        shard_count: 2,
    };
    write_first_round(&dir, meta, &blocks(20, 10));
    match SnapshotStore::open(&dir) {
        Err(StoreError::PlanMismatch { round, field }) => {
            assert_eq!((round, field), (0, "sites"));
        }
        other => panic!("expected PlanMismatch, got {other:?}"),
    }
}
