//! The derived-column contract: every block carries the column its
//! records derive to, and the query plans read nothing else.
//!
//! - For every block of every round — in memory, spilled, and reopened
//!   through `SnapshotStore::open` — the carried column equals the oracle
//!   re-derived from the block's records: `classify_block` for the
//!   classes and multi-CDN sites, the residual scanners' record walks
//!   for the fleet hosts and tokens. Campaigns run at workers 1 and 4.
//! - A spill directory whose record frames are overwritten (past each
//!   frame's 12-byte preamble) still renders Figs 2–6 and the
//!   residual-scan timeline identically through `PlanContext`,
//!   `PassesPlan` and `ResidualScanPlan`: the plans never decode a
//!   record.
//! - A v1 or v2 round file is rejected by version.

use std::path::{Path, PathBuf};

use remnant::core::residual::cloudflare::fleet_candidates;
use remnant::core::residual::incapsula::token_candidates;
use remnant::core::spill::SpillError;
use remnant::core::study::{CollectionMode, StudyConfig};
use remnant::core::{
    BehaviorDetector, DerivedColumn, DnsSnapshot, PackedAdoption, SpillConfig, StudySession,
};
use remnant::query::{PassesPlan, PlanContext, ResidualScanPlan, SnapshotStore, StoreError};
use remnant::world::{World, WorldConfig};
use remnant_bench::{
    render_fig2_adoption, render_fig3_behaviors, render_fig4_behaviors, render_fig5_pauses,
    render_fig6_adoption, render_residual_scan, ReproConfig,
};

const POPULATION: usize = 2_000;
const SEED: u64 = 43;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "remnant-derived-columns-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs a campaign, returning every round's live snapshot.
fn campaign(
    weeks: u32,
    workers: usize,
    mode: CollectionMode,
    spill: Option<&Path>,
) -> Vec<DnsSnapshot> {
    let mut world = World::generate(WorldConfig::new(POPULATION, SEED));
    let mut builder = StudyConfig::builder()
        .weeks(weeks)
        .seed(SEED)
        .workers(workers)
        .collection_mode(mode);
    if let Some(dir) = spill {
        builder = builder.spill(SpillConfig::new(dir));
    }
    let mut snapshots = Vec::new();
    StudySession::new(builder.build().expect("valid config"), &world)
        .run(&mut world, &mut |snapshot| snapshots.push(snapshot.clone()));
    snapshots
}

/// Asserts every block's carried column equals the oracle re-derived
/// from its records.
fn assert_columns_match_records(snapshot: &DnsSnapshot, context: &str) {
    let detector = BehaviorDetector::new();
    for (base, source) in snapshot.block_sources() {
        let block = source.load();
        let (classes, multi_cdn) = detector.classify_block(&block);
        let (fleet_sites, fleet_ns) = fleet_candidates(&block, "cloudflare").into_iter().unzip();
        let oracle = DerivedColumn {
            classes: classes.iter().map(PackedAdoption::pack).collect(),
            multi_cdn,
            fleet_sites,
            fleet_ns,
            incap_tokens: token_candidates(&block, "incapdns"),
        };
        assert_eq!(
            source.derived().as_ref(),
            &oracle,
            "{context}: block at rank {base}"
        );
    }
}

#[test]
fn carried_columns_equal_the_record_oracle() {
    for workers in [1usize, 4] {
        let rounds = campaign(2, workers, CollectionMode::Full, None);
        for (day, snapshot) in rounds.iter().enumerate() {
            assert_columns_match_records(snapshot, &format!("in-memory w{workers} day {day}"));
        }

        let dir = fresh_dir(&format!("oracle-w{workers}"));
        let rounds = campaign(2, workers, CollectionMode::Delta, Some(&dir));
        let store = SnapshotStore::open(&dir).expect("store opens");
        assert_eq!(store.len(), rounds.len());
        let harvested: usize = rounds
            .iter()
            .flat_map(|s| s.derived_columns())
            .map(|c| c.fleet_ns.len() + c.incap_tokens.len())
            .sum();
        assert!(harvested > 0, "the campaign saw residual candidates");
        for (day, snapshot) in rounds.iter().enumerate() {
            assert_columns_match_records(snapshot, &format!("spill w{workers} day {day}"));
            let reopened = store.snapshot(day);
            assert_columns_match_records(&reopened, &format!("reopened w{workers} day {day}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The `(offset, len)` of every record frame in a round file, from its
/// footer index (`u32 shard, u64 frame_offset, u32 frame_len, u32
/// column_offset, u32 column_len` per entry), which the trailer (`u64
/// section_offset, u64 footer_offset, "RSNZ"`) locates.
fn record_frames(file: &[u8]) -> Vec<(usize, usize)> {
    let trailer = file.len() - 20;
    let footer = u64::from_le_bytes(file[trailer + 8..trailer + 16].try_into().unwrap()) as usize;
    let entries = u32::from_le_bytes(file[footer + 4..footer + 8].try_into().unwrap()) as usize;
    (0..entries)
        .map(|i| {
            let entry = footer + 8 + i * 24;
            let offset = u64::from_le_bytes(file[entry + 4..entry + 12].try_into().unwrap());
            let len = u32::from_le_bytes(file[entry + 12..entry + 16].try_into().unwrap());
            (offset as usize, len as usize)
        })
        .collect()
}

fn round_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("spill dir lists")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rsnb"))
        .collect();
    files.sort();
    files
}

/// Figs 2–6 plus the residual-scan timeline, rendered from a store.
fn render_plans(dir: &Path) -> String {
    let store = SnapshotStore::open(dir).expect("store opens");
    let ctx = PlanContext::new(&store, 1);
    let a = PassesPlan.execute_with(&ctx);
    let residual = ResidualScanPlan::default().execute_with(&ctx);
    let config = ReproConfig {
        population: store.sites(),
        ..ReproConfig::default()
    };
    [
        render_fig2_adoption(&config, &a.adoption),
        render_fig3_behaviors(&config, &a.behaviors),
        render_fig4_behaviors(&a.behaviors),
        render_fig5_pauses(&a.pauses),
        render_fig6_adoption(&a.adoption),
        render_residual_scan(&config, &residual),
    ]
    .join("\n")
}

#[test]
fn plans_never_decode_records() {
    let dir = fresh_dir("intact");
    campaign(2, 1, CollectionMode::Delta, Some(&dir));
    let intact = render_plans(&dir);

    let scrubbed = fresh_dir("scrubbed");
    std::fs::create_dir_all(&scrubbed).expect("scrubbed dir");
    for path in round_files(&dir) {
        let mut bytes = std::fs::read(&path).expect("round file reads");
        for (offset, len) in record_frames(&bytes) {
            bytes[offset + 12..offset + len].fill(0xA5);
        }
        std::fs::write(scrubbed.join(path.file_name().unwrap()), bytes).expect("copy writes");
    }
    // The scrub took: the records themselves are gone.
    let store = SnapshotStore::open(&scrubbed).expect("scrubbed store opens");
    let (_, source) = store.snapshot(0).block_sources().next().unwrap();
    assert!(source.spill_ref().expect("spilled").load().is_err());

    assert_eq!(render_plans(&scrubbed), intact);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scrubbed);
}

/// Opens a one-week campaign's spill directory with its first round
/// file's version word set to `version`.
fn open_as_version(version: u16) -> Result<SnapshotStore, StoreError> {
    let dir = fresh_dir(&format!("v{version}"));
    campaign(1, 1, CollectionMode::Full, Some(&dir));
    let first = round_files(&dir).into_iter().next().expect("a round file");
    let mut bytes = std::fs::read(&first).expect("round file reads");
    bytes[4..6].copy_from_slice(&version.to_le_bytes());
    std::fs::write(&first, bytes).expect("rewrite");
    let store = SnapshotStore::open(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    store
}

#[test]
fn a_v1_round_file_is_rejected_by_version() {
    match open_as_version(1) {
        Err(StoreError::Spill(SpillError::UnsupportedVersion(1))) => {}
        other => panic!("expected UnsupportedVersion(1), got {other:?}"),
    }
}

#[test]
fn a_v2_round_file_is_rejected_by_version() {
    match open_as_version(2) {
        Err(StoreError::Spill(SpillError::UnsupportedVersion(2))) => {}
        other => panic!("expected UnsupportedVersion(2), got {other:?}"),
    }
}
