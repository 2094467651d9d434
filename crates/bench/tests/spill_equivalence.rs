//! The spill-mode equivalence contract, end to end: a multi-week study
//! run with `--spill-dir` (records streaming to binary snapshot files,
//! bounded working set) must produce output byte-identical to the fully
//! in-memory run — every daily `DnsSnapshot`'s text dump and derived
//! columns, the rendered report, and the observability JSON — at any
//! worker count, and in both full and delta collection modes.
//!
//! This is the differential test backing the memory-bounded collect
//! path's guarantee: block layout equals the engine shard plan in every
//! mode, so where a block physically lives (resident arena or spill
//! frame) is invisible to everything downstream. The round files
//! themselves are byte-identical at every worker count.

use std::path::PathBuf;

use remnant::core::spill::SpillFile;
use remnant::core::study::{CollectionMode, StudyConfig, StudyReport};
use remnant::core::{DerivedColumn, SpillConfig, StudySession};
use remnant::world::{World, WorldConfig};
use remnant_bench::{render_study_figures, ReproConfig};

const POPULATION: usize = 2_500;
const WEEKS: u32 = 3;
const SEED: u64 = 17;

/// The spill directory of the run tagged `tag`.
fn spill_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("remnant-spill-eq-{tag}"))
}

/// One full study: the concatenated text dumps and derived columns of all
/// daily snapshots, the world after the study, and the report. `spill` gets a distinct temp dir per
/// invocation so runs never share files.
fn run(
    mode: CollectionMode,
    workers: usize,
    spill: Option<&str>,
) -> (String, Vec<DerivedColumn>, World, StudyReport) {
    let mut config = StudyConfig::builder()
        .weeks(WEEKS)
        .seed(SEED)
        .workers(workers)
        .collection_mode(mode);
    if let Some(tag) = spill {
        let dir = spill_dir(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp spill dir");
        config = config.spill(SpillConfig {
            resident_shards: 2, // tiny working set: force real spilling
            ..SpillConfig::new(dir)
        });
    }
    let config = config.build().expect("valid study config");
    let mut world = World::generate(WorldConfig::new(POPULATION, SEED));
    let mut text = String::new();
    let mut columns = Vec::new();
    let report = StudySession::new(config, &world).run(&mut world, &mut |snapshot| {
        text.push_str(&snapshot.encode());
        columns.extend(snapshot.derived_columns().cloned());
    });
    (text, columns, world, report)
}

/// Everything `repro all` prints from the study, in print order.
fn rendered_output(world: &World, report: &StudyReport) -> String {
    let config = ReproConfig {
        population: POPULATION,
        ..ReproConfig::default()
    };
    render_study_figures(&config, world, report)
        .into_iter()
        .map(|(_, figure)| figure)
        .collect::<Vec<_>>()
        .join("\n")
}

fn assert_equivalent(mode: CollectionMode, workers: usize, tag: &str) {
    let (mem_text, mem_columns, mem_world, mem) = run(mode, workers, None);
    let (spill_text, spill_columns, spill_world, spilled) = run(mode, workers, Some(tag));

    // Every daily snapshot, byte for byte, and its derived columns.
    assert_eq!(
        mem_text, spill_text,
        "daily text snapshots must be byte-identical in-memory vs spill"
    );
    assert_eq!(
        mem_columns, spill_columns,
        "daily derived columns must be identical in-memory vs spill"
    );
    // The rendered evaluation, byte for byte.
    assert_eq!(
        rendered_output(&mem_world, &mem),
        rendered_output(&spill_world, &spilled),
        "rendered study output must be byte-identical"
    );
    // The observability snapshot, byte for byte: spilling is a memory-
    // placement decision and must be invisible to the study's telemetry.
    assert_eq!(
        mem.obs().to_json(),
        spilled.obs().to_json(),
        "ObsReport JSON must be byte-identical across memory modes"
    );
    // The deterministic engine counters agree too (wall times may not).
    assert_eq!(mem.engine().sweeps, spilled.engine().sweeps);
    assert_eq!(mem.engine().shards, spilled.engine().shards);
    assert_eq!(mem.engine().queries, spilled.engine().queries);
    assert_eq!(mem.engine().attempts, spilled.engine().attempts);
    assert_eq!(mem.engine().cache_hits, spilled.engine().cache_hits);
    assert_eq!(mem.engine().cache_misses, spilled.engine().cache_misses);
}

#[test]
fn full_collection_workers_1() {
    assert_equivalent(CollectionMode::Full, 1, "full-w1");
}

#[test]
fn full_collection_workers_8() {
    assert_equivalent(CollectionMode::Full, 8, "full-w8");
}

#[test]
fn delta_collection_workers_1() {
    assert_equivalent(CollectionMode::Delta, 1, "delta-w1");
}

#[test]
fn delta_collection_workers_8() {
    assert_equivalent(CollectionMode::Delta, 8, "delta-w8");
}

/// A spill run's round files, `(file name, bytes)` in name order.
fn round_files(tag: &str) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(spill_dir(tag))
        .expect("spill dir lists")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rsnb"))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("round file reads"))
        })
        .collect();
    files.sort();
    files
}

/// The names of a round file's column-section table, read from its bytes:
/// the trailer (`u64 section_offset, u64 footer_offset, "RSNZ"`) locates
/// the section, which opens with `u32 count, (u16 len, bytes)*`.
fn section_table(bytes: &[u8]) -> Vec<String> {
    let trailer = bytes.len() - 20;
    let mut at = u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap()) as usize;
    let count = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    at += 4;
    (0..count)
        .map(|_| {
            let len = u16::from_le_bytes(bytes[at..at + 2].try_into().unwrap()) as usize;
            let name = std::str::from_utf8(&bytes[at + 2..at + 2 + len]).expect("UTF-8 name");
            at += 2 + len;
            name.to_owned()
        })
        .collect()
}

/// Every round file of a campaign is byte-identical at workers 1 and 8,
/// in full and delta mode, with a two-shard resident budget; and each
/// file's column-section table lists every distinct fleet host and token
/// of its columns exactly once, in first-occurrence order over the
/// shards.
#[test]
fn round_files_are_byte_identical_across_worker_counts() {
    for (mode, kind) in [
        (CollectionMode::Full, "full"),
        (CollectionMode::Delta, "delta"),
    ] {
        let tags = [1usize, 8].map(|workers| {
            let tag = format!("files-{kind}-w{workers}");
            run(mode, workers, Some(&tag));
            tag
        });
        let (one, eight) = (round_files(&tags[0]), round_files(&tags[1]));
        assert_eq!(
            one.len(),
            (WEEKS * 7) as usize,
            "{kind}: one file per round"
        );
        let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
            files.iter().map(|(name, _)| name.clone()).collect()
        };
        assert_eq!(names(&one), names(&eight), "{kind}: file names");
        let mut tabled = 0;
        for ((name, bytes), (_, other)) in one.iter().zip(&eight) {
            assert!(
                bytes == other,
                "{kind}: {name} differs between workers 1 and 8"
            );

            let file = SpillFile::open(spill_dir(&tags[0]).join(name)).expect("round file opens");
            let mut expected: Vec<String> = Vec::new();
            for (_, source) in file.sources().expect("round file reads") {
                let column = source.derived();
                let tokens = column.incap_tokens.iter().map(|(_, token)| token);
                for host in column.fleet_ns.iter().chain(tokens) {
                    if !expected.iter().any(|seen| seen == host.as_str()) {
                        expected.push(host.as_str().to_owned());
                    }
                }
            }
            let table = section_table(bytes);
            assert_eq!(table, expected, "{kind}: {name} column-section table");
            tabled += table.len();
        }
        assert!(tabled > 0, "{kind}: the campaign saw fleet hosts or tokens");
        for tag in &tags {
            let _ = std::fs::remove_dir_all(spill_dir(tag));
        }
    }
}
