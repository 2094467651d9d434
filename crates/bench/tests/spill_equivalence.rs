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
//! frame) is invisible to everything downstream.

use remnant::core::study::{CollectionMode, StudyConfig, StudyReport};
use remnant::core::{DerivedColumn, SpillConfig, StudySession};
use remnant::world::{World, WorldConfig};
use remnant_bench::{
    render_fig2, render_fig3, render_fig4, render_fig5, render_fig6, render_fig8, render_fig9,
    render_table5, render_table6, ReproConfig,
};

const POPULATION: usize = 2_500;
const WEEKS: u32 = 3;
const SEED: u64 = 17;

/// One full study: the concatenated text dumps and derived columns of all
/// daily snapshots, plus the report. `spill` gets a distinct temp dir per
/// invocation so runs never share files.
fn run(
    mode: CollectionMode,
    workers: usize,
    spill: Option<&str>,
) -> (String, Vec<DerivedColumn>, StudyReport) {
    let mut config = StudyConfig::builder()
        .weeks(WEEKS)
        .seed(SEED)
        .workers(workers)
        .collection_mode(mode);
    if let Some(tag) = spill {
        let dir = std::env::temp_dir().join(format!("remnant-spill-eq-{tag}"));
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
    let report = StudySession::new(config, &world).run(
        &mut world,
        &mut |snapshot| {
            text.push_str(&snapshot.encode());
            columns.extend(snapshot.derived_columns().cloned());
        },
        None,
    );
    (text, columns, report)
}

/// Everything `repro` prints from the study report, in `repro all` order.
fn rendered_output(report: &StudyReport) -> String {
    let config = ReproConfig {
        population: POPULATION,
        weeks: WEEKS,
        seed: SEED,
        ..ReproConfig::default()
    };
    [
        render_fig2(&config, report),
        render_fig3(&config, report),
        render_fig4(report),
        render_fig5(report),
        render_fig6(report),
        render_fig8(report),
        render_fig9(&config, report),
        render_table5(&config, report),
        render_table6(&config, report),
    ]
    .join("\n")
}

fn assert_equivalent(mode: CollectionMode, workers: usize, tag: &str) {
    let (mem_text, mem_columns, mem) = run(mode, workers, None);
    let (spill_text, spill_columns, spilled) = run(mode, workers, Some(tag));

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
        rendered_output(&mem),
        rendered_output(&spilled),
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
