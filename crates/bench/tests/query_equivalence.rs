//! The query layer's headline contract: every figure and table that was
//! rewritten as a query plan renders byte-identically to the legacy live
//! pass, at workers 1 and 8, whether the store holds resident snapshots
//! (in-memory campaign) or reopens spill files (full and delta modes).
//!
//! Both sides of each comparison come from ONE campaign: the legacy side
//! renders straight from the `StudyReport`, the query side re-derives the
//! same sub-reports from a `SnapshotStore` (via the plans over one
//! `PlanContext`) and renders through the shared `render_*_<subreport>`
//! functions.

use std::path::PathBuf;

use proptest::prelude::*;
use remnant::core::residual::ExposureTracker;
use remnant::core::study::{CollectionMode, StudyConfig, StudyReport};
use remnant::core::{DnsSnapshot, SpillConfig, StudySession};
use remnant::query::{PassesPlan, PlanContext, SnapshotStore};
use remnant::world::{World, WorldConfig};
use remnant_bench::{
    render_fig2_adoption, render_fig3_behaviors, render_fig4_behaviors, render_fig5_pauses,
    render_fig6_adoption, render_fig8_from_obs, render_fig8_residual, render_fig9_exposure,
    ReproConfig,
};

const POPULATION: usize = 2_000;
const WEEKS: u32 = 2;
const SEED: u64 = 41;

/// Runs one campaign, capturing every daily snapshot for the in-memory
/// store variant.
fn run_captured(config: &ReproConfig) -> (Vec<DnsSnapshot>, StudyReport) {
    let mut world = World::generate(WorldConfig::new(config.population, config.study.seed));
    let mut snapshots = Vec::new();
    let report = StudySession::new(config.study.clone(), &world).run(&mut world, &mut |snapshot| {
        snapshots.push(snapshot.clone());
    });
    (snapshots, report)
}

fn fresh_spill_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("remnant-query-equiv-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp spill dir");
    dir
}

/// The differential itself: every query-rewritten figure/table vs its
/// legacy render, byte for byte.
fn assert_query_matches_legacy(
    config: &ReproConfig,
    store: &SnapshotStore,
    report: &StudyReport,
    context: &str,
) {
    let ctx = PlanContext::new(store, config.study.workers);
    let aggregates = PassesPlan.execute_with(&ctx);
    assert_eq!(
        render_fig2_adoption(config, &aggregates.adoption),
        render_fig2_adoption(config, report.adoption()),
        "{context}: fig 2"
    );
    assert_eq!(
        render_fig3_behaviors(config, &aggregates.behaviors),
        render_fig3_behaviors(config, report.behaviors()),
        "{context}: fig 3"
    );
    assert_eq!(
        render_fig4_behaviors(&aggregates.behaviors),
        render_fig4_behaviors(report.behaviors()),
        "{context}: fig 4"
    );
    assert_eq!(
        render_fig5_pauses(&aggregates.pauses),
        render_fig5_pauses(report.pauses()),
        "{context}: fig 5"
    );
    assert_eq!(
        render_fig6_adoption(&aggregates.adoption),
        render_fig6_adoption(report.adoption()),
        "{context}: fig 6"
    );

    // Fig 9: the query-side fold over the persisted weekly reports renders
    // identically to the live study's incrementally-built tracker.
    let folded = ExposureTracker::fold(&report.residual().cloudflare.weekly);
    assert_eq!(
        render_fig9_exposure(config, &folded),
        render_fig9_exposure(config, &report.residual().cloudflare.exposure),
        "{context}: fig 9"
    );

    // Fig 8: the funnel_rows fold over recorded metrics produces the same
    // table body as the legacy weekly-report path (titles differ by design).
    let body = |s: &str| s.split_once('\n').map(|(_, rest)| rest.to_owned()).unwrap();
    assert_eq!(
        body(&render_fig8_from_obs(report.obs())),
        body(&render_fig8_residual(report.residual())),
        "{context}: fig 8 funnel body"
    );
}

#[test]
fn in_memory_campaigns_match_legacy_figures() {
    for workers in [1usize, 8] {
        let config = ReproConfig {
            population: POPULATION,
            study: StudyConfig::builder()
                .weeks(WEEKS)
                .seed(SEED)
                .workers(workers)
                .build()
                .expect("valid config"),
        };
        let (snapshots, report) = run_captured(&config);
        let store = SnapshotStore::in_memory(snapshots).expect("in-memory store");
        assert_query_matches_legacy(&config, &store, &report, &format!("in-memory w{workers}"));
    }
}

#[test]
fn spill_full_campaigns_match_legacy_figures() {
    for workers in [1usize, 8] {
        let dir = fresh_spill_dir(&format!("full-w{workers}"));
        let config = ReproConfig {
            population: POPULATION,
            study: StudyConfig::builder()
                .weeks(WEEKS)
                .seed(SEED)
                .workers(workers)
                .collection_mode(CollectionMode::Full)
                .spill(SpillConfig::new(&dir))
                .build()
                .expect("valid config"),
        };
        let (_, report) = run_captured(&config);
        let store = SnapshotStore::open(&dir).expect("store opens");
        assert_query_matches_legacy(&config, &store, &report, &format!("spill-full w{workers}"));
    }
}

#[test]
fn spill_delta_campaigns_match_legacy_figures() {
    for workers in [1usize, 8] {
        let dir = fresh_spill_dir(&format!("delta-w{workers}"));
        let config = ReproConfig {
            population: POPULATION,
            study: StudyConfig::builder()
                .weeks(WEEKS)
                .seed(SEED)
                .workers(workers)
                .collection_mode(CollectionMode::Delta)
                .spill(SpillConfig::new(&dir))
                .build()
                .expect("valid config"),
        };
        let (_, report) = run_captured(&config);
        let store = SnapshotStore::open(&dir).expect("store opens");
        assert_query_matches_legacy(&config, &store, &report, &format!("spill-delta w{workers}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 3,
        ..ProptestConfig::default()
    })]

    /// Differential property: for arbitrary small campaigns — any seed,
    /// population, worker count, and persistence mode — the query-rewritten
    /// figures stay byte-identical to the legacy passes.
    #[test]
    fn query_figures_match_legacy_for_arbitrary_campaigns(
        seed in 0u64..1_000,
        population in 300usize..600,
        workers in prop_oneof![Just(1usize), Just(8usize)],
        delta in proptest::arbitrary::any::<bool>(),
    ) {
        let mode = if delta { CollectionMode::Delta } else { CollectionMode::Full };
        let dir = fresh_spill_dir(&format!("prop-{seed}-{population}-{workers}-{delta}"));
        let config = ReproConfig {
            population,
            study: StudyConfig::builder()
                .weeks(1)
                .seed(seed)
                .workers(workers)
                .collection_mode(mode)
                .spill(SpillConfig::new(&dir))
                .build()
                .expect("valid config"),
        };
        let (_, report) = run_captured(&config);
        let store = SnapshotStore::open(&dir).expect("store opens");
        assert_query_matches_legacy(
            &config,
            &store,
            &report,
            &format!("prop seed={seed} pop={population} w{workers} {mode:?}"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
