//! Time-indexed snapshot store and analysis plans over persisted
//! collection rounds.
//!
//! A spill-mode campaign leaves its full history on disk: one RSNP v3
//! file per round, full or delta, each shard stored as a record frame
//! plus the block's derived column in the file's column section. This
//! crate reopens that directory as a [`SnapshotStore`] — a
//! generation-aware sequence of rounds whose columns are read and
//! validated at open — and replays the paper's analyses over it:
//!
//! - **Classified view**: [`PlanContext`] / [`ClassifiedStore`] assemble
//!   each round from the derived columns its blocks carry (no record
//!   frame is decoded) and build per-provider posting lists — see
//!   [`classified`].
//! - **Plan**: [`PassesPlan`] (adoption, behavior, pauses) and
//!   [`ResidualScanPlan`] (the weekly residual-scan populations) run over
//!   one shared [`PlanContext`], byte-identical to the live study's
//!   reports; [`funnel_rows`] folds the Fig 8 funnel from recorded
//!   metrics.
//! - **Generations**: [`SnapshotStore::generation_diff`] reads each
//!   round's dirty/clean shard split from metadata alone.
//!
//! Determinism: rounds are visited in collection order and sites in rank
//! order, and the store reconstructs every snapshot byte-identically to
//! what the collector wrote, so every plan output is reproducible across
//! runs, worker counts, and full/delta/spill campaign modes.
//!
//! # Example
//!
//! ```no_run
//! use remnant_query::{PassesPlan, PlanContext, ResidualScanPlan, SnapshotStore};
//!
//! let store = SnapshotStore::open("campaign-spill/")?;
//! let ctx = PlanContext::new(&store, 1);
//! let aggregates = PassesPlan.execute_with(&ctx);
//! println!("overall adoption {:.2}%", aggregates.adoption.overall_rate * 100.0);
//! let scan = ResidualScanPlan::default().execute_with(&ctx);
//! for week in &scan.providers[0].weekly {
//!     println!("week {}: {} sites scanned", week.week + 1, week.adopted);
//! }
//! # Ok::<(), remnant_query::StoreError>(())
//! ```

pub mod classified;
pub mod plans;
pub mod store;

pub use classified::{ClassifiedRound, ClassifiedStore, PlanContext, ProviderIndex};
pub use plans::{
    funnel_rows, FunnelRow, PassesPlan, ProviderResidualScan, ResidualScanPlan, ResidualScanReport,
    ResidualScanWeek, RESIDUAL_PROVIDERS,
};
pub use store::{GenerationDiff, RoundKind, RoundMeta, SnapshotStore, StoreError};
