//! Time-indexed snapshot store and columnar query layer over persisted
//! collection rounds.
//!
//! A spill-mode campaign leaves its full history on disk: one RSNP v3
//! file per round, full or delta, each shard stored as a record frame
//! plus the block's derived column in the file's column section. This
//! crate reopens that directory as a
//! [`SnapshotStore`] — a generation-aware, lazily-loaded sequence of
//! rounds — and layers a small query API on top:
//!
//! - **Filter**: [`RoundsQuery`] narrows by round number, day, or week
//!   without touching record data.
//! - **Project**: [`RoundsQuery::project`] folds one record column
//!   (A/CNAME/NS) into counts, a per-round series, and a per-site ECDF.
//! - **Join**: [`RoundsQuery::joined`] pairs consecutive rounds for
//!   diff-style analyses.
//! - **Diff generations**: [`RoundsQuery::generation_diff`] reads each
//!   round's dirty/clean shard split from metadata alone.
//! - **Classified view**: [`PlanContext`] / [`ClassifiedStore`] assemble
//!   each round from the derived columns its blocks carry (read from
//!   each file's column section; no record frame is decoded) and build per-provider
//!   posting lists — see [`classified`].
//! - **Plan**: [`PassesPlan`], [`UnchangedCandidatesPlan`] and
//!   [`ResidualScanPlan`] replay the paper's analyses (adoption,
//!   behavior, pauses, unchanged candidates, the residual-scan timeline)
//!   over one shared [`PlanContext`], byte-identical to the live study's
//!   reports; [`funnel_rows`] folds the Fig 8 funnel from recorded
//!   metrics.
//!
//! Determinism: rounds are visited in collection order and sites in rank
//! order, and the store reconstructs every snapshot byte-identically to
//! what the collector wrote (the per-shard frames round-trip exactly), so
//! every query output is reproducible across runs, worker counts, and
//! full/delta/spill campaign modes.
//!
//! # Example
//!
//! ```no_run
//! use remnant_query::{PassesPlan, PlanContext, SnapshotStore};
//!
//! let store = SnapshotStore::open("campaign-spill/")?;
//! let ctx = PlanContext::new(&store, 1);
//! let aggregates = PassesPlan.execute_with(&ctx);
//! println!("overall adoption {:.2}%", aggregates.adoption.overall_rate * 100.0);
//! let ns = store.query().week(0).project(remnant_query::RecordClass::Ns);
//! println!("NS records in week 1: {}", ns.total);
//! # Ok::<(), remnant_query::StoreError>(())
//! ```

pub mod classified;
pub mod plans;
pub mod query;
pub mod store;

pub use classified::{
    ClassifiedQuery, ClassifiedRound, ClassifiedStore, PlanContext, ProviderIndex,
};
pub use plans::{
    funnel_rows, FunnelRow, PassesPlan, ProviderResidualScan, ResidualScanPlan, ResidualScanReport,
    ResidualScanWeek, UnchangedCandidatesPlan, RESIDUAL_PROVIDERS,
};
pub use query::{
    GenerationDiff, JoinedRounds, Projection, RecordClass, RoundSnapshot, RoundsQuery,
};
// The exposure timeline (Fig 9) is already a fold over journaled weekly
// reports; re-export it so query-side consumers need only this crate.
pub use remnant_core::residual::ExposureTracker;
pub use store::{RoundKind, RoundMeta, SnapshotStore, StoreError};
