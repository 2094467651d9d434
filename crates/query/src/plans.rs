//! The paper's analyses expressed as query plans over a [`PlanContext`].
//!
//! A plan is a deterministic computation from a classified store
//! to a report: the same per-day folds the live study driver runs
//! ([`SnapshotPasses`](remnant_core::SnapshotPasses)), replayed over persisted rounds. Because the store
//! reconstructs every round byte-identically to what the collector
//! produced, a plan's output is byte-identical to the corresponding
//! section of the live [`StudyReport`](remnant_core::StudyReport) — Fig 3
//! (behavior series), Fig 5 (pause CDFs), Table III (adoption) and the
//! weekly residual-scan populations all become queries that need nothing
//! but the spill directory.
//!
//! Every plan runs through a [`PlanContext`], so all plans of one query
//! run share one classified scan of the store.
//!
//! Plans do not return `Result` because they do no I/O: [`PassesPlan`]
//! and [`ResidualScanPlan`] read only the derived columns that
//! [`SnapshotStore::open`](crate::SnapshotStore::open) already loaded and
//! validated, and decode no record frame.

use remnant_core::residual::FUNNEL_STAGES;
use remnant_core::{DpsStatus, SnapshotAggregates};
use remnant_obs::ObsReport;
use remnant_provider::ProviderId;

use crate::classified::PlanContext;

/// Runs the per-day snapshot passes over every round: one plan producing
/// the adoption (Table III / Figs 2, 6), behavior (Table IV / Figs 3, 4)
/// and pause (Fig 5) reports together, since they share one scan.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassesPlan;

impl PassesPlan {
    /// The context's shared columns, folded once and memoized: no
    /// record frame is read.
    pub fn execute_with(&self, ctx: &PlanContext<'_>) -> SnapshotAggregates {
        ctx.aggregates().clone()
    }
}

/// Providers the paper's weekly residual scans cover.
pub const RESIDUAL_PROVIDERS: [ProviderId; 2] = [ProviderId::Cloudflare, ProviderId::Incapsula];

/// One scan week of [`ResidualScanReport`]: the scan population derived
/// from the persisted round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResidualScanWeek {
    /// 0-based scan week.
    pub week: u32,
    /// The study day the week's scan round was collected on.
    pub day: u32,
    /// Sites classified ON under the provider in the scan round — the
    /// population the weekly scan would have swept.
    pub adopted: usize,
}

/// One provider's residual-scan timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProviderResidualScan {
    /// The scanned provider.
    pub provider: ProviderId,
    /// Week rows, in week order.
    pub weekly: Vec<ResidualScanWeek>,
}

/// The [`ResidualScanPlan`]'s output: the Table VI / Fig 8 scan
/// populations re-derived from persisted rounds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResidualScanReport {
    /// One timeline per residual-scanned provider, in
    /// [`RESIDUAL_PROVIDERS`] order.
    pub providers: Vec<ProviderResidualScan>,
}

/// The Table VI / Fig 8 scan populations from campaign artifacts alone:
/// the sites classified ON under each scanned provider on week
/// boundaries — the rounds the live study scanned on. No live
/// `WeeklyScanReport` is needed.
///
/// Populations are counted over the context's provider posting lists,
/// skipping every site the campaign never classified under the provider:
/// a posting list is a superset of the provider's ON sites in every
/// round, so the count equals a full reclassification's.
///
/// The plan takes no options; callers build it with
/// `ResidualScanPlan::default()` (`#[non_exhaustive]` keeps that the one
/// spelling outside this crate).
#[derive(Clone, Copy, Debug, Default)]
#[non_exhaustive]
pub struct ResidualScanPlan;

impl ResidualScanPlan {
    /// Scan populations counted over the provider posting lists and
    /// cached columns only.
    pub fn execute_with(&self, ctx: &PlanContext<'_>) -> ResidualScanReport {
        let classified = ctx.classified();
        let scan_rounds: Vec<_> = classified
            .rounds()
            .iter()
            .filter(|r| r.meta().day % 7 == 0)
            .collect();
        ResidualScanReport {
            providers: RESIDUAL_PROVIDERS
                .into_iter()
                .map(|provider| {
                    let ranks: Vec<usize> = classified.index().postings(provider).collect();
                    let weekly = scan_rounds
                        .iter()
                        .map(|round| {
                            let day = round.meta().day;
                            let adopted = ranks
                                .iter()
                                .filter(|&&rank| {
                                    let class = round.class_at(rank);
                                    class.provider == Some(provider)
                                        && class.status == DpsStatus::On
                                })
                                .count();
                            ResidualScanWeek {
                                week: day / 7,
                                day,
                                adopted,
                            }
                        })
                        .collect();
                    ProviderResidualScan { provider, weekly }
                })
                .collect(),
        }
    }
}

/// One provider's row of the Fig 8 filtering funnel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FunnelRow {
    /// Provider name as recorded in the metric labels.
    pub provider: String,
    /// The provider's final recorded scan week.
    pub week: u32,
    /// Nameserver/CNAME answers retrieved that week.
    pub retrieved: u64,
    /// Survivors of the IP-matching filter.
    pub after_ip_matching: u64,
    /// Hidden records after A-matching.
    pub hidden: u64,
    /// HTML-verified exposed origins.
    pub verified: u64,
}

/// Fig 8 as a fold over the recorded `filter.*` counters: each provider's
/// final-week funnel, in first-seen provider order.
///
/// This is the query the old `render_fig8_from_obs` renderer ran inline;
/// it needs only an [`ObsReport`] (e.g. from `repro --metrics`), not the
/// snapshot store, because the funnel is journaled rather than derivable
/// from records.
pub fn funnel_rows(obs: &ObsReport) -> Vec<FunnelRow> {
    // Order-preserving accumulation: the vec keeps first-seen provider
    // order, the map makes each lookup O(1) instead of a linear probe
    // per counter (quadratic over providers × weeks).
    let mut providers: Vec<(&str, u32)> = Vec::new();
    let mut slots: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for (key, _) in obs.counters_named(FUNNEL_STAGES[0]) {
        let (Some(provider), Some(week)) = (key.label("provider"), key.label("week")) else {
            continue;
        };
        let Ok(week) = week.parse::<u32>() else {
            continue;
        };
        match slots.get(provider) {
            Some(&slot) => providers[slot].1 = providers[slot].1.max(week),
            None => {
                slots.insert(provider, providers.len());
                providers.push((provider, week));
            }
        }
    }
    providers
        .into_iter()
        .map(|(provider, week)| {
            let week_str = week.to_string();
            let labels = [("provider", provider), ("week", week_str.as_str())];
            let [retrieved, after_ip_matching, hidden, verified] =
                FUNNEL_STAGES.map(|stage| obs.counter(stage, &labels));
            FunnelRow {
                provider: provider.to_owned(),
                week,
                retrieved,
                after_ip_matching,
                hidden,
                verified,
            }
        })
        .collect()
}
