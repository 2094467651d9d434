//! The snapshot-derived analysis passes, as one reusable fold.
//!
//! [`SnapshotPasses`] is the single implementation of every analysis that
//! depends only on the daily record snapshots: adoption classification
//! (Fig 2 / Fig 6), behavior diffing (Fig 3), FSM validation (Fig 4), and
//! pause tracking (Fig 5). [`crate::StudySession`] feeds it each
//! round as it is collected; the `remnant-query` crate feeds it the same
//! rounds replayed from a persisted spill directory. Because both paths
//! run the identical fold over identical snapshots, their reports are
//! byte-identical by construction — the query-equivalence differential
//! test pins this down.
//!
//! Analyses that need a live transport (the Table V unchanged study, the
//! weekly residual scans) are *not* part of this fold: the fold hands the
//! per-round filtered behaviors back to the caller, which decides whether
//! to verify them against a world or merely to extract candidates.

use remnant_provider::{ProviderId, ReroutingMethod};
use remnant_sim::stats::Series;
use remnant_sim::SimTime;
use remnant_world::BehaviorKind;

use crate::adoption::{Adoption, DpsStatus};
use crate::behavior::{BehaviorDetector, ObservedBehavior};
use crate::classify::concat_columns;
use crate::fsm::{self, DpsState};
use crate::pause::PauseTracker;
use crate::snapshot::DnsSnapshot;
use crate::study::{AdoptionReport, BehaviorReport, PauseReport};

/// The reports produced by a completed [`SnapshotPasses`] fold.
#[derive(Clone, Debug, Default)]
pub struct SnapshotAggregates {
    /// Fig 2 / Fig 6.
    pub adoption: AdoptionReport,
    /// Fig 3 / Fig 4.
    pub behaviors: BehaviorReport,
    /// Fig 5.
    pub pauses: PauseReport,
}

/// Streaming fold over a campaign's daily snapshots (see module docs).
///
/// Feed rounds in day order via [`observe`](SnapshotPasses::observe), then
/// take the reports with [`finish`](SnapshotPasses::finish).
#[derive(Clone, Debug)]
pub struct SnapshotPasses {
    pause_tracker: PauseTracker,
    total_sites: usize,
    top_band: usize,
    series: Vec<(BehaviorKind, Series)>,
    adoption_sum_by_provider: Vec<(ProviderId, f64)>,
    overall_rate_sum: f64,
    top_band_rate_sum: f64,
    cf_ns_sum: u64,
    cf_cname_sum: u64,
    first_day_rate: f64,
    last_day_rate: f64,
    fsm_states: Vec<DpsState>,
    fsm_violations: usize,
    multi_cdn: Vec<bool>,
    interval_hours: Vec<u64>,
    prev_taken_at: Option<SimTime>,
    prev_classes: Option<Vec<Adoption>>,
    rounds: u32,
}

impl SnapshotPasses {
    /// Creates a fold over a campaign of `total_sites` ranked targets.
    pub fn new(total_sites: usize) -> Self {
        SnapshotPasses {
            pause_tracker: PauseTracker::new(),
            total_sites,
            top_band: (total_sites / 100).max(1),
            series: BehaviorKind::ALL
                .into_iter()
                .map(|k| (k, Series::new(k.to_string())))
                .collect(),
            adoption_sum_by_provider: ProviderId::ALL.into_iter().map(|p| (p, 0.0)).collect(),
            overall_rate_sum: 0.0,
            top_band_rate_sum: 0.0,
            cf_ns_sum: 0,
            cf_cname_sum: 0,
            first_day_rate: 0.0,
            last_day_rate: 0.0,
            fsm_states: Vec::new(),
            fsm_violations: 0,
            multi_cdn: vec![false; total_sites],
            interval_hours: Vec::new(),
            prev_taken_at: None,
            prev_classes: None,
            rounds: 0,
        }
    }

    /// Rounds observed so far.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// The detector every column is derived with. Classes arrive
    /// derived at collection, so the fold itself classifies nothing.
    pub fn detector(&self) -> &BehaviorDetector {
        BehaviorDetector::standard()
    }

    /// Folds in one daily snapshot and returns the day's observed
    /// behaviors, already filtered of multi-CDN front-ends (empty on the
    /// first round — there is nothing to diff against).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot does not cover the configured site count.
    pub fn observe(&mut self, day: u32, snapshot: &DnsSnapshot) -> Vec<ObservedBehavior> {
        assert_eq!(
            snapshot.len(),
            self.total_sites,
            "snapshot covers the configured targets"
        );
        // Every block carries its classes and multi-CDN sites from
        // collection; no record is read.
        let columns = concat_columns(snapshot.derived_columns());
        self.observe_columns(
            day,
            snapshot.taken_at,
            columns.classes,
            &columns.multi_cdn_ranks,
        )
    }

    /// [`observe`](SnapshotPasses::observe) over concatenated columns:
    /// the per-site adoption column for the round plus the global ranks
    /// flagged as multi-CDN front-ends (Sec IV-B.3). The live session and
    /// the query layer's `ClassifiedStore` feed carried columns through
    /// here, so the fold's arithmetic (and therefore every derived
    /// report) is shared, not re-implemented.
    ///
    /// # Panics
    ///
    /// Panics if the column does not cover the configured site count.
    pub fn observe_columns(
        &mut self,
        day: u32,
        taken_at: SimTime,
        classes: Vec<Adoption>,
        multi_cdn_ranks: &[usize],
    ) -> Vec<ObservedBehavior> {
        assert_eq!(
            classes.len(),
            self.total_sites,
            "columns cover the configured targets"
        );
        // Multi-CDN front-ends are identified by their balancer CNAMEs
        // and excluded from behavior analysis (Sec IV-B.3).
        for &rank in multi_cdn_ranks {
            self.multi_cdn[rank] = true;
        }

        // Adoption accumulation (Fig 2 / Fig 6).
        let adopted = classes.iter().filter(|c| c.is_adopted()).count();
        let rate = adopted as f64 / self.total_sites as f64;
        self.overall_rate_sum += rate;
        if self.rounds == 0 {
            self.first_day_rate = rate;
            self.fsm_states = classes.iter().map(adoption_to_state).collect();
        }
        self.last_day_rate = rate;
        let top_adopted = classes[..self.top_band]
            .iter()
            .filter(|c| c.is_adopted())
            .count();
        self.top_band_rate_sum += top_adopted as f64 / self.top_band as f64;
        for class in &classes {
            if let Some(provider) = class.provider {
                let slot = &mut self.adoption_sum_by_provider[provider.index()];
                debug_assert_eq!(slot.0, provider);
                slot.1 += 1.0;
                if provider == ProviderId::Cloudflare && class.status == DpsStatus::On {
                    match class.rerouting {
                        Some(ReroutingMethod::Ns) => self.cf_ns_sum += 1,
                        Some(ReroutingMethod::Cname) => self.cf_cname_sum += 1,
                        _ => {}
                    }
                }
            }
        }

        // Pause windows (Fig 5).
        self.pause_tracker.observe(taken_at, &classes);

        // The time between consecutive experiments is recoverable from
        // the snapshots themselves: only the between-round step advances
        // the virtual clock, so consecutive `taken_at` instants differ by
        // exactly the interval.
        if let Some(prev) = self.prev_taken_at {
            self.interval_hours.push(taken_at.since(prev).as_hours());
        }
        self.prev_taken_at = Some(taken_at);

        // Behaviors (Fig 3) + FSM validation (Fig 4).
        let mut behaviors = Vec::new();
        if let Some(prev) = &self.prev_classes {
            behaviors = BehaviorDetector::standard().diff(prev, &classes);
            behaviors.retain(|b| !self.multi_cdn[b.rank]);
            for (kind, series) in &mut self.series {
                let count = behaviors.iter().filter(|b| b.kind == *kind).count();
                series.push(f64::from(day), count as f64);
            }
            for behavior in &behaviors {
                match fsm::apply(self.fsm_states[behavior.rank], behavior.kind, behavior.to) {
                    Ok(next) => self.fsm_states[behavior.rank] = next,
                    Err(_) => {
                        self.fsm_violations += 1;
                        self.fsm_states[behavior.rank] = adoption_to_state(&classes[behavior.rank]);
                    }
                }
            }
            // Re-anchor paused observations the FSM optimistically set
            // to ON (the paper's "joins start ON" assumption).
            for behavior in &behaviors {
                let observed = adoption_to_state(&classes[behavior.rank]);
                if self.fsm_states[behavior.rank].provider() == observed.provider() {
                    self.fsm_states[behavior.rank] = observed;
                }
            }
        }

        self.prev_classes = Some(classes);
        self.rounds += 1;
        behaviors
    }

    /// Finalizes the fold into the adoption, behavior and pause reports.
    pub fn finish(self) -> SnapshotAggregates {
        let days = f64::from(self.rounds.max(1));
        let mut adoption = AdoptionReport {
            total_sites: self.total_sites,
            days_observed: self.rounds,
            avg_by_provider: self
                .adoption_sum_by_provider
                .into_iter()
                .map(|(p, sum)| (p, sum / days))
                .collect(),
            overall_rate: self.overall_rate_sum / days,
            top_band_rate: self.top_band_rate_sum / days,
            first_day_rate: self.first_day_rate,
            last_day_rate: self.last_day_rate,
            ..AdoptionReport::default()
        };
        let cf_total = (self.cf_ns_sum + self.cf_cname_sum).max(1) as f64;
        adoption.cloudflare_ns_share = self.cf_ns_sum as f64 / cf_total;
        adoption.cloudflare_cname_share = self.cf_cname_sum as f64 / cf_total;

        let behaviors = BehaviorReport {
            series: self.series,
            interval_hours: self.interval_hours,
            fsm_violations: self.fsm_violations,
            multi_cdn_excluded: self.multi_cdn.iter().filter(|m| **m).count(),
        };

        let pauses = PauseReport {
            overall: self.pause_tracker.cdf_overall(),
            cloudflare: self.pause_tracker.cdf_for(ProviderId::Cloudflare),
            incapsula: self.pause_tracker.cdf_for(ProviderId::Incapsula),
        };

        SnapshotAggregates {
            adoption,
            behaviors,
            pauses,
        }
    }
}

/// Maps an observed classification to an FSM state.
fn adoption_to_state(adoption: &Adoption) -> DpsState {
    match (adoption.status, adoption.provider) {
        (DpsStatus::On, Some(p)) => DpsState::On(p),
        (DpsStatus::Off, Some(p)) => DpsState::Off(p),
        _ => DpsState::None,
    }
}
