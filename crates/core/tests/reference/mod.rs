//! The snapshot passes' per-site reference: every round unpacked into a
//! full `Vec<Adoption>` and walked site by site for the adoption sums,
//! the pause windows and the Table IV diff, with no shard skipped and no
//! byte compared. It is the oracle `SnapshotPasses` is checked against
//! (`crates/core/tests/fold_oracle.rs`,
//! `crates/bench/tests/query_cache_equivalence.rs` and the scanner
//! bench), so it lives outside `src/` and names only public API; other
//! crates include it by path.

#![allow(dead_code)]

use std::collections::HashMap;

use remnant_core::behavior::{is_multi_cdn_view, transition, ObservedBehavior};
use remnant_core::fsm::{self, DpsState};
use remnant_core::pause::PauseWindow;
use remnant_core::study::{AdoptionReport, BehaviorReport, PauseReport};
use remnant_core::{Adoption, BehaviorDetector, DnsSnapshot, DpsStatus, SnapshotAggregates};
use remnant_provider::{ProviderId, ReroutingMethod};
use remnant_sim::stats::{Ecdf, Series};
use remnant_sim::SimTime;
use remnant_world::BehaviorKind;

/// The reference fold; see the module docs.
pub struct ReferencePasses {
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
    pauses: ReferencePauses,
    rounds: u32,
}

impl ReferencePasses {
    pub fn new(total_sites: usize) -> Self {
        ReferencePasses {
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
            pauses: ReferencePauses::default(),
            rounds: 0,
        }
    }

    /// Folds in one round classified from its records: every site through
    /// `BehaviorDetector::classify_snapshot`, every multi-CDN front-end
    /// through `is_multi_cdn_view`. No derived column is read.
    pub fn observe_records(&mut self, day: u32, snapshot: &DnsSnapshot) -> Vec<ObservedBehavior> {
        let classes = BehaviorDetector::new().classify_snapshot(snapshot);
        let mut multi_cdn_ranks = Vec::new();
        for loaded in snapshot.blocks() {
            multi_cdn_ranks.extend(
                loaded
                    .block
                    .sites()
                    .enumerate()
                    .filter(|(_, site)| is_multi_cdn_view(*site))
                    .map(|(i, _)| loaded.base_rank + i),
            );
        }
        self.observe(day, snapshot.taken_at, classes, &multi_cdn_ranks)
    }

    /// Folds in one round's full-length classes and multi-CDN ranks.
    pub fn observe(
        &mut self,
        day: u32,
        taken_at: SimTime,
        classes: Vec<Adoption>,
        multi_cdn_ranks: &[usize],
    ) -> Vec<ObservedBehavior> {
        assert_eq!(classes.len(), self.total_sites);
        for &rank in multi_cdn_ranks {
            self.multi_cdn[rank] = true;
        }

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
                self.adoption_sum_by_provider[provider.index()].1 += 1.0;
                if provider == ProviderId::Cloudflare && class.status == DpsStatus::On {
                    match class.rerouting {
                        Some(ReroutingMethod::Ns) => self.cf_ns_sum += 1,
                        Some(ReroutingMethod::Cname) => self.cf_cname_sum += 1,
                        _ => {}
                    }
                }
            }
        }

        self.pauses.observe(taken_at, &classes);

        if let Some(prev) = self.prev_taken_at {
            self.interval_hours.push(taken_at.since(prev).as_hours());
        }
        self.prev_taken_at = Some(taken_at);

        let mut behaviors = Vec::new();
        if let Some(prev) = &self.prev_classes {
            behaviors = diff(prev, &classes);
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
            overall: self.pauses.cdf(|_| true),
            cloudflare: self.pauses.cdf(|w| at(w, ProviderId::Cloudflare)),
            incapsula: self.pauses.cdf(|w| at(w, ProviderId::Incapsula)),
        };

        SnapshotAggregates {
            adoption,
            behaviors,
            pauses,
        }
    }
}

/// Every site of two consecutive rounds through the Table IV rules.
pub fn diff(prev: &[Adoption], curr: &[Adoption]) -> Vec<ObservedBehavior> {
    assert_eq!(prev.len(), curr.len());
    prev.iter()
        .zip(curr)
        .enumerate()
        .filter_map(|(rank, (before, after))| {
            transition(before, after).map(|kind| ObservedBehavior {
                rank,
                kind,
                from: before.provider,
                to: after.provider,
            })
        })
        .collect()
}

/// Pause windows from full rounds: every site's status pair, every round.
#[derive(Default)]
struct ReferencePauses {
    open: HashMap<usize, (SimTime, u32, Option<ProviderId>)>,
    windows: Vec<PauseWindow>,
    prev: Option<Vec<Adoption>>,
    observations: u32,
}

impl ReferencePauses {
    fn observe(&mut self, when: SimTime, classes: &[Adoption]) {
        let observation = self.observations;
        self.observations += 1;
        if let Some(prev) = &self.prev {
            for (rank, (before, after)) in prev.iter().zip(classes).enumerate() {
                match (before.status, after.status) {
                    (DpsStatus::On, DpsStatus::Off) => {
                        self.open.insert(rank, (when, observation, after.provider));
                    }
                    (DpsStatus::Off, DpsStatus::On) => {
                        if let Some((start, start_observation, provider)) = self.open.remove(&rank)
                        {
                            self.windows.push(PauseWindow {
                                rank,
                                paused_at_provider: provider,
                                resumed_at_provider: after.provider,
                                start,
                                start_observation,
                                end: Some(when),
                                end_observation: Some(observation),
                            });
                        }
                    }
                    (DpsStatus::Off, DpsStatus::None) => {
                        if let Some((start, start_observation, provider)) = self.open.remove(&rank)
                        {
                            self.windows.push(PauseWindow {
                                rank,
                                paused_at_provider: provider,
                                resumed_at_provider: None,
                                start,
                                start_observation,
                                end: None,
                                end_observation: None,
                            });
                        }
                    }
                    _ => {}
                }
            }
        }
        self.prev = Some(classes.to_vec());
    }

    fn cdf(&self, keep: impl Fn(&PauseWindow) -> bool) -> Ecdf {
        self.windows
            .iter()
            .filter(|w| keep(w))
            .filter_map(PauseWindow::duration_days)
            .collect()
    }
}

/// A window paused and resumed at `provider`.
fn at(window: &PauseWindow, provider: ProviderId) -> bool {
    window.same_provider() && window.paused_at_provider == Some(provider)
}

fn adoption_to_state(adoption: &Adoption) -> DpsState {
    match (adoption.status, adoption.provider) {
        (DpsStatus::On, Some(p)) => DpsState::On(p),
        (DpsStatus::Off, Some(p)) => DpsState::Off(p),
        _ => DpsState::None,
    }
}
