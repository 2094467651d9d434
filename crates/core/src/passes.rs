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
//! The fold reads a round as its shard columns ([`DerivedColumn`]s in
//! rank order) and works only where a site's class changed:
//!
//! - A shard whose column is the previous round's at the same position
//!   (`Arc::ptr_eq`, the test [`crate::ShardClassCache`] counts as a hit)
//!   is skipped: it adds no behavior, no pause transition and no
//!   multi-CDN mark.
//! - Any other shard is compared with the previous round byte by byte on
//!   its [`PackedAdoption`]s. Packing is injective, so equal bytes are
//!   equal classes: only the sites that differ are unpacked and run
//!   through the Table IV rules, the pause tracker and the FSM.
//! - The adoption sums come from a per-byte tally of the round's classes
//!   that the same changes keep current. Each round adds integer counts
//!   to the `f64` sums, which equals adding `1.0` per site because every
//!   partial sum is an integer below 2^53.
//!
//! [`observe_shards`](SnapshotPasses::observe_shards) is the fold;
//! [`observe`](SnapshotPasses::observe) and
//! [`observe_columns`](SnapshotPasses::observe_columns) adapt a snapshot
//! or a concatenated column onto it.
//!
//! Analyses that need a live transport (the Table V unchanged study, the
//! weekly residual scans) are *not* part of this fold: the fold hands the
//! per-round filtered behaviors back to the caller, which decides whether
//! to verify them against a world or merely to extract candidates.

use std::sync::Arc;

use remnant_provider::{ProviderId, ReroutingMethod};
use remnant_sim::stats::Series;
use remnant_sim::SimTime;
use remnant_world::BehaviorKind;

use crate::adoption::{Adoption, DpsStatus, PackedAdoption};
use crate::behavior::{transition, BehaviorDetector, ObservedBehavior};
use crate::classify::DerivedColumn;
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
/// Feed rounds in day order via
/// [`observe_shards`](SnapshotPasses::observe_shards) (or an adapter),
/// then take the reports with [`finish`](SnapshotPasses::finish).
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
    /// The latest round's shards, each with its first rank. Held so a
    /// new column cannot reuse a compared column's address.
    shards: Vec<(usize, Arc<DerivedColumn>)>,
    /// The latest round's class per site.
    classes: Vec<PackedAdoption>,
    /// The latest round's site count per class byte.
    tally: [usize; 256],
    /// The latest round's adopted sites in the top band.
    top_adopted: usize,
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
            shards: Vec::new(),
            classes: Vec::with_capacity(total_sites),
            tally: [0; 256],
            top_adopted: 0,
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

    /// Folds in one daily snapshot through its blocks' carried columns
    /// (see [`observe_shards`](SnapshotPasses::observe_shards)); no
    /// record is read.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot does not cover the configured site count.
    pub fn observe(&mut self, day: u32, snapshot: &DnsSnapshot) -> Vec<ObservedBehavior> {
        let shards: Vec<Arc<DerivedColumn>> = snapshot
            .block_sources()
            .map(|(_, source)| Arc::clone(source.derived()))
            .collect();
        self.observe_shards(day, snapshot.taken_at, &shards)
    }

    /// [`observe_shards`](SnapshotPasses::observe_shards) over one
    /// concatenated round: the per-site adoption column plus the global
    /// ranks flagged as multi-CDN front-ends (Sec IV-B.3). The round is
    /// packed into a single fresh shard, so nothing is skipped as
    /// chained.
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
        let column = DerivedColumn {
            classes: classes.iter().map(PackedAdoption::pack).collect(),
            multi_cdn: multi_cdn_ranks
                .iter()
                .map(|&rank| u32::try_from(rank).expect("a rank fits a site index"))
                .collect(),
            ..DerivedColumn::default()
        };
        self.observe_shards(day, taken_at, &[Arc::new(column)])
    }

    /// Folds in one daily round, given as its shard columns in rank
    /// order, observed at `taken_at`, and returns the day's observed
    /// behaviors, already filtered of multi-CDN front-ends (empty on the
    /// first round — there is nothing to diff against).
    ///
    /// # Panics
    ///
    /// Panics if the shards do not cover the configured site count.
    pub fn observe_shards(
        &mut self,
        day: u32,
        taken_at: SimTime,
        shards: &[Arc<DerivedColumn>],
    ) -> Vec<ObservedBehavior> {
        assert_eq!(
            shards.iter().map(|shard| shard.len()).sum::<usize>(),
            self.total_sites,
            "columns cover the configured targets"
        );
        let first = self.rounds == 0;
        self.pause_tracker.tick(taken_at);

        // The time between consecutive experiments is recoverable from
        // the snapshots themselves: only the between-round step advances
        // the virtual clock, so consecutive `taken_at` instants differ by
        // exactly the interval.
        if let Some(prev) = self.prev_taken_at {
            self.interval_hours.push(taken_at.since(prev).as_hours());
        }
        self.prev_taken_at = Some(taken_at);

        let mut behaviors = Vec::new();
        let mut held = Vec::with_capacity(shards.len());
        let mut base = 0;
        for (i, shard) in shards.iter().enumerate() {
            let chained = self
                .shards
                .get(i)
                .is_some_and(|(prev_base, prev)| *prev_base == base && Arc::ptr_eq(prev, shard));
            if !chained {
                // Multi-CDN front-ends are identified by their balancer
                // CNAMEs and excluded from behavior analysis (Sec
                // IV-B.3). The marks stick, so a chained shard's are set.
                for &site in &shard.multi_cdn {
                    self.multi_cdn[base + site as usize] = true;
                }
                if first {
                    self.classes.extend_from_slice(&shard.classes);
                } else {
                    for (offset, &after) in shard.classes.iter().enumerate() {
                        let before = self.classes[base + offset];
                        if before != after {
                            self.change(base + offset, before, after, &mut behaviors);
                        }
                    }
                }
            }
            held.push((base, Arc::clone(shard)));
            base += shard.len();
        }
        self.shards = held;

        if first {
            for class in &self.classes {
                self.tally[usize::from(class.byte())] += 1;
            }
            self.top_adopted = self.classes[..self.top_band]
                .iter()
                .filter(|c| c.unpack().is_adopted())
                .count();
            self.fsm_states = self
                .classes
                .iter()
                .map(|c| adoption_to_state(&c.unpack()))
                .collect();
        } else {
            for (kind, series) in &mut self.series {
                let count = behaviors.iter().filter(|b| b.kind == *kind).count();
                series.push(f64::from(day), count as f64);
            }
        }
        self.add_adoption(first);
        self.rounds += 1;
        behaviors
    }

    /// One site whose class byte differs from the previous round's:
    /// updates the tally and the pause tracker, and, for a Table IV
    /// behavior outside the multi-CDN exclusion, records it and steps the
    /// site's FSM (Fig 4).
    fn change(
        &mut self,
        rank: usize,
        before: PackedAdoption,
        after: PackedAdoption,
        behaviors: &mut Vec<ObservedBehavior>,
    ) {
        self.classes[rank] = after;
        self.tally[usize::from(before.byte())] -= 1;
        self.tally[usize::from(after.byte())] += 1;
        let (before, after) = (before.unpack(), after.unpack());
        if rank < self.top_band {
            self.top_adopted += usize::from(after.is_adopted());
            self.top_adopted -= usize::from(before.is_adopted());
        }
        self.pause_tracker.change(rank, &before, &after);

        let Some(kind) = transition(&before, &after) else {
            return;
        };
        if self.multi_cdn[rank] {
            return;
        }
        behaviors.push(ObservedBehavior {
            rank,
            kind,
            from: before.provider,
            to: after.provider,
        });
        let observed = adoption_to_state(&after);
        match fsm::apply(self.fsm_states[rank], kind, after.provider) {
            Ok(next) => self.fsm_states[rank] = next,
            Err(_) => {
                self.fsm_violations += 1;
                self.fsm_states[rank] = observed;
            }
        }
        // Re-anchor paused observations the FSM optimistically set to ON
        // (the paper's "joins start ON" assumption).
        if self.fsm_states[rank].provider() == observed.provider() {
            self.fsm_states[rank] = observed;
        }
    }

    /// Adds the latest round's tally to the adoption sums (Fig 2 / Fig 6).
    fn add_adoption(&mut self, first: bool) {
        let mut adopted = 0;
        let mut by_provider = [0usize; ProviderId::ALL.len()];
        for (byte, &count) in (0..=u8::MAX).zip(&self.tally) {
            if count == 0 {
                continue;
            }
            let class = PackedAdoption::from_byte(byte)
                .expect("tallied bytes are packed classes")
                .unpack();
            if class.is_adopted() {
                adopted += count;
            }
            if let Some(provider) = class.provider {
                by_provider[provider.index()] += count;
                if provider == ProviderId::Cloudflare && class.status == DpsStatus::On {
                    match class.rerouting {
                        Some(ReroutingMethod::Ns) => self.cf_ns_sum += count as u64,
                        Some(ReroutingMethod::Cname) => self.cf_cname_sum += count as u64,
                        _ => {}
                    }
                }
            }
        }
        for (slot, count) in self.adoption_sum_by_provider.iter_mut().zip(by_provider) {
            slot.1 += count as f64;
        }
        let rate = adopted as f64 / self.total_sites as f64;
        self.overall_rate_sum += rate;
        if first {
            self.first_day_rate = rate;
        }
        self.last_day_rate = rate;
        self.top_band_rate_sum += self.top_adopted as f64 / self.top_band as f64;
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
