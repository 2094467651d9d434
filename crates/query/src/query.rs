//! The columnar query API over a [`SnapshotStore`]: filter rounds, project
//! record columns, join consecutive rounds, diff generations, and fold
//! into deterministic aggregates.
//!
//! A [`RoundsQuery`] is a cheap, immutable selection of round indexes.
//! Filters narrow it without touching the disk; terminal operations
//! ([`snapshots`](RoundsQuery::snapshots), [`project`](RoundsQuery::project),
//! [`fold`](RoundsQuery::fold), …) reconstruct snapshots lazily, one round
//! at a time, and stream per-shard frames from the spill files while a
//! block is in scope — so a query over a month of rounds peaks at one
//! block of record data, the same bound the collector itself ran under.
//!
//! All outputs are deterministic: rounds are visited in collection order,
//! sites in rank order, so every aggregate is byte-reproducible across
//! runs, worker counts, and full/delta/spill campaign modes.

use std::ops::{Bound, RangeBounds};

use remnant_core::DnsSnapshot;
use remnant_sim::stats::{Ecdf, Series};

use crate::store::{RoundKind, RoundMeta, SnapshotStore};

/// Which record column a projection reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordClass {
    /// Terminal A addresses of the www host.
    A,
    /// CNAME chain targets of the www host.
    Cname,
    /// NS hostnames of the apex.
    Ns,
}

impl RecordClass {
    fn label(self) -> &'static str {
        match self {
            RecordClass::A => "a",
            RecordClass::Cname => "cname",
            RecordClass::Ns => "ns",
        }
    }
}

/// One selected round, reconstructed: timeline metadata plus the snapshot.
#[derive(Clone, Debug)]
pub struct RoundSnapshot {
    /// The round's position on the campaign timeline.
    pub meta: RoundMeta,
    /// The reconstructed snapshot (record blocks still lazy if spilled).
    pub snapshot: DnsSnapshot,
}

/// Two consecutive selected rounds, for diff-style analyses.
#[derive(Clone, Debug)]
pub struct JoinedRounds {
    /// The earlier round.
    pub prev: RoundSnapshot,
    /// The later round.
    pub curr: RoundSnapshot,
}

/// A column projection folded over every selected round.
#[derive(Clone, Debug)]
pub struct Projection {
    /// Which column was projected.
    pub class: RecordClass,
    /// Total records of the class across all selected rounds.
    pub total: u64,
    /// Records of the class per round, keyed by day.
    pub per_round: Series,
    /// ECDF of per-site record counts across all selected rounds.
    pub per_site: Ecdf,
}

/// One round's generation delta, read from the store's metadata alone.
#[derive(Clone, Debug)]
pub struct GenerationDiff {
    /// The round number.
    pub round: u64,
    /// The round's study day.
    pub day: u32,
    /// How the round was persisted.
    pub kind: RoundKind,
    /// Shards the round re-resolved and wrote itself.
    pub dirty: usize,
    /// Shards chained unchanged from earlier rounds.
    pub clean: usize,
}

/// An immutable selection of rounds — see the module docs.
#[derive(Clone)]
pub struct RoundsQuery<'a> {
    store: &'a SnapshotStore,
    selected: Vec<usize>,
}

fn contains_u64(range: &impl RangeBounds<u64>, v: u64) -> bool {
    (match range.start_bound() {
        Bound::Included(&s) => v >= s,
        Bound::Excluded(&s) => v > s,
        Bound::Unbounded => true,
    }) && (match range.end_bound() {
        Bound::Included(&e) => v <= e,
        Bound::Excluded(&e) => v < e,
        Bound::Unbounded => true,
    })
}

impl<'a> RoundsQuery<'a> {
    pub(crate) fn all(store: &'a SnapshotStore) -> Self {
        RoundsQuery {
            store,
            selected: (0..store.len()).collect(),
        }
    }

    /// Keeps rounds whose 0-based round number falls in `range`.
    pub fn rounds(mut self, range: impl RangeBounds<u64>) -> Self {
        self.selected
            .retain(|&i| contains_u64(&range, self.store.meta(i).round));
        self
    }

    /// Keeps rounds whose study day falls in `range`.
    pub fn days(mut self, range: impl RangeBounds<u64>) -> Self {
        self.selected
            .retain(|&i| contains_u64(&range, u64::from(self.store.meta(i).day)));
        self
    }

    /// Keeps rounds of one 0-based study week (days `7w .. 7w+7`).
    pub fn week(self, week: u32) -> Self {
        let start = u64::from(week) * 7;
        self.days(start..start + 7)
    }

    /// Keeps rounds whose 0-based study week falls in `range`.
    pub fn weeks(mut self, range: impl RangeBounds<u64>) -> Self {
        self.selected
            .retain(|&i| contains_u64(&range, u64::from(self.store.meta(i).day) / 7));
        self
    }

    /// Selected rounds.
    pub fn len(&self) -> usize {
        self.selected.len()
    }

    /// True if no round survived the filters.
    pub fn is_empty(&self) -> bool {
        self.selected.is_empty()
    }

    /// The selected rounds' timeline metadata, in round order.
    pub fn metas(&self) -> impl Iterator<Item = &'a RoundMeta> + '_ {
        self.selected.iter().map(|&i| self.store.meta(i))
    }

    /// Reconstructs the selected rounds lazily, in round order.
    pub fn snapshots(&self) -> impl Iterator<Item = RoundSnapshot> + '_ {
        self.selected.iter().map(|&i| RoundSnapshot {
            meta: self.store.meta(i).clone(),
            snapshot: self.store.snapshot(i),
        })
    }

    /// Joins consecutive selected rounds into `(prev, curr)` pairs —
    /// one fewer item than [`snapshots`](Self::snapshots) yields.
    pub fn joined(&self) -> impl Iterator<Item = JoinedRounds> + '_ {
        let mut prev: Option<RoundSnapshot> = None;
        self.snapshots().filter_map(move |curr| {
            let joined = prev.take().map(|p| JoinedRounds {
                prev: p,
                curr: curr.clone(),
            });
            prev = Some(curr);
            joined
        })
    }

    /// Folds an accumulator over the selected rounds in collection order.
    pub fn fold<B, F>(&self, init: B, mut f: F) -> B
    where
        F: FnMut(B, &RoundSnapshot) -> B,
    {
        let mut acc = init;
        for round in self.snapshots() {
            acc = f(acc, &round);
        }
        acc
    }

    /// A `(day, value)` series: one point per selected round.
    pub fn series<F>(&self, label: impl Into<String>, mut f: F) -> Series
    where
        F: FnMut(&RoundSnapshot) -> f64,
    {
        let mut series = Series::new(label.into());
        for round in self.snapshots() {
            let y = f(&round);
            series.push(f64::from(round.meta.day), y);
        }
        series
    }

    /// An ECDF of one sample per site per selected round.
    pub fn ecdf<F>(&self, mut f: F) -> Ecdf
    where
        F: FnMut(remnant_core::SiteView<'_>) -> f64,
    {
        let mut ecdf = Ecdf::new();
        for round in self.snapshots() {
            for loaded in round.snapshot.blocks() {
                for i in 0..loaded.block.len() {
                    ecdf.push(f(loaded.block.site(i)));
                }
            }
        }
        ecdf
    }

    /// Projects one record column across the selected rounds.
    pub fn project(&self, class: RecordClass) -> Projection {
        let mut total = 0u64;
        let mut per_round = Series::new(format!("records.{}", class.label()));
        let mut per_site = Ecdf::new();
        for round in self.snapshots() {
            let mut round_total = 0u64;
            for loaded in round.snapshot.blocks() {
                for i in 0..loaded.block.len() {
                    let site = loaded.block.site(i);
                    let n = match class {
                        RecordClass::A => site.a.len(),
                        RecordClass::Cname => site.cnames.len(),
                        RecordClass::Ns => site.ns.len(),
                    };
                    round_total += n as u64;
                    per_site.push(n as f64);
                }
            }
            total += round_total;
            per_round.push(f64::from(round.meta.day), round_total as f64);
        }
        Projection {
            class,
            total,
            per_round,
            per_site,
        }
    }

    /// Each selected round's generation delta — dirty vs chained-clean
    /// shards — read from store metadata alone (no record I/O).
    pub fn generation_diff(&self) -> Vec<GenerationDiff> {
        let shards = self.store.shard_count() as usize;
        self.metas()
            .map(|meta| GenerationDiff {
                round: meta.round,
                day: meta.day,
                kind: meta.kind,
                dirty: meta.dirty_shards.len(),
                clean: shards - meta.dirty_shards.len(),
            })
            .collect()
    }
}
