//! Exposure timelines across weekly scans (Table VI totals and Fig 9).

use std::collections::BTreeSet;

use crate::residual::filters::WeeklyScanReport;

/// Aggregates weekly scan reports into the paper's summary statistics.
#[derive(Clone, Debug, Default)]
pub struct ExposureTracker {
    /// Per-week (hidden ranks, verified ranks).
    weeks: Vec<(BTreeSet<usize>, BTreeSet<usize>)>,
}

impl ExposureTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        ExposureTracker::default()
    }

    /// Folds a sequence of weekly reports (in week order) into a tracker.
    ///
    /// This is the query-layer shape of the exposure analysis: a pure
    /// deterministic fold over the weekly scan outputs, usable both by
    /// the live study and by a replay from persisted campaign data.
    pub fn fold<'a>(reports: impl IntoIterator<Item = &'a WeeklyScanReport>) -> Self {
        let mut tracker = ExposureTracker::new();
        for report in reports {
            tracker.push(report);
        }
        tracker
    }

    /// Feeds one weekly report (in week order).
    fn push(&mut self, report: &WeeklyScanReport) {
        let hidden = report.hidden.iter().map(|h| h.rank).collect();
        let verified = report.verified.iter().copied().collect();
        self.weeks.push((hidden, verified));
    }

    /// Per-week (hidden count, verified count, verified %) — the weekly
    /// rows of Table VI.
    pub fn weekly_rows(&self) -> Vec<(usize, usize, f64)> {
        self.weeks
            .iter()
            .map(|(hidden, verified)| {
                let pct = if hidden.is_empty() {
                    0.0
                } else {
                    verified.len() as f64 / hidden.len() as f64
                };
                (hidden.len(), verified.len(), pct)
            })
            .collect()
    }

    /// Distinct hidden records across all weeks (Table VI "Total").
    pub fn total_hidden(&self) -> usize {
        self.union_hidden().len()
    }

    /// Distinct verified origins across all weeks (Table VI "Total").
    pub fn total_verified(&self) -> usize {
        self.union_verified().len()
    }

    /// Total verified / total hidden, if any hidden records exist.
    pub fn total_verified_rate(&self) -> Option<f64> {
        let hidden = self.total_hidden();
        (hidden > 0).then(|| self.total_verified() as f64 / hidden as f64)
    }

    /// Verified origins first seen in week `w` (Fig 9 "newly exposed").
    /// Week 0 reports the initial pool.
    pub fn newly_exposed_per_week(&self) -> Vec<usize> {
        let mut seen = BTreeSet::new();
        self.weeks
            .iter()
            .map(|(_, verified)| {
                let new = verified.difference(&seen).count();
                seen.extend(verified.iter().copied());
                new
            })
            .collect()
    }

    /// Origins verified in *every* week (Fig 9's always-exposed cohort —
    /// exposure duration spanning the whole measurement).
    pub fn always_exposed(&self) -> usize {
        let Some((_, first)) = self.weeks.first() else {
            return 0;
        };
        let mut always = first.clone();
        for (_, verified) in &self.weeks[1..] {
            always = always.intersection(verified).copied().collect();
        }
        always.len()
    }

    /// Origins whose exposure both appeared and disappeared within the
    /// measurement: absent in the first week, present somewhere in the
    /// middle, absent again in the last week (Fig 9's bounded cohort).
    pub fn bounded_exposures(&self) -> usize {
        if self.weeks.len() < 3 {
            return 0;
        }
        let first = &self.weeks.first().expect("nonempty").1;
        let last = &self.weeks.last().expect("nonempty").1;
        self.union_verified()
            .into_iter()
            .filter(|rank| !first.contains(rank) && !last.contains(rank))
            .count()
    }

    fn union_hidden(&self) -> BTreeSet<usize> {
        self.weeks
            .iter()
            .flat_map(|(hidden, _)| hidden.iter().copied())
            .collect()
    }

    fn union_verified(&self) -> BTreeSet<usize> {
        self.weeks
            .iter()
            .flat_map(|(_, verified)| verified.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::residual::HiddenRecord;
    use remnant_provider::ProviderId;

    /// Builds a weekly report with the given hidden/verified rank sets.
    fn report(week: u32, hidden: &[usize], verified: &[usize]) -> WeeklyScanReport {
        WeeklyScanReport {
            provider: ProviderId::Cloudflare,
            week,
            retrieved: hidden.len() + 5,
            after_ip_matching: hidden.len(),
            hidden: hidden
                .iter()
                .map(|rank| HiddenRecord {
                    rank: *rank,
                    apex: format!("site{rank}.com").parse().unwrap(),
                    hidden: vec![[10, 0, 0, *rank as u8].into()],
                    public: vec![],
                })
                .collect(),
            verified: verified.to_vec(),
        }
    }

    fn tracker(weeks: &[(&[usize], &[usize])]) -> ExposureTracker {
        let reports: Vec<WeeklyScanReport> = weeks
            .iter()
            .enumerate()
            .map(|(i, (hidden, verified))| report(i as u32, hidden, verified))
            .collect();
        ExposureTracker::fold(&reports)
    }

    #[test]
    fn totals_deduplicate_across_weeks() {
        let t = tracker(&[
            (&[1, 2, 3], &[1, 2]),
            (&[2, 3, 4], &[2]),
            (&[3, 4, 5], &[3, 4]),
        ]);
        assert_eq!(t.total_hidden(), 5);
        assert_eq!(t.total_verified(), 4);
        assert!((t.total_verified_rate().unwrap() - 0.8).abs() < 1e-9);
        assert_eq!(t.weekly_rows().len(), 3);
    }

    #[test]
    fn weekly_rows_report_percentages() {
        let t = tracker(&[(&[1, 2, 3, 4], &[1])]);
        let rows = t.weekly_rows();
        assert_eq!(rows, vec![(4, 1, 0.25)]);
    }

    #[test]
    fn newly_exposed_counts_first_appearances() {
        let t = tracker(&[
            (&[1, 2], &[1, 2]),
            (&[1, 2, 3], &[1, 3]),
            (&[1, 4], &[1, 2, 4]),
        ]);
        assert_eq!(t.newly_exposed_per_week(), vec![2, 1, 1]);
    }

    #[test]
    fn always_exposed_requires_every_week() {
        let t = tracker(&[(&[1, 2], &[1, 2]), (&[1, 2], &[1]), (&[1, 2], &[1, 2])]);
        assert_eq!(t.always_exposed(), 1);
    }

    #[test]
    fn bounded_exposures_exclude_first_and_last_week_members() {
        let t = tracker(&[
            (&[1], &[1]),       // week 0: site 1 already exposed
            (&[1, 2], &[1, 2]), // week 1: site 2 appears
            (&[1], &[1]),       // week 2: site 2 gone — bounded
        ]);
        assert_eq!(t.bounded_exposures(), 1);
        assert_eq!(t.always_exposed(), 1);
    }

    #[test]
    fn empty_tracker_is_all_zero() {
        let t = ExposureTracker::new();
        assert_eq!(t.total_hidden(), 0);
        assert_eq!(t.total_verified_rate(), None);
        assert_eq!(t.always_exposed(), 0);
        assert_eq!(t.bounded_exposures(), 0);
        assert!(t.newly_exposed_per_week().is_empty());
    }
}
