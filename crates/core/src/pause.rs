//! Pause-window tracking (Sec IV-C.1, Fig 5).
//!
//! A pause window is an exposure window: while a customer is OFF, the
//! provider's nameservers answer with the origin address. The tracker
//! consumes the daily classification series and extracts, per site, every
//! `ON → OFF → (ON | end)` interval.

use remnant_provider::ProviderId;
use remnant_sim::stats::Ecdf;
use remnant_sim::SimTime;

use crate::adoption::{Adoption, DpsStatus};

/// One completed or still-open pause window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PauseWindow {
    /// Site rank.
    pub rank: usize,
    /// The provider the pause started at.
    pub paused_at_provider: Option<ProviderId>,
    /// The provider the site resumed at (None while open or after leave).
    pub resumed_at_provider: Option<ProviderId>,
    /// When the OFF status was first observed.
    pub start: SimTime,
    /// Daily observation index at which OFF was first observed.
    pub start_observation: u32,
    /// When the site was next observed ON (None = never, window open).
    pub end: Option<SimTime>,
    /// Observation index at which ON reappeared (None while open).
    pub end_observation: Option<u32>,
}

impl PauseWindow {
    /// The window length counted in daily observations, matching the
    /// paper's day-granular measurement (a pause seen OFF in exactly one
    /// daily experiment is a one-day pause), if closed.
    pub fn duration_days(&self) -> Option<f64> {
        self.end_observation
            .map(|end| f64::from(end - self.start_observation))
    }

    /// True if pause and resume happened at the same provider.
    pub fn same_provider(&self) -> bool {
        self.paused_at_provider.is_some() && self.paused_at_provider == self.resumed_at_provider
    }
}

/// Streaming pause tracker over the daily classification series.
///
/// Each observation is a [`tick`](PauseTracker::tick) followed by one
/// [`change`](PauseTracker::change) per site whose class differs from
/// the previous observation; a site whose class did not change opens or
/// closes no window.
#[derive(Clone, Debug, Default)]
pub struct PauseTracker {
    /// Open pause start per site: (start time, observation index, provider).
    open: std::collections::HashMap<usize, (SimTime, u32, Option<ProviderId>)>,
    windows: Vec<PauseWindow>,
    /// The observation in progress: (index, when it was taken).
    current: Option<(u32, SimTime)>,
}

impl PauseTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        PauseTracker::default()
    }

    /// Starts the next daily observation, taken at `when`.
    pub fn tick(&mut self, when: SimTime) {
        let index = self.current.map_or(0, |(index, _)| index + 1);
        self.current = Some((index, when));
    }

    /// Feeds site `rank`'s class in the previous observation (`before`)
    /// and in the current one (`after`).
    ///
    /// # Panics
    ///
    /// Panics if no observation has been started with
    /// [`tick`](PauseTracker::tick).
    pub fn change(&mut self, rank: usize, before: &Adoption, after: &Adoption) {
        let (observation, when) = self
            .current
            .expect("a change belongs to a ticked observation");
        let resumed = match (before.status, after.status) {
            (DpsStatus::On, DpsStatus::Off) => {
                self.open.insert(rank, (when, observation, after.provider));
                return;
            }
            (DpsStatus::Off, DpsStatus::On) => true,
            // Left while paused: the window closes unresolved.
            (DpsStatus::Off, DpsStatus::None) => false,
            _ => return,
        };
        if let Some((start, start_observation, provider)) = self.open.remove(&rank) {
            self.windows.push(PauseWindow {
                rank,
                paused_at_provider: provider,
                resumed_at_provider: after.provider.filter(|_| resumed),
                start,
                start_observation,
                end: resumed.then_some(when),
                end_observation: resumed.then_some(observation),
            });
        }
    }

    /// All windows closed so far.
    pub fn windows(&self) -> &[PauseWindow] {
        &self.windows
    }

    /// The Fig 5 "Overall" CDF: every completed pause period in days.
    pub fn cdf_overall(&self) -> Ecdf {
        self.windows
            .iter()
            .filter_map(PauseWindow::duration_days)
            .collect()
    }

    /// The Fig 5 per-provider CDF: pause periods where PAUSE and RESUME
    /// happened at `provider`.
    pub fn cdf_for(&self, provider: ProviderId) -> Ecdf {
        self.windows
            .iter()
            .filter(|w| w.same_provider() && w.paused_at_provider == Some(provider))
            .filter_map(PauseWindow::duration_days)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remnant_provider::ReroutingMethod;
    use remnant_sim::SimTime;

    const CF: ProviderId = ProviderId::Cloudflare;
    const INC: ProviderId = ProviderId::Incapsula;

    fn on(p: ProviderId) -> Adoption {
        Adoption {
            provider: Some(p),
            status: DpsStatus::On,
            rerouting: Some(ReroutingMethod::Ns),
        }
    }

    fn off(p: ProviderId) -> Adoption {
        Adoption {
            provider: Some(p),
            status: DpsStatus::Off,
            rerouting: Some(ReroutingMethod::Ns),
        }
    }

    fn day(n: u64) -> SimTime {
        SimTime::from_days(n)
    }

    /// Feeds a one-site series, one observation per `(when, class)`.
    fn track(series: &[(SimTime, Adoption)]) -> PauseTracker {
        let mut tracker = PauseTracker::new();
        let mut prev = None;
        for (when, class) in series {
            tracker.tick(*when);
            if let Some(before) = prev {
                tracker.change(0, &before, class);
            }
            prev = Some(*class);
        }
        tracker
    }

    #[test]
    fn closed_window_measures_duration() {
        // Daily observations: ON, OFF, OFF, OFF, ON — a three-day pause.
        let tracker = track(&[
            (day(0), on(CF)),
            (day(1), off(CF)),
            (day(2), off(CF)),
            (day(3), off(CF)),
            (day(4), on(CF)),
        ]);
        assert_eq!(tracker.windows().len(), 1);
        let w = &tracker.windows()[0];
        assert_eq!(w.duration_days(), Some(3.0));
        assert_eq!(w.end, Some(day(4)));
        assert!(w.same_provider());
    }

    #[test]
    fn one_observation_pause_counts_one_day_despite_long_intervals() {
        // The paper's uneven 20–30h intervals: a site OFF in exactly one
        // daily experiment paused for one day, even if the wall-clock gap
        // was 30 hours.
        let tracker = track(&[
            (SimTime::from_secs(0), on(CF)),
            (SimTime::from_secs(30 * 3600), off(CF)),
            (SimTime::from_secs(60 * 3600), on(CF)),
        ]);
        let w = &tracker.windows()[0];
        assert_eq!(w.duration_days(), Some(1.0));
        assert_eq!((w.end.unwrap() - w.start).as_days_f64(), 1.25);
    }

    #[test]
    fn open_window_is_not_counted_in_cdf() {
        let tracker = track(&[(day(0), on(CF)), (day(1), off(CF)), (day(2), off(CF))]);
        assert!(tracker.windows().is_empty(), "the pause is still open");
        assert!(tracker.cdf_overall().is_empty());
    }

    #[test]
    fn pause_at_one_provider_resume_at_another_counts_overall_only() {
        // The paper's "Overall" includes cross-provider pause/resume pairs.
        let tracker = track(&[(day(0), on(CF)), (day(1), off(CF)), (day(3), on(INC))]);
        assert_eq!(tracker.windows().len(), 1);
        assert!(!tracker.windows()[0].same_provider());
        assert_eq!(tracker.cdf_overall().len(), 1);
        assert!(tracker.cdf_for(CF).is_empty());
        assert!(tracker.cdf_for(INC).is_empty());
    }

    #[test]
    fn leave_while_paused_closes_without_duration() {
        let tracker = track(&[
            (day(0), on(INC)),
            (day(1), off(INC)),
            (day(2), Adoption::NONE),
        ]);
        assert_eq!(tracker.windows().len(), 1);
        assert_eq!(tracker.windows()[0].duration_days(), None);
        assert!(tracker.cdf_overall().is_empty());
    }

    #[test]
    fn multiple_pauses_accumulate() {
        let mut series = vec![(day(0), on(CF)), (day(1), off(CF)), (day(2), on(CF))];
        series.extend((3..9).map(|d| (day(d), off(CF))));
        series.push((day(9), on(CF)));
        let tracker = track(&series);
        assert_eq!(tracker.windows().len(), 2);
        let mut cdf = tracker.cdf_for(CF);
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf.quantile(1.0), Some(6.0));
        assert_eq!(cdf.fraction_gt(5.0), 0.5);
    }
}
