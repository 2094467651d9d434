//! Deterministic observability for the remnant toolkit.
//!
//! This crate is the stack's single telemetry surface: a
//! [`MetricsRegistry`] of counters/gauges/histograms, a [`Span`] API for
//! stage timing on **virtual** time, a bounded [`EventJournal`] of
//! pipeline milestones, and a frozen JSON snapshot ([`ObsReport`]).
//!
//! The design rule that separates it from a conventional metrics stack:
//! **nothing here may read a wall clock**. All timestamps come from
//! [`remnant_sim::SimTime`] via a shared
//! [`remnant_sim::SimClock`], all storage is ordered, and all
//! merges are order-independent — so the full report of a sharded study
//! is byte-identical for any worker count, a property the determinism
//! test suite pins down.
//!
//! Components across the workspace expose their counters through one
//! trait, [`Instrumented`], instead of per-type ad-hoc accessors.
//!
//! Nothing here streams or crosses threads between campaigns: a process
//! runs one campaign at a time, and a caller that wants per-round
//! progress reads an [`ObsReport`] between rounds.
//!
//! # Example
//!
//! ```
//! use remnant_obs::{Obs, Span};
//! use remnant_sim::{SimClock, SimDuration};
//!
//! let clock = SimClock::new();
//! let mut obs = Obs::new(clock.clone());
//!
//! let sweep = Span::enter(&obs, "sweep");
//! obs.metrics.add("transport.sent", 128);
//! obs.event("sweep.start", "day=0 shards=4");
//! clock.advance(SimDuration::hours(1));
//! sweep.exit(&mut obs);
//!
//! let report = obs.report();
//! assert_eq!(report.counter("transport.sent", &[]), 128);
//! assert!(report.to_json().contains("\"sweep.start\""));
//! ```

mod instrument;
mod journal;
mod metrics;
mod report;
mod span;

pub use instrument::{
    transport_counters, Instrumented, TRANSPORT_ANSWERED, TRANSPORT_IGNORED, TRANSPORT_SENT,
};
pub use journal::{Event, EventJournal, DEFAULT_JOURNAL_CAPACITY};
pub use metrics::{Histogram, MetricKey, MetricsRegistry, DEFAULT_BOUNDS};
pub use report::ObsReport;
pub use span::{Span, SPAN_ENTERED, SPAN_SECONDS};

use remnant_sim::{SimClock, SimTime};

/// An observability context: a virtual clock, a metrics registry, and an
/// event journal, bundled so spans and journal entries stamp themselves
/// consistently.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    clock: SimClock,
    /// The metric store. Public: hot paths write counters directly.
    pub metrics: MetricsRegistry,
    /// The milestone journal. Public for direct iteration.
    pub journal: EventJournal,
}

impl Obs {
    /// A context reading virtual time from `clock`, with the default
    /// journal capacity.
    pub fn new(clock: SimClock) -> Self {
        Obs {
            clock,
            metrics: MetricsRegistry::new(),
            journal: EventJournal::default(),
        }
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Records a journal milestone stamped at the current virtual time.
    pub fn event(&mut self, kind: &'static str, detail: impl Into<String>) {
        let at = self.now();
        self.journal.push(at, kind, detail);
    }

    /// Publishes an [`Instrumented`] component's counters into this
    /// context's registry.
    pub fn absorb(&mut self, component: &dyn Instrumented) {
        component.export_into(&mut self.metrics);
    }

    /// Freezes the current metrics and journal into a report.
    pub fn report(&self) -> ObsReport {
        ObsReport::snapshot(&self.metrics, &self.journal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remnant_sim::SimDuration;

    #[test]
    fn events_stamp_current_virtual_time() {
        let clock = SimClock::new();
        let mut obs = Obs::new(clock.clone());
        clock.advance(SimDuration::days(3));
        obs.event("cache.purge", "round=1");
        let report = obs.report();
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].at, SimTime::from_days(3));
        assert_eq!(report.events[0].kind, "cache.purge");
    }

    #[test]
    fn absorb_exports_component_counters() {
        struct Two;
        impl Instrumented for Two {
            fn component(&self) -> &'static str {
                "two"
            }
            fn counters(&self) -> Vec<(MetricKey, u64)> {
                transport_counters(2, 2)
            }
        }
        let mut obs = Obs::default();
        obs.absorb(&Two);
        assert_eq!(
            obs.report()
                .counter(TRANSPORT_SENT, &[("component", "two")]),
            2
        );
    }

    #[test]
    fn journal_capacity_is_configurable() {
        let mut obs = Obs::new(SimClock::new());
        obs.journal = EventJournal::with_capacity(2);
        obs.event("a", "");
        obs.event("b", "");
        obs.event("c", "");
        assert_eq!(obs.journal.len(), 2);
        assert_eq!(obs.report().events_dropped, 1);
    }
}
