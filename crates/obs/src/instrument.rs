//! The unified counter-reading surface.
//!
//! Before this trait, every layer had its own ad-hoc counter API:
//! `dns::QueryStats` on transports, bare `(u64, u64)` tuples on scanner
//! types, cache hit/miss fields on the engine's `ShardStats`. The
//! [`Instrumented`] trait is the single way to read any of them: a
//! component names itself and lists its counters; [`export_into`]
//! publishes them into a [`MetricsRegistry`] tagged with a `component`
//! label.
//!
//! Transport-like components use the shared `transport.sent` /
//! `transport.answered` / `transport.ignored` names so query volume is
//! comparable across DNS, HTTP, and scanner surfaces.
//!
//! [`export_into`]: Instrumented::export_into

use crate::metrics::{MetricKey, MetricsRegistry};

/// Canonical counter name for requests issued by a transport-like
/// component.
pub const TRANSPORT_SENT: &str = "transport.sent";
/// Canonical counter name for requests that received an answer.
pub const TRANSPORT_ANSWERED: &str = "transport.answered";
/// Canonical counter name for requests that went unanswered.
pub const TRANSPORT_IGNORED: &str = "transport.ignored";

/// A component that exposes deterministic counters.
///
/// # Example
///
/// ```
/// use remnant_obs::{Instrumented, MetricKey, MetricsRegistry};
///
/// struct Probe { sent: u64, answered: u64 }
///
/// impl Instrumented for Probe {
///     fn component(&self) -> &'static str {
///         "probe"
///     }
///     fn counters(&self) -> Vec<(MetricKey, u64)> {
///         vec![
///             (MetricKey::named(remnant_obs::TRANSPORT_SENT), self.sent),
///             (MetricKey::named(remnant_obs::TRANSPORT_ANSWERED), self.answered),
///             (MetricKey::named(remnant_obs::TRANSPORT_IGNORED), self.sent - self.answered),
///         ]
///     }
/// }
///
/// let probe = Probe { sent: 5, answered: 3 };
/// let mut registry = MetricsRegistry::new();
/// probe.export_into(&mut registry);
/// assert_eq!(
///     registry.counter_labeled("transport.ignored", &[("component", "probe")]),
///     2,
/// );
/// ```
pub trait Instrumented {
    /// Stable component name attached as a `component` label on export,
    /// e.g. `"dns.static_transport"`.
    fn component(&self) -> &'static str;

    /// The component's current counters, in a stable order.
    fn counters(&self) -> Vec<(MetricKey, u64)>;

    /// Publishes [`counters`](Instrumented::counters) into `registry`,
    /// tagging each with this component's name.
    fn export_into(&self, registry: &mut MetricsRegistry) {
        let component = self.component();
        for (key, value) in self.counters() {
            registry.add_key(key.with_label("component", component), value);
        }
    }
}

/// Builds the canonical sent/answered/ignored counter triple from a
/// sent/answered pair (`ignored = sent - answered`, saturating).
pub fn transport_counters(sent: u64, answered: u64) -> Vec<(MetricKey, u64)> {
    vec![
        (MetricKey::named(TRANSPORT_SENT), sent),
        (MetricKey::named(TRANSPORT_ANSWERED), answered),
        (
            MetricKey::named(TRANSPORT_IGNORED),
            sent.saturating_sub(answered),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake;

    impl Instrumented for Fake {
        fn component(&self) -> &'static str {
            "fake"
        }
        fn counters(&self) -> Vec<(MetricKey, u64)> {
            transport_counters(7, 4)
        }
    }

    #[test]
    fn export_tags_component_label() {
        let mut registry = MetricsRegistry::new();
        Fake.export_into(&mut registry);
        let by = |name| registry.counter_labeled(name, &[("component", "fake")]);
        assert_eq!(by("transport.sent"), 7);
        assert_eq!(by("transport.answered"), 4);
        assert_eq!(by("transport.ignored"), 3);
    }

    #[test]
    fn ignored_saturates() {
        let triple = transport_counters(2, 5);
        assert_eq!(triple[2].1, 0);
    }
}
