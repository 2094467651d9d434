//! Deterministic metric primitives: counters, gauges, and fixed-bucket
//! histograms keyed by `&'static str` names plus small label sets.
//!
//! Everything here is a plain value — no wall clocks, no atomics, no
//! interior mutability. Determinism comes from two rules:
//!
//! 1. Storage is [`BTreeMap`]-ordered, so iteration (and therefore any
//!    serialized snapshot) has one canonical order.
//! 2. Merging is commutative for counters and histograms (addition) and
//!    deterministic for gauges (maximum), so folding per-shard registries
//!    together in shard order yields the same registry for any worker
//!    count.

use std::collections::BTreeMap;
use std::fmt;

/// Default histogram bucket upper bounds, in virtual seconds: one second
/// up to one week. Suited to span durations in a multi-week study.
pub const DEFAULT_BOUNDS: &[u64] = &[1, 60, 3_600, 21_600, 86_400, 172_800, 604_800];

/// A metric identity: a static name plus a small, sorted label set.
///
/// Labels are sorted at construction so two keys built from the same
/// pairs in different orders compare (and serialize) identically.
///
/// # Example
///
/// ```
/// use remnant_obs::MetricKey;
///
/// let a = MetricKey::labeled("transport.sent", &[("class", "root"), ("proto", "udp")]);
/// let b = MetricKey::labeled("transport.sent", &[("proto", "udp"), ("class", "root")]);
/// assert_eq!(a, b);
/// assert_eq!(a.to_string(), "transport.sent{class=root,proto=udp}");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Metric name, e.g. `"resolver.cache.hits"`.
    pub name: &'static str,
    labels: Vec<(&'static str, String)>,
}

impl MetricKey {
    /// A key with no labels.
    pub fn named(name: &'static str) -> Self {
        MetricKey {
            name,
            labels: Vec::new(),
        }
    }

    /// A key with labels; the pairs are sorted by label name.
    pub fn labeled(name: &'static str, labels: &[(&'static str, &str)]) -> Self {
        let mut labels: Vec<(&'static str, String)> =
            labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
        labels.sort();
        MetricKey { name, labels }
    }

    /// The sorted label pairs.
    pub fn labels(&self) -> &[(&'static str, String)] {
        &self.labels
    }

    /// This key with one extra label, keeping the set sorted.
    pub fn with_label(mut self, key: &'static str, value: &str) -> Self {
        self.labels.push((key, value.to_string()));
        self.labels.sort();
        self
    }

    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if self.labels.is_empty() {
            return Ok(());
        }
        write!(f, "{{")?;
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

impl From<&'static str> for MetricKey {
    fn from(name: &'static str) -> Self {
        MetricKey::named(name)
    }
}

/// A fixed-bucket histogram over `u64` observations.
///
/// Bucket `i` counts observations `v <= bounds[i]` (upper bounds are
/// inclusive); one extra overflow bucket counts everything above the last
/// bound. Bounds are `&'static` so every shard of a sweep shares the same
/// edges and merging is exact.
///
/// # Example
///
/// ```
/// use remnant_obs::Histogram;
///
/// let mut h = Histogram::new(&[10, 100]);
/// h.observe(10); // lands in the <=10 bucket: edges are inclusive
/// h.observe(11);
/// h.observe(1_000);
/// assert_eq!(h.counts(), &[1, 1, 1]);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.sum(), 1_021);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: Vec<u64>,
    sum: u64,
    total: u64,
}

impl Histogram {
    /// A histogram with the given strictly increasing upper bounds.
    pub fn new(bounds: &'static [u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            total: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.total += 1;
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Adds `other`'s observations to this histogram.
    ///
    /// # Panics
    ///
    /// If the two histograms have different bounds — bounds are part of a
    /// metric's identity, so this is a programming error.
    pub fn merge_from(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "merging histograms with different bucket bounds"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.total += other.total;
    }
}

/// A deterministic registry of counters, gauges, and histograms.
///
/// # Example
///
/// ```
/// use remnant_obs::MetricsRegistry;
///
/// let mut shard_a = MetricsRegistry::new();
/// shard_a.add("transport.sent", 3);
/// let mut shard_b = MetricsRegistry::new();
/// shard_b.add("transport.sent", 4);
///
/// let mut merged = MetricsRegistry::new();
/// merged.merge_from(&shard_a);
/// merged.merge_from(&shard_b);
/// assert_eq!(merged.counter("transport.sent"), 7);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, i64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the counter named `name` (no labels).
    pub fn add(&mut self, name: &'static str, delta: u64) {
        self.add_key(MetricKey::named(name), delta);
    }

    /// Adds `delta` to the counter `name` with `labels`.
    pub fn add_labeled(&mut self, name: &'static str, labels: &[(&'static str, &str)], delta: u64) {
        self.add_key(MetricKey::labeled(name, labels), delta);
    }

    /// Adds `delta` to the counter identified by `key`.
    pub fn add_key(&mut self, key: MetricKey, delta: u64) {
        *self.counters.entry(key).or_insert(0) += delta;
    }

    /// Increments the counter named `name` by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increments the counter `name` with `labels` by one.
    pub fn inc_labeled(&mut self, name: &'static str, labels: &[(&'static str, &str)]) {
        self.add_labeled(name, labels, 1);
    }

    /// The value of the unlabeled counter `name` (zero if absent).
    pub fn counter(&self, name: &'static str) -> u64 {
        self.counter_key(&MetricKey::named(name))
    }

    /// The value of the labeled counter (zero if absent).
    pub fn counter_labeled(&self, name: &'static str, labels: &[(&'static str, &str)]) -> u64 {
        self.counter_key(&MetricKey::labeled(name, labels))
    }

    /// The value of the counter identified by `key` (zero if absent).
    pub fn counter_key(&self, key: &MetricKey) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sets the gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &'static str, value: i64) {
        self.gauges.insert(MetricKey::named(name), value);
    }

    /// The value of the unlabeled gauge `name`, if set.
    pub fn gauge(&self, name: &'static str) -> Option<i64> {
        self.gauges.get(&MetricKey::named(name)).copied()
    }

    /// Records `value` into the histogram `name` using
    /// [`DEFAULT_BOUNDS`].
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.observe_key(MetricKey::named(name), DEFAULT_BOUNDS, value);
    }

    /// Records `value` into the histogram `name` with explicit bounds.
    pub fn observe_with(&mut self, name: &'static str, bounds: &'static [u64], value: u64) {
        self.observe_key(MetricKey::named(name), bounds, value);
    }

    /// Records `value` into the labeled histogram with explicit bounds.
    pub fn observe_labeled_with(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        bounds: &'static [u64],
        value: u64,
    ) {
        self.observe_key(MetricKey::labeled(name, labels), bounds, value);
    }

    /// Records `value` into the histogram identified by `key`. `bounds`
    /// only applies when the histogram does not exist yet.
    pub fn observe_key(&mut self, key: MetricKey, bounds: &'static [u64], value: u64) {
        self.histograms
            .entry(key)
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// The histogram `name`, if any observation was recorded.
    pub fn histogram(&self, name: &'static str) -> Option<&Histogram> {
        self.histograms.get(&MetricKey::named(name))
    }

    /// All counters, in canonical key order.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricKey, u64)> {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// The counters whose key name equals `name`, in label order.
    pub fn counters_named<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = (&'a MetricKey, u64)> {
        self.counters
            .iter()
            .filter(move |(k, _)| k.name == name)
            .map(|(k, &v)| (k, v))
    }

    /// All gauges, in canonical key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&MetricKey, i64)> {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// All histograms, in canonical key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&MetricKey, &Histogram)> {
        self.histograms.iter()
    }

    /// True if no metric of any kind has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into this registry: counters and histograms add,
    /// gauges take the maximum (the only merge that is independent of
    /// merge order, which shard-merge determinism requires).
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (key, &value) in &other.counters {
            self.add_key(key.clone(), value);
        }
        for (key, &value) in &other.gauges {
            self.gauges
                .entry(key.clone())
                .and_modify(|mine| *mine = (*mine).max(value))
                .or_insert(value);
        }
        for (key, theirs) in &other.histograms {
            match self.histograms.get_mut(key) {
                Some(mine) => mine.merge_from(theirs),
                None => {
                    self.histograms.insert(key.clone(), theirs.clone());
                }
            }
        }
    }

    /// Moves every metric out of this registry, leaving it empty.
    ///
    /// The hot-path pattern: a worker accumulates locally, then the shard
    /// drains the worker's registry into the shard sink once per shard.
    pub fn take(&mut self) -> MetricsRegistry {
        std::mem::take(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_labels_sort_and_display() {
        let key = MetricKey::labeled("m", &[("b", "2"), ("a", "1")]);
        assert_eq!(key.labels()[0].0, "a");
        assert_eq!(key.to_string(), "m{a=1,b=2}");
        assert_eq!(MetricKey::named("m").to_string(), "m");
        assert_eq!(key.label("b"), Some("2"));
        assert_eq!(key.label("c"), None);
    }

    #[test]
    fn with_label_keeps_order() {
        let key = MetricKey::named("m")
            .with_label("z", "1")
            .with_label("a", "2");
        assert_eq!(key.to_string(), "m{a=2,z=1}");
    }

    #[test]
    fn histogram_edges_are_inclusive() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        h.observe(0);
        h.observe(10); // exactly on the first edge → first bucket
        h.observe(11); // one past the edge → second bucket
        h.observe(100);
        h.observe(101);
        h.observe(1000);
        h.observe(1001); // overflow bucket
        assert_eq!(h.counts(), &[2, 2, 2, 1]);
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 2223);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let mut a = Histogram::new(&[5]);
        a.observe(1);
        let mut b = Histogram::new(&[5]);
        b.observe(9);
        a.merge_from(&b);
        assert_eq!(a.counts(), &[1, 1]);
        assert_eq!(a.sum(), 10);
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[5]);
        a.merge_from(&Histogram::new(&[6]));
    }

    #[test]
    fn registry_counters_and_gauges() {
        let mut reg = MetricsRegistry::new();
        reg.inc("c");
        reg.add("c", 2);
        reg.inc_labeled("c", &[("shard", "0")]);
        reg.set_gauge("g", -4);
        assert_eq!(reg.counter("c"), 3);
        assert_eq!(reg.counter_labeled("c", &[("shard", "0")]), 1);
        assert_eq!(reg.counter("absent"), 0);
        assert_eq!(reg.gauge("g"), Some(-4));
        assert_eq!(reg.counters_named("c").count(), 2);
    }

    #[test]
    fn merge_is_order_independent() {
        let build = |sent: u64, depth: u64| {
            let mut reg = MetricsRegistry::new();
            reg.add("sent", sent);
            reg.set_gauge("peak", sent as i64);
            reg.observe_with("depth", &[2, 4], depth);
            reg
        };
        let (a, b) = (build(3, 1), build(5, 9));
        let mut ab = MetricsRegistry::new();
        ab.merge_from(&a);
        ab.merge_from(&b);
        let mut ba = MetricsRegistry::new();
        ba.merge_from(&b);
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("sent"), 8);
        assert_eq!(ab.gauge("peak"), Some(5));
        assert_eq!(ab.histogram("depth").unwrap().counts(), &[1, 0, 1]);
    }

    #[test]
    fn take_drains_the_registry() {
        let mut reg = MetricsRegistry::new();
        reg.inc("c");
        let drained = reg.take();
        assert!(reg.is_empty());
        assert_eq!(drained.counter("c"), 1);
    }
}
