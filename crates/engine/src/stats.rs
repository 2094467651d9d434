//! Sweep instrumentation.
//!
//! Everything here except wall time is a pure function of the target list
//! and the seed — identical no matter how many workers ran the sweep.
//! Wall times are the only nondeterministic fields and are kept separate
//! from study output for that reason.

use std::time::Duration;

use remnant_obs::{Instrumented, MetricKey, MetricsRegistry, TRANSPORT_SENT};

/// Counters for one shard of a sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index within the sweep's shard plan.
    pub shard: usize,
    /// Items processed (the shard's length).
    pub items: u64,
    /// Task calls: always equal to `items`, since each item runs once.
    /// Kept, with `retries` and `exhausted`, because the `sweep.*`
    /// counters and the benchmark harness still read all three; they go
    /// when the harness's session mirror is deleted (see ROADMAP.md).
    pub attempts: u64,
    /// Always 0: the engine has no retry protocol.
    pub retries: u64,
    /// Always 0: the engine has no retry budget to exhaust.
    pub exhausted: u64,
    /// DNS queries reported by the task via
    /// [`ShardScope::add_queries`](crate::ShardScope::add_queries).
    pub queries: u64,
    /// Resolver-cache hits reported via
    /// [`ShardScope::add_cache_stats`](crate::ShardScope::add_cache_stats).
    pub cache_hits: u64,
    /// Resolver-cache misses reported via
    /// [`ShardScope::add_cache_stats`](crate::ShardScope::add_cache_stats).
    pub cache_misses: u64,
    /// Task-recorded metrics for this shard, written through
    /// [`ShardScope::metrics`](crate::ShardScope::metrics). Deterministic:
    /// a pure function of the shard's items and RNG stream.
    pub metrics: MetricsRegistry,
}

/// Wall-clock timing of one shard (nondeterministic; reporting only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardTiming {
    /// Shard index within the sweep's shard plan.
    pub shard: usize,
    /// Real time the shard's worker spent on it.
    pub wall: Duration,
}

/// Aggregate statistics for a completed sweep.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SweepStats {
    /// Worker threads the engine actually used.
    pub workers: usize,
    /// Per-shard deterministic counters, in shard order.
    pub shards: Vec<ShardStats>,
    /// Per-shard wall times, in shard order (nondeterministic).
    pub timings: Vec<ShardTiming>,
    /// Real time from sweep start to last worker exit.
    pub wall: Duration,
}

impl SweepStats {
    /// Total items processed.
    pub fn items(&self) -> u64 {
        self.shards.iter().map(|s| s.items).sum()
    }

    /// Total task calls (equal to [`items`](Self::items)).
    pub fn attempts(&self) -> u64 {
        self.shards.iter().map(|s| s.attempts).sum()
    }

    /// Total retried attempts (always 0).
    pub fn retries(&self) -> u64 {
        self.shards.iter().map(|s| s.retries).sum()
    }

    /// Total items that exhausted a retry budget (always 0).
    pub fn exhausted(&self) -> u64 {
        self.shards.iter().map(|s| s.exhausted).sum()
    }

    /// Total DNS queries reported by tasks.
    pub fn queries(&self) -> u64 {
        self.shards.iter().map(|s| s.queries).sum()
    }

    /// Total resolver-cache hits reported by tasks.
    pub fn cache_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.cache_hits).sum()
    }

    /// Total resolver-cache misses reported by tasks.
    pub fn cache_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.cache_misses).sum()
    }

    /// The slowest single shard — the lower bound on sweep wall time.
    pub fn max_shard_wall(&self) -> Duration {
        self.timings
            .iter()
            .map(|t| t.wall)
            .max()
            .unwrap_or_default()
    }

    /// All per-shard metric registries folded together, in shard order.
    ///
    /// Because counter and histogram merges commute and gauge merges take
    /// the maximum, the result is identical for every worker count — the
    /// same contract the scalar counters above obey.
    pub fn merged_metrics(&self) -> MetricsRegistry {
        let mut merged = MetricsRegistry::new();
        for shard in &self.shards {
            merged.merge_from(&shard.metrics);
        }
        merged
    }
}

impl Instrumented for SweepStats {
    fn component(&self) -> &'static str {
        "engine.sweep"
    }

    /// The sweep's deterministic counters under the unified naming:
    /// task-reported DNS queries surface as `transport.sent`, resolver
    /// cache traffic as `cache.hits`/`cache.misses`.
    fn counters(&self) -> Vec<(MetricKey, u64)> {
        vec![
            (MetricKey::named("sweep.items"), self.items()),
            (MetricKey::named("sweep.attempts"), self.attempts()),
            (MetricKey::named("sweep.retries"), self.retries()),
            (MetricKey::named("sweep.exhausted"), self.exhausted()),
            (MetricKey::named(TRANSPORT_SENT), self.queries()),
            (MetricKey::named("cache.hits"), self.cache_hits()),
            (MetricKey::named("cache.misses"), self.cache_misses()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_shards() {
        let stats = SweepStats {
            workers: 2,
            shards: vec![
                ShardStats {
                    shard: 0,
                    items: 10,
                    attempts: 12,
                    retries: 2,
                    exhausted: 1,
                    queries: 40,
                    cache_hits: 30,
                    cache_misses: 10,
                    ..ShardStats::default()
                },
                ShardStats {
                    shard: 1,
                    items: 5,
                    attempts: 5,
                    retries: 0,
                    exhausted: 0,
                    queries: 15,
                    cache_hits: 12,
                    cache_misses: 3,
                    ..ShardStats::default()
                },
            ],
            timings: vec![
                ShardTiming {
                    shard: 0,
                    wall: Duration::from_millis(8),
                },
                ShardTiming {
                    shard: 1,
                    wall: Duration::from_millis(3),
                },
            ],
            wall: Duration::from_millis(9),
        };
        assert_eq!(stats.items(), 15);
        assert_eq!(stats.attempts(), 17);
        assert_eq!(stats.retries(), 2);
        assert_eq!(stats.exhausted(), 1);
        assert_eq!(stats.queries(), 55);
        assert_eq!(stats.cache_hits(), 42);
        assert_eq!(stats.cache_misses(), 13);
        assert_eq!(stats.max_shard_wall(), Duration::from_millis(8));
    }

    #[test]
    fn empty_sweep_is_all_zero() {
        let stats = SweepStats::default();
        assert_eq!(stats.items(), 0);
        assert_eq!(stats.max_shard_wall(), Duration::ZERO);
        assert!(stats.merged_metrics().is_empty());
    }

    #[test]
    fn merged_metrics_fold_shards_in_order() {
        let shard = |idx: usize, sent: u64| {
            let mut metrics = MetricsRegistry::new();
            metrics.add(TRANSPORT_SENT, sent);
            ShardStats {
                shard: idx,
                metrics,
                ..ShardStats::default()
            }
        };
        let stats = SweepStats {
            workers: 2,
            shards: vec![shard(0, 3), shard(1, 4)],
            ..SweepStats::default()
        };
        assert_eq!(stats.merged_metrics().counter(TRANSPORT_SENT), 7);
    }

    #[test]
    fn sweep_stats_export_unified_counters() {
        let stats = SweepStats {
            workers: 1,
            shards: vec![ShardStats {
                items: 4,
                attempts: 5,
                retries: 1,
                queries: 9,
                cache_hits: 6,
                cache_misses: 3,
                ..ShardStats::default()
            }],
            ..SweepStats::default()
        };
        let mut registry = MetricsRegistry::new();
        stats.export_into(&mut registry);
        let by = |name| registry.counter_labeled(name, &[("component", "engine.sweep")]);
        assert_eq!(by("sweep.items"), 4);
        assert_eq!(by(TRANSPORT_SENT), 9);
        assert_eq!(by("cache.hits"), 6);
        assert_eq!(by("cache.misses"), 3);
    }
}
