//! Engine tuning knobs.

use crate::error::ConfigFieldError;

/// Retry policy applied per item inside a shard.
///
/// A task signals a retryable outcome by returning
/// [`TaskResult::Retry`](crate::TaskResult::Retry) with a fallback output.
/// The engine re-runs the task until it returns
/// [`TaskResult::Done`](crate::TaskResult::Done) or `max_attempts` is
/// reached, at which point the *last* fallback is kept and the item is
/// counted as exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of attempts per item, including the first (`>= 1`).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// A policy that never retries.
    pub const fn once() -> Self {
        RetryPolicy { max_attempts: 1 }
    }

    /// A policy allowing up to `max_attempts` attempts per item.
    pub const fn attempts(max_attempts: u32) -> Self {
        RetryPolicy { max_attempts }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Only tasks that return `TaskResult::Retry` are re-run, and no
        // collection or scan task does: the collector records a failed
        // lookup as empty records in one attempt, and its only re-issue is
        // the resolver's own nameserver fallback.
        RetryPolicy { max_attempts: 3 }
    }
}

/// Token-bucket rate limit shared by every worker of a sweep.
///
/// The limit applies to task *attempts* (one attempt ≈ one resolution),
/// in real wall-clock time. It exists for operators pointing the scanner
/// at infrastructure with query budgets; simulation runs leave it off.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateLimit {
    /// Sustained attempts per second across all workers.
    pub per_second: f64,
    /// Bucket capacity: how many attempts may burst back-to-back.
    pub burst: u32,
}

impl RateLimit {
    /// A sustained rate of `per_second` with a same-sized burst.
    pub fn per_second(per_second: f64) -> Self {
        RateLimit {
            per_second,
            burst: per_second.max(1.0).ceil() as u32,
        }
    }
}

/// Configuration for a [`ScanEngine`](crate::ScanEngine).
#[derive(Clone, Debug, PartialEq)]
pub struct EngineConfig {
    /// Number of worker threads. Any value `>= 1`; the engine never spawns
    /// more workers than shards. Output is identical for every value.
    pub workers: usize,
    /// Items per claimable shard. This alone fixes the shard layout: the
    /// layout is a function of the item count and `shard_size` only —
    /// never of `workers` — which is what makes the merged output
    /// independent of parallelism. Smaller shards give the work-claiming
    /// queue more room to route around a straggler.
    pub shard_size: usize,
    /// Per-item retry policy.
    pub retry: RetryPolicy,
    /// Optional global rate limit (off by default; simulations don't wait).
    pub rate: Option<RateLimit>,
    /// Root seed for the per-shard RNG streams.
    pub seed: u64,
}

impl EngineConfig {
    /// Default shard size: small enough to load-balance a million-site
    /// sweep over any sane worker count, large enough that per-shard setup
    /// (fresh resolver, RNG derivation) is amortized.
    pub const DEFAULT_SHARD_SIZE: usize = 512;

    /// Upper bound on `workers`: beyond this the per-shard setup cost
    /// dominates and the sharding model stops making sense.
    pub const MAX_WORKERS: usize = 1024;

    /// Configuration with `workers` threads and the given RNG seed.
    ///
    /// Returns the named offending field for out-of-range worker counts —
    /// `workers == 0` is a configuration mistake the caller should see,
    /// not a value to silently clamp.
    pub fn with_workers(workers: usize, seed: u64) -> Result<Self, ConfigFieldError> {
        EngineConfig::builder().workers(workers).seed(seed).build()
    }

    /// A builder starting from the defaults, with validated setters —
    /// see [`EngineConfigBuilder`].
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: EngineConfig::default(),
        }
    }

    /// Validates the configuration, naming the first rejected field.
    pub fn validate(&self) -> Result<(), ConfigFieldError> {
        if self.workers == 0 {
            return Err(ConfigFieldError::new(
                "workers",
                self.workers,
                "at least one worker thread is required",
            ));
        }
        if self.workers > Self::MAX_WORKERS {
            return Err(ConfigFieldError::new(
                "workers",
                self.workers,
                "more than 1024 workers exceeds the engine's sharding model",
            ));
        }
        if self.shard_size == 0 {
            return Err(ConfigFieldError::new(
                "shard_size",
                self.shard_size,
                "shards must hold at least one item",
            ));
        }
        if self.retry.max_attempts == 0 {
            return Err(ConfigFieldError::new(
                "retry.max_attempts",
                self.retry.max_attempts,
                "every item needs at least one attempt",
            ));
        }
        Ok(())
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            shard_size: Self::DEFAULT_SHARD_SIZE,
            retry: RetryPolicy::default(),
            rate: None,
            seed: 0,
        }
    }
}

/// Builder for [`EngineConfig`] — the validated construction path.
///
/// The struct-literal path stays open for tests and internal callers;
/// the builder names the offending field, value, and reason when a
/// combination is rejected:
///
/// ```
/// use remnant_engine::EngineConfig;
///
/// let config = EngineConfig::builder().workers(8).seed(42).build()?;
/// assert_eq!(config.workers, 8);
/// let err = EngineConfig::builder().workers(0).build().unwrap_err();
/// assert_eq!(err.field, "workers");
/// # Ok::<(), remnant_engine::ConfigFieldError>(())
/// ```
#[derive(Clone, Debug)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Number of worker threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Items per claimable shard.
    pub fn shard_size(mut self, shard_size: usize) -> Self {
        self.config.shard_size = shard_size;
        self
    }

    /// Per-item retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.config.retry = retry;
        self
    }

    /// Global rate limit.
    pub fn rate(mut self, rate: RateLimit) -> Self {
        self.config.rate = Some(rate);
        self
    }

    /// Root seed for the per-shard RNG streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validates and returns the configuration, naming the first rejected
    /// field on failure.
    pub fn build(self) -> Result<EngineConfig, ConfigFieldError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_workers_names_the_offending_field_for_zero() {
        let err = EngineConfig::with_workers(0, 7).unwrap_err();
        assert_eq!(err.field, "workers");
        assert_eq!(err.value, "0");
        let config = EngineConfig::with_workers(8, 7).unwrap();
        assert_eq!(config.workers, 8);
        assert_eq!(config.seed, 7);
    }

    #[test]
    fn builder_validates_every_field() {
        let config = EngineConfig::builder()
            .workers(4)
            .shard_size(128)
            .retry(RetryPolicy::attempts(2))
            .seed(9)
            .build()
            .unwrap();
        assert_eq!(config.workers, 4);
        assert_eq!(config.shard_size, 128);

        for (build, field) in [
            (EngineConfig::builder().workers(0).build(), "workers"),
            (EngineConfig::builder().workers(2048).build(), "workers"),
            (EngineConfig::builder().shard_size(0).build(), "shard_size"),
            (
                EngineConfig::builder()
                    .retry(RetryPolicy::attempts(0))
                    .build(),
                "retry.max_attempts",
            ),
        ] {
            assert_eq!(build.unwrap_err().field, field);
        }
    }

    #[test]
    fn rate_limit_burst_tracks_rate() {
        assert_eq!(RateLimit::per_second(100.0).burst, 100);
        assert_eq!(RateLimit::per_second(0.5).burst, 1);
    }
}
