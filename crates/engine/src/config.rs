//! Engine tuning knobs.

use crate::error::ConfigFieldError;

/// Configuration for a [`ScanEngine`](crate::ScanEngine).
#[derive(Clone, Debug, PartialEq, Eq)]
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
        let config = EngineConfig {
            workers,
            seed,
            ..EngineConfig::default()
        };
        config.validate()?;
        Ok(config)
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
        Ok(())
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            shard_size: Self::DEFAULT_SHARD_SIZE,
            seed: 0,
        }
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
    fn validate_names_every_rejected_field() {
        let config = |workers, shard_size| EngineConfig {
            workers,
            shard_size,
            seed: 9,
        };
        assert_eq!(config(4, 128).validate(), Ok(()));
        for (config, field) in [
            (config(0, 128), "workers"),
            (config(2048, 128), "workers"),
            (config(4, 0), "shard_size"),
        ] {
            assert_eq!(config.validate().unwrap_err().field, field);
        }
    }
}
