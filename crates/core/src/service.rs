//! The multi-tenant study service: one process, many concurrent
//! campaigns.
//!
//! A [`StudyService`] owns two shared substrates:
//!
//! * **one generated [`World`]**, read-mostly — every campaign session
//!   gets an independent timeline via [`World::fork`], which structurally
//!   shares the heavyweight payloads (interned names, `Arc`-backed record
//!   sets) instead of regenerating or deep-copying record data;
//! * **one engine [`WorkerPool`]** — every session's sweeps draw threads
//!   from the same budget, so N campaigns never oversubscribe the machine
//!   N-fold, and by the engine's determinism contract the grant size a
//!   sweep happens to get changes wall clock only, never output.
//!
//! [`run_campaigns`](StudyService::run_campaigns) spawns one
//! [`StudySession`] per submitted [`StudyConfig`], streams every
//! session's per-round [`RoundProgress`] into a single bounded channel
//! (interleaved in completion order — the only nondeterministic surface,
//! and it carries no report state), and returns the final
//! [`StudyReport`]s in submission order. Each report is byte-identical
//! to what a solo [`StudySession::run`] of the same config would
//! produce — the multi-tenant differential test pins that down.

use std::collections::BTreeSet;
use std::sync::Arc;

use remnant_engine::WorkerPool;
use remnant_obs::{progress_channel, DEFAULT_PROGRESS_CAPACITY};
use remnant_world::World;

use crate::error::ConfigFieldError;
use crate::session::{RoundProgress, StudySession};
use crate::study::{StudyConfig, StudyReport};

/// Upper bound on concurrently submitted campaigns; beyond this the
/// per-session worlds stop fitting any sane machine.
pub const MAX_CONCURRENT_SESSIONS: usize = 64;

/// The multi-tenant host for concurrent campaigns (see module docs).
pub struct StudyService {
    world: Arc<World>,
    pool: Arc<WorkerPool>,
}

impl StudyService {
    /// A service over `world` with a worker budget of `pool_capacity`
    /// threads shared by every session's sweeps.
    pub fn new(world: World, pool_capacity: usize) -> Self {
        StudyService {
            world: Arc::new(world),
            pool: WorkerPool::new(pool_capacity),
        }
    }

    /// The shared base world.
    pub fn world(&self) -> &Arc<World> {
        &self.world
    }

    /// The shared engine worker pool.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Forks the base world into a fresh session timeline.
    pub fn fork_world(&self) -> World {
        self.world.fork()
    }

    /// Validates a batch of campaign configs for concurrent execution.
    ///
    /// Rejects an empty batch, a batch larger than
    /// [`MAX_CONCURRENT_SESSIONS`], any config that fails
    /// [`StudyConfig::validate`], and — the one genuinely shared
    /// mutable resource — two sessions spilling into the same directory,
    /// which would interleave their round files into garbage.
    pub fn validate_batch(configs: &[StudyConfig]) -> Result<(), ConfigFieldError> {
        if configs.is_empty() {
            return Err(ConfigFieldError::new(
                "jobs",
                configs.len(),
                "a batch needs at least one campaign",
            ));
        }
        if configs.len() > MAX_CONCURRENT_SESSIONS {
            return Err(ConfigFieldError::new(
                "jobs",
                configs.len(),
                "more than 64 concurrent sessions is outside the service's model",
            ));
        }
        let mut spill_dirs = BTreeSet::new();
        for config in configs {
            config.validate()?;
            if let Some(spill) = &config.spill {
                if !spill_dirs.insert(spill.dir.clone()) {
                    return Err(ConfigFieldError::new(
                        "spill.dir",
                        spill.dir.display(),
                        "two concurrent sessions cannot spill into the same directory",
                    ));
                }
            }
        }
        Ok(())
    }

    /// Runs one session per config concurrently and returns their
    /// reports in submission order.
    ///
    /// Every session forks its own world timeline from the shared base,
    /// draws sweep threads from the shared pool, and streams a
    /// [`RoundProgress`] per round into `on_progress` — interleaved
    /// across sessions in completion order, each tagged with its
    /// session id (= its config's index). `on_progress` runs on the
    /// calling thread; a slow consumer backpressures the sessions via
    /// the bounded channel.
    ///
    /// # Panics
    ///
    /// Panics if a session thread panics (a campaign died mid-flight).
    pub fn run_campaigns(
        &self,
        configs: &[StudyConfig],
        mut on_progress: impl FnMut(RoundProgress),
    ) -> Result<Vec<StudyReport>, ConfigFieldError> {
        Self::validate_batch(configs)?;
        let (tx, rx) = progress_channel(DEFAULT_PROGRESS_CAPACITY.max(configs.len()));
        let reports = std::thread::scope(|scope| {
            let handles: Vec<_> = configs
                .iter()
                .enumerate()
                .map(|(id, config)| {
                    let tx = tx.clone();
                    let config = config.clone();
                    scope.spawn(move || {
                        let mut world = self.world.fork();
                        let session =
                            StudySession::with_worker_pool(config, &world, Arc::clone(&self.pool))
                                .with_id(id);
                        session.run(&mut world, &mut |_| {}, Some(&tx))
                    })
                })
                .collect();
            // The service thread multiplexes progress while sessions run;
            // the stream ends when the last session drops its sender.
            drop(tx);
            for progress in rx.iter() {
                on_progress(progress);
            }
            handles
                .into_iter()
                .enumerate()
                .map(|(id, handle)| {
                    handle
                        .join()
                        .unwrap_or_else(|_| panic!("session {id} panicked"))
                })
                .collect()
        });
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remnant_world::WorldConfig;

    fn base_world() -> World {
        World::generate(WorldConfig {
            population: 600,
            seed: 23,
            warmup_days: 2,
            calibration: remnant_world::Calibration::paper(),
        })
    }

    #[test]
    fn concurrent_sessions_report_in_submission_order() {
        let service = StudyService::new(base_world(), 4);
        let configs: Vec<StudyConfig> = (0..3)
            .map(|i| {
                StudyConfig::builder()
                    .weeks(1)
                    .seed(100 + i)
                    .workers(2)
                    .build()
                    .unwrap()
            })
            .collect();
        let mut seen = vec![0u32; configs.len()];
        let reports = service
            .run_campaigns(&configs, |p| seen[p.session] += 1)
            .unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(seen, [7, 7, 7], "every session streamed every round");
        for report in &reports {
            assert_eq!(report.adoption().total_sites, 600);
            assert_eq!(report.adoption().days_observed, 7);
        }
        // Different seeds → different jitter timelines, same substrate.
        assert_ne!(
            reports[0].behaviors().interval_hours,
            reports[1].behaviors().interval_hours
        );
        assert_eq!(service.pool().available(), 4, "budget fully returned");
    }

    #[test]
    fn batch_validation_names_the_offending_field() {
        assert_eq!(StudyService::validate_batch(&[]).unwrap_err().field, "jobs");
        let spill = |dir: &str| {
            StudyConfig::builder()
                .weeks(1)
                .spill(crate::spill::SpillConfig {
                    dir: dir.into(),
                    resident_shards: 8,
                })
                .build()
                .unwrap()
        };
        let err = StudyService::validate_batch(&[spill("/tmp/a"), spill("/tmp/a")]).unwrap_err();
        assert_eq!(err.field, "spill.dir");
        assert!(StudyService::validate_batch(&[spill("/tmp/a"), spill("/tmp/b")]).is_ok());
        // Literal configs get the builder's field checks too.
        let literal = |workers, weeks| StudyConfig {
            workers,
            weeks,
            ..StudyConfig::default()
        };
        for (config, field) in [(literal(2048, 6), "workers"), (literal(1, 0), "weeks")] {
            let err = StudyService::validate_batch(&[config]).unwrap_err();
            assert_eq!(err.field, field);
        }
    }
}
