//! # remnant-engine
//!
//! A sharded, deterministic parallel scan engine for million-site sweeps.
//!
//! The paper's measurement pipeline resolves the Alexa top one million
//! every day for three months (Sec IV-A). Sequentially, each site is
//! independent of the others within a round — which makes the sweep
//! embarrassingly parallel, *if* parallelism can be added without
//! perturbing the study's outputs. This crate provides that: a
//! [`ScanEngine`] that splits a target list into deterministic shards,
//! drives `N` worker threads (each with its own per-shard state and RNG
//! stream), and merges shard outputs back into target order so results
//! are **bit-identical regardless of worker count**.
//!
//! ## Determinism contract
//!
//! For a fixed target list, seed and shard size, the
//! [`Sweep::outputs`] vector and every [`ShardStats`] counter are
//! identical for every `workers` value. Only wall-clock timings
//! ([`SweepStats::timings`], [`SweepStats::wall`]) vary. This holds
//! because shard layout, per-shard RNG seeds and per-shard worker state
//! are all functions of the shard index — never of the thread that
//! happens to execute the shard. See [`ScanEngine`] for the three
//! invariants; [`ScanEngine::sweep`] is the one entry point. A task
//! runs once per item and returns that item's output: there is no retry
//! protocol and no pacing, since every query goes to an in-process
//! transport.
//!
//! ## Example
//!
//! ```
//! use remnant_engine::{EngineConfig, ScanEngine};
//!
//! let items: Vec<u32> = (0..10_000).collect();
//! let engine = ScanEngine::new(EngineConfig::with_workers(8, 42)?);
//! let sweep = engine.sweep(
//!     &(),
//!     &items,
//!     &engine.shard_plan(items.len()),
//!     None, // every shard
//!     |_shard| (),
//!     |_ctx, _worker, _scope, _rank, item| item * 2,
//!     |_worker, _scope, outputs| outputs, // one product per shard
//! );
//! let outputs: Vec<u32> = sweep.outputs.into_iter().flatten().collect();
//! assert_eq!(outputs[7], 14);
//! assert_eq!(sweep.stats.items(), 10_000);
//! # Ok::<(), remnant_engine::ConfigFieldError>(())
//! ```
//!
//! ## Scheduling
//!
//! Execution is *work-claiming*: the planned shard list feeds a shared
//! injector queue ([`ShardQueue`]) that worker threads drain
//! first-come-first-served, and results land in plan-positional slots
//! ([`SlotVec`]). A straggling shard therefore delays only itself — the
//! other threads keep claiming past it — without any effect on output
//! bytes. Multi-tenant hosts hand every engine the same [`WorkerPool`] so
//! concurrent sweeps share one thread budget.

pub mod claim;
pub mod config;
pub mod error;
pub mod pool;
pub mod shard;
pub mod stats;
pub mod sweep;

pub use claim::{ShardClaim, ShardQueue, SlotVec};
pub use config::EngineConfig;
pub use error::ConfigFieldError;
pub use pool::{PoolGrant, WorkerPool};
pub use remnant_obs::{Instrumented, MetricsRegistry};
pub use shard::plan_shards;
pub use stats::{ShardStats, ShardTiming, SweepStats};
pub use sweep::{ScanEngine, ShardScope, Sweep};
