//! Simulation primitives shared by every `remnant` crate.
//!
//! The paper ("Your Remnant Tells Secret", DSN 2018) is a *time-driven*
//! measurement study: DNS records are collected daily for six weeks, TTLs
//! expire, providers purge stale records after weeks, and pause windows are
//! measured in days. Nothing in the study depends on wall-clock load, so the
//! whole reproduction runs on a deterministic virtual clock.
//!
//! This crate provides:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual instants and spans with
//!   second granularity (DNS TTLs) and day-level helpers (the study's
//!   cadence);
//! * [`SimClock`] — a cheaply cloneable shared handle to the current
//!   virtual time;
//! * [`seed`] — label-based derivation of independent deterministic RNG
//!   streams from a single root seed;
//! * [`stats`] — empirical CDFs and series used to regenerate the paper's
//!   figures.
//!
//! # Example
//!
//! ```
//! use remnant_sim::{SimClock, SimDuration};
//!
//! let clock = SimClock::new();
//! let probe = clock.clone();
//! clock.advance(SimDuration::days(3));
//! assert_eq!(probe.now().as_days(), 3);
//! ```

pub mod clock;
pub mod seed;
pub mod stats;

pub use clock::{SimClock, SimDuration, SimTime};
pub use seed::SeedSeq;
