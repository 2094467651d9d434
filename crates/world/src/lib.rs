//! The synthetic Internet the measurement toolkit runs against.
//!
//! The paper measured the live Internet: the Alexa top 1M, the public DNS,
//! and the production infrastructure of eleven DPS providers. This crate
//! substitutes a generative model calibrated to every statistic the paper
//! publishes (see [`config::Calibration`] for the full list with paper
//! references):
//!
//! * a ranked website population with popularity-dependent DPS adoption
//!   (14.85% overall, 38.98% in the top band — Sec IV-B.2);
//! * per-provider market shares (Cloudflare 79%, Incapsula 3.7% of DPS
//!   customers — Sec V);
//! * a continuous-time usage-dynamics engine producing JOIN / LEAVE /
//!   PAUSE / RESUME / SWITCH behaviors at the paper's daily rates
//!   (Fig 3), with pause durations following Fig 5's CDF and origin-IP
//!   (non-)rotation following Table V;
//! * full DNS/HTTP wiring: [`World`] implements both
//!   [`remnant_dns::DnsTransport`] and [`remnant_http::HttpTransport`], so
//!   the toolkit in `remnant-core` interrogates it exactly as the authors'
//!   scanners interrogated the Internet — recursive resolution, direct
//!   nameserver queries, and landing-page fetches. DNS answering takes
//!   `&self`, so one world serves every scan worker at once; HTTP takes
//!   `&mut self`, because edges and origins change state on a fetch.
//!
//! Every event applied by the dynamics engine is recorded in a ground-truth
//! log ([`BehaviorEvent`]), which integration tests compare against what
//! the measurement pipeline *infers* — the core validation of this
//! reproduction.
//!
//! # Example
//!
//! ```
//! use remnant_world::{World, WorldConfig};
//!
//! let mut world = World::generate(WorldConfig::small(1234));
//! world.step_days(3);
//! assert!(!world.events().is_empty());
//! ```

pub mod config;
pub mod dynamics;
pub mod names;
pub mod site;
pub mod world;

pub use config::{Calibration, WorldConfig};
pub use dynamics::{BehaviorEvent, BehaviorKind, LeaveFate};
pub use site::{SiteId, SiteState, Website};
pub use world::World;
