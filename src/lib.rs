//! # remnant
//!
//! A full reproduction of *"Your Remnant Tells Secret: Residual Resolution
//! in DDoS Protection Services"* (Jin, Hao, Wang, Cotton — DSN 2018):
//! the paper's DPS usage-dynamics measurement pipeline and
//! residual-resolution scanner, together with every substrate they need —
//! a simulated DNS ecosystem, HTTP layer, the eleven DPS/CDN provider
//! models of Table II, and a calibrated synthetic top-1M website Internet.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `remnant-sim` | virtual clock, seeding, statistics |
//! | [`obs`] | `remnant-obs` | deterministic metrics registry, spans, event journal |
//! | [`net`] | `remnant-net` | CIDR math, AS ranges, anycast, allocators |
//! | [`dns`] | `remnant-dns` | records, zones, registry, recursive resolver |
//! | [`http`] | `remnant-http` | pages, origins, edges, page comparison |
//! | [`provider`] | `remnant-provider` | Table II providers, residual policies |
//! | [`world`] | `remnant-world` | the calibrated synthetic Internet |
//! | [`engine`] | `remnant-engine` | sharded, deterministic parallel sweep executor |
//! | [`core`] | `remnant-core` | **the paper's toolkit**: collector, matchers, behavior/pause/unchanged studies, residual scanner, study driver |
//! | [`query`] | `remnant-query` | time-indexed snapshot store over persisted rounds, analysis plans |
//! | [`attack`] | `remnant-attack` | botnets, scrubbing outcomes, the bypass kill chain |
//!
//! # Quickstart
//!
//! ```
//! use remnant::core::study::StudyConfig;
//! use remnant::core::StudySession;
//! use remnant::world::{World, WorldConfig};
//!
//! // A small Internet, one-week study.
//! let mut world = World::generate(WorldConfig::small(42));
//! let config = StudyConfig { weeks: 1, ..StudyConfig::default() };
//! let report = StudySession::new(config, &world).run(&mut world, &mut |_| {});
//! println!(
//!     "adoption {:.2}%, hidden records {}, verified origins {}",
//!     report.adoption().overall_rate * 100.0,
//!     report.residual().cloudflare.exposure.total_hidden(),
//!     report.residual().cloudflare.exposure.total_verified(),
//! );
//! ```

pub use remnant_attack as attack;
pub use remnant_core as core;
pub use remnant_dns as dns;
pub use remnant_engine as engine;
pub use remnant_http as http;
pub use remnant_net as net;
pub use remnant_obs as obs;
pub use remnant_provider as provider;
pub use remnant_query as query;
pub use remnant_sim as sim;
pub use remnant_world as world;
