//! The adversary model: DDoS traffic, DPS absorption, and the
//! residual-resolution bypass (the threat model of Fig 1 and Sec III).
//!
//! Three pieces:
//!
//! * [`Botnet`] — volumetric attack sources, sized after the attacks the
//!   paper cites (Mirai/Dyn at ~1.2 Tbps);
//! * [`DdosAttack`] — delivers traffic at a target address: hitting a DPS
//!   edge spreads the flood over the provider's anycast PoPs where
//!   scrubbing centers absorb it (Fig 1a); hitting an origin directly
//!   overwhelms its far smaller uplink (Fig 1b ④);
//! * [`ResidualBypassAttack`] — the full kill chain: query the *previous*
//!   provider for the remnant record (Fig 1b ③), verify the leaked address
//!   serves the victim, then flood it directly.
//!
//! # Example
//!
//! ```
//! use remnant_attack::Botnet;
//!
//! let mirai = Botnet::mirai_class();
//! assert!(mirai.total_gbps() > 1_000.0, "Tbps-scale flood");
//! ```

pub mod attack;
pub mod botnet;
pub mod bypass;

pub use attack::{AttackOutcome, DdosAttack, ORIGIN_UPLINK_GBPS};
pub use botnet::Botnet;
pub use bypass::{BypassReport, ResidualBypassAttack};
