//! The paper's measurement and attack toolkit — the primary contribution of
//! *"Your Remnant Tells Secret: Residual Resolution in DDoS Protection
//! Services"* (DSN 2018), reimplemented as a library.
//!
//! Two studies make up the paper, and both are drivable end to end against
//! any [`remnant_dns::DnsTransport`] + [`remnant_http::HttpTransport`]
//! (in practice the simulated Internet of `remnant-world`). DNS goes
//! through one `&self` query path, so the collector and both residual
//! scanners shard one transport over the [`remnant_engine::ScanEngine`]'s
//! workers (`T: DnsTransport + Sync`); only HTTP verification needs the
//! transport exclusively:
//!
//! **1. DPS usage dynamics (Sec IV).** A daily [`collector::RecordCollector`]
//! gathers A/CNAME/NS records for every target site from a cache-purged
//! recursive resolver; [`matchers::ProviderMatcher`] implements the
//! A/CNAME/NS-matching of Table II; [`adoption`] classifies each site's DPS
//! provider, ON/OFF/NONE status (Table III) and rerouting mechanism
//! (Fig 6); [`behavior`] diffs consecutive snapshots into the five usage
//! behaviors of Table IV; [`fsm`] validates them against the finite state
//! machine of Fig 4; [`pause`] extracts pause windows (Fig 5); and
//! [`unchanged`] runs the origin-IP-unchanged study with HTML verification
//! (Table V).
//!
//! **2. Residual resolution in the wild (Sec V).** [`residual`] interrogates
//! a previous provider directly: the Cloudflare-style scanner queries the
//! harvested nameserver fleet from five vantage points ([`vantage`]), the
//! Incapsula-style scanner tracks harvested CNAME tokens, and the
//! three-stage [`residual::filters`] pipeline (Fig 8) — IP-matching,
//! A-matching (hidden records), HTML verification — yields the exposed
//! origins of Table VI, the exposure timelines of Fig 9, and the
//! purge-probe self-experiment of Sec V-A.3.
//!
//! [`session::StudySession`] drives both studies on one timeline and
//! returns every table/figure's data; [`report`] renders them as text.
//! [`vectors`] additionally implements the classic Table I origin-exposure
//! vectors (IP history, subdomains, MX records) so the new vector can be
//! compared against the previously known ones.
//!
//! # Example
//!
//! ```
//! use remnant_core::study::StudyConfig;
//! use remnant_core::StudySession;
//! use remnant_world::{World, WorldConfig};
//!
//! let mut world = World::generate(WorldConfig::small(7));
//! let config = StudyConfig { weeks: 1, ..StudyConfig::default() };
//! let report = StudySession::new(config, &world).run(&mut world, &mut |_| {});
//! assert!(report.adoption().total_sites > 0);
//! ```

pub mod adoption;
pub mod behavior;
pub mod classify;
pub mod collector;
pub mod error;
pub mod fsm;
pub mod matchers;
pub mod passes;
pub mod pause;
pub mod report;
pub mod residual;
pub mod session;
pub mod snapshot;
pub mod spill;
pub mod study;
pub mod unchanged;
pub mod vantage;
pub mod vectors;
pub mod verify;

pub use adoption::{Adoption, DpsStatus, PackedAdoption};
pub use behavior::{BehaviorDetector, ObservedBehavior};
pub use classify::{concat_columns, DerivedColumn, ShardClassCache, SnapshotColumns};
pub use collector::{DeltaCollector, DeltaRound, RecordCollector, REFRESH_STRATA};
pub use error::{ConfigFieldError, CoreError};
pub use matchers::ProviderMatcher;
pub use passes::{SnapshotAggregates, SnapshotPasses};
pub use remnant_obs::{Instrumented, MetricsRegistry, Obs, ObsReport};
pub use session::{RoundSummary, StudySession};
pub use snapshot::{BlockSource, DnsSnapshot, LoadedBlock, RecordBlock, SiteRecords, SiteView};
pub use spill::{SpillConfig, SpillError, SpillFile, SpillMeta, SpillRef};
pub use study::{CollectionMode, CollectionReport, StudyConfig, StudyReport};
pub use unchanged::UnchangedCandidate;
pub use verify::{HtmlVerifier, VerifyOutcome};

/// The scanner's own source address (a measurement host outside every
/// provider's ranges — origin firewalls treat it as a stranger).
pub const SCANNER_SOURCE: std::net::Ipv4Addr = std::net::Ipv4Addr::new(192, 0, 2, 250);
