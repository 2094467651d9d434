//! The residual-resolution study (Sec III, Sec V).
//!
//! An adversary obtains a website's origin address from its *previous* DPS
//! provider:
//!
//! * **NS-based remnants (Cloudflare)** — [`cloudflare::CloudflareScanner`]
//!   harvests the provider's nameserver fleet from observed NS records and
//!   directly queries it for every target's `www` A record, rotating over
//!   five vantage points;
//! * **CNAME-based remnants (Incapsula)** — [`incapsula::IncapsulaScanner`]
//!   harvests customer CNAME tokens during the usage study and keeps
//!   resolving them after the customers move away;
//! * the three-stage [`filters::FilterPipeline`] (Fig 8) reduces raw scan
//!   output to **hidden records** and **verified origins** (Table VI);
//! * [`exposure::ExposureTracker`] derives the week-over-week exposure
//!   timelines (Fig 9);
//! * [`purge_probe::PurgeProbe`] reproduces the sign-up/terminate/probe
//!   self-experiment that measured Cloudflare's ~4-week purge (Sec V-A.3).

pub mod cloudflare;
pub mod exposure;
pub mod filters;
pub mod incapsula;
pub mod purge_probe;

use std::net::Ipv4Addr;

use remnant_dns::DomainName;

pub use cloudflare::CloudflareScanner;
pub use exposure::ExposureTracker;
pub use filters::{FilterPipeline, WeeklyScanReport, FUNNEL_STAGES};
pub use incapsula::IncapsulaScanner;
pub use purge_probe::{PurgeProbe, PurgeProbeResult};

/// The substring whose presence in an NS host's labels marks it as a
/// Cloudflare fleet nameserver (Sec V-A.1: `*.ns.cloudflare.com`).
pub const CLOUDFLARE_NS_FINGERPRINT: &str = "cloudflare";

/// The substring whose presence in a CNAME's labels marks it as an
/// Incapsula customer token (Sec V-B: `*.incapdns.net`).
pub const INCAPSULA_CNAME_FINGERPRINT: &str = "incapdns";

/// A hidden record: an address retrievable *only* from the previous DPS
/// provider's nameservers, invisible to normal resolution (Sec V-A.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HiddenRecord {
    /// Site rank in the target list.
    pub rank: usize,
    /// The site's apex domain.
    pub apex: DomainName,
    /// The addresses the DPS nameserver revealed and public DNS does not
    /// (the `A_diff` set).
    pub hidden: Vec<Ipv4Addr>,
    /// What public resolution currently returns (`A_nor`).
    pub public: Vec<Ipv4Addr>,
}
