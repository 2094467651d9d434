//! Simulated DNS ecosystem.
//!
//! The entire study — both the authors' measurement pipeline and the
//! residual-resolution vulnerability itself — lives inside the DNS. This
//! crate implements the pieces of the DNS ecosystem the paper interacts
//! with:
//!
//! * [`DomainName`] and typed resource records ([`ResourceRecord`],
//!   [`RecordType`], [`RecordData`]) for A / CNAME / NS / MX / TXT / SOA;
//! * [`Zone`] with real lookup semantics (exact match, CNAME indirection,
//!   zone cuts / delegations, NODATA vs NXDOMAIN);
//! * an [`Authoritative`] server trait plus a stock [`ZoneServer`], so DPS
//!   providers can implement their own answer *policies* (Cloudflare and
//!   Incapsula keep answering for terminated customers — the residual
//!   resolution bug; other providers refuse);
//! * a delegation [`Registry`] standing in for the root/TLD layer — the
//!   thing a website administrator edits when delegating to, or leaving,
//!   an NS-based DPS provider;
//! * a caching, CNAME-chasing, delegation-following [`RecursiveResolver`]
//!   over an abstract [`DnsTransport`] — one `&self` query path, so a
//!   single transport (the simulated world) serves every scan worker at
//!   once, and [`CountingTransport`] gives each shard its own query
//!   counts. Resolver caches honor TTLs against
//!   the simulation clock and can be purged before each measurement round,
//!   exactly as the paper's EC2 collector did (Sec IV-B.1). Stale cached NS
//!   records naturally keep steering queries to a previous provider after a
//!   switch — the root cause of residual resolution (Sec VI-A).
//!
//! # Example: a zone answering through a resolver
//!
//! ```
//! use remnant_dns::{
//!     DomainName, Query, RecordData, RecordType, Registry, ResourceRecord,
//!     RecursiveResolver, StaticTransport, Ttl, Zone, ZoneServer,
//! };
//! use remnant_net::Region;
//! use remnant_sim::SimClock;
//!
//! let clock = SimClock::new();
//! let apex: DomainName = "example.com".parse()?;
//! let www: DomainName = "www.example.com".parse()?;
//! let ns_name: DomainName = "ns1.example-dns.net".parse()?;
//! let ns_ip = "192.0.2.53".parse()?;
//!
//! let mut zone = Zone::new(apex.clone());
//! zone.add(ResourceRecord::new(
//!     www.clone(),
//!     Ttl::secs(300),
//!     RecordData::A("203.0.113.10".parse()?),
//! ));
//!
//! let mut registry = Registry::new();
//! registry.delegate(apex, vec![(ns_name, ns_ip)]);
//!
//! let mut transport = StaticTransport::new(registry);
//! transport.add_server(ns_ip, ZoneServer::new(vec![zone]));
//!
//! let mut resolver = RecursiveResolver::new(clock, Region::Oregon);
//! let res = resolver.resolve(&transport, &www, RecordType::A)?;
//! assert_eq!(res.addresses(), vec!["203.0.113.10".parse::<std::net::Ipv4Addr>()?]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod authority;
pub mod cache;
pub mod error;
pub mod message;
pub mod name;
pub mod record;
pub mod registry;
pub mod resolver;
pub mod transport;
pub mod zone;

pub use authority::{Authoritative, ZoneServer};
pub use cache::ResolverCache;
pub use error::DnsError;
pub use message::{Query, Rcode, Response};
pub use name::DomainName;
pub use record::{RecordData, RecordSet, RecordType, ResourceRecord, Ttl};
pub use registry::{Registry, ZoneGenerationProbe};
pub use remnant_obs::Instrumented;
pub use resolver::{RecursiveResolver, Resolution, ResolverStats};
pub use transport::{CountingTransport, DnsTransport, QueryStats, StaticTransport};
pub use zone::{Zone, ZoneAnswer};
