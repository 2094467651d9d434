//! Network substrate: IPv4 address math, AS-number bookkeeping, a
//! RouteView-style IP-range database, geographic regions/PoPs, anycast
//! catchment maps, and deterministic address allocators.
//!
//! The paper's toolkit needs exactly these facilities:
//!
//! * **A-matching** (Sec IV-B.2) maps an IP address from a collected A record
//!   to a DPS provider by longest-prefix lookup against the provider's
//!   announced ranges — that is [`IpRangeDb`], seeded the way the authors
//!   seeded theirs from RouteView plus Table II's AS numbers.
//! * **Anycast** (Sec V-A.1): Cloudflare serves one nameserver IP from 100+
//!   PoPs; which physical PoP answers depends on where the query enters the
//!   network — that is [`AnycastMap`] keyed by [`Region`].
//! * Edge/nameserver/origin IPs must come from disjoint, recognizable pools —
//!   that is [`IpAllocator`] over [`Ipv4Cidr`] blocks.
//!
//! [`hash::WordHasher`] is the one hasher of the workspace's hot word-keyed
//! maps — the range database here, the domain-name intern table, the DNS
//! resolver cache and the world's and providers' fabric indexes — and
//! [`hash::WordMap`] / [`hash::WordSet`] name the types built on it.
//!
//! # Example
//!
//! ```
//! use remnant_net::{Asn, IpRangeDb, Ipv4Cidr};
//!
//! let mut db = IpRangeDb::new();
//! db.insert("104.16.0.0/12".parse()?, Asn::new(13335));
//! assert_eq!(db.lookup("104.20.1.9".parse()?), Some(&Asn::new(13335)));
//! assert_eq!(db.lookup("8.8.8.8".parse()?), None);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod alloc;
pub mod anycast;
pub mod asn;
pub mod cidr;
pub mod error;
pub mod geo;
pub mod hash;
pub mod ranges;

pub use alloc::IpAllocator;
pub use anycast::AnycastMap;
pub use asn::Asn;
pub use cidr::Ipv4Cidr;
pub use error::NetError;
pub use geo::{Pop, PopId, Region};
pub use ranges::IpRangeDb;
