//! Resource records.

use std::fmt;
use std::net::Ipv4Addr;
use std::ops::Deref;
use std::sync::Arc;

use remnant_sim::{SimDuration, SimTime};

use crate::name::DomainName;

/// An immutable set of resource records, held by value.
///
/// Nearly every answer and referral section the simulated fabric sends
/// holds at most two records: a host's address, or a customer's or hosting
/// pair's two nameservers and their glue. Sets of up to two records are stored
/// inline, so building, cloning, caching and dropping one touches neither
/// the heap nor a reference count that other threads also write. Larger
/// sets (a provider's whole nameserver fleet) share one allocation, so a
/// clone of one is a reference-count bump.
///
/// A set dereferences to its records as a slice, compares by content and
/// prints as a slice. Build one by collecting records or from an array or
/// a `Vec`; the empty set is [`RecordSet::new`] (or `Default`).
#[derive(Clone, Default)]
pub struct RecordSet(Records);

/// The storage behind a [`RecordSet`]: inline up to two records.
#[derive(Clone, Default)]
enum Records {
    #[default]
    Empty,
    One(ResourceRecord),
    Two([ResourceRecord; 2]),
    Shared(Arc<[ResourceRecord]>),
}

impl RecordSet {
    /// The empty set.
    pub const fn new() -> Self {
        RecordSet(Records::Empty)
    }
}

impl Deref for RecordSet {
    type Target = [ResourceRecord];

    fn deref(&self) -> &[ResourceRecord] {
        match &self.0 {
            Records::Empty => &[],
            Records::One(record) => std::slice::from_ref(record),
            Records::Two(pair) => pair,
            Records::Shared(records) => records,
        }
    }
}

impl FromIterator<ResourceRecord> for RecordSet {
    fn from_iter<I: IntoIterator<Item = ResourceRecord>>(records: I) -> Self {
        let mut records = records.into_iter();
        let Some(first) = records.next() else {
            return RecordSet::new();
        };
        let Some(second) = records.next() else {
            return RecordSet(Records::One(first));
        };
        let Some(third) = records.next() else {
            return RecordSet(Records::Two([first, second]));
        };
        RecordSet(Records::Shared(
            [first, second, third].into_iter().chain(records).collect(),
        ))
    }
}

impl<const N: usize> From<[ResourceRecord; N]> for RecordSet {
    fn from(records: [ResourceRecord; N]) -> Self {
        records.into_iter().collect()
    }
}

impl From<Vec<ResourceRecord>> for RecordSet {
    fn from(records: Vec<ResourceRecord>) -> Self {
        records.into_iter().collect()
    }
}

impl PartialEq for RecordSet {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for RecordSet {}

impl fmt::Debug for RecordSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Record types used in the study.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum RecordType {
    /// Address record — maps a hostname to an IPv4 address.
    A,
    /// Canonical name — an alias to another name (CNAME-based rerouting).
    Cname,
    /// Nameserver — delegation of a zone (NS-based rerouting).
    Ns,
    /// Mail exchange (origin-exposure vector "DNS Records" in Table I).
    Mx,
    /// Free-form text: queried (the resolver counts it as a query type)
    /// but never served, so no [`RecordData`] variant carries it.
    Txt,
    /// Start of authority.
    Soa,
}

impl RecordType {
    /// All record types, in stable order.
    pub const ALL: [RecordType; 6] = [
        RecordType::A,
        RecordType::Cname,
        RecordType::Ns,
        RecordType::Mx,
        RecordType::Txt,
        RecordType::Soa,
    ];
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RecordType::A => "A",
            RecordType::Cname => "CNAME",
            RecordType::Ns => "NS",
            RecordType::Mx => "MX",
            RecordType::Txt => "TXT",
            RecordType::Soa => "SOA",
        };
        f.write_str(s)
    }
}

/// Typed record payload.
///
/// Every variant is plain data (an address, interned names, integers), so
/// a record owns nothing on the heap and copying or dropping one never
/// frees memory.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RecordData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// Alias target.
    Cname(DomainName),
    /// Delegated nameserver hostname.
    Ns(DomainName),
    /// Mail exchange: preference and exchanger host.
    Mx {
        /// Lower is preferred.
        preference: u16,
        /// The mail host.
        exchange: DomainName,
    },
    /// Start-of-authority summary (serial only; enough for the study).
    Soa {
        /// Primary nameserver.
        mname: DomainName,
        /// Zone serial number.
        serial: u32,
    },
}

impl RecordData {
    /// The record type this payload belongs to.
    pub fn record_type(&self) -> RecordType {
        match self {
            RecordData::A(_) => RecordType::A,
            RecordData::Cname(_) => RecordType::Cname,
            RecordData::Ns(_) => RecordType::Ns,
            RecordData::Mx { .. } => RecordType::Mx,
            RecordData::Soa { .. } => RecordType::Soa,
        }
    }

    /// The IPv4 address, if this is an A record.
    pub fn as_a(&self) -> Option<Ipv4Addr> {
        match self {
            RecordData::A(addr) => Some(*addr),
            _ => None,
        }
    }

    /// The alias target, if this is a CNAME record.
    pub fn as_cname(&self) -> Option<&DomainName> {
        match self {
            RecordData::Cname(target) => Some(target),
            _ => None,
        }
    }

    /// The nameserver host, if this is an NS record.
    pub fn as_ns(&self) -> Option<&DomainName> {
        match self {
            RecordData::Ns(host) => Some(host),
            _ => None,
        }
    }
}

impl fmt::Display for RecordData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordData::A(addr) => write!(f, "{addr}"),
            RecordData::Cname(target) => write!(f, "{target}"),
            RecordData::Ns(host) => write!(f, "{host}"),
            RecordData::Mx {
                preference,
                exchange,
            } => write!(f, "{preference} {exchange}"),
            RecordData::Soa { mname, serial } => write!(f, "{mname} {serial}"),
        }
    }
}

/// A record's time to live, in seconds.
///
/// ```
/// use remnant_dns::Ttl;
/// use remnant_sim::SimTime;
///
/// let ttl = Ttl::secs(300);
/// let now = SimTime::from_secs(1_000);
/// assert_eq!(ttl.expires_at(now), SimTime::from_secs(1_300));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ttl(u32);

impl Ttl {
    /// Creates a TTL of `secs` seconds.
    pub const fn secs(secs: u32) -> Self {
        Ttl(secs)
    }

    /// Creates a TTL of `hours` hours.
    pub const fn hours(hours: u32) -> Self {
        Ttl(hours * 3600)
    }

    /// Creates a TTL of `days` days.
    pub const fn days(days: u32) -> Self {
        Ttl(days * 86_400)
    }

    /// The TTL in seconds.
    pub const fn as_secs(self) -> u32 {
        self.0
    }

    /// The TTL as a simulation duration.
    pub const fn as_duration(self) -> SimDuration {
        SimDuration::secs(self.0 as u64)
    }

    /// When a record cached at `now` expires.
    pub fn expires_at(self, now: SimTime) -> SimTime {
        now + self.as_duration()
    }
}

impl fmt::Display for Ttl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

/// One resource record: owner name, TTL, and typed payload.
///
/// This is a passive data structure; its fields are public.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ResourceRecord {
    /// The owner (queried) name.
    pub name: DomainName,
    /// Time to live.
    pub ttl: Ttl,
    /// Typed payload.
    pub data: RecordData,
}

impl ResourceRecord {
    /// Creates a record.
    pub fn new(name: DomainName, ttl: Ttl, data: RecordData) -> Self {
        ResourceRecord { name, ttl, data }
    }

    /// The record's type.
    pub fn record_type(&self) -> RecordType {
        self.data.record_type()
    }
}

impl fmt::Display for ResourceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {}",
            self.name,
            self.ttl,
            self.record_type(),
            self.data
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        s.parse().expect("test name")
    }

    #[test]
    fn data_type_mapping_is_total() {
        let samples = [
            RecordData::A(Ipv4Addr::LOCALHOST),
            RecordData::Cname(name("t.example.com")),
            RecordData::Ns(name("ns.example.com")),
            RecordData::Mx {
                preference: 10,
                exchange: name("mx.example.com"),
            },
            RecordData::Soa {
                mname: name("ns.example.com"),
                serial: 1,
            },
        ];
        let types: Vec<RecordType> = samples.iter().map(|d| d.record_type()).collect();
        // TXT is a query type that nothing serves: every other type has
        // its payload, in `ALL`'s order.
        let served: Vec<RecordType> = RecordType::ALL
            .into_iter()
            .filter(|t| *t != RecordType::Txt)
            .collect();
        assert_eq!(types, served);
        assert_eq!(RecordType::ALL.len(), served.len() + 1);
        assert_eq!(RecordType::Txt.to_string(), "TXT");
    }

    #[test]
    fn a_record_is_plain_data() {
        assert_eq!(std::mem::size_of::<ResourceRecord>(), 32);
        assert_eq!(std::mem::size_of::<RecordSet>(), 64);
        assert!(!std::mem::needs_drop::<ResourceRecord>());
    }

    #[test]
    fn accessors_return_only_matching_variants() {
        let a = RecordData::A(Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(a.as_a(), Some(Ipv4Addr::new(1, 2, 3, 4)));
        assert_eq!(a.as_cname(), None);
        assert_eq!(a.as_ns(), None);

        let c = RecordData::Cname(name("x.example.com"));
        assert_eq!(c.as_cname(), Some(&name("x.example.com")));
        assert_eq!(c.as_a(), None);
    }

    #[test]
    fn ttl_expiry() {
        let ttl = Ttl::days(2);
        assert_eq!(ttl.as_secs(), 172_800);
        assert_eq!(
            ttl.expires_at(SimTime::from_secs(10)),
            SimTime::from_secs(172_810)
        );
        assert_eq!(Ttl::hours(2).as_secs(), 7200);
    }

    #[test]
    fn record_display_is_zone_file_like() {
        let rr = ResourceRecord::new(
            name("www.example.com"),
            Ttl::secs(300),
            RecordData::A(Ipv4Addr::new(203, 0, 113, 9)),
        );
        assert_eq!(rr.to_string(), "www.example.com 300s A 203.0.113.9");
    }

    #[test]
    fn record_sets_compare_by_content_whatever_their_size() {
        let rr = |last: u8| {
            ResourceRecord::new(
                name("ns.example.com"),
                Ttl::secs(60),
                RecordData::A(Ipv4Addr::new(192, 0, 2, last)),
            )
        };
        for len in 0..5u8 {
            let records: Vec<ResourceRecord> = (0..len).map(rr).collect();
            let set = RecordSet::from(records.clone());
            assert_eq!(&set[..], &records[..]);
            assert_eq!(set, records.iter().cloned().collect::<RecordSet>());
            assert_eq!(set.clone(), set);
            assert_eq!(format!("{set:?}"), format!("{records:?}"));
            let other: RecordSet = (1..=len).map(rr).collect();
            assert_eq!(set == other, len == 0);
        }
        assert_eq!(
            RecordSet::from([rr(1), rr(2)]),
            RecordSet::from(vec![rr(1), rr(2)])
        );
        assert_eq!(RecordSet::default(), RecordSet::new());
        assert!(RecordSet::new().is_empty());
    }

    #[test]
    fn record_type_display() {
        assert_eq!(RecordType::Cname.to_string(), "CNAME");
        assert_eq!(RecordType::Soa.to_string(), "SOA");
    }
}
