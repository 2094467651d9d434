//! DNS queries and responses (typed, not wire-format).

use std::fmt;
use std::net::Ipv4Addr;

use crate::name::DomainName;
use crate::record::{RecordSet, RecordType};

/// A single-question DNS query.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Query {
    /// Queried name.
    pub name: DomainName,
    /// Queried type.
    pub rtype: RecordType,
}

impl Query {
    /// Creates a query.
    pub fn new(name: DomainName, rtype: RecordType) -> Self {
        Query { name, rtype }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}?", self.name, self.rtype)
    }
}

/// DNS response codes used in the simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Rcode {
    /// Success (possibly with an empty answer section — NODATA).
    #[default]
    NoError,
    /// The queried name does not exist.
    NxDomain,
    /// The server refuses to answer for this name.
    Refused,
    /// Internal server failure.
    ServFail,
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rcode::NoError => "NOERROR",
            Rcode::NxDomain => "NXDOMAIN",
            Rcode::Refused => "REFUSED",
            Rcode::ServFail => "SERVFAIL",
        };
        f.write_str(s)
    }
}

/// A DNS response with the three standard record sections.
///
/// Sections are [`RecordSet`] values: a section of up to two records (nearly
/// every answer and referral the simulated fabric sends) needs no allocation.
/// Constructors accept anything `Into<RecordSet>`, such as a set, an array
/// or a `Vec`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// The query being answered.
    pub query: Query,
    /// Response code.
    pub rcode: Rcode,
    /// True if this server is authoritative for the answer.
    pub authoritative: bool,
    /// Answer section.
    pub answers: RecordSet,
    /// Authority section (NS records at a zone cut, or SOA for negatives).
    pub authority: RecordSet,
    /// Additional section (e.g. glue A records for authority NS hosts).
    pub additional: RecordSet,
}

impl Response {
    /// A successful authoritative answer.
    ///
    /// `answers` becomes the answer section as-is.
    pub fn answer(query: Query, answers: impl Into<RecordSet>) -> Self {
        Response {
            query,
            rcode: Rcode::NoError,
            authoritative: true,
            answers: answers.into(),
            authority: RecordSet::new(),
            additional: RecordSet::new(),
        }
    }

    /// An empty authoritative response with the given code (NXDOMAIN,
    /// NODATA via `NoError`, REFUSED, …).
    pub fn empty(query: Query, rcode: Rcode) -> Self {
        Response {
            query,
            rcode,
            authoritative: true,
            answers: RecordSet::new(),
            authority: RecordSet::new(),
            additional: RecordSet::new(),
        }
    }

    /// A referral to another zone: NS records in the authority section and
    /// glue addresses in the additional section.
    pub fn referral(
        query: Query,
        authority: impl Into<RecordSet>,
        additional: impl Into<RecordSet>,
    ) -> Self {
        Response {
            query,
            rcode: Rcode::NoError,
            authoritative: false,
            answers: RecordSet::new(),
            authority: authority.into(),
            additional: additional.into(),
        }
    }

    /// True if this is a referral (no answers, NS records in authority).
    pub fn is_referral(&self) -> bool {
        self.rcode == Rcode::NoError
            && self.answers.is_empty()
            && self
                .authority
                .iter()
                .any(|rr| rr.record_type() == RecordType::Ns)
    }

    /// All IPv4 addresses in the answer section.
    pub fn answer_addresses(&self) -> Vec<Ipv4Addr> {
        self.answers
            .iter()
            .filter_map(|rr| rr.data.as_a())
            .collect()
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} ({} answers, {} authority, {} additional)",
            self.query,
            self.rcode,
            self.answers.len(),
            self.authority.len(),
            self.additional.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RecordData, ResourceRecord, Ttl};

    fn name(s: &str) -> DomainName {
        s.parse().expect("test name")
    }

    fn a(owner: &str, ip: [u8; 4]) -> ResourceRecord {
        ResourceRecord::new(name(owner), Ttl::secs(60), RecordData::A(ip.into()))
    }

    #[test]
    fn answer_helpers() {
        let q = Query::new(name("www.example.com"), RecordType::A);
        let resp = Response::answer(
            q.clone(),
            vec![
                a("www.example.com", [1, 2, 3, 4]),
                a("www.example.com", [5, 6, 7, 8]),
            ],
        );
        assert!(resp.authoritative);
        assert_eq!(resp.answer_addresses().len(), 2);
        assert!(!resp.is_referral());
    }

    #[test]
    fn cname_answer_detected() {
        let q = Query::new(name("www.example.com"), RecordType::A);
        let rr = ResourceRecord::new(
            name("www.example.com"),
            Ttl::secs(300),
            RecordData::Cname(name("x.incapdns.net")),
        );
        let resp = Response::answer(q, vec![rr]);
        assert_eq!(
            resp.answers[0].data.as_cname(),
            Some(&name("x.incapdns.net"))
        );
        assert!(resp.answer_addresses().is_empty());
    }

    #[test]
    fn referral_detection() {
        let q = Query::new(name("www.example.com"), RecordType::A);
        let ns = ResourceRecord::new(
            name("example.com"),
            Ttl::days(2),
            RecordData::Ns(name("kate.ns.cloudflare.com")),
        );
        let glue = a("kate.ns.cloudflare.com", [173, 245, 59, 1]);
        let resp = Response::referral(q, vec![ns], vec![glue]);
        assert!(resp.is_referral());
        assert!(!resp.authoritative);
    }

    #[test]
    fn empty_rcodes() {
        let q = Query::new(name("gone.example.com"), RecordType::A);
        let resp = Response::empty(q.clone(), Rcode::NxDomain);
        assert_eq!(resp.rcode, Rcode::NxDomain);
        assert!(!Response::empty(q, Rcode::Refused).is_referral());
    }

    #[test]
    fn display_formats() {
        let q = Query::new(name("example.com"), RecordType::Ns);
        assert_eq!(q.to_string(), "example.com NS?");
        assert_eq!(Rcode::NxDomain.to_string(), "NXDOMAIN");
    }
}
