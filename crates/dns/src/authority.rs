//! Authoritative server behavior.

use remnant_sim::SimTime;

use crate::message::{Query, Rcode, Response};
use crate::record::RecordType;
use crate::zone::{Zone, ZoneAnswer};

/// Anything that can answer DNS queries authoritatively.
///
/// Returning `None` models a server that silently ignores the query — the
/// paper observed exactly this from Cloudflare's nameservers for unknown
/// names: "The nameserver will respond to a query with the A records of the
/// requested website if it holds the records. Otherwise, it will ignore the
/// query." (Sec V-A.2). DPS providers implement this trait with their own
/// answer *policies* (including the residual-resolution misbehavior).
pub trait Authoritative {
    /// Answers `query` at virtual time `now`, or ignores it (`None`).
    fn answer(&self, now: SimTime, query: &Query) -> Option<Response>;
}

impl<T: Authoritative + ?Sized> Authoritative for Box<T> {
    fn answer(&self, now: SimTime, query: &Query) -> Option<Response> {
        (**self).answer(now, query)
    }
}

/// A stock authoritative server over a set of zones.
///
/// Zone selection picks the most specific origin that covers the queried
/// name. Unknown names get `REFUSED` (the server answers, honestly, that it
/// is not authoritative).
///
/// # Example
///
/// ```
/// use remnant_dns::{Authoritative, DomainName, Query, RecordData, RecordType,
///     ResourceRecord, Ttl, Zone, ZoneServer};
/// use remnant_sim::SimTime;
///
/// let apex: DomainName = "example.com".parse()?;
/// let mut zone = Zone::new(apex.clone());
/// zone.add(ResourceRecord::new(
///     apex.prepend("www")?, Ttl::secs(300), RecordData::A("203.0.113.9".parse()?),
/// ));
/// let server = ZoneServer::new(vec![zone]);
/// let resp = server
///     .answer(SimTime::EPOCH, &Query::new(apex.prepend("www")?, RecordType::A))
///     .expect("zone servers always respond");
/// assert_eq!(resp.answer_addresses().len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ZoneServer {
    /// Zones keyed by origin, so lookup is O(labels) not O(zones) — shared
    /// hosting servers carry many thousands of zones.
    zones: std::collections::HashMap<crate::name::DomainName, Zone>,
}

impl ZoneServer {
    /// Creates a server hosting `zones`.
    pub fn new(zones: Vec<Zone>) -> Self {
        ZoneServer {
            zones: zones.into_iter().map(|z| (z.origin().clone(), z)).collect(),
        }
    }

    /// Removes the zone with origin `origin`, returning it.
    pub fn remove_zone(&mut self, origin: &crate::name::DomainName) -> Option<Zone> {
        self.zones.remove(origin)
    }

    /// Immutable access to a hosted zone.
    pub fn zone(&self, origin: &crate::name::DomainName) -> Option<&Zone> {
        self.zones.get(origin)
    }

    /// Mutable access to a hosted zone.
    pub fn zone_mut(&mut self, origin: &crate::name::DomainName) -> Option<&mut Zone> {
        self.zones.get_mut(origin)
    }

    /// The most specific zone covering `name`.
    fn best_zone(&self, name: &crate::name::DomainName) -> Option<&Zone> {
        name.suffixes().find_map(|suffix| self.zones.get(&suffix))
    }

    /// Builds a response for `query` from zone `answer` content.
    fn respond(zone: &Zone, query: &Query, answer: ZoneAnswer) -> Response {
        match answer {
            ZoneAnswer::Records(rrs) => Response::answer(query.clone(), rrs),
            ZoneAnswer::Cname(rr) => {
                // Include the target's records when this server also holds
                // them (common for in-zone aliases).
                let mut answers = vec![rr.clone()];
                if let Some(target) = rr.data.as_cname() {
                    if query.rtype != RecordType::Cname {
                        answers.extend(zone.get(target, query.rtype).iter().cloned());
                    }
                }
                Response::answer(query.clone(), answers)
            }
            ZoneAnswer::Delegation(ns) => {
                // Attach any in-zone glue we hold for the NS hosts.
                let glue = ns
                    .iter()
                    .filter_map(|rr| rr.data.as_ns())
                    .flat_map(|host| zone.get(host, RecordType::A).iter().cloned())
                    .collect::<Vec<_>>();
                Response::referral(query.clone(), ns, glue)
            }
            ZoneAnswer::NoData => Response::empty(query.clone(), Rcode::NoError),
            ZoneAnswer::NxDomain => Response::empty(query.clone(), Rcode::NxDomain),
        }
    }
}

impl Authoritative for ZoneServer {
    fn answer(&self, _now: SimTime, query: &Query) -> Option<Response> {
        let response = match self.best_zone(&query.name) {
            Some(zone) => Self::respond(zone, query, zone.lookup(&query.name, query.rtype)),
            None => Response::empty(query.clone(), Rcode::Refused),
        };
        Some(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::DomainName;
    use crate::record::{RecordData, ResourceRecord, Ttl};

    fn name(s: &str) -> DomainName {
        s.parse().expect("test name")
    }

    fn server() -> ZoneServer {
        let mut zone = Zone::new(name("example.com"));
        zone.add(ResourceRecord::new(
            name("www.example.com"),
            Ttl::secs(300),
            RecordData::A([203, 0, 113, 9].into()),
        ));
        ZoneServer::new(vec![zone])
    }

    #[test]
    fn answers_known_names() {
        let s = server();
        let resp = s
            .answer(
                SimTime::EPOCH,
                &Query::new(name("www.example.com"), RecordType::A),
            )
            .unwrap();
        assert_eq!(resp.rcode, Rcode::NoError);
        assert_eq!(resp.answer_addresses().len(), 1);
    }

    #[test]
    fn refuses_foreign_names() {
        let s = server();
        let resp = s
            .answer(
                SimTime::EPOCH,
                &Query::new(name("www.other.org"), RecordType::A),
            )
            .unwrap();
        assert_eq!(resp.rcode, Rcode::Refused);
    }

    #[test]
    fn nxdomain_inside_zone() {
        let s = server();
        let resp = s
            .answer(
                SimTime::EPOCH,
                &Query::new(name("gone.example.com"), RecordType::A),
            )
            .unwrap();
        assert_eq!(resp.rcode, Rcode::NxDomain);
    }

    #[test]
    fn cname_answer_includes_in_zone_target() {
        let mut zone = Zone::new(name("example.com"));
        zone.add(ResourceRecord::new(
            name("www.example.com"),
            Ttl::secs(300),
            RecordData::Cname(name("edge.example.com")),
        ));
        zone.add(ResourceRecord::new(
            name("edge.example.com"),
            Ttl::secs(300),
            RecordData::A([1, 2, 3, 4].into()),
        ));
        let s = ZoneServer::new(vec![zone]);
        let resp = s
            .answer(
                SimTime::EPOCH,
                &Query::new(name("www.example.com"), RecordType::A),
            )
            .unwrap();
        assert_eq!(resp.answers.len(), 2);
        assert_eq!(
            resp.answer_addresses(),
            vec![std::net::Ipv4Addr::new(1, 2, 3, 4)]
        );
    }

    #[test]
    fn most_specific_zone_wins() {
        let mut parent = Zone::new(name("example.com"));
        parent.add(ResourceRecord::new(
            name("sub.example.com"),
            Ttl::secs(60),
            RecordData::A([1, 1, 1, 1].into()),
        ));
        let mut child = Zone::new(name("sub.example.com"));
        child.add(ResourceRecord::new(
            name("sub.example.com"),
            Ttl::secs(60),
            RecordData::A([2, 2, 2, 2].into()),
        ));
        let s = ZoneServer::new(vec![parent, child]);
        let resp = s
            .answer(
                SimTime::EPOCH,
                &Query::new(name("sub.example.com"), RecordType::A),
            )
            .unwrap();
        assert_eq!(
            resp.answer_addresses(),
            vec![std::net::Ipv4Addr::new(2, 2, 2, 2)]
        );
    }

    #[test]
    fn delegation_carries_glue() {
        let mut zone = Zone::new(name("com"));
        zone.add(ResourceRecord::new(
            name("example.com"),
            Ttl::days(2),
            RecordData::Ns(name("ns1.example.com")),
        ));
        zone.add(ResourceRecord::new(
            name("ns1.example.com"),
            Ttl::days(2),
            RecordData::A([9, 9, 9, 9].into()),
        ));
        let s = ZoneServer::new(vec![zone]);
        let resp = s
            .answer(
                SimTime::EPOCH,
                &Query::new(name("www.example.com"), RecordType::A),
            )
            .unwrap();
        assert!(resp.is_referral());
        assert_eq!(resp.additional.len(), 1);
    }

    #[test]
    fn zone_management() {
        let mut s = server();
        assert!(s.zone(&name("example.com")).is_some());
        assert!(s.zone_mut(&name("example.com")).is_some());
        let z = s.remove_zone(&name("example.com")).unwrap();
        assert_eq!(z.origin(), &name("example.com"));
        assert!(s.zone(&name("example.com")).is_none());
    }
}
