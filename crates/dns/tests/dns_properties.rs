//! Property tests for the DNS substrate: zone lookup semantics, cache
//! behavior, and end-to-end resolution invariants.

use proptest::prelude::*;

use remnant_dns::transport::ROOT_SERVER;
use remnant_dns::{
    DnsTransport, DomainName, Query, Rcode, RecordData, RecordType, RecursiveResolver, Registry,
    ResourceRecord, StaticTransport, Ttl, Zone, ZoneAnswer, ZoneServer,
};
use remnant_net::Region;
use remnant_sim::{SimClock, SimDuration, SimTime};
use std::net::Ipv4Addr;

fn label() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,8}"
}

fn apex() -> impl Strategy<Value = DomainName> {
    (label(), prop::sample::select(vec!["com", "net", "org"]))
        .prop_map(|(sld, tld)| format!("{sld}.{tld}").parse().expect("valid"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn zone_lookup_is_consistent_with_membership(
        apex in apex(),
        hosts in prop::collection::btree_set("[a-z]{1,6}", 1..6),
        probe in "[a-z]{1,6}",
    ) {
        let mut zone = Zone::new(apex.clone());
        for host in &hosts {
            zone.add(ResourceRecord::new(
                apex.prepend(host).unwrap(),
                Ttl::secs(300),
                RecordData::A(Ipv4Addr::new(10, 0, 0, 1)),
            ));
        }
        let name = apex.prepend(&probe).unwrap();
        match zone.lookup(&name, RecordType::A) {
            ZoneAnswer::Records(rrs) => {
                prop_assert!(hosts.contains(&probe));
                prop_assert!(!rrs.is_empty());
            }
            ZoneAnswer::NxDomain => prop_assert!(!hosts.contains(&probe)),
            other => prop_assert!(false, "unexpected {other:?}"),
        }
        // The zone length equals the number of records added.
        prop_assert_eq!(zone.len(), hosts.len());
    }

    #[test]
    fn zone_remove_restores_nxdomain(apex in apex(), host in "[a-z]{1,6}") {
        let mut zone = Zone::new(apex.clone());
        let name = apex.prepend(&host).unwrap();
        zone.add(ResourceRecord::new(
            name.clone(),
            Ttl::secs(60),
            RecordData::A(Ipv4Addr::new(10, 0, 0, 2)),
        ));
        prop_assert!(matches!(zone.lookup(&name, RecordType::A), ZoneAnswer::Records(_)));
        zone.remove(&name, RecordType::A);
        prop_assert!(matches!(zone.lookup(&name, RecordType::A), ZoneAnswer::NxDomain));
    }

    #[test]
    fn resolution_matches_zone_content(
        apex in apex(),
        octets in prop::collection::vec(1u8..250, 4),
        ttl in 30u32..86_400,
    ) {
        // Build a one-zone world and verify recursive resolution returns
        // exactly the zone's address, whatever the TTL.
        let addr = Ipv4Addr::new(octets[0], octets[1], octets[2], octets[3]);
        let ns_ip = Ipv4Addr::new(10, 0, 0, 53);
        let www = apex.prepend("www").unwrap();
        let mut registry = Registry::new();
        registry.delegate(apex.clone(), vec![("ns.host.net".parse().unwrap(), ns_ip)]);
        let mut zone = Zone::new(apex.clone());
        zone.add(ResourceRecord::new(www.clone(), Ttl::secs(ttl), RecordData::A(addr)));
        let mut transport = StaticTransport::new(registry);
        transport.add_server(ns_ip, ZoneServer::new(vec![zone]));
        let clock = SimClock::new();
        let mut resolver = RecursiveResolver::new(clock.clone(), Region::Oregon);

        let res = resolver.resolve(&transport, &www, RecordType::A).unwrap();
        prop_assert_eq!(res.addresses(), vec![addr]);

        // Cached answer is identical until expiry...
        clock.advance(SimDuration::secs(u64::from(ttl) - 1));
        let res = resolver.resolve(&transport, &www, RecordType::A).unwrap();
        prop_assert_eq!(res.addresses(), vec![addr]);
        // ...and a re-resolution after expiry still agrees with the zone.
        clock.advance(SimDuration::secs(2));
        let res = resolver.resolve(&transport, &www, RecordType::A).unwrap();
        prop_assert_eq!(res.addresses(), vec![addr]);
    }

    #[test]
    fn registry_referrals_always_carry_glue(
        apex in apex(),
        ns_count in 1usize..4,
    ) {
        let mut registry = Registry::new();
        let nameservers: Vec<(DomainName, Ipv4Addr)> = (0..ns_count)
            .map(|i| {
                (
                    format!("ns{i}.provider.net").parse().unwrap(),
                    Ipv4Addr::new(10, 1, 0, i as u8 + 1),
                )
            })
            .collect();
        registry.delegate(apex.clone(), nameservers.clone());
        let transport = StaticTransport::new(registry);
        let clock = SimClock::new();
        let resolver = RecursiveResolver::new(clock, Region::London);
        let query = Query::new(apex.prepend("www").unwrap(), RecordType::A);
        let response = resolver
            .query_direct(&transport, ROOT_SERVER, &query)
            .unwrap();
        prop_assert!(response.is_referral());
        prop_assert_eq!(response.authority.len(), ns_count);
        prop_assert_eq!(response.additional.len(), ns_count);
        // Every NS host has a matching glue A record.
        for rr in response.authority.iter() {
            let host = rr.data.as_ns().unwrap();
            prop_assert!(response.additional.iter().any(|g| &g.name == host));
        }
    }

    #[test]
    fn unregistered_names_are_nxdomain_everywhere(junk in "[a-z]{3,10}") {
        let registry = Registry::new();
        let transport = StaticTransport::new(registry);
        let clock = SimClock::new();
        let mut resolver = RecursiveResolver::new(clock, Region::Tokyo);
        let name: DomainName = format!("www.{junk}.com").parse().unwrap();
        let res = resolver.resolve(&transport, &name, RecordType::A).unwrap();
        prop_assert_eq!(res.rcode, Rcode::NxDomain);
        prop_assert!(res.is_negative());
    }

    #[test]
    fn ttl_zero_records_are_never_served_from_cache(elapsed in 0u64..100) {
        let apex: DomainName = "zero.com".parse().unwrap();
        let www = apex.prepend("www").unwrap();
        let ns_ip = Ipv4Addr::new(10, 0, 0, 53);
        let mut registry = Registry::new();
        registry.delegate(apex.clone(), vec![("ns.host.net".parse().unwrap(), ns_ip)]);
        let mut zone = Zone::new(apex);
        zone.add(ResourceRecord::new(
            www.clone(),
            Ttl::secs(0),
            RecordData::A(Ipv4Addr::new(9, 9, 9, 9)),
        ));
        let mut transport = StaticTransport::new(registry);
        transport.add_server(ns_ip, ZoneServer::new(vec![zone]));
        let clock = SimClock::starting_at(SimTime::from_secs(elapsed));
        let mut resolver = RecursiveResolver::new(clock, Region::Oregon);
        // Two resolutions both succeed; the second must hit the network
        // again (TTL 0 is uncacheable), which we observe via query counts.
        let _ = resolver.resolve(&transport, &www, RecordType::A).unwrap();
        let before = transport.query_stats().sent;
        let _ = resolver.resolve(&transport, &www, RecordType::A).unwrap();
        prop_assert!(transport.query_stats().sent > before);
    }
}
