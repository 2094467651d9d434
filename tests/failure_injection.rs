//! Failure injection: the measurement pipeline must degrade gracefully
//! under the conditions the paper reports — servers ignoring queries,
//! origins firewalled to DPS-only traffic, dynamic pages, dead hosts —
//! and the resolver substrate must survive unreachable infrastructure.

use remnant::core::collector::{DeltaCollector, RecordCollector, Target};
use remnant::core::residual::{CloudflareScanner, FilterPipeline, CLOUDFLARE_NS_FINGERPRINT};
use remnant::core::study::StudyConfig;
use remnant::core::SCANNER_SOURCE;
use remnant::core::{DnsSnapshot, Instrumented, StudySession};
use remnant::dns::transport::{StaticTransport, ROOT_SERVER};
use remnant::dns::{
    CountingTransport, DnsError, DnsTransport, DomainName, Query, RecordData, RecordType,
    RecursiveResolver, Registry, ResourceRecord, Response, Ttl, Zone, ZoneServer,
};
use remnant::engine::{EngineConfig, ScanEngine};
use remnant::net::Region;
use remnant::provider::{ProviderId, ReroutingMethod, ServicePlan};
use remnant::sim::SimClock;
use remnant::world::{SiteState, World, WorldConfig};
use std::net::Ipv4Addr;
use std::sync::Arc;

fn generate(seed: u64) -> World {
    World::generate(WorldConfig {
        population: 2_000,
        seed,
        warmup_days: 0,
        calibration: remnant::world::Calibration::paper(),
    })
}

fn targets(world: &World) -> Vec<Target> {
    world
        .sites()
        .iter()
        .map(|s| (s.apex.clone(), s.www.clone()))
        .collect()
}

#[test]
fn resolver_survives_flapping_nameservers() {
    let clock = SimClock::new();
    let apex: DomainName = "flaky.com".parse().unwrap();
    let www = apex.prepend("www").unwrap();
    let ns1 = Ipv4Addr::new(10, 0, 0, 1);
    let ns2 = Ipv4Addr::new(10, 0, 0, 2);
    let mut registry = Registry::new();
    registry.delegate(
        apex.clone(),
        vec![
            ("ns1.flaky.com".parse().unwrap(), ns1),
            ("ns2.flaky.com".parse().unwrap(), ns2),
        ],
    );
    let mut zone = Zone::new(apex);
    zone.add(ResourceRecord::new(
        www.clone(),
        Ttl::secs(60),
        RecordData::A(Ipv4Addr::new(203, 0, 113, 5)),
    ));
    let mut transport = StaticTransport::new(registry);
    transport.add_server(ns1, ZoneServer::new(vec![zone.clone()]));
    transport.add_server(ns2, ZoneServer::new(vec![zone]));

    let mut resolver = RecursiveResolver::new(clock, Region::Oregon);
    // Primary dead: the resolver fails over to the secondary.
    transport.set_unreachable(ns1);
    let res = resolver.resolve(&transport, &www, RecordType::A).unwrap();
    assert_eq!(res.addresses(), vec![Ipv4Addr::new(203, 0, 113, 5)]);

    // Both dead: a clean timeout error, not a hang or panic.
    transport.set_unreachable(ns2);
    resolver.purge_cache();
    let err = resolver
        .resolve(&transport, &www, RecordType::A)
        .unwrap_err();
    assert!(matches!(err, DnsError::Timeout { .. }));

    // Root dead too.
    transport.set_unreachable(ROOT_SERVER);
    let err = resolver
        .resolve(&transport, &www, RecordType::A)
        .unwrap_err();
    assert!(matches!(err, DnsError::Timeout { .. }));
}

/// A static fabric with one dead nameserver: `site<i>.com` zones are
/// served by a dead primary and a live secondary, `orphan<i>.com` only by
/// the dead primary, and `ghost<i>.com` is not registered at all.
fn half_dead_transport() -> (StaticTransport, Vec<DomainName>) {
    let dead = Ipv4Addr::new(10, 0, 1, 1);
    let live = Ipv4Addr::new(10, 0, 1, 2);
    let mut registry = Registry::new();
    let mut zones = Vec::new();
    let mut names = Vec::new();
    for i in 0..24u8 {
        let (label, nameservers) = match i % 3 {
            0 => ("site", vec![("ns1.dns.net", dead), ("ns2.dns.net", live)]),
            1 => ("orphan", vec![("ns1.dns.net", dead)]),
            _ => ("ghost", Vec::new()),
        };
        let apex: DomainName = format!("{label}{i}.com").parse().unwrap();
        let www = apex.prepend("www").unwrap();
        if !nameservers.is_empty() {
            registry.delegate(
                apex.clone(),
                nameservers
                    .into_iter()
                    .map(|(host, addr)| (host.parse().unwrap(), addr))
                    .collect(),
            );
            let mut zone = Zone::new(apex);
            zone.add(ResourceRecord::new(
                www.clone(),
                Ttl::secs(300),
                RecordData::A(Ipv4Addr::new(203, 0, 113, i)),
            ));
            zones.push(zone);
        }
        names.push(www);
    }
    let mut transport = StaticTransport::new(registry);
    transport.add_server(dead, ZoneServer::new(zones.clone()));
    transport.add_server(live, ZoneServer::new(zones));
    transport.set_unreachable(dead);
    (transport, names)
}

#[test]
fn failing_static_transport_sweeps_like_a_sequential_resolver() {
    type Answer = Result<Vec<Ipv4Addr>, DnsError>;
    let clock = SimClock::new();

    let (transport, names) = half_dead_transport();
    let mut resolver = RecursiveResolver::new(clock.clone(), Region::Oregon);
    let sequential: Vec<Answer> = names
        .iter()
        .map(|name| resolver.resolve_addresses(&transport, name))
        .collect();
    assert!(sequential
        .iter()
        .any(|a| a.as_ref().is_ok_and(|v| !v.is_empty())));
    assert!(sequential.iter().any(|a| a.is_err()), "orphans time out");

    let sweep = |workers: usize| {
        let (transport, names) = half_dead_transport();
        let engine = ScanEngine::new(EngineConfig {
            workers,
            shard_size: 5,
            seed: 4,
        });
        let answers: Vec<Answer> = engine
            .sweep(
                &transport,
                &names,
                &engine.shard_plan(names.len()),
                None,
                |_shard| RecursiveResolver::new(clock.clone(), Region::Oregon),
                |transport, resolver, _scope, _rank, name| {
                    resolver.resolve_addresses(transport, name)
                },
                |_resolver, _scope, answers| answers,
            )
            .outputs
            .into_iter()
            .flatten()
            .collect();
        (answers, transport.query_stats())
    };
    let (answers_1, stats_1) = sweep(1);
    let (answers_4, stats_4) = sweep(4);
    assert_eq!(
        answers_1, sequential,
        "sharded answers match the sequential resolver"
    );
    assert_eq!(
        answers_4, sequential,
        "worker count never changes the answers"
    );
    assert_eq!(
        stats_1.sent, stats_4.sent,
        "query volume is worker-count invariant"
    );
    assert!(stats_1.sent > 0);
}

#[test]
fn collector_records_empty_sites_instead_of_failing() {
    // A world where nothing exists for a probed name: the collector must
    // produce empty records, and classification must call it NONE.
    let world = generate(20);
    let mut fake_targets = targets(&world);
    fake_targets.push((
        "ghost-domain.org".parse().unwrap(),
        "www.ghost-domain.org".parse().unwrap(),
    ));
    let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
    let snapshot = collector.collect(&world, &fake_targets, 0);
    let ghost = snapshot.site(fake_targets.len() - 1).unwrap();
    assert!(ghost.is_empty());
    let detector = remnant::core::BehaviorDetector::new();
    let classes = detector.classify_snapshot(&snapshot);
    assert_eq!(
        classes.last().unwrap().status,
        remnant::core::DpsStatus::None
    );
}

#[test]
fn firewalled_and_dynamic_sites_reduce_verification_not_detection() {
    // Force three switches: a clean site, a firewalled one, a dynamic-meta
    // one. All three must appear as hidden records; only the clean one
    // verifies — the paper's lower-bound behavior (Sec IV-C.3).
    let mut world = generate(21);
    let clean = world
        .sites()
        .iter()
        .find(|s| {
            !s.firewalled
                && !s.dynamic_meta
                && matches!(
                    s.state,
                    SiteState::Dps {
                        provider: ProviderId::Cloudflare,
                        rerouting: ReroutingMethod::Ns,
                        paused: false,
                        ..
                    }
                )
        })
        .cloned();
    let firewalled = world
        .sites()
        .iter()
        .find(|s| {
            s.firewalled
                && matches!(
                    s.state,
                    SiteState::Dps {
                        provider: ProviderId::Cloudflare,
                        rerouting: ReroutingMethod::Ns,
                        paused: false,
                        ..
                    }
                )
        })
        .cloned();
    let dynamic = world
        .sites()
        .iter()
        .find(|s| {
            s.dynamic_meta
                && !s.firewalled
                && matches!(
                    s.state,
                    SiteState::Dps {
                        provider: ProviderId::Cloudflare,
                        rerouting: ReroutingMethod::Ns,
                        paused: false,
                        ..
                    }
                )
        })
        .cloned();

    let targets = targets(&world);
    let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
    let snapshot = collector.collect(&world, &targets, 0);
    let mut scanner = CloudflareScanner::new(world.clock(), "cloudflare");
    scanner.harvest_fleet(&world, &snapshot);

    let mut expectations = Vec::new();
    for (site, should_verify) in [(clean, true), (firewalled, false), (dynamic, false)] {
        let Some(site) = site else { continue };
        world.force_switch(
            site.id,
            ProviderId::Fastly,
            ReroutingMethod::Cname,
            ServicePlan::Pro,
            true,
        );
        expectations.push((site.id.0 as usize, should_verify));
    }
    assert!(!expectations.is_empty());
    world.step_days(1);

    let engine = ScanEngine::new(EngineConfig::default());
    let (raw, _) = scanner.scan_with(&engine, &world, &targets, 0);
    let mut pipeline = FilterPipeline::new(world.clock(), Region::Ashburn, SCANNER_SOURCE);
    let report = pipeline.run(&mut world, ProviderId::Cloudflare, 0, &raw, &targets);
    for (rank, should_verify) in expectations {
        assert!(
            report.hidden.iter().any(|h| h.rank == rank),
            "site {rank} must be hidden regardless of verification obstacles"
        );
        assert_eq!(
            report.verified.contains(&rank),
            should_verify,
            "verification expectation for site {rank}"
        );
    }
}

#[test]
fn study_survives_a_world_with_zero_adoption() {
    // Degenerate calibration: no DPS at all. Every stage must handle the
    // absence of providers, behaviors, and remnants.
    let mut calibration = remnant::world::Calibration::paper();
    calibration.adoption_overall = 0.0;
    calibration.adoption_top_band = 0.0;
    calibration.daily_join_per_million = 0.0;
    calibration.daily_leave_per_million = 0.0;
    calibration.daily_pause_per_million = 0.0;
    calibration.daily_switch_per_million = 0.0;
    let mut world = World::generate(WorldConfig {
        population: 500,
        seed: 22,
        warmup_days: 0,
        calibration,
    });
    let report = StudySession::new(
        StudyConfig {
            weeks: 1,
            uneven_intervals: false,
            ..StudyConfig::default()
        },
        &world,
    )
    .run(&mut world, &mut |_| {});
    assert_eq!(report.adoption().overall_rate, 0.0);
    assert_eq!(report.residual().fleet_size, 0, "nothing to harvest");
    assert_eq!(report.residual().cloudflare.exposure.total_hidden(), 0);
    assert_eq!(report.unchanged().total.events, 0);
}

#[test]
fn dark_sites_resolve_to_parking_and_never_verify() {
    let mut world = generate(23);
    let site = world
        .sites()
        .iter()
        .find(|s| {
            matches!(
                s.state,
                SiteState::Dps {
                    provider: ProviderId::Cloudflare,
                    rerouting: ReroutingMethod::Ns,
                    ..
                }
            )
        })
        .unwrap()
        .clone();
    // Leave informed, then manually take the site dark.
    world.force_leave(site.id, true);
    // Dark fate: simulate by leaving + the site body disappearing is the
    // world's job; here we emulate via dynamics' leave fate by checking a
    // ground-truth dark site if one exists after churn.
    world.step_days(7);
    let targets = targets(&world);
    let dark = world
        .sites()
        .iter()
        .find(|s| s.state == SiteState::Dark)
        .cloned();
    let Some(dark) = dark else { return };
    let mut resolver = RecursiveResolver::new(world.clock(), Region::London);
    let res = resolver.resolve(&world, &dark.www, RecordType::A).unwrap();
    assert_eq!(
        res.addresses(),
        vec![remnant::world::world::PARKING_IP],
        "dark sites point at the parking service"
    );
    let _ = targets;
}

/// The world's DNS, except that every query for `dark` goes unanswered.
struct DarkHost<'a> {
    world: &'a World,
    dark: Option<DomainName>,
}

impl DnsTransport for DarkHost<'_> {
    fn query(
        &self,
        now: remnant::sim::SimTime,
        server: Ipv4Addr,
        region: Region,
        query: &Query,
    ) -> Option<Response> {
        if self.dark.as_ref() == Some(&query.name) {
            return None;
        }
        self.world.query(now, server, region, query)
    }
}

#[test]
fn a_failed_fleet_lookup_is_retried_while_its_block_replays() {
    let world = generate(29);
    let targets = targets(&world);
    let engine = ScanEngine::new(EngineConfig::default());
    let mut collector = DeltaCollector::new(world.clock(), Region::Ashburn, 29);
    // The world stands still, so round 1 replays every block outside its
    // refresh stratum.
    let rounds: Vec<DnsSnapshot> = (0..3)
        .map(|day| collector.collect_with(&engine, &world, &targets, day).0)
        .collect();
    let host = rounds[0]
        .block_sources()
        .zip(rounds[1].block_sources())
        .filter(|((_, r0), (_, r1))| Arc::ptr_eq(r0.derived(), r1.derived()))
        .find_map(|((_, r0), _)| r0.derived().fleet_ns.first().cloned())
        .expect("a replayed block names a fleet host");

    // The host is unreachable in round 0 and reachable from round 1 on.
    let harvest = |substring: &str| {
        let mut scanner = CloudflareScanner::new(world.clock(), substring);
        let mut stats = Vec::new();
        for (day, snapshot) in rounds.iter().enumerate() {
            let dark = DarkHost {
                world: &world,
                dark: (day == 0).then(|| host.clone()),
            };
            let counting = CountingTransport::new(&dark);
            scanner.harvest_fleet(&counting, snapshot);
            stats.push(counting.query_stats());
            let found = scanner.fleet().any(|(h, _)| *h == host);
            assert_eq!(found, day > 0, "{substring} day {day}: host in fleet");
            // The weekly scan rotates its servers over the fleet in this
            // order, so every scan result depends on it.
            let names: Vec<&str> = scanner.fleet().map(|(h, _)| h.as_str()).collect();
            assert!(
                names.windows(2).all(|w| w[0] < w[1]),
                "{substring} day {day}: fleet in strictly ascending name order"
            );
            assert_eq!(names.len(), scanner.fleet_size());
        }
        let fleet: Vec<(DomainName, Ipv4Addr)> =
            scanner.fleet().map(|(h, a)| (h.clone(), a)).collect();
        (fleet, scanner.counters(), stats)
    };
    let carried = harvest(CLOUDFLARE_NS_FINGERPRINT);
    // A differently spelled fingerprint matches the same hosts (label
    // matching is case-insensitive) but walks the records: the oracle.
    let walked = harvest("Cloudflare");
    assert_eq!(carried, walked);
    assert!(carried.2[0].ignored() > 0, "round 0 lookups went dark");
}
