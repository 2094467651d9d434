//! Scripted end-to-end scenarios for the residual-resolution vulnerability
//! and its countermeasures, spanning every crate.

use remnant::core::collector::{RecordCollector, Target};
use remnant::core::residual::{CloudflareScanner, FilterPipeline, IncapsulaScanner};
use remnant::core::SCANNER_SOURCE;
use remnant::dns::{DnsTransport, DomainName, Query, RecordType, RecursiveResolver};
use remnant::engine::{EngineConfig, ScanEngine};
use remnant::net::Region;
use remnant::provider::{ProviderId, ReroutingMethod, ServicePlan};
use remnant::world::{SiteState, Website, World, WorldConfig};

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

fn find_site(world: &World, pred: impl Fn(&Website) -> bool) -> Website {
    world
        .sites()
        .iter()
        .find(|s| pred(s))
        .expect("matching site exists at this scale")
        .clone()
}

fn cf_ns_active(site: &Website) -> bool {
    !site.firewalled
        && !site.dynamic_meta
        && matches!(
            site.state,
            SiteState::Dps {
                provider: ProviderId::Cloudflare,
                rerouting: ReroutingMethod::Ns,
                paused: false,
                ..
            }
        )
}

/// Harvest + scan + filter Cloudflare once; returns (hidden ranks, verified
/// ranks).
fn scan_cloudflare(world: &mut World, targets: &[Target]) -> (Vec<usize>, Vec<usize>) {
    let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
    let snapshot = collector.collect(world, targets, 0);
    let mut scanner = CloudflareScanner::new(world.clock(), "cloudflare");
    scanner.harvest_fleet(world, &snapshot);
    let engine = ScanEngine::new(EngineConfig::default());
    let (raw, _) = scanner.scan_with(&engine, world, targets, 0);
    let mut pipeline = FilterPipeline::new(world.clock(), Region::Ashburn, SCANNER_SOURCE);
    let report = pipeline.run(world, ProviderId::Cloudflare, 0, &raw, targets);
    (
        report.hidden.iter().map(|h| h.rank).collect(),
        report.verified.clone(),
    )
}

#[test]
fn pause_exposes_origin_through_public_resolution() {
    let mut world = generate(10);
    let site = find_site(&world, cf_ns_active);
    world.force_pause(site.id);
    world.step_hours(1);

    let mut resolver = RecursiveResolver::new(world.clock(), Region::London);
    let res = resolver.resolve(&world, &site.www, RecordType::A).unwrap();
    assert_eq!(
        res.addresses(),
        vec![site.origin],
        "a paused customer's origin is publicly visible (Sec IV-C.1)"
    );

    world.force_resume(site.id);
    resolver.purge_cache();
    let res = resolver.resolve(&world, &site.www, RecordType::A).unwrap();
    assert_ne!(res.addresses(), vec![site.origin], "resume hides it again");
}

#[test]
fn switch_keeping_origin_creates_verified_hidden_record() {
    let mut world = generate(11);
    let site = find_site(&world, cf_ns_active);
    world.force_switch(
        site.id,
        ProviderId::Fastly,
        ReroutingMethod::Cname,
        ServicePlan::Pro,
        true,
    );
    world.step_days(1);

    let targets = targets(&world);
    let (hidden, verified) = scan_cloudflare(&mut world, &targets);
    let rank = site.id.0 as usize;
    assert!(hidden.contains(&rank));
    assert!(verified.contains(&rank), "kept origin verifies as live");
}

#[test]
fn fake_a_record_countermeasure_defeats_verification() {
    // Sec VI-B-2: "customers may intentionally leave a fake A record before
    // they terminate the DPS service".
    let mut world = generate(12);
    let site = find_site(&world, cf_ns_active);
    let fake: std::net::Ipv4Addr = "198.18.255.254".parse().unwrap(); // nothing serves here
    world
        .provider_mut(ProviderId::Cloudflare)
        .update_origin(&site.apex, fake)
        .unwrap();
    world.force_switch(
        site.id,
        ProviderId::Fastly,
        ReroutingMethod::Cname,
        ServicePlan::Pro,
        true,
    );
    world.step_days(1);

    let targets = targets(&world);
    let (hidden, verified) = scan_cloudflare(&mut world, &targets);
    let rank = site.id.0 as usize;
    assert!(
        hidden.contains(&rank),
        "the remnant still answers — with the fake"
    );
    assert!(
        !verified.contains(&rank),
        "the fake address serves nothing, so verification fails"
    );
}

#[test]
fn origin_rotation_after_switch_neutralizes_the_leak() {
    // Sec VI-B-2: changing the origin address after adopting another DPS
    // "completely circumvent[s] residual resolution".
    let mut world = generate(13);
    let site = find_site(&world, cf_ns_active);
    world.force_switch(
        site.id,
        ProviderId::Fastly,
        ReroutingMethod::Cname,
        ServicePlan::Pro,
        true,
    );
    // The admin rotates the origin and tells only the *new* provider.
    let new_origin = world.rotate_origin(site.id);
    world.step_days(1);
    assert_ne!(new_origin, site.origin);

    let targets = targets(&world);
    let (hidden, verified) = scan_cloudflare(&mut world, &targets);
    let rank = site.id.0 as usize;
    assert!(
        hidden.contains(&rank),
        "the stale record still leaks the OLD address"
    );
    assert!(
        !verified.contains(&rank),
        "but the old address is dead, so the origin stays secret"
    );
}

#[test]
fn incapsula_remnant_lifecycle() {
    let mut world = generate(14);
    let site = find_site(&world, |s| {
        !s.firewalled
            && !s.dynamic_meta
            && matches!(
                s.state,
                SiteState::Dps {
                    provider: ProviderId::Incapsula,
                    paused: false,
                    ..
                }
            )
    });
    let targets = targets(&world);

    // Harvest the token while the customer is active.
    let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
    let snapshot = collector.collect(&world, &targets, 0);
    let mut scanner = IncapsulaScanner::new(world.clock(), "incapdns");
    scanner.harvest(&snapshot);

    // Switch away; the token is now a remnant.
    world.force_switch(
        site.id,
        ProviderId::Cloudflare,
        ReroutingMethod::Ns,
        ServicePlan::Free,
        true,
    );
    world.step_days(2);

    let engine = ScanEngine::new(EngineConfig::default());
    let (raw, _) = scanner.scan_with(&engine, &world);
    let mut pipeline = FilterPipeline::new(world.clock(), Region::Ashburn, SCANNER_SOURCE);
    let report = pipeline.run(&mut world, ProviderId::Incapsula, 0, &raw, &targets);
    let rank = site.id.0 as usize;
    assert!(report.hidden.iter().any(|h| h.rank == rank));
    assert!(report.verified.contains(&rank));
}

#[test]
fn direct_query_to_previous_provider_reveals_what_public_dns_hides() {
    let mut world = generate(15);
    let site = find_site(&world, cf_ns_active);
    let server = world.provider(ProviderId::Cloudflare).ns_addresses()[0];
    world.force_switch(
        site.id,
        ProviderId::Incapsula,
        ReroutingMethod::Cname,
        ServicePlan::Pro,
        true,
    );
    world.step_days(3);

    // Public resolution: the new provider's edge.
    let mut resolver = RecursiveResolver::new(world.clock(), Region::Tokyo);
    let public = resolver
        .resolve(&world, &site.www, RecordType::A)
        .unwrap()
        .addresses();
    assert!(!public.contains(&site.origin));

    // Direct query to the previous provider: the origin (Fig 1b ③).
    let now = world.now();
    let response = world
        .query(
            now,
            server,
            Region::Tokyo,
            &Query::new(site.www.clone(), RecordType::A),
        )
        .expect("remnant answers");
    assert_eq!(response.answer_addresses(), vec![site.origin]);
}

#[test]
fn remnant_ns_names_remain_queryable() {
    // The stale NS data itself also keeps being served, which is what keeps
    // cached delegations functional (Sec VI-A).
    let mut world = generate(16);
    let site = find_site(&world, cf_ns_active);
    let assigned: Vec<DomainName> = world
        .provider(ProviderId::Cloudflare)
        .account(&site.apex)
        .unwrap()
        .nameservers
        .clone();
    let server = world.provider(ProviderId::Cloudflare).ns_addresses()[0];
    world.force_leave(site.id, true);
    world.step_days(1);

    let now = world.now();
    let response = world
        .query(
            now,
            server,
            Region::Oregon,
            &Query::new(site.apex.clone(), RecordType::Ns),
        )
        .expect("NS remnant answers");
    let hosts: Vec<DomainName> = response
        .answers
        .iter()
        .filter_map(|rr| rr.data.as_ns().cloned())
        .collect();
    assert_eq!(hosts, assigned);
}
