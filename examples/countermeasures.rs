//! The countermeasures of Sec VI-B, measured: rerun the residual scan
//! under (a) the observed vulnerable policy, (b) the strict "never answer
//! after termination" fix, and (c) the continuity-preserving
//! revalidate-against-public-DNS fix, plus (d) the customer-side fake-A
//! trick.
//!
//! Run with:
//! ```text
//! cargo run --release --example countermeasures
//! ```

use remnant::core::collector::{RecordCollector, Target};
use remnant::core::report::TextTable;
use remnant::core::residual::{CloudflareScanner, FilterPipeline};
use remnant::core::SCANNER_SOURCE;
use remnant::dns::{RecordType, RecursiveResolver};
use remnant::engine::{EngineConfig, ScanEngine};
use remnant::net::Region;
use remnant::provider::{ProviderId, ResidualPolicy};
use remnant::world::{World, WorldConfig};

/// Runs a week of churn plus one scan and returns (hidden, verified).
fn scan_once(world: &mut World) -> (usize, usize) {
    let targets: Vec<Target> = world
        .sites()
        .iter()
        .map(|s| (s.apex.clone(), s.www.clone()))
        .collect();
    let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
    let snapshot = collector.collect(world, &targets, 0);
    let mut scanner = CloudflareScanner::new(world.clock(), "cloudflare");
    scanner.harvest_fleet(world, &snapshot);

    world.step_days(7);

    // For the revalidation policy, the provider periodically re-resolves
    // its recently terminated customers (Sec VI-B-1).
    let clock = world.clock();
    let mut lookups: Vec<(remnant::dns::DomainName, Vec<std::net::Ipv4Addr>)> = Vec::new();
    {
        // Gather current public answers for all residual hosts first (the
        // provider cannot borrow the world while being mutated).
        let hosts: Vec<remnant::dns::DomainName> = world
            .sites()
            .iter()
            .filter_map(|s| {
                world
                    .provider(ProviderId::Cloudflare)
                    .residual(&s.apex)
                    .map(|_| s.www.clone())
            })
            .collect();
        let mut resolver = RecursiveResolver::new(clock, Region::Ashburn);
        for host in hosts {
            let addrs = resolver
                .resolve(world, &host, RecordType::A)
                .map(|r| r.addresses())
                .unwrap_or_default();
            lookups.push((host, addrs));
        }
    }
    world
        .provider_mut(ProviderId::Cloudflare)
        .revalidate_residuals(|host| {
            lookups
                .iter()
                .find(|(h, _)| h == host)
                .map(|(_, a)| a.clone())
                .unwrap_or_default()
        });

    let engine = ScanEngine::new(EngineConfig::default());
    let (raw, _) = scanner.scan_with(&engine, world, &targets, 1);
    let mut pipeline = FilterPipeline::new(world.clock(), Region::Ashburn, SCANNER_SOURCE);
    let report = pipeline.run(world, ProviderId::Cloudflare, 1, &raw, &targets);
    (report.hidden.len(), report.verified.len())
}

fn world_with_policy(policy: ResidualPolicy) -> World {
    let mut world = World::generate(WorldConfig::new(15_000, 2024));
    world
        .provider_mut(ProviderId::Cloudflare)
        .set_policy(policy);
    // Let the new policy govern a fresh round of churn.
    world.step_days(14);
    world
}

fn main() {
    let mut table = TextTable::new(["Policy (Sec VI-B)", "Hidden records", "Verified origins"]);

    let (hidden, verified) =
        scan_once(&mut world_with_policy(ResidualPolicy::cloudflare_observed()));
    table.row([
        "observed (vulnerable)".to_owned(),
        hidden.to_string(),
        verified.to_string(),
    ]);

    let (hidden, verified) = scan_once(&mut world_with_policy(ResidualPolicy::deny()));
    table.row([
        "never answer after termination".to_owned(),
        hidden.to_string(),
        verified.to_string(),
    ]);

    let (hidden, verified) = scan_once(&mut world_with_policy(
        ResidualPolicy::countermeasure_revalidate(ResidualPolicy::cloudflare_observed()),
    ));
    table.row([
        "revalidate against public DNS".to_owned(),
        hidden.to_string(),
        verified.to_string(),
    ]);

    println!("Cloudflare-style provider under three residual policies");
    println!("(new remnants accumulate over 3 weeks of churn, then one scan)\n");
    print!("{table}");
    println!(
        "\nThe vulnerable policy leaks origins; both provider-side fixes\n\
         eliminate verified exposures, as argued in Sec VI-B-1."
    );
}
