//! The residual-resolution scanner, step by step (Sec V / Fig 8).
//!
//! Demonstrates the raw primitives without the study driver: harvest the
//! Cloudflare nameserver fleet, let the world churn so remnants appear,
//! scan directly, and walk the filter pipeline stage by stage.
//!
//! Run with:
//! ```text
//! cargo run --release --example residual_scan
//! ```

use remnant::core::collector::{RecordCollector, Target};
use remnant::core::report::{percent, TextTable};
use remnant::core::residual::{CloudflareScanner, FilterPipeline, IncapsulaScanner};
use remnant::core::SCANNER_SOURCE;
use remnant::engine::{EngineConfig, ScanEngine};
use remnant::net::Region;
use remnant::obs::{Instrumented, TRANSPORT_ANSWERED, TRANSPORT_SENT};
use remnant::provider::ProviderId;
use remnant::world::{World, WorldConfig};

fn main() {
    let mut world = World::generate(WorldConfig::new(15_000, 7));
    let targets: Vec<Target> = world
        .sites()
        .iter()
        .map(|s| (s.apex.clone(), s.www.clone()))
        .collect();

    // --- Harvest phase (the attacker's reconnaissance). ---
    let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
    let snapshot = collector.collect(&world, &targets, 0);
    let mut cf = CloudflareScanner::new(world.clock(), "cloudflare");
    cf.harvest_fleet(&world, &snapshot);
    let mut inc = IncapsulaScanner::new(world.clock(), "incapdns");
    inc.harvest(&snapshot);
    println!(
        "harvested {} cloudflare nameservers and {} incapsula CNAME tokens",
        cf.fleet_size(),
        inc.harvested_count()
    );

    // --- Let a week of churn create fresh remnants. ---
    world.step_days(7);

    // --- Direct scans + the Fig 8 pipeline. ---
    let mut pipeline = FilterPipeline::new(world.clock(), Region::Ashburn, SCANNER_SOURCE);

    let engine = ScanEngine::new(EngineConfig::default());
    let (raw, _) = cf.scan_with(&engine, &world, &targets, 1);
    let cf_report = pipeline.run(&mut world, ProviderId::Cloudflare, 1, &raw, &targets);
    let (raw, _) = inc.scan_with(&engine, &world);
    let inc_report = pipeline.run(&mut world, ProviderId::Incapsula, 1, &raw, &targets);

    println!("\n== Fig 8 funnel ==");
    let mut table = TextTable::new([
        "Provider",
        "Retrieved",
        "After IP-matching",
        "Hidden (A-matching)",
        "Verified origins",
    ]);
    for report in [&cf_report, &inc_report] {
        table.row([
            report.provider.to_string(),
            report.retrieved.to_string(),
            report.after_ip_matching.to_string(),
            report.hidden.len().to_string(),
            format!(
                "{} ({})",
                report.verified.len(),
                percent(report.verified_rate().unwrap_or(0.0))
            ),
        ]);
    }
    print!("{table}");

    println!("\n== Exposed origins (first 10) ==");
    for record in cf_report.hidden.iter().take(10) {
        let verified = cf_report.verified.contains(&record.rank);
        println!(
            "  {:<28} hidden {:?} public {:?} {}",
            record.apex.to_string(),
            record.hidden,
            record.public,
            if verified { "<- VERIFIED ORIGIN" } else { "" }
        );
    }
    let counters = cf.counters();
    let read = |name: &str| {
        counters
            .iter()
            .find(|(key, _)| key.name == name)
            .map_or(0, |(_, value)| *value)
    };
    let (sent, answered) = (read(TRANSPORT_SENT), read(TRANSPORT_ANSWERED));
    println!(
        "\nscan traffic: {sent} direct queries, {answered} answered ({} ignored)",
        sent - answered
    );
}
