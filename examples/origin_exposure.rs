//! Comparing origin-exposure attack surfaces: the classic Table I vectors
//! (IP history, subdomains, MX records) versus the paper's new residual
//! resolution vector, on the same protected population.
//!
//! Run with:
//! ```text
//! cargo run --release --example origin_exposure
//! ```

use remnant::core::collector::{RecordCollector, Target};
use remnant::core::report::{percent, TextTable};
use remnant::core::residual::{CloudflareScanner, FilterPipeline};
use remnant::core::vectors::{ExposureVector, PassiveDnsDb, VectorScanner};
use remnant::core::{concat_columns, SCANNER_SOURCE};
use remnant::engine::{EngineConfig, ScanEngine};
use remnant::net::Region;
use remnant::provider::ProviderId;
use remnant::world::{World, WorldConfig};

fn main() {
    let mut world = World::generate(WorldConfig::new(12_000, 77));
    let targets: Vec<Target> = world
        .sites()
        .iter()
        .map(|s| (s.apex.clone(), s.www.clone()))
        .collect();

    // Two weeks of daily observation: builds the attacker's passive-DNS
    // history and harvests the Cloudflare fleet for the residual scan.
    let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
    let mut history = PassiveDnsDb::new();
    let mut cf_scanner = CloudflareScanner::new(world.clock(), "cloudflare");
    let mut last_snapshot = None;
    for day in 0..14 {
        let snapshot = collector.collect(&world, &targets, day);
        history.feed(&snapshot);
        cf_scanner.harvest_fleet(&world, &snapshot);
        last_snapshot = Some(snapshot);
        world.step_hours(24);
    }
    let last_snapshot = last_snapshot.expect("collection rounds ran");
    let classes = concat_columns(last_snapshot.derived_columns()).classes;

    // Classic vectors against all currently protected sites.
    let mut scanner = VectorScanner::new(world.clock(), Region::Ashburn, SCANNER_SOURCE);
    let vector_report = scanner.scan(&mut world, &targets, &classes, &history);

    // Residual resolution against the previous provider.
    let engine = ScanEngine::new(EngineConfig::default());
    let (raw, _) = cf_scanner.scan_with(&engine, &world, &targets, 2);
    let mut pipeline = FilterPipeline::new(world.clock(), Region::Ashburn, SCANNER_SOURCE);
    let residual = pipeline.run(&mut world, ProviderId::Cloudflare, 2, &raw, &targets);

    println!(
        "protected sites examined: {} (of {} total)\n",
        vector_report.protected_sites,
        world.population()
    );
    let mut table = TextTable::new(["Attack vector", "Sites w/ candidates", "Verified origins"]);
    for vector in ExposureVector::ALL {
        let tally = vector_report.tally(vector);
        table.row([
            format!("{vector} (Table I)"),
            tally.candidates.to_string(),
            tally.verified.to_string(),
        ]);
    }
    table.row([
        "Residual resolution (this paper)".to_owned(),
        residual.hidden.len().to_string(),
        residual.verified.len().to_string(),
    ]);
    print!("{table}");
    println!(
        "\nclassic vectors expose {} of protected sites ({});\n\
         residual resolution adds origins even for sites that rotated their\n\
         defenses correctly against the old vectors — the previous provider\n\
         remembers what the public DNS no longer shows.",
        vector_report.exposed_sites,
        percent(vector_report.exposed_fraction()),
    );
}
