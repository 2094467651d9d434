//! Tracking DPS usage dynamics (Sec IV): daily snapshots, Table III
//! classification, Table IV behavior detection, Fig 4 FSM validation and
//! the Fig 5 pause CDF.
//!
//! Run with:
//! ```text
//! cargo run --release --example usage_dynamics
//! ```

use remnant::core::adoption::DpsStatus;
use remnant::core::collector::{RecordCollector, Target};
use remnant::core::report::{percent, CdfFigure, Rendered, TextTable};
use remnant::core::{concat_columns, SnapshotPasses};
use remnant::net::Region;
use remnant::world::{BehaviorKind, World, WorldConfig};

fn main() {
    let mut world = World::generate(WorldConfig::new(15_000, 99));
    let targets: Vec<Target> = world
        .sites()
        .iter()
        .map(|s| (s.apex.clone(), s.www.clone()))
        .collect();

    let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
    let mut passes = SnapshotPasses::new(targets.len());
    let mut totals = std::collections::BTreeMap::new();

    println!("day  ON      OFF   NONE    J    L    P    R    S");
    for day in 0..21 {
        let snapshot = collector.collect(&world, &targets, day);
        // The day's behaviors, multi-CDN front-ends excluded.
        let behaviors = passes.observe(day, &snapshot);
        // Each block carries its classes from collection.
        let classes = concat_columns(snapshot.derived_columns()).classes;

        let on = classes.iter().filter(|c| c.status == DpsStatus::On).count();
        let off = classes
            .iter()
            .filter(|c| c.status == DpsStatus::Off)
            .count();
        let none = classes.len() - on - off;

        let mut counts = [0usize; 5];
        for behavior in behaviors {
            let idx = BehaviorKind::ALL
                .iter()
                .position(|k| *k == behavior.kind)
                .expect("known kind");
            counts[idx] += 1;
            *totals.entry(behavior.kind.to_string()).or_insert(0usize) += 1;
        }
        println!(
            "{day:>3}  {on:>6} {off:>6} {none:>6} {:>4} {:>4} {:>4} {:>4} {:>4}",
            counts[0], counts[1], counts[2], counts[3], counts[4]
        );
        world.step_hours(24);
    }

    println!("\n== totals over 3 weeks ==");
    let mut table = TextTable::new(["Behavior", "Observed"]);
    for (kind, count) in &totals {
        table.row([kind.clone(), count.to_string()]);
    }
    print!("{table}");

    println!("\n== Fig 5: pause-period CDF ==");
    let pauses = passes.finish().pauses;
    println!(
        "{}",
        CdfFigure::new("overall", &pauses.overall, 10).rendered()
    );
    println!(
        "pauses longer than 5 days: {}",
        percent(pauses.overall.fraction_gt(5.0))
    );
    println!(
        "cloudflare windows: {}, incapsula windows: {}",
        pauses.cloudflare.len(),
        pauses.incapsula.len()
    );
}
