//! Quickstart: generate a synthetic Internet, run a short version of the
//! paper's full measurement campaign, and print the headline numbers.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use remnant::core::report::percent;
use remnant::core::study::StudyConfig;
use remnant::core::StudySession;
use remnant::world::{BehaviorKind, World, WorldConfig};

fn main() {
    // 20k websites, calibrated to the paper's published statistics, with
    // enough warmup that residual pools reach steady state.
    let mut world = World::generate(WorldConfig::new(20_000, 42));
    println!("world: {} sites", world.population());

    // Two weeks of daily collection + weekly residual scans.
    let config = StudyConfig {
        weeks: 2,
        ..StudyConfig::default()
    };
    let report = StudySession::new(config, &world).run(&mut world, &mut |_| {});
    println!(
        "study: {} DNS queries sent by its sweeps",
        report.engine().queries
    );

    println!("\n== DPS adoption (Sec IV-B, Fig 2) ==");
    println!(
        "overall {} | top-band {} | growth {} -> {}",
        percent(report.adoption().overall_rate),
        percent(report.adoption().top_band_rate),
        percent(report.adoption().first_day_rate),
        percent(report.adoption().last_day_rate),
    );

    println!("\n== Usage behaviors per day (Fig 3) ==");
    for kind in BehaviorKind::ALL {
        println!(
            "  {kind:<7} {:>7.1}",
            report.behaviors().daily_average(kind)
        );
    }
    println!(
        "  FSM violations (Fig 4 check): {}",
        report.behaviors().fsm_violations
    );

    println!("\n== Pause windows (Fig 5) ==");
    println!(
        "  {} completed pauses; >5 days: {}",
        report.pauses().overall.len(),
        percent(report.pauses().overall.fraction_gt(5.0)),
    );

    println!("\n== Origin IP unchanged after JOIN/RESUME (Table V) ==");
    let total = report.unchanged().total;
    println!(
        "  {} events, {} unchanged ({})",
        total.events,
        total.unchanged,
        percent(total.rate().unwrap_or(0.0)),
    );

    println!("\n== Residual resolution (Sec V, Table VI) ==");
    let cf = &report.residual().cloudflare.exposure;
    let inc = &report.residual().incapsula.exposure;
    println!(
        "  Cloudflare: fleet {} nameservers | hidden {} | verified origins {} ({})",
        report.residual().fleet_size,
        cf.total_hidden(),
        cf.total_verified(),
        percent(cf.total_verified_rate().unwrap_or(0.0)),
    );
    println!(
        "  Incapsula : tokens {} | hidden {} | verified origins {} ({})",
        report.residual().harvested_tokens,
        inc.total_hidden(),
        inc.total_verified(),
        percent(inc.total_verified_rate().unwrap_or(0.0)),
    );
}
