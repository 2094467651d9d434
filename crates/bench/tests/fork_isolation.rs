//! The isolation contract of [`World::fork`], end to end: a campaign on a
//! fork of a world that another campaign already used must report exactly
//! what the same campaign reports on a freshly generated world —
//! including the full observability snapshot, which is where state
//! leaking between forks would first show — at any worker count. This is
//! what lets `repro study --jobs N` run its jobs over forks of one world.

use remnant::core::study::{StudyConfig, StudyReport};
use remnant::core::StudySession;
use remnant::world::{World, WorldConfig};

fn generate() -> World {
    World::generate(WorldConfig::new(1_500, 5))
}

fn campaign(seed: u64, workers: usize) -> StudyConfig {
    StudyConfig::builder()
        .weeks(1)
        .seed(seed)
        .workers(workers)
        .build()
        .expect("test config is in bounds")
}

fn run(config: StudyConfig, mut world: World) -> StudyReport {
    StudySession::new(config, &world).run(&mut world, &mut |_| {})
}

/// Field-for-field and byte-for-byte equality between a forked campaign's
/// report and the fresh-world reference.
fn assert_matches_fresh(label: &str, forked: &StudyReport, fresh: &StudyReport) {
    assert_eq!(forked.adoption(), fresh.adoption(), "{label}");
    assert_eq!(
        forked.residual().cloudflare.weekly,
        fresh.residual().cloudflare.weekly,
        "{label}"
    );
    assert_eq!(
        forked.residual().incapsula.weekly,
        fresh.residual().incapsula.weekly,
        "{label}"
    );
    assert_eq!(forked.unchanged().rows, fresh.unchanged().rows, "{label}");
    assert_eq!(
        forked.behaviors().interval_hours,
        fresh.behaviors().interval_hours,
        "{label}"
    );
    assert_eq!(forked.collection(), fresh.collection(), "{label}");
    // The strongest isolation check: the whole telemetry snapshot. A
    // single counter or clock tick carried from one fork into the next
    // would break this byte equality.
    assert_eq!(
        forked.obs().to_json(),
        fresh.obs().to_json(),
        "{label}: ObsReport must not see an earlier fork's campaign"
    );
}

#[test]
fn a_campaign_on_a_used_world_fork_matches_a_fresh_world() {
    for workers in [1, 8] {
        let fresh = run(campaign(9, workers), generate());

        let base = generate();
        // Earlier campaigns step their own forks: one with another seed
        // (another interval timeline), one with the same config.
        let other = run(campaign(10, workers), base.fork());
        assert_ne!(
            other.behaviors().interval_hours,
            fresh.behaviors().interval_hours,
            "workers {workers}: the earlier campaign ran another timeline"
        );
        let first = run(campaign(9, workers), base.fork());
        assert_matches_fresh(
            &format!("workers {workers}, after another seed's campaign"),
            &first,
            &fresh,
        );
        let second = run(campaign(9, workers), base.fork());
        assert_matches_fresh(
            &format!("workers {workers}, after the same campaign"),
            &second,
            &fresh,
        );
    }
}
