//! The multi-tenant isolation contract, end to end: N concurrent
//! same-config sessions hosted by one [`StudyService`] must each produce
//! a report byte-identical to a solo [`StudySession`] run of that config —
//! including the full observability snapshot, which is how cross-session
//! telemetry leakage would first show up — at any worker count.

use remnant::core::study::{StudyConfig, StudyReport};
use remnant::core::{StudyService, StudySession};
use remnant::world::{World, WorldConfig};

const SESSIONS: usize = 3;

fn base_world() -> World {
    World::generate(WorldConfig::new(1_500, 5))
}

fn study_config(workers: usize) -> StudyConfig {
    StudyConfig::builder()
        .weeks(1)
        .seed(9)
        .workers(workers)
        .build()
        .expect("test config is in bounds")
}

/// Field-for-field and byte-for-byte equality between a hosted session's
/// report and the solo reference.
fn assert_matches_solo(session: usize, hosted: &StudyReport, solo: &StudyReport) {
    assert_eq!(hosted.adoption(), solo.adoption(), "session {session}");
    assert_eq!(
        hosted.residual().cloudflare.weekly,
        solo.residual().cloudflare.weekly,
        "session {session}"
    );
    assert_eq!(
        hosted.residual().incapsula.weekly,
        solo.residual().incapsula.weekly,
        "session {session}"
    );
    assert_eq!(
        hosted.unchanged().rows,
        solo.unchanged().rows,
        "session {session}"
    );
    assert_eq!(
        hosted.behaviors().interval_hours,
        solo.behaviors().interval_hours,
        "session {session}"
    );
    assert_eq!(hosted.collection(), solo.collection(), "session {session}");
    // The strongest isolation check: the whole telemetry snapshot.
    // A single counter bleeding between concurrently running sessions
    // (or from the service) would break this byte equality.
    assert_eq!(
        hosted.obs().to_json(),
        solo.obs().to_json(),
        "session {session}: ObsReport must be isolated per session"
    );
}

#[test]
fn concurrent_same_config_sessions_match_a_solo_run() {
    for workers in [1, 8] {
        let config = study_config(workers);
        let service = StudyService::new(base_world(), workers);

        // The solo reference runs on its own fork of the same base world
        // — exactly the timeline every hosted session starts from.
        let mut solo_world = service.fork_world();
        let solo =
            StudySession::new(config.clone(), &solo_world).run(&mut solo_world, &mut |_| {}, None);

        let configs = vec![config; SESSIONS];
        let mut rounds_seen = vec![0u32; SESSIONS];
        let reports = service
            .run_campaigns(&configs, |progress| {
                rounds_seen[progress.session] += 1;
                assert_eq!(progress.sites, 1_500);
            })
            .expect("batch validates");

        assert_eq!(reports.len(), SESSIONS, "workers {workers}");
        assert_eq!(
            rounds_seen,
            vec![7; SESSIONS],
            "workers {workers}: every session streamed every round"
        );
        for (session, hosted) in reports.iter().enumerate() {
            assert_matches_solo(session, hosted, &solo);
        }
        assert_eq!(
            service.pool().available(),
            workers,
            "workers {workers}: shared budget fully returned"
        );
    }
}
