//! `repro query` end to end through the built binary: a small spilled
//! campaign (`repro fig2 --spill-dir D`), then `repro query --spill-dir D`
//! must print exactly Figs 2–6 plus the residual-scan timeline as rendered
//! in-process from a `PlanContext` over the same directory. The removed
//! `--uncached` flag must be rejected like any other unknown flag. A study
//! run reports its peak RSS on stderr, never in the rendered figures.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use remnant::query::{PassesPlan, PlanContext, ResidualScanPlan, SnapshotStore};
use remnant_bench::{
    render_fig2_adoption, render_fig3_behaviors, render_fig4_behaviors, render_fig5_pauses,
    render_fig6_adoption, render_residual_scan, ReproConfig,
};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("remnant-repro-query-cli-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs a 300-site, one-week spilled campaign into `dir`.
fn spill_campaign(dir: &Path) {
    let out = repro(&[
        "fig2",
        "--sites",
        "300",
        "--weeks",
        "1",
        "--spill-dir",
        dir.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        out.status.success(),
        "campaign failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// What `repro query` prints, rendered in-process from the store.
fn expected_query_stdout(dir: &Path) -> String {
    let store = SnapshotStore::open(dir).expect("store opens");
    let ctx = PlanContext::new(&store, 1);
    let aggregates = PassesPlan.execute_with(&ctx);
    let residual = ResidualScanPlan::default().execute_with(&ctx);
    let config = ReproConfig {
        population: store.sites(),
        ..ReproConfig::default()
    };
    [
        render_fig2_adoption(&config, &aggregates.adoption),
        render_fig3_behaviors(&config, &aggregates.behaviors),
        render_fig4_behaviors(&aggregates.behaviors),
        render_fig5_pauses(&aggregates.pauses),
        render_fig6_adoption(&aggregates.adoption),
        render_residual_scan(&config, &residual),
    ]
    .iter()
    .map(|section| format!("{section}\n"))
    .collect()
}

#[test]
fn query_prints_the_plan_context_figures() {
    let dir = fresh_dir("figures");
    spill_campaign(&dir);

    let out = repro(&["query", "--spill-dir", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "query failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        expected_query_stdout(&dir)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uncached_flag_is_gone() {
    let dir = fresh_dir("uncached");
    spill_campaign(&dir);

    let out = repro(&["query", "--spill-dir", dir.to_str().unwrap(), "--uncached"]);
    assert!(!out.status.success(), "--uncached must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no figures on a rejected flag");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn study_reports_peak_rss_on_stderr_only() {
    let out = repro(&["fig2", "--sites", "200", "--weeks", "1"]);
    assert!(
        out.status.success(),
        "study failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("peak_rss_bytes"), "stdout: {stdout}");
    if cfg!(target_os = "linux") {
        let peak: u64 = stderr
            .lines()
            .find(|l| l.starts_with("study done in "))
            .and_then(|l| l.split_once("peak_rss_bytes="))
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no peak_rss_bytes=<n> on the study line: {stderr}"));
        assert!(peak > 0, "stderr: {stderr}");
    }
}
