//! The reproduction harness: renders every table and figure of the paper's
//! evaluation from a [`StudyReport`], side by side with the published
//! values.
//!
//! Every figure derivable from a sub-report renders through a
//! `render_*_<subreport>` function taking just that sub-report, so the
//! live study's output and a query plan's output (the [`AdoptionReport`]
//! in `remnant::query::PassesPlan`'s aggregates, say) render through the
//! identical code path — the byte-identity the live-vs-query differential tests pin.
//!
//! Counts depend on population size; each rendered count is accompanied by
//! a value linearly rescaled to the paper's 1M-site universe so shapes can
//! be compared directly (`EXPERIMENTS.md` records a full run).

pub mod perf;

use remnant::core::error::ConfigFieldError;
use remnant::core::report::{percent, FigureBuilder, TextTable};
use remnant::core::residual::ExposureTracker;
use remnant::core::study::{
    vantage_catchment, AdoptionReport, BehaviorReport, PauseReport, ResidualReport, StudyConfig,
    StudyReport, UnchangedReport,
};
use remnant::core::{ObsReport, RoundSummary, StudySession};
use remnant::provider::{ProviderId, ReroutingMethod};
use remnant::query::funnel_rows;
use remnant::world::{BehaviorKind, World, WorldConfig};

/// Parameters of one reproduction run: the population the world is
/// generated with, and the campaign run over it.
#[derive(Clone, Debug)]
pub struct ReproConfig {
    /// Website population (paper: 1,000,000).
    pub population: usize,
    /// The campaign: weeks, seed (also the world's), interval cadence,
    /// workers, collection mode and spill directory. Output is
    /// bit-identical for every worker count, collection mode and spill
    /// setting; only wall time and peak memory change.
    pub study: StudyConfig,
}

impl Default for ReproConfig {
    fn default() -> Self {
        ReproConfig {
            population: 100_000,
            study: StudyConfig::default(),
        }
    }
}

impl ReproConfig {
    /// Scale factor from this run's population to the paper's 1M.
    pub fn to_paper_scale(&self) -> f64 {
        1_000_000.0 / self.population as f64
    }

    /// Validates every field, naming the first rejected one: the
    /// population bounds, then [`StudyConfig::validate`], then a
    /// writability probe of the spill directory.
    pub fn validate(&self) -> Result<(), ConfigFieldError> {
        self.validate_population()?;
        validate_study(&self.study)
    }

    /// The population bounds alone: what every experiment that generates
    /// a world needs, whether or not it runs a study.
    pub fn validate_population(&self) -> Result<(), ConfigFieldError> {
        if self.population == 0 {
            return Err(ConfigFieldError::new(
                "population",
                self.population,
                "an empty target list cannot be studied",
            ));
        }
        if self.population > 1_000_000 {
            return Err(ConfigFieldError::new(
                "population",
                self.population,
                "the paper's universe tops out at 1,000,000 sites",
            ));
        }
        Ok(())
    }
}

/// [`StudyConfig::validate`], then a probe that the spill directory
/// exists (creating it if needed) and accepts writes, so a bad
/// `--spill-dir` fails up front with a named error instead of panicking
/// mid-campaign.
fn validate_study(study: &StudyConfig) -> Result<(), ConfigFieldError> {
    study.validate()?;
    let Some(spill) = &study.spill else {
        return Ok(());
    };
    let dir = &spill.dir;
    if std::fs::create_dir_all(dir).is_err() {
        return Err(ConfigFieldError::new(
            "spill_dir",
            dir.display(),
            "spill directory cannot be created",
        ));
    }
    let probe = dir.join(".remnant-spill-probe");
    match std::fs::write(&probe, b"probe") {
        Ok(()) => {
            let _ = std::fs::remove_file(&probe);
            Ok(())
        }
        Err(_) => Err(ConfigFieldError::new(
            "spill_dir",
            dir.display(),
            "spill directory is not writable",
        )),
    }
}

/// Builds the world and runs the full study.
pub fn run_study(config: &ReproConfig) -> (World, StudyReport) {
    let mut world = World::generate(WorldConfig::new(config.population, config.study.seed));
    let report = StudySession::new(config.study.clone(), &world).run(&mut world, &mut |_| {});
    (world, report)
}

/// Generates one world and runs `jobs` campaigns over it, one after
/// another, each a [`StudySession`] on its own [`World::fork`] of that
/// world. After every round `on_round` gets the job index, the job's
/// session and the round's [`RoundSummary`]. Job `i` runs
/// `config.study` with seed `config.study.seed + i` and — when a spill
/// directory is set — its own `job-<i>` subdirectory. Every job's config
/// is validated before the world is generated; reports come back in job
/// order.
pub fn run_study_batch(
    config: &ReproConfig,
    jobs: usize,
    mut on_round: impl FnMut(usize, &StudySession, RoundSummary),
) -> Result<Vec<StudyReport>, ConfigFieldError> {
    if jobs == 0 {
        return Err(ConfigFieldError::new(
            "jobs",
            jobs,
            "a batch needs at least one campaign",
        ));
    }
    let configs: Vec<StudyConfig> = (0..jobs)
        .map(|job| {
            let mut study = config.study.clone();
            study.seed += job as u64;
            if let Some(spill) = &mut study.spill {
                spill.dir = spill.dir.join(format!("job-{job}"));
            }
            study
        })
        .collect();
    for study in &configs {
        validate_study(study)?;
    }
    let base = World::generate(WorldConfig::new(config.population, config.study.seed));
    let reports = configs
        .into_iter()
        .enumerate()
        .map(|(job, study)| {
            let mut world = base.fork();
            let mut session = StudySession::new(study, &world);
            while let Some(summary) = session.round(&mut world, &mut |_| {}) {
                on_round(job, &session, summary);
            }
            session.finish()
        })
        .collect();
    Ok(reports)
}

/// One summary row per batch campaign: the at-a-glance numbers that
/// differ (or provably must not) across the batch's campaigns.
pub fn render_study_batch(config: &ReproConfig, reports: &[StudyReport]) -> String {
    let mut table = TextTable::new([
        "Job",
        "Seed",
        "Days",
        "Adoption",
        "Mean interval",
        "CF always-exposed",
    ]);
    for (job, report) in reports.iter().enumerate() {
        let intervals = &report.behaviors().interval_hours;
        let mean_interval = if intervals.is_empty() {
            0.0
        } else {
            intervals.iter().sum::<u64>() as f64 / intervals.len() as f64
        };
        table.row([
            job.to_string(),
            (config.study.seed + job as u64).to_string(),
            report.adoption().days_observed.to_string(),
            percent(report.adoption().overall_rate),
            format!("{mean_interval:.1}h"),
            report
                .residual()
                .cloudflare
                .exposure
                .always_exposed()
                .to_string(),
        ]);
    }
    FigureBuilder::new()
        .line(format!(
            "Study batch: {} campaigns, one world",
            reports.len()
        ))
        .table(&table)
        .finish()
}

/// Table II: the provider catalog (static fingerprint data).
pub fn render_table2() -> String {
    let mut table = TextTable::new([
        "Provider",
        "CNAME substrings",
        "NS substrings",
        "AS numbers",
        "Rerouting",
    ]);
    for provider in ProviderId::ALL {
        let info = provider.info();
        table.row([
            info.name.to_owned(),
            info.cname_substrings.join(" "),
            info.ns_substrings.join(" "),
            info.asns
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(" "),
            info.rerouting
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(" / "),
        ]);
    }
    format!("TABLE II: DPS provider information\n{table}")
}

/// Fig 2 from the adoption sub-report alone — the live study's
/// [`StudyReport::adoption`] and a query-layer `PassesPlan` output's
/// `adoption` render identically through here.
pub fn render_fig2_adoption(config: &ReproConfig, adoption: &AdoptionReport) -> String {
    let mut table = TextTable::new(["Provider", "Avg adopted/day", "Scaled to 1M", "Share"]);
    let total: f64 = adoption.avg_by_provider.iter().map(|(_, n)| n).sum();
    let mut rows: Vec<(ProviderId, f64)> = adoption.avg_by_provider.clone();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("counts are finite"));
    for (provider, count) in rows {
        table.row([
            provider.to_string(),
            format!("{count:.0}"),
            format!("{:.0}", count * config.to_paper_scale()),
            percent(count / total.max(1.0)),
        ]);
    }
    FigureBuilder::new()
        .line(
            "FIG 2: DPS adoption breakdown (paper: 14.85% of 1M adopt; 38.98% of top 10k; \
             Cloudflare dominates)",
        )
        .line(format!(
            "measured: overall {} | top band {} | growth {} -> {}",
            percent(adoption.overall_rate),
            percent(adoption.top_band_rate),
            percent(adoption.first_day_rate),
            percent(adoption.last_day_rate),
        ))
        .table(&table)
        .finish()
}

/// Fig 3 from the behavior sub-report alone (live study or `PassesPlan`).
pub fn render_fig3_behaviors(config: &ReproConfig, behaviors: &BehaviorReport) -> String {
    let paper = [
        (BehaviorKind::Join, 195.0),
        (BehaviorKind::Leave, 145.0),
        (BehaviorKind::Pause, 87.0),
        (BehaviorKind::Resume, 62.0),
        (BehaviorKind::Switch, 21.0),
    ];
    let mut table = TextTable::new(["Behavior", "Avg/day", "Scaled to 1M", "Paper avg/day"]);
    for (kind, paper_avg) in paper {
        let avg = behaviors.daily_average(kind);
        table.row([
            kind.to_string(),
            format!("{avg:.1}"),
            format!("{:.0}", avg * config.to_paper_scale()),
            format!("{paper_avg:.0}"),
        ]);
    }
    let mut figure = FigureBuilder::new()
        .line("FIG 3: DPS behaviors per day")
        .table(&table)
        .blank();
    for (_, series) in &behaviors.series {
        figure = figure.series(series);
    }
    figure.finish()
}

/// Fig 4 from the behavior sub-report alone (live study or `PassesPlan`).
pub fn render_fig4_behaviors(behaviors: &BehaviorReport) -> String {
    let mut table = TextTable::new(["From", "Behavior", "To"]);
    for (from, kind, to) in remnant::core::fsm::transition_table() {
        table.row([from, kind.to_string(), to]);
    }
    FigureBuilder::new()
        .line("FIG 4: DPS finite state machine (P1=Cloudflare, P2=Incapsula as exemplars)")
        .table(&table)
        .blank()
        .line(format!(
            "observed behavior sequences violating the FSM: {}",
            behaviors.fsm_violations
        ))
        .finish()
}

/// Fig 5 from the pause sub-report alone (live study or `PassesPlan`).
pub fn render_fig5_pauses(pauses: &PauseReport) -> String {
    FigureBuilder::new()
        .line("FIG 5: CDF of pause periods (paper: <50% resume within a day; ~30% exceed 5 days)")
        .cdf("Overall", &pauses.overall, 14)
        .cdf("Cloudflare", &pauses.cloudflare, 14)
        .cdf("Incapsula", &pauses.incapsula, 14)
        .line(format!(
            "measured: <=1 day {} | >5 days {}",
            percent(pauses.overall.fraction_le(1.0)),
            percent(pauses.overall.fraction_gt(5.0)),
        ))
        .finish()
}

/// Fig 6 from the adoption sub-report alone (live study or `PassesPlan`).
pub fn render_fig6_adoption(adoption: &AdoptionReport) -> String {
    let mut table = TextTable::new(["Rerouting", "Measured", "Paper"]);
    table.row([
        ReroutingMethod::Ns.to_string(),
        percent(adoption.cloudflare_ns_share),
        "89.95%".to_owned(),
    ]);
    table.row([
        ReroutingMethod::Cname.to_string(),
        percent(adoption.cloudflare_cname_share),
        "10.05%".to_owned(),
    ]);
    FigureBuilder::new()
        .line("FIG 6: Cloudflare adoption breakdown by rerouting")
        .table(&table)
        .finish()
}

/// Fig 7: vantage-point catchment over the provider's anycast fleet.
pub fn render_fig7(world: &World) -> String {
    let mut table = TextTable::new(["Vantage point", "Cloudflare PoP hit"]);
    let catchment = vantage_catchment(world, ProviderId::Cloudflare);
    let distinct: std::collections::BTreeSet<&str> =
        catchment.iter().map(|(_, p)| p.as_str()).collect();
    for (region, pop) in &catchment {
        table.row([region.to_string(), pop.clone()]);
    }
    format!(
        "FIG 7: five vantage points spread load over {} distinct PoPs \
         (paper: 5 VPs -> 5 PoPs of 100+)\n{table}",
        distinct.len()
    )
}

/// Fig 8 from the residual sub-report alone.
pub fn render_fig8_residual(residual: &ResidualReport) -> String {
    let mut table = TextTable::new([
        "Provider",
        "Retrieved",
        "After IP-matching",
        "Hidden (A-matching)",
        "Verified (HTML)",
    ]);
    for weekly in [
        residual.cloudflare.weekly.last(),
        residual.incapsula.weekly.last(),
    ]
    .into_iter()
    .flatten()
    {
        table.row([
            weekly.provider.to_string(),
            weekly.retrieved.to_string(),
            weekly.after_ip_matching.to_string(),
            weekly.hidden.len().to_string(),
            weekly.verified.len().to_string(),
        ]);
    }
    FigureBuilder::new()
        .line("FIG 8: filtering procedure (final week's funnel)")
        .table(&table)
        .finish()
}

/// Fig 8 rebuilt from the recorded metrics alone.
///
/// The funnel is the query layer's [`funnel_rows`] fold over the
/// `filter.*` counters in an [`ObsReport`] — no `WeeklyScanReport` is
/// consulted — so the attrition table is reproducible from a
/// `repro --metrics out.json` snapshot long after the run. The table body
/// is identical to [`render_fig8_residual`]'s.
pub fn render_fig8_from_obs(obs: &ObsReport) -> String {
    let mut table = TextTable::new([
        "Provider",
        "Retrieved",
        "After IP-matching",
        "Hidden (A-matching)",
        "Verified (HTML)",
    ]);
    for row in funnel_rows(obs) {
        table.row([
            row.provider,
            row.retrieved.to_string(),
            row.after_ip_matching.to_string(),
            row.hidden.to_string(),
            row.verified.to_string(),
        ]);
    }
    FigureBuilder::new()
        .line("FIG 8: filtering procedure (final week's funnel, rebuilt from metrics)")
        .table(&table)
        .finish()
}

/// The residual-scan timeline re-derived from campaign artifacts alone —
/// the query layer's `ResidualScanPlan` output (Table VI / Fig 8 shape,
/// one row per scan week per provider): each week's scan population,
/// counted from the persisted rounds.
pub fn render_residual_scan(
    config: &ReproConfig,
    scan: &remnant::query::ResidualScanReport,
) -> String {
    let mut table = TextTable::new(["Provider", "Week", "Day", "Scan population", "Scaled to 1M"]);
    for provider in &scan.providers {
        for week in &provider.weekly {
            table.row([
                provider.provider.to_string(),
                (week.week + 1).to_string(),
                week.day.to_string(),
                week.adopted.to_string(),
                format!("{:.0}", week.adopted as f64 * config.to_paper_scale()),
            ]);
        }
    }
    FigureBuilder::new()
        .line("TABLE VI / FIG 8 timeline: weekly residual scans re-derived from persisted rounds")
        .table(&table)
        .finish()
}

/// Fig 9 from the Cloudflare exposure tracker alone — the live study's
/// tracker and a query-side `ExposureTracker::fold` over the persisted
/// weekly reports render identically through here.
pub fn render_fig9_exposure(config: &ReproConfig, cf: &ExposureTracker) -> String {
    let newly = cf.newly_exposed_per_week();
    let avg_new: f64 = if newly.len() > 1 {
        newly[1..].iter().sum::<usize>() as f64 / (newly.len() - 1) as f64
    } else {
        0.0
    };
    let mut table = TextTable::new(["Week", "Hidden", "Verified", "Newly exposed"]);
    for (week, ((hidden, verified, _), new)) in cf.weekly_rows().iter().zip(&newly).enumerate() {
        table.row([
            (week + 1).to_string(),
            hidden.to_string(),
            verified.to_string(),
            new.to_string(),
        ]);
    }
    format!(
        "FIG 9: exposure observations, Cloudflare (paper: ~114 new/week; 139 exposed all \
         weeks; 388 bounded)\n{table}\
         measured: avg newly exposed/week {avg_new:.1} (scaled to 1M: {:.0})\n\
         always exposed: {} (scaled: {:.0}) | bounded exposures: {} (scaled: {:.0})\n",
        avg_new * config.to_paper_scale(),
        cf.always_exposed(),
        cf.always_exposed() as f64 * config.to_paper_scale(),
        cf.bounded_exposures(),
        cf.bounded_exposures() as f64 * config.to_paper_scale(),
    )
}

/// Table V from the unchanged sub-report alone.
pub fn render_table5_unchanged(config: &ReproConfig, unchanged: &UnchangedReport) -> String {
    let paper: &[(ProviderId, f64)] = &[
        (ProviderId::Cloudflare, 0.595),
        (ProviderId::Akamai, 0.580),
        (ProviderId::Cloudfront, 0.350),
        (ProviderId::Incapsula, 0.634),
        (ProviderId::Fastly, 0.571),
        (ProviderId::Edgecast, 0.667),
        (ProviderId::CdNetworks, 0.739),
        (ProviderId::DosArrest, 0.418),
        (ProviderId::Limelight, 0.667),
        (ProviderId::Stackpath, 0.725),
        (ProviderId::Cdn77, 0.938),
    ];
    let mut table = TextTable::new([
        "Provider",
        "Join&Resume",
        "Scaled to 1M",
        "IP unchanged",
        "Measured %",
        "Paper %",
    ]);
    for (provider, paper_rate) in paper {
        let row = unchanged.rows.iter().find(|(p, ..)| p == provider);
        let (events, unchanged, rate) = row.map_or((0, 0, f64::NAN), |(_, e, u, r)| (*e, *u, *r));
        table.row([
            provider.to_string(),
            events.to_string(),
            format!("{:.0}", events as f64 * config.to_paper_scale()),
            unchanged.to_string(),
            if rate.is_nan() {
                "-".to_owned()
            } else {
                percent(rate)
            },
            percent(*paper_rate),
        ]);
    }
    let total = unchanged.total;
    table.row([
        "Total".to_owned(),
        total.events.to_string(),
        format!("{:.0}", total.events as f64 * config.to_paper_scale()),
        total.unchanged.to_string(),
        percent(total.rate().unwrap_or(0.0)),
        "58.6%".to_owned(),
    ]);
    format!("TABLE V: origin IP unchanged rate after JOIN/RESUME\n{table}")
}

/// Table VI from the residual sub-report alone.
pub fn render_table6_residual(config: &ReproConfig, residual: &ResidualReport) -> String {
    let mut table = TextTable::new([
        "Scan",
        "Hidden",
        "Scaled to 1M",
        "Verified origins",
        "Measured %",
        "Paper",
    ]);
    let cf = &residual.cloudflare.exposure;
    for (week, (hidden, verified, pct)) in cf.weekly_rows().iter().enumerate() {
        table.row([
            format!("Cloudflare week {}", week + 1),
            hidden.to_string(),
            format!("{:.0}", *hidden as f64 * config.to_paper_scale()),
            verified.to_string(),
            percent(*pct),
            "~1,500 hidden, ~24%".to_owned(),
        ]);
    }
    table.row([
        "Cloudflare TOTAL".to_owned(),
        cf.total_hidden().to_string(),
        format!("{:.0}", cf.total_hidden() as f64 * config.to_paper_scale()),
        cf.total_verified().to_string(),
        percent(cf.total_verified_rate().unwrap_or(0.0)),
        "3,504 hidden, 24.8%".to_owned(),
    ]);
    let inc = &residual.incapsula.exposure;
    table.row([
        "Incapsula TOTAL".to_owned(),
        inc.total_hidden().to_string(),
        format!("{:.0}", inc.total_hidden() as f64 * config.to_paper_scale()),
        inc.total_verified().to_string(),
        percent(inc.total_verified_rate().unwrap_or(0.0)),
        "42 hidden, 69.0%".to_owned(),
    ]);
    format!(
        "TABLE VI: residual resolution in the wild\n\
         (fleet harvested: {} nameservers; paper: 391. tokens harvested: {})\n{table}",
        residual.fleet_size, residual.harvested_tokens
    )
}

/// Every study-derived figure `repro all` prints, in print order, each
/// under the experiment name that prints it alone (`repro fig5`): Figs
/// 2–9, then Tables V and VI. `world` is the world after the study.
pub fn render_study_figures(
    config: &ReproConfig,
    world: &World,
    report: &StudyReport,
) -> Vec<(&'static str, String)> {
    let residual = report.residual();
    vec![
        ("fig2", render_fig2_adoption(config, report.adoption())),
        ("fig3", render_fig3_behaviors(config, report.behaviors())),
        ("fig4", render_fig4_behaviors(report.behaviors())),
        ("fig5", render_fig5_pauses(report.pauses())),
        ("fig6", render_fig6_adoption(report.adoption())),
        ("fig7", render_fig7(world)),
        ("fig8", render_fig8_residual(residual)),
        (
            "fig9",
            render_fig9_exposure(config, &residual.cloudflare.exposure),
        ),
        (
            "table5",
            render_table5_unchanged(config, report.unchanged()),
        ),
        ("table6", render_table6_residual(config, residual)),
    ]
}

/// Fig 1: the end-to-end threat model demo (delegates to the attack crate).
pub fn render_fig1(seed: u64) -> String {
    use remnant::attack::bypass::RemnantProbe;
    use remnant::attack::{Botnet, ResidualBypassAttack};
    use remnant::provider::ServicePlan;
    use remnant::world::SiteState;

    let mut world = World::generate(WorldConfig::new(5_000, seed));
    let victim = world
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
        .expect("victim exists")
        .clone();
    world.force_switch(
        victim.id,
        ProviderId::Incapsula,
        ReroutingMethod::Cname,
        ServicePlan::Pro,
        true,
    );
    world.step_days(3);
    let mut adversary = ResidualBypassAttack::new(&world, Botnet::mirai_class());
    let report = adversary.execute(
        &mut world,
        &victim.www,
        ProviderId::Cloudflare,
        RemnantProbe::DirectNsQuery,
    );
    format!(
        "FIG 1: threat model end to end\n\
         victim {} behind a new DPS after switching\n\
         public address : {:?}\n\
         frontal attack : {}\n\
         remnant leak   : {:?} (verified: {})\n\
         bypass attack  : {}\n\
         => {}\n",
        victim.www,
        report.public_address,
        report
            .frontal_attack
            .as_ref()
            .map_or("n/a".to_owned(), ToString::to_string),
        report.leaked_address,
        report.leak_verified,
        report
            .bypass_attack
            .as_ref()
            .map_or("n/a".to_owned(), ToString::to_string),
        report
    )
}

/// Table I companion: the classic origin-exposure vectors measured on the
/// same population, with residual resolution alongside for comparison.
pub fn render_table1(config: &ReproConfig) -> String {
    use remnant::core::collector::{RecordCollector, Target};
    use remnant::core::vectors::{ExposureVector, PassiveDnsDb, VectorScanner};
    use remnant::core::{concat_columns, SCANNER_SOURCE};
    use remnant::net::Region;

    let mut world = World::generate(WorldConfig::new(
        config.population.min(20_000),
        config.study.seed,
    ));
    let targets: Vec<Target> = world
        .sites()
        .iter()
        .map(|s| (s.apex.clone(), s.www.clone()))
        .collect();
    let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
    let mut history = PassiveDnsDb::new();
    // Two weeks of daily observation builds the IP-history database and
    // lets joins/pauses deposit origins into it.
    let mut last = None;
    for day in 0..14 {
        let snapshot = collector.collect(&world, &targets, day);
        history.feed(&snapshot);
        last = Some(snapshot);
        world.step_hours(24);
    }
    let last = last.expect("at least one round ran");
    let classes = concat_columns(last.derived_columns()).classes;
    let mut scanner = VectorScanner::new(world.clock(), Region::Ashburn, SCANNER_SOURCE);
    let report = scanner.scan(&mut world, &targets, &classes, &history);

    let mut table = TextTable::new([
        "Vector (Table I)",
        "Sites w/ candidates",
        "Verified origins",
    ]);
    for vector in ExposureVector::ALL {
        let tally = report.tally(vector);
        table.row([
            vector.to_string(),
            tally.candidates.to_string(),
            tally.verified.to_string(),
        ]);
    }
    format!(
        "TABLE I companion: classic origin-exposure vectors on {} protected sites\n{table}\
         exposed through >=1 implemented vector: {} ({})\n\
         (Vissers et al. [10] report >70% across all eight vectors; three are\n\
         implemented here — IP history additionally captures the paper's\n\
         'Temporary Exposure' vector via recorded pause windows)\n",
        report.protected_sites,
        report.exposed_sites,
        percent(report.exposed_fraction()),
    )
}

/// Ablations over the provider-side design choices behind residual
/// resolution: how the purge window, the answer policy, and the customers'
/// notification discipline shape the exposed population.
pub fn render_ablation(config: &ReproConfig) -> String {
    use remnant::core::collector::{RecordCollector, Target};
    use remnant::core::residual::{CloudflareScanner, FilterPipeline};
    use remnant::core::SCANNER_SOURCE;
    use remnant::engine::{EngineConfig, ScanEngine};
    use remnant::net::Region;
    use remnant::provider::{ProviderId, ResidualPolicy, ServicePlan};
    use remnant::sim::SimDuration;

    let population = config.population.min(15_000);

    /// One steady-state scan of Cloudflare under a fully built world.
    fn scan(world: &mut World) -> (usize, usize) {
        let targets: Vec<Target> = world
            .sites()
            .iter()
            .map(|s| (s.apex.clone(), s.www.clone()))
            .collect();
        let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
        let snapshot = collector.collect(world, &targets, 0);
        let mut scanner = CloudflareScanner::new(world.clock(), "cloudflare");
        scanner.harvest_fleet(world, &snapshot);
        let engine = ScanEngine::new(EngineConfig::default());
        let (raw, _) = scanner.scan_with(&engine, world, &targets, 0);
        let mut pipeline = FilterPipeline::new(world.clock(), Region::Ashburn, SCANNER_SOURCE);
        let report = pipeline.run(world, ProviderId::Cloudflare, 0, &raw, &targets);
        (report.hidden.len(), report.verified.len())
    }

    let mut out = String::new();

    // Ablation 1: the purge window. The world's churn runs under each
    // policy from generation (policy applied before warmup via rebuild).
    let mut table = TextTable::new([
        "Purge window (all plans)",
        "Hidden records",
        "Verified origins",
    ]);
    for (label, window) in [
        ("1 week", Some(SimDuration::weeks(1))),
        ("4 weeks (observed, free plan)", Some(SimDuration::weeks(4))),
        ("12 weeks", Some(SimDuration::weeks(12))),
        ("never", None),
    ] {
        let mut world = World::generate(WorldConfig::new(population, config.study.seed));
        let mut policy = ResidualPolicy::cloudflare_observed();
        for plan in ServicePlan::ALL {
            policy.set_purge_after(plan, window);
        }
        world
            .provider_mut(ProviderId::Cloudflare)
            .set_policy(policy);
        world.step_days(7 * 14); // new steady state under the policy
        let (hidden, verified) = scan(&mut world);
        table.row([label.to_owned(), hidden.to_string(), verified.to_string()]);
    }
    out.push_str(&format!(
        "ABLATION 1: remnant purge window vs exposure ({population} sites, 14 weeks of churn)\n{table}\n"
    ));

    // Ablation 2: the answer policy (Sec VI-B-1 countermeasures).
    let mut table = TextTable::new(["Answer policy", "Hidden records", "Verified origins"]);
    for (label, policy) in [
        (
            "answer (vulnerable, observed)",
            ResidualPolicy::cloudflare_observed(),
        ),
        ("deny after termination", ResidualPolicy::deny()),
        (
            "revalidate against public DNS",
            ResidualPolicy::countermeasure_revalidate(ResidualPolicy::cloudflare_observed()),
        ),
    ] {
        let mut world = World::generate(WorldConfig::new(population, config.study.seed));
        world
            .provider_mut(ProviderId::Cloudflare)
            .set_policy(policy);
        world.step_days(7 * 6);
        if world
            .provider(ProviderId::Cloudflare)
            .policy()
            .revalidate_against_public_dns
        {
            // The provider re-resolves its recently terminated customers.
            revalidate_cloudflare(&mut world);
        }
        let (hidden, verified) = scan(&mut world);
        table.row([label.to_owned(), hidden.to_string(), verified.to_string()]);
    }
    out.push_str(&format!(
        "ABLATION 2: provider answer policy (Sec VI-B-1)\n{table}\n"
    ));

    // Ablation 3: customer notification discipline.
    let mut table = TextTable::new([
        "Informed-leave probability",
        "Hidden records",
        "Verified origins",
    ]);
    for informed in [0.2, 0.6, 1.0] {
        let mut world_config = WorldConfig::new(population, config.study.seed);
        world_config.calibration.informed_leave_probability = informed;
        let mut world = World::generate(world_config);
        world.step_days(7 * 2);
        let (hidden, verified) = scan(&mut world);
        table.row([
            format!("{informed:.1}"),
            hidden.to_string(),
            verified.to_string(),
        ]);
    }
    out.push_str(&format!(
        "ABLATION 3: informed-termination rate vs exposure (footnotes 9/10)\n{table}\
         An *uninformed* leave keeps the edge answer in place (harmless); only\n\
         informed terminations flip the record to the origin — more polite\n\
         customers, more exposure.\n"
    ));
    out
}

/// Runs the Sec VI-B-1 revalidation sweep for Cloudflare in `world`.
fn revalidate_cloudflare(world: &mut World) {
    use remnant::dns::{RecordType, RecursiveResolver};
    use remnant::net::Region;
    use remnant::provider::ProviderId;

    let hosts: Vec<remnant::dns::DomainName> = world
        .sites()
        .iter()
        .filter(|s| {
            world
                .provider(ProviderId::Cloudflare)
                .residual(&s.apex)
                .is_some()
        })
        .map(|s| s.www.clone())
        .collect();
    let mut resolver = RecursiveResolver::new(world.clock(), Region::Ashburn);
    let mut lookups = Vec::with_capacity(hosts.len());
    for host in hosts {
        let addrs = resolver
            .resolve(world, &host, RecordType::A)
            .map(|r| r.addresses())
            .unwrap_or_default();
        lookups.push((host, addrs));
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
}

/// Sec V-A.3: the purge probe.
pub fn render_purge(seed: u64) -> String {
    use remnant::core::residual::PurgeProbe;
    let mut world = World::generate(WorldConfig::new(3_000, seed));
    let result = PurgeProbe::default().run(&mut world);
    format!(
        "PURGE PROBE (Sec V-A.3): sign up free plan, terminate same day, probe weekly\n\
         purge observed at week: {:?} (paper: week 4, consistent across 3 trials)\n\
         consistent across trials: {}\n",
        result.purge_week,
        result.is_consistent()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use remnant::core::SpillConfig;

    fn tiny() -> (ReproConfig, World, StudyReport) {
        let config = ReproConfig {
            population: 2_000,
            study: StudyConfig {
                weeks: 1,
                seed: 9,
                uneven_intervals: false,
                workers: 2,
                ..StudyConfig::default()
            },
        };
        let (world, report) = run_study(&config);
        (config, world, report)
    }

    #[test]
    fn all_renderers_produce_output() {
        let (config, world, report) = tiny();
        let residual = report.residual();
        for rendered in [
            render_table2(),
            render_fig2_adoption(&config, report.adoption()),
            render_fig3_behaviors(&config, report.behaviors()),
            render_fig4_behaviors(report.behaviors()),
            render_fig5_pauses(report.pauses()),
            render_fig6_adoption(report.adoption()),
            render_fig7(&world),
            render_fig8_residual(residual),
            render_fig9_exposure(&config, &residual.cloudflare.exposure),
            render_table5_unchanged(&config, report.unchanged()),
            render_table6_residual(&config, residual),
        ] {
            assert!(rendered.len() > 40, "renderer produced: {rendered}");
        }
    }

    #[test]
    fn table2_lists_all_eleven() {
        let rendered = render_table2();
        for provider in ProviderId::ALL {
            assert!(rendered.contains(provider.name()), "{provider} missing");
        }
    }

    #[test]
    fn fig8_is_reproducible_from_metrics_alone() {
        let (_, _, report) = tiny();
        let from_report = render_fig8_residual(report.residual());
        let from_obs = render_fig8_from_obs(report.obs());
        // Same table body: only the title line differs.
        let body = |s: &str| s.split_once('\n').map(|(_, rest)| rest.to_owned()).unwrap();
        assert_eq!(body(&from_obs), body(&from_report));
        assert!(from_obs.contains("Cloudflare"));
        assert!(from_obs.contains("Incapsula"));
    }

    #[test]
    fn validate_rejects_out_of_range_fields_by_name() {
        let with = |population: usize, study: StudyConfig| ReproConfig { population, study };
        let study = StudyConfig::builder()
            .weeks(2)
            .seed(7)
            .uneven_intervals(false)
            .workers(3)
            .build()
            .expect("in-range values build");
        with(500, study.clone())
            .validate()
            .expect("in-range values validate");

        let err = with(0, study.clone()).validate().unwrap_err();
        assert_eq!(err.field, "population");
        let err = with(2_000_000, study).validate().unwrap_err();
        assert_eq!(err.field, "population");
        assert!(err.to_string().contains("2000000"));
        // Weeks/workers bounds are StudyConfig's own.
        let weeks = StudyConfig {
            weeks: 0,
            ..StudyConfig::default()
        };
        assert_eq!(with(500, weeks).validate().unwrap_err().field, "weeks");
        let workers = StudyConfig {
            workers: 4096,
            ..StudyConfig::default()
        };
        assert_eq!(with(500, workers).validate().unwrap_err().field, "workers");
    }

    #[test]
    fn validate_probes_spill_dir_by_name() {
        let spilling = |dir: std::path::PathBuf| ReproConfig {
            study: StudyConfig {
                spill: Some(SpillConfig::new(dir)),
                ..StudyConfig::default()
            },
            ..ReproConfig::default()
        };
        let dir = std::env::temp_dir().join("remnant-spill-dir-validate");
        spilling(dir.clone())
            .validate()
            .expect("writable spill dir validates");
        assert!(dir.is_dir(), "validation creates the directory");
        let _ = std::fs::remove_dir_all(&dir);

        // A spill path under a regular file cannot be created.
        let file = std::env::temp_dir().join("remnant-spill-dir-file");
        std::fs::write(&file, b"x").expect("temp file writes");
        let err = spilling(file.join("sub")).validate().unwrap_err();
        assert_eq!(err.field, "spill_dir");
        assert!(err.to_string().contains("cannot be created"), "{err}");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn scale_factor() {
        let config = ReproConfig {
            population: 100_000,
            ..ReproConfig::default()
        };
        assert_eq!(config.to_paper_scale(), 10.0);
    }
}
