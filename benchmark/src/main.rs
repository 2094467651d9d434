//! The repository's benchmark: paper-schedule campaigns (6 weeks of daily
//! A/CNAME/NS collection with weekly residual-resolution scans) and the
//! `repro query` path, measured end to end, with a traced run that splits
//! the wall time by layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload full-mem --seed 7 --seconds 10 --trace 0
//! ```
//!
//! One process generates the load: it runs one child process at a time,
//! each a fresh repetition, and starts the next only when the previous
//! one has exited (a closed loop with one client). Each child uses one
//! worker thread, and the end-to-end times are processor times (see
//! [`WORKERS`]) scaled to a reference host speed by a calibration kernel
//! the child runs between its steps (see [`calibrate`]). The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the lines before it print each metric as
//! `workload name value unit n=samples`. See `README.md` for the
//! workloads and metrics.

mod calibrate;
mod child;
mod metrics;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use remnant::core::study::CollectionMode;

use crate::child::CampaignSpec;
use crate::metrics::{Metric, Reported, END_TO_END, LAYER_BYTES, LAYER_SPANS, PER_LAYER};
use crate::stats::{mean_of_medians, median, ratio};
use crate::trace::SpanRecord;

/// A workload: the campaign it runs, and whether it then measures
/// queries over that campaign's spill directory.
#[derive(Clone, Copy, Debug)]
struct Workload {
    name: &'static str,
    mode: CollectionMode,
    spill: bool,
    query: bool,
    /// Worlds a run draws from its seed; repetitions cycle through them,
    /// and set-up runs one campaign per world. The cost of a delta
    /// campaign or a query depends on its world (how many shards hold a
    /// zone that changes daily sets what delta collection reuses): over
    /// ten worlds, delta campaigns cost from 0.87 to 1.2 times their
    /// mean, full ones from 0.97 to 1.03 times, and over twelve worlds
    /// queries from 0.86 to 1.19 times. A workload's cost is the mean over
    /// its worlds, so several worlds keep it from swinging with the seed.
    worlds: u64,
}

/// Why each exists is recorded in `BENCHMARK.json` and `README.md`.
const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "full-mem",
        mode: CollectionMode::Full,
        spill: false,
        query: false,
        worlds: 2,
    },
    Workload {
        name: "delta-spill",
        mode: CollectionMode::Delta,
        spill: true,
        query: false,
        worlds: 6,
    },
    Workload {
        name: "query",
        mode: CollectionMode::Delta,
        spill: true,
        query: true,
        worlds: 8,
    },
];

/// World `w` of a run with seed `s` is generated from seed
/// `s * WORLD_STRIDE + w`, whatever the workload, so every workload's
/// world 0 is the same world.
const WORLD_STRIDE: u64 = 16;

/// Worker threads of every child. On a two-processor virtual machine
/// shared with other tenants, a two-worker campaign runs in parallel only
/// while both processors are free: one 20,000-site campaign's rounds took
/// about 65 ms of wall and 118 ms of processor time then, and 80 ms of
/// each while the second processor was taken, switching mid-campaign.
/// Both its wall and its processor time swing with the neighbours. The
/// processor time of a one-worker child does not depend on a second
/// processor, so that is what the end-to-end metrics measure.
const WORKERS: usize = 1;

/// Campaign size: the paper's six weeks over a population small enough
/// that a run holds several campaigns.
#[derive(Clone, Copy, Debug)]
struct Scale {
    sites: usize,
    weeks: u32,
}

const FULL_SCALE: Scale = Scale {
    sites: 20_000,
    weeks: 6,
};

/// `--smoke`: enough to exercise every path in about a second.
const SMOKE_SCALE: Scale = Scale {
    sites: 2_000,
    weeks: 1,
};

/// No child is started, and a running one is killed, this long after
/// the benchmark starts, so the benchmark ends within 180 seconds.
const HARD_LIMIT: Duration = Duration::from_secs(170);

/// Command-line flags: `--name value` pairs, plus the `--smoke` switch.
#[derive(Debug, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
    smoke: bool,
}

impl Flags {
    fn from_args(args: impl IntoIterator<Item = String>) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--smoke" {
                flags.smoke = true;
            } else if arg.starts_with("--") {
                let value = args.next().ok_or(format!("{arg} needs a value"))?;
                flags.values.insert(arg, value);
            } else {
                return Err(format!("unexpected argument '{arg}'"));
            }
        }
        Ok(flags)
    }

    fn optional(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.optional(name).ok_or(format!("missing {name}"))
    }

    fn parse<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self.get(name)?;
        raw.parse()
            .map_err(|_| format!("invalid value for {name}: '{raw}'"))
    }
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark --workload {} --seed N --seconds S --trace 0|1 [--smoke]",
        names.join("|")
    )
}

fn main() -> ExitCode {
    let result = Flags::from_args(std::env::args().skip(1)).and_then(|flags| {
        match flags.optional("--child").map(str::to_owned) {
            Some(kind) => child_main(&kind, &flags).map(|out| {
                out.print();
                true
            }),
            None => parent_main(&flags),
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn child_main(kind: &str, flags: &Flags) -> Result<child::Output, String> {
    match kind {
        "campaign" => child::campaign(&CampaignSpec::from_flags(flags)?),
        "mirror" => child::mirror(&CampaignSpec::from_flags(flags)?),
        "query" => child::query(
            Path::new(flags.get("--store")?),
            flags.parse("--workers")?,
            flags.parse::<u8>("--traced")? == 1,
        ),
        other => Err(format!("unknown child kind '{other}'")),
    }
}

/// Runs one workload and prints its metrics; `Ok(false)` when an output
/// was wrong or a repetition failed.
fn parent_main(flags: &Flags) -> Result<bool, String> {
    let name = flags
        .get("--workload")
        .map_err(|e| format!("{e}\n{}", usage()))?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload '{name}'\n{}", usage()))?;
    let seconds: u64 = flags.parse("--seconds")?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1 to 60, not {seconds}"));
    }
    let traced = match flags.get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    let bench = Bench {
        workload,
        scale: if flags.smoke { SMOKE_SCALE } else { FULL_SCALE },
        seed: flags.parse("--seed")?,
        measure: Duration::from_secs(seconds),
        runner: Runner::new()?,
        scratch: Scratch::create()?,
    };
    eprintln!(
        "benchmark: workload {} at {} sites x {} weeks, seed {}, scratch {}",
        workload.name,
        bench.scale.sites,
        bench.scale.weeks,
        bench.seed,
        bench.scratch.dir.display()
    );

    let outcome = if traced {
        bench.traced()
    } else {
        bench.untraced()
    };
    let correct = outcome.problems.is_empty();
    for problem in &outcome.problems {
        eprintln!("benchmark: {problem}");
    }
    for m in &outcome.metrics {
        println!(
            "{} {} {} {} n={}",
            workload.name, m.metric.name, m.value, m.metric.unit, m.samples
        );
    }
    println!(
        "{}",
        metrics::result_json(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    Ok(correct)
}

/// A child's parsed result lines.
#[derive(Debug, Default)]
struct ChildReport {
    values: BTreeMap<String, f64>,
    digests: BTreeMap<String, String>,
    spans: Vec<SpanRecord>,
}

impl ChildReport {
    fn parse(run: usize, text: &str) -> Result<ChildReport, String> {
        let mut report = ChildReport::default();
        for line in text.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("unreadable child line '{line}'");
            match fields.as_slice() {
                ["value", name, v] => {
                    report
                        .values
                        .insert((*name).to_owned(), v.parse().map_err(|_| bad())?);
                }
                ["digest", name, hex] => {
                    report.digests.insert((*name).to_owned(), (*hex).to_owned());
                }
                ["span", rest @ ..] => report
                    .spans
                    .push(SpanRecord::parse(run, rest).ok_or_else(bad)?),
                _ => return Err(bad()),
            }
        }
        Ok(report)
    }

    fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn digest(&self, name: &str) -> &str {
        self.digests.get(name).map_or("", String::as_str)
    }

    /// Site-rounds the child processed: sites × rounds.
    fn site_rounds(&self) -> f64 {
        self.value("sites") * self.value("rounds")
    }

    /// A measured repetition's processor microseconds per site-round at
    /// the reference speed.
    fn cost_us_per_site_round(&self) -> f64 {
        ratio(self.value("cost_s") * 1e6, self.site_rounds())
    }

    /// Per-layer values of a traced child: span self times and bytes,
    /// the counts it printed, and the derived assemble time and coverage.
    fn layers(&self) -> BTreeMap<&'static str, f64> {
        let self_ns = trace::self_times(&self.spans);
        let mut layers = BTreeMap::new();
        let mut covered_ns = 0;
        for (span, metric) in LAYER_SPANS {
            let ns: u64 = self
                .spans
                .iter()
                .zip(&self_ns)
                .filter(|(s, _)| s.name == span)
                .map(|(_, ns)| ns)
                .sum();
            covered_ns += ns;
            layers.insert(metric, ns as f64 / 1e9);
        }
        for (spans, metric, reads) in LAYER_BYTES {
            let bytes: u64 = self
                .spans
                .iter()
                .filter(|s| spans.contains(&s.name.as_str()))
                .map(|s| if reads { s.read_bytes } else { s.write_bytes })
                .sum();
            layers.insert(metric, bytes as f64);
        }
        for m in PER_LAYER {
            if let Some(&v) = self.values.get(m.name) {
                layers.insert(m.name, v);
            }
        }
        let assemble = layers["collect.self_s"] - self.value("collect.sweep_wall_s");
        layers.insert("collect.assemble_s", assemble.max(0.0));
        let roots_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(SpanRecord::duration_ns)
            .sum();
        layers.insert("trace.coverage", ratio(covered_ns as f64, roots_ns as f64));
        layers
    }
}

/// Runs child processes of this executable, one at a time.
struct Runner {
    exe: PathBuf,
    deadline: Instant,
    traced_runs: usize,
}

impl Runner {
    fn new() -> Result<Runner, String> {
        Ok(Runner {
            exe: std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?,
            deadline: Instant::now() + HARD_LIMIT,
            traced_runs: 0,
        })
    }

    fn out_of_time(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// Runs one child to completion and parses its report. A child still
    /// running at the deadline is killed and reported as failed.
    fn run(&mut self, kind: &str, args: &[String]) -> Result<ChildReport, String> {
        if self.out_of_time() {
            return Err(format!("no time left to start a {kind} child"));
        }
        let mut child = Command::new(&self.exe)
            .arg("--child")
            .arg(kind)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting a {kind} child: {e}"))?;
        let mut stdout = child.stdout.take().expect("stdout is piped");
        let reader = std::thread::spawn(move || {
            let mut text = String::new();
            stdout.read_to_string(&mut text).map(|_| text)
        });
        let status = loop {
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                break Some(status);
            }
            if self.out_of_time() {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let text = reader
            .join()
            .expect("reader thread does not panic")
            .map_err(|e| format!("reading a {kind} child: {e}"))?;
        match status {
            None => Err(format!("{kind} child killed at the time limit")),
            Some(status) if !status.success() => Err(format!("{kind} child failed: {status}")),
            Some(_) => {
                let run = self.traced_runs;
                let report = ChildReport::parse(run, &text)?;
                if !report.spans.is_empty() {
                    self.traced_runs += 1;
                }
                Ok(report)
            }
        }
    }
}

/// The run's spill directories, under the working directory; removed
/// when the run ends.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let dir = PathBuf::from(".benchmark-scratch").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("creating scratch directory {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            // Only removed once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// What a run measured, and everything that went wrong.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Reported>,
}

impl Outcome {
    /// Counts `ops` operations, all failed when `result` is an error or
    /// its digest `key` differs from `want`. With no `want`, the child
    /// is the reference and only has to succeed.
    fn check(
        &mut self,
        ops: u64,
        result: Result<ChildReport, String>,
        key: &str,
        want: Option<&str>,
    ) -> Option<ChildReport> {
        self.attempted += ops;
        let problem = match result {
            Ok(report) if want.is_none_or(|want| report.digest(key) == want) => {
                return Some(report)
            }
            Ok(report) => format!(
                "output digest {key} {} differs from the reference {}",
                report.digest(key),
                want.unwrap_or_default()
            ),
            Err(e) => e,
        };
        self.failed += ops;
        self.problems.push(problem);
        None
    }

    fn report(&mut self, metric: Metric, value: f64, samples: usize) {
        self.metrics.push(Reported {
            metric,
            value,
            samples,
        });
    }
}

/// One benchmark run's settings.
struct Bench {
    workload: Workload,
    scale: Scale,
    seed: u64,
    measure: Duration,
    runner: Runner,
    scratch: Scratch,
}

/// What a traced run gathers.
#[derive(Debug, Default)]
struct Traced {
    /// Wall time of the measured operation (a campaign, or a query)
    /// untraced, and traced.
    untraced: Vec<f64>,
    traced: Vec<f64>,
    /// Per-layer values of each traced campaign and each traced query.
    campaigns: Vec<BTreeMap<&'static str, f64>>,
    queries: Vec<BTreeMap<&'static str, f64>>,
    spans: Vec<SpanRecord>,
}

impl Bench {
    /// A campaign over world `world` of the run.
    fn spec(&self, world: u64, mode: CollectionMode, spill: Option<PathBuf>) -> CampaignSpec {
        CampaignSpec {
            sites: self.scale.sites,
            weeks: self.scale.weeks,
            seed: self.seed.wrapping_mul(WORLD_STRIDE).wrapping_add(world),
            workers: WORKERS,
            mode,
            spill,
        }
    }

    /// The workload's own campaign over `world`, spilling under `dir` if
    /// it spills.
    fn workload_spec(&self, world: u64, dir: &str) -> CampaignSpec {
        let w = self.workload;
        self.spec(world, w.mode, w.spill.then(|| self.scratch.path(dir)))
    }

    /// The set-up campaign over `world`. On a campaign workload it is the
    /// reference, which takes another collection path: full and delta,
    /// in-memory and spilled collection must render byte-identical
    /// figures, tables and obs JSON. `full-mem` is checked against delta
    /// spilled collection, and `delta-spill` against delta in memory, the
    /// cheapest other path. On `query` the set-up campaign is the
    /// workload's own, whose spill directory the queries read.
    fn setup_spec(&self, world: u64) -> CampaignSpec {
        if self.workload.query {
            return self.workload_spec(world, &format!("producer-{world}"));
        }
        match self.workload.mode {
            CollectionMode::Full => {
                let dir = self.scratch.path("reference");
                self.spec(world, CollectionMode::Delta, Some(dir))
            }
            CollectionMode::Delta => self.spec(world, CollectionMode::Delta, None),
        }
    }

    fn rounds(&self) -> u64 {
        u64::from(self.scale.weeks) * 7
    }

    /// Runs a `campaign` or `mirror` child; its spill directory is
    /// removed afterwards unless `keep` is set.
    fn campaign(
        &mut self,
        kind: &str,
        spec: &CampaignSpec,
        keep: bool,
    ) -> Result<ChildReport, String> {
        let result = self.runner.run(kind, &spec.to_args());
        if let Some(dir) = spec.spill.as_ref().filter(|_| !keep) {
            let _ = std::fs::remove_dir_all(dir);
        }
        result
    }

    fn query(&mut self, store: &Path, traced: bool) -> Result<ChildReport, String> {
        let args = [
            "--store".to_owned(),
            store.display().to_string(),
            "--workers".to_owned(),
            WORKERS.to_string(),
            "--traced".to_owned(),
            u8::from(traced).to_string(),
        ];
        self.runner.run("query", &args)
    }

    /// Whether the measuring loop goes on: until `--seconds` have passed
    /// and `have` of the `need` repetitions are done, unless time runs out
    /// or a repetition already failed.
    fn keep_going(&self, started: Instant, outcome: &Outcome, have: usize, need: usize) -> bool {
        let wanted = started.elapsed() < self.measure || (outcome.failed == 0 && have < need);
        wanted && !self.runner.out_of_time()
    }

    /// Set-up, then repetitions of the workload's operation in fresh
    /// processes, cycling through the worlds, until `--seconds` have
    /// passed and every world has had one. Each repetition is checked
    /// against its world's set-up campaign: a campaign's whole output
    /// against the reference's, a query's Figs 2–6 against its producer's.
    ///
    /// The cost is the mean over the worlds of each world's median cost
    /// per site-round; memory is the median over the repetitions, and
    /// set-up time the median over the set-up campaigns.
    fn untraced(mut self) -> Outcome {
        let mut outcome = Outcome::default();
        let (key, ops) = if self.workload.query {
            ("figs", 1)
        } else {
            ("all", self.rounds())
        };
        let Some((want, setup)) = self.set_up(&mut outcome, key) else {
            return outcome;
        };
        let worlds = self.workload.worlds;
        let mut done: Vec<(u64, ChildReport)> = Vec::new();
        let started = Instant::now();
        for run in 0.. {
            if !self.keep_going(started, &outcome, done.len(), worlds as usize) {
                break;
            }
            let world = run % worlds;
            let result = if self.workload.query {
                let store = self.scratch.path(&format!("producer-{world}"));
                self.query(&store, false)
            } else {
                let spec = self.workload_spec(world, &format!("campaign-{run}"));
                self.campaign("campaign", &spec, false)
            };
            if let Some(report) = outcome.check(ops, result, key, Some(&want[world as usize])) {
                note_repetition(world, &report);
                done.push((world, report));
            }
        }
        if done.is_empty() || setup.is_empty() {
            outcome.problems.push("no repetition completed".to_owned());
            return outcome;
        }

        let [cost, rss, setup_s] = END_TO_END;
        let costs: Vec<(u64, f64)> = done
            .iter()
            .map(|(world, r)| (*world, r.cost_us_per_site_round()))
            .collect();
        outcome.report(cost, mean_of_medians(&costs), done.len());
        let rss_mb: Vec<f64> = done
            .iter()
            .filter_map(|(_, r)| r.values.get("rss_bytes"))
            .map(|bytes| bytes / (1024.0 * 1024.0))
            .collect();
        if rss_mb.is_empty() {
            outcome.problems.push("no peak RSS reading".to_owned());
        } else {
            outcome.report(rss, median(&rss_mb), rss_mb.len());
        }
        let setup: Vec<f64> = setup.iter().map(|r| r.value("cost_s")).collect();
        outcome.report(setup_s, median(&setup), setup.len());
        outcome
    }

    /// Runs one set-up campaign per world. Returns each world's output
    /// digest `key` and the set-up campaigns' reports, or `None` once a
    /// set-up campaign has failed.
    fn set_up(
        &mut self,
        outcome: &mut Outcome,
        key: &str,
    ) -> Option<(Vec<String>, Vec<ChildReport>)> {
        let mut want = Vec::new();
        let mut reports = Vec::new();
        for world in 0..self.workload.worlds {
            let spec = self.setup_spec(world);
            let result = self.campaign("campaign", &spec, self.workload.query);
            let report = outcome.check(self.rounds(), result, "all", None)?;
            if world == 0 {
                note_digests(&report);
            }
            want.push(report.digest(key).to_owned());
            reports.push(report);
        }
        Some((want, reports))
    }

    /// Alternates untraced and traced repetitions for `--seconds`, then
    /// reports each layer's median over the traced ones. On `query`, the
    /// producing campaign is traced once, then queries alternate.
    fn traced(mut self) -> Outcome {
        let mut outcome = Outcome::default();
        let mut data = Traced::default();
        let started = Instant::now();
        if self.workload.query {
            if let Some(figs) = self.traced_campaign(&mut outcome, &mut data, 0) {
                let store = self.scratch.path("untraced-0");
                let started = Instant::now();
                let mut pairs = 0;
                while pairs == 0 || self.keep_going(started, &outcome, 0, 0) {
                    if !self.traced_query(&mut outcome, &mut data, &store, &figs) {
                        break;
                    }
                    pairs += 1;
                }
            }
        } else {
            let mut pair = 0;
            while pair == 0 || self.keep_going(started, &outcome, 0, 0) {
                if self
                    .traced_campaign(&mut outcome, &mut data, pair)
                    .is_none()
                {
                    break;
                }
                pair += 1;
            }
        }
        report_per_layer(&mut outcome, &data, self.workload.query);
        if let Err(e) = write_trace(Path::new(TRACE_FILE), &data.spans) {
            outcome.problems.push(e);
        }
        outcome
    }

    /// The workload's campaign untraced, then through the traced mirror.
    /// The mirror must reproduce the session's output exactly, and its
    /// query phase must re-render the campaign's Figs 2–6. Returns that
    /// Figs 2–6 digest.
    fn traced_campaign(
        &mut self,
        outcome: &mut Outcome,
        data: &mut Traced,
        pair: usize,
    ) -> Option<String> {
        let rounds = self.rounds();
        let world = pair as u64 % self.workload.worlds;
        let spec = self.workload_spec(world, &format!("untraced-{pair}"));
        let plain = self.campaign("campaign", &spec, self.workload.query);
        let plain = outcome.check(rounds, plain, "all", None)?;
        let spec = self.workload_spec(world, &format!("traced-{pair}"));
        let mirror = self.campaign("mirror", &spec, false);
        let mirror = outcome.check(rounds, mirror, "all", Some(plain.digest("all")))?;
        let figs = plain.digest("figs").to_owned();
        if mirror.digest("query_figs") != figs {
            outcome.failed += rounds;
            outcome.problems.push(format!(
                "query phase Figs 2-6 digest {} differs from the campaign's {figs}",
                mirror.digest("query_figs")
            ));
            return None;
        }
        if !self.workload.query {
            data.untraced.push(plain.value("campaign_s"));
            data.traced.push(mirror.value("campaign_s"));
        }
        data.campaigns.push(mirror.layers());
        data.spans.extend(mirror.spans);
        Some(figs)
    }

    /// One untraced and one traced query over `store`; false on failure.
    fn traced_query(
        &mut self,
        outcome: &mut Outcome,
        data: &mut Traced,
        store: &Path,
        figs: &str,
    ) -> bool {
        let plain = self.query(store, false);
        let Some(plain) = outcome.check(1, plain, "figs", Some(figs)) else {
            return false;
        };
        let traced = self.query(store, true);
        let Some(traced) = outcome.check(1, traced, "figs", Some(figs)) else {
            return false;
        };
        data.untraced.push(plain.value("query_s"));
        data.traced.push(traced.value("query_s"));
        data.queries.push(traced.layers());
        data.spans.extend(traced.spans);
        true
    }
}

/// Prints a measured repetition's processor time before and after
/// scaling, and the calibration kernel's time it was scaled by.
fn note_repetition(world: u64, report: &ChildReport) {
    eprintln!(
        "benchmark: world {world}: {:.4} s processor time, kernel {:.3} ms, {:.4} s at reference speed",
        report.value("cpu_s"),
        report.value("kernel_ms"),
        report.value("cost_s")
    );
}

/// Prints a reference campaign's output digests, so runs of different
/// workloads at one seed can be compared.
fn note_digests(reference: &ChildReport) {
    eprintln!(
        "benchmark: digest all {} figs {}",
        reference.digest("all"),
        reference.digest("figs")
    );
}

/// Each per-layer metric is the median over the traced repetitions. On
/// `query`, the query layers and the coverage come from the traced
/// queries, the campaign layers from the traced producing campaign.
fn report_per_layer(outcome: &mut Outcome, data: &Traced, query_workload: bool) {
    for metric in PER_LAYER {
        if metric.name == "trace.overhead" {
            let overhead = ratio(median(&data.traced), median(&data.untraced));
            outcome.report(metric, overhead, data.traced.len());
            continue;
        }
        let from_queries = query_workload
            && (metrics::is_query_layer(metric.name) || metric.name == "trace.coverage");
        let source = if from_queries {
            &data.queries
        } else {
            &data.campaigns
        };
        let values: Vec<f64> = source
            .iter()
            .filter_map(|layers| layers.get(metric.name).copied())
            .collect();
        if values.is_empty() {
            outcome
                .problems
                .push(format!("{}: no traced repetition", metric.name));
        } else {
            outcome.report(metric, median(&values), values.len());
        }
    }
}

/// Where a traced run writes its spans, in the working directory.
const TRACE_FILE: &str = "benchmark-trace.json";

fn write_trace(path: &Path, spans: &[SpanRecord]) -> Result<(), String> {
    let body: Vec<String> = spans.iter().map(SpanRecord::to_json).collect();
    std::fs::write(path, format!("[\n{}\n]\n", body.join(",\n")))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}
