//! The metrics the benchmark reports, with their units, and the result
//! line it prints last.

/// A reported metric's name and unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn metric(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Reported by untraced runs, on every workload: the processor time of a
/// repetition per site-round, the peak memory of a repetition, and the
/// processor time of a set-up campaign.
pub const END_TO_END: [Metric; 3] = [
    metric("cpu_us_per_site_round", "us"),
    metric("peak_rss_mb", "MiB"),
    metric("setup_s", "s"),
];

/// Reported by traced runs, on every workload.
pub const PER_LAYER: [Metric; 41] = [
    metric("world.generate_s", "s"),
    metric("world.step_s", "s"),
    metric("collect.self_s", "s"),
    metric("collect.sweep_wall_s", "s"),
    metric("collect.sweep_busy_s", "s"),
    metric("collect.assemble_s", "s"),
    metric("collect.queries", "count"),
    metric("collect.retries", "count"),
    metric("collect.exhausted", "count"),
    metric("collect.resolver_hit_ratio", "ratio"),
    metric("collect.shards_run", "count"),
    metric("collect.reuse_ratio", "ratio"),
    metric("collect.write_bytes", "B"),
    metric("obs.self_s", "s"),
    metric("passes.self_s", "s"),
    metric("classify.hits", "count"),
    metric("classify.misses", "count"),
    metric("classify.hit_ratio", "ratio"),
    metric("unchanged.self_s", "s"),
    metric("unchanged.candidates", "count"),
    metric("harvest.self_s", "s"),
    metric("harvest.read_bytes", "B"),
    metric("scan.self_s", "s"),
    metric("scan.queries", "count"),
    metric("scan.answered_ratio", "ratio"),
    metric("filter.self_s", "s"),
    metric("filter.hidden", "count"),
    metric("filter.verified_ratio", "ratio"),
    metric("finish.self_s", "s"),
    metric("render.self_s", "s"),
    metric("store.open_s", "s"),
    metric("query.context_s", "s"),
    metric("query.cache_hits", "count"),
    metric("query.cache_misses", "count"),
    metric("query.hit_ratio", "ratio"),
    metric("query.read_bytes", "B"),
    metric("query.passes_plan_s", "s"),
    metric("query.residual_plan_s", "s"),
    metric("query.render_s", "s"),
    metric("trace.coverage", "ratio"),
    metric("trace.overhead", "ratio"),
];

/// Span names that time a layer, and the per-layer metric that sums
/// their self times. Every other span (`run`, `round`, `query`) only
/// groups layers.
pub const LAYER_SPANS: [(&str, &str); 16] = [
    ("world.generate", "world.generate_s"),
    ("world.step", "world.step_s"),
    ("collect", "collect.self_s"),
    ("obs", "obs.self_s"),
    ("passes", "passes.self_s"),
    ("unchanged", "unchanged.self_s"),
    ("harvest", "harvest.self_s"),
    ("scan", "scan.self_s"),
    ("filter", "filter.self_s"),
    ("finish", "finish.self_s"),
    ("render", "render.self_s"),
    ("store.open", "store.open_s"),
    ("query.context", "query.context_s"),
    ("query.passes_plan", "query.passes_plan_s"),
    ("query.residual_plan", "query.residual_plan_s"),
    ("query.render", "query.render_s"),
];

/// Byte counters summed over the spans of one layer: `(span names,
/// metric, reads or writes)`.
pub const LAYER_BYTES: [(&[&str], &str, bool); 3] = [
    (&["collect"], "collect.write_bytes", false),
    (&["harvest"], "harvest.read_bytes", true),
    (
        &[
            "store.open",
            "query.context",
            "query.passes_plan",
            "query.residual_plan",
        ],
        "query.read_bytes",
        true,
    ),
];

/// Whether a per-layer metric describes the query path rather than the
/// campaign.
pub fn is_query_layer(name: &str) -> bool {
    name.starts_with("store.") || name.starts_with("query.")
}

/// One measured value ready to print.
#[derive(Clone, Debug)]
pub struct Reported {
    pub metric: Metric,
    pub value: f64,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit. Values print with every digit Rust's shortest
/// round-trip formatting gives.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Reported]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.metric.name, m.value, m.metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric or workload name: 1 to 64 characters
    /// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        let bytes = name.as_bytes();
        !bytes.is_empty()
            && bytes.len() <= 64
            && bytes[0].is_ascii_alphanumeric()
            && bytes
                .iter()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn metric_names_match_the_allowed_pattern() {
        for name in [
            "cpu_us_per_site_round",
            "collect.sweep_wall_s",
            "delta-spill",
            "9x",
        ] {
            assert!(valid_name(name), "{name} rejected");
        }
        let long = "a".repeat(65);
        for name in [
            "",
            ".hidden",
            "_x",
            "a b",
            "rate/s",
            "é",
            "a\n",
            long.as_str(),
        ] {
            assert!(!valid_name(name), "{name:?} accepted");
        }
    }

    #[test]
    fn every_metric_name_and_unit_is_well_formed_and_unique() {
        let all: Vec<Metric> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        for m in &all {
            assert!(valid_name(m.name), "{} rejected", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "unit {} rejected",
                m.unit
            );
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn layer_tables_name_declared_metrics() {
        let declared = |name: &str| PER_LAYER.iter().any(|m| m.name == name);
        for (_, metric) in LAYER_SPANS {
            assert!(declared(metric), "{metric}");
        }
        for (_, metric, _) in LAYER_BYTES {
            assert!(declared(metric), "{metric}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(
            true,
            126,
            0,
            &[Reported {
                metric: END_TO_END[2],
                value: 12.5,
                samples: 3,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 126, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 12.5, \"unit\": \"s\"}}}"
        );
    }
}
