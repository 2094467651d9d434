//! Timing and JSON support for the machine-readable bench emitter
//! (`bench-json`).
//!
//! The vendored criterion stand-in only prints; it returns nothing. This
//! module is the measuring half the emitter needs: calibrated repeated
//! timing ([`measure`]) and a no-dependency JSON value type ([`Json`]) —
//! the workspace has no serde.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Per-iteration time budget used to pick the iteration count.
const CALIBRATION_TARGET: Duration = Duration::from_millis(20);

/// One benchmark's timing summary, in seconds per iteration.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Mean seconds per iteration across samples.
    pub mean_secs: f64,
    /// Fastest sample.
    pub min_secs: f64,
    /// Slowest sample.
    pub max_secs: f64,
    /// Samples taken.
    pub samples: usize,
    /// Iterations per sample.
    pub iters: u64,
}

impl Measurement {
    /// Derived rate for `elements` units processed per iteration.
    pub fn elems_per_sec(&self, elements: u64) -> f64 {
        if self.mean_secs > 0.0 {
            elements as f64 / self.mean_secs
        } else {
            f64::INFINITY
        }
    }

    /// The measurement as a JSON object (`mean_secs`/`min_secs`/
    /// `max_secs`/`elements`/`elems_per_sec`).
    pub fn to_json(&self, elements: u64) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert("mean_secs".into(), Json::Num(self.mean_secs));
        obj.insert("min_secs".into(), Json::Num(self.min_secs));
        obj.insert("max_secs".into(), Json::Num(self.max_secs));
        obj.insert("elements".into(), Json::Num(elements as f64));
        obj.insert(
            "elems_per_sec".into(),
            Json::Num(self.elems_per_sec(elements)),
        );
        Json::Obj(obj)
    }
}

/// Times `routine` with the same calibration scheme as the vendored
/// criterion stand-in: grow the iteration count until one sample costs
/// ~20ms, then take `samples` timed samples.
pub fn measure(samples: usize, mut routine: impl FnMut()) -> Measurement {
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            routine();
        }
        let elapsed = start.elapsed();
        if elapsed >= CALIBRATION_TARGET || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let samples = samples.max(1);
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            routine();
        }
        times.push(start.elapsed().as_secs_f64() / iters as f64);
    }
    summarize(&times, samples, iters)
}

/// Times two routines with alternating samples, so drift over the run
/// (thermal, allocator state, cache pressure) lands on both sides equally.
/// Use this when the quantity of interest is the *ratio* between the two —
/// back-to-back [`measure`] calls attribute any mid-run slowdown entirely
/// to whichever routine ran second.
///
/// Iteration count is calibrated on `a` and shared; both routines get one
/// warmup pass before sampling starts.
pub fn measure_ab(
    samples: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (Measurement, Measurement) {
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            a();
        }
        let elapsed = start.elapsed();
        if elapsed >= CALIBRATION_TARGET || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    b();

    let samples = samples.max(1);
    let mut times_a = Vec::with_capacity(samples);
    let mut times_b = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            a();
        }
        times_a.push(start.elapsed().as_secs_f64() / iters as f64);
        let start = Instant::now();
        for _ in 0..iters {
            b();
        }
        times_b.push(start.elapsed().as_secs_f64() / iters as f64);
    }
    (
        summarize(&times_a, samples, iters),
        summarize(&times_b, samples, iters),
    )
}

/// Peak resident set size of this process in bytes, read from
/// `/proc/self/status` (`VmHWM`, the kernel's high-water mark).
///
/// Returns `None` on platforms without procfs or when the field is
/// missing, so callers degrade to wall-clock-only reporting instead of
/// failing. The value is monotone over the process lifetime — measure
/// each campaign mode in its own process to attribute peaks correctly.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Parses the `VmHWM: <n> kB` line out of a `/proc/<pid>/status` body.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb * 1024)
}

fn summarize(times: &[f64], samples: usize, iters: u64) -> Measurement {
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = times.iter().cloned().fold(0.0f64, f64::max);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    Measurement {
        mean_secs: mean,
        min_secs: min,
        max_secs: max,
        samples,
        iters,
    }
}

/// A minimal JSON value (the workspace has no serde). Objects use a
/// `BTreeMap` so emitted documents are deterministically ordered.
#[derive(Clone, Debug)]
pub enum Json {
    /// A string value.
    Str(String),
    /// A finite number (non-finite values render as `null`).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Convenience constructor for object literals.
    pub fn obj(entries: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Num(n) if n.is_finite() => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n:.6e}");
                }
            }
            Json::Num(_) => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    Json::Str(key.clone()).write(out, indent + 1);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_positive_times() {
        let m = measure(3, || {
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert!(m.mean_secs > 0.0);
        assert!(m.min_secs <= m.mean_secs && m.mean_secs <= m.max_secs);
        assert!(m.elems_per_sec(100) > 0.0);
    }

    #[test]
    fn vm_hwm_parses_and_degrades() {
        assert_eq!(
            parse_vm_hwm("Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  1234 kB\nVmRSS:\t 10 kB\n"),
            Some(1234 * 1024)
        );
        assert_eq!(parse_vm_hwm("Name:\tx\nVmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tgarbage kB\n"), None);
        // On Linux the live probe reports something plausible; elsewhere it
        // degrades to None without panicking.
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap_or(0) > 0);
        } else {
            let _ = peak_rss_bytes();
        }
    }

    #[test]
    fn json_renders_deterministically() {
        let doc = Json::obj([
            ("b", Json::Num(2.0)),
            ("a", Json::Str("x\"y".into())),
            ("c", Json::Arr(vec![Json::Bool(true), Json::Num(0.5)])),
        ]);
        let text = doc.render();
        assert!(text.starts_with("{\n  \"a\": \"x\\\"y\",\n  \"b\": 2,"));
        assert!(text.contains("5.000000e-1"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn json_escapes_and_empties() {
        assert_eq!(Json::Obj(BTreeMap::new()).render(), "{}\n");
        assert_eq!(Json::Arr(Vec::new()).render(), "[]\n");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Str("a\nb".into()).render(), "\"a\\nb\"\n");
    }
}
