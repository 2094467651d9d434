//! Processor time, and a fixed calibration kernel that scales it to one
//! host speed.
//!
//! The benchmark runs on a small virtual machine that shares its host
//! with other guests. Their load changes how fast memory-bound code runs
//! here, by up to 1.6× in stretches of seconds to minutes, and a campaign
//! (hash maps, interned names, record arenas) slows as much as anything.
//! So each measured repetition runs this kernel between its steps. The
//! kernel belongs to the benchmark, not to the program, so no change to
//! the program changes it: a random read-modify-write walk over a 16 MiB
//! table, then building and probing a string-keyed hash map. Its
//! processor time against [`REFERENCE_KERNEL_MS`] is the host's slowdown
//! over the repetition, and the repetition's processor time divided by
//! that slowdown is its cost at the reference speed. In 7-minute traces
//! of back-to-back 20,000-site campaigns while the host changed speed,
//! the interquartile spread of campaign processor time was 13% (full
//! collection) and 23% (delta, spilled); scaled, it was 5% and 4%.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The kernel's processor time per run at the reference speed: its
/// typical time on a 2-vCPU Intel Xeon virtual machine, the machine the
/// benchmark's bounds were set on.
pub const REFERENCE_KERNEL_MS: f64 = 12.0;

/// Words in the walked table: 16 MiB, larger than a core's private
/// caches, like a campaign's working set.
const TABLE_WORDS: usize = 1 << 21;

/// Table updates per kernel run.
const WALK_STEPS: usize = 300_000;

/// Keys inserted into the kernel's hash map, and lookups made in it over
/// a key space half again as large, so a third of them miss.
const MAP_KEYS: u64 = 8_000;
const MAP_LOOKUPS: usize = 40_000;

/// Processor time this process has used, summed over all its threads,
/// ended ones included (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it
/// leaves out time spent waiting for a processor.
pub fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec`, which on 64-bit
    // Linux is two 64-bit integers, and the clock id is a valid constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "Linux has a per-process CPU-time clock");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Processor seconds since `since`, a [`cpu_time`] reading.
pub fn cpu_secs(since: Duration) -> f64 {
    cpu_time().saturating_sub(since).as_secs_f64()
}

/// The calibration kernel's state and what its runs measured.
pub struct Calibration {
    table: Vec<u64>,
    /// Resident bytes the table added, left out of [`Self::peak_rss`].
    table_bytes: u64,
    rng: u64,
    runs: u32,
    cpu: Duration,
    wall: Duration,
    /// The highest peak resident size seen just before a kernel run.
    peak: u64,
}

impl Calibration {
    /// Allocates and touches the kernel's table; create it first, so that
    /// every later page the process maps is the program's.
    pub fn new() -> Calibration {
        let before = resident_bytes();
        let table = vec![1; TABLE_WORDS];
        let table_bytes = match (before, resident_bytes()) {
            (Some(before), Some(after)) => after.saturating_sub(before),
            _ => 0,
        };
        Calibration {
            table,
            table_bytes,
            rng: 0x9e37_79b9_7f4a_7c15,
            runs: 0,
            cpu: Duration::ZERO,
            wall: Duration::ZERO,
            peak: 0,
        }
    }

    /// Runs the kernel once. The process's peak resident size is noted
    /// before and reset after it, so the kernel's own memory is never
    /// counted in [`Self::peak_rss`].
    pub fn run(&mut self) {
        self.peak = self.peak.max(peak_bytes().unwrap_or(0));
        let wall = Instant::now();
        let cpu = cpu_time();
        self.walk();
        self.probe_map();
        self.cpu += cpu_time().saturating_sub(cpu);
        self.wall += wall.elapsed();
        self.runs += 1;
        reset_peak();
    }

    /// Processor seconds and wall seconds spent in the kernel.
    pub fn cpu_s(&self) -> f64 {
        self.cpu.as_secs_f64()
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.as_secs_f64()
    }

    /// The kernel's mean processor time per run, in milliseconds.
    pub fn kernel_ms(&self) -> f64 {
        self.cpu.as_secs_f64() * 1e3 / f64::from(self.runs.max(1))
    }

    /// `cpu_s` processor seconds, measured alongside the kernel runs so
    /// far, scaled to the reference speed.
    pub fn at_reference_speed(&self, cpu_s: f64) -> f64 {
        scale_to_reference(cpu_s, self.kernel_ms())
    }

    /// The process's peak resident size outside the kernel, less the
    /// kernel's table; `None` where `/proc` gives no reading.
    pub fn peak_rss(&self) -> Option<u64> {
        let peak = self.peak.max(peak_bytes()?);
        Some(peak.saturating_sub(self.table_bytes))
    }

    fn next(&mut self) -> u64 {
        let x = &mut self.rng;
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    fn walk(&mut self) {
        let mask = self.table.len() - 1;
        let mut sum = 0u64;
        for _ in 0..WALK_STEPS {
            let r = self.next();
            let i = r as usize & mask;
            self.table[i] = self.table[i].wrapping_add(r);
            sum = sum.wrapping_add(self.table[i.wrapping_mul(7) & mask]);
        }
        std::hint::black_box(sum);
    }

    fn probe_map(&mut self) {
        let map: HashMap<String, u64> = (0..MAP_KEYS)
            .map(|i| (format!("www.site{i}.example.com"), i))
            .collect();
        let mut sum = 0u64;
        for _ in 0..MAP_LOOKUPS {
            let key = format!("www.site{}.example.com", self.next() % (MAP_KEYS * 3 / 2));
            sum = sum.wrapping_add(map.get(&key).copied().unwrap_or(1));
        }
        std::hint::black_box(sum);
    }
}

/// `cpu_s` scaled by the reference kernel time over the measured one.
pub fn scale_to_reference(cpu_s: f64, kernel_ms: f64) -> f64 {
    if kernel_ms > 0.0 {
        cpu_s * REFERENCE_KERNEL_MS / kernel_ms
    } else {
        cpu_s
    }
}

/// A `Vm...: <n> kB` line of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rest = status.lines().find_map(|l| l.strip_prefix(field))?;
    let kb: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb * 1024)
}

fn resident_bytes() -> Option<u64> {
    status_bytes("VmRSS:")
}

fn peak_bytes() -> Option<u64> {
    status_bytes("VmHWM:")
}

/// Resets the peak resident size to the current one (Linux 4.0 and
/// later); without it the kernel's transient memory may count.
fn reset_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_by_the_measured_slowdown() {
        let slow = REFERENCE_KERNEL_MS * 1.5;
        assert!((scale_to_reference(3.0, slow) - 2.0).abs() < 1e-12);
        assert_eq!(scale_to_reference(3.0, REFERENCE_KERNEL_MS), 3.0);
        assert_eq!(scale_to_reference(3.0, 0.0), 3.0);
    }

    #[test]
    fn kernel_runs_are_timed_and_its_table_is_left_out_of_the_peak() {
        let mut cal = Calibration::new();
        cal.run();
        cal.run();
        assert_eq!(cal.runs, 2);
        assert!(cal.kernel_ms() > 0.0 && cal.cpu_s() <= cal.wall_s() + 0.05);
        if let (Some(peak), Some(hwm)) = (cal.peak_rss(), peak_bytes()) {
            let table = (TABLE_WORDS * 8) as u64;
            assert!(cal.table_bytes >= table / 2, "{}", cal.table_bytes);
            assert_eq!(peak, cal.peak.max(hwm) - cal.table_bytes);
        }
    }
}
