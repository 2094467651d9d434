//! The peak-RSS probe shared by `repro` (the `peak_rss_bytes=` token on its
//! `study done in …` stderr line) and the campaign benchmark's child
//! process.
//!
//! Peak RSS is a wall-clock-side measurement, like elapsed time: it
//! depends on the allocator and the worker count, so it never enters the
//! deterministic observability snapshot.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
