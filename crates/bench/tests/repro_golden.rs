//! `repro all` through the built binary against a recorded golden: a
//! 10,000-site, two-week campaign at seed 7 must print exactly
//! `golden/all-10k-w2-s7.txt` at one worker and at two. A change that
//! moves a printed number on purpose regenerates the golden with
//!
//! ```text
//! repro all --population 10000 --weeks 2 --seed 7 > crates/bench/tests/golden/all-10k-w2-s7.txt
//! ```
//!
//! and names the moved numbers in its change note. The 100,000-site
//! golden beside it (`all-100k-s42.txt`, `repro all` at its defaults) is
//! diffed by CI against a release build.

use std::process::Command;

const GOLDEN: &str = include_str!("golden/all-10k-w2-s7.txt");

#[test]
fn repro_all_matches_the_golden_at_every_worker_count() {
    for workers in ["1", "2"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([
                "all",
                "--population",
                "10000",
                "--weeks",
                "2",
                "--seed",
                "7",
                "--workers",
                workers,
            ])
            .output()
            .expect("repro binary runs");
        assert!(
            out.status.success(),
            "repro failed at --workers {workers}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        if stdout != GOLDEN {
            let (line, (got, want)) = stdout
                .lines()
                .zip(GOLDEN.lines())
                .enumerate()
                .find(|(_, (got, want))| got != want)
                .unwrap_or((
                    stdout.lines().count().min(GOLDEN.lines().count()),
                    ("<end>", "<end>"),
                ));
            panic!(
                "--workers {workers}: stdout departs from the golden at line {}:\n  got:  {got}\n  want: {want}",
                line + 1
            );
        }
    }
}
