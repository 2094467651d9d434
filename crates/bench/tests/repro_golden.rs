//! `repro all` through the built binary against a recorded golden: a
//! 10,000-site, two-week campaign at seed 7 must print exactly
//! `golden/all-10k-w2-s7.txt` at one worker and at two, and as a delta
//! campaign spilled to a directory; `repro query` over that directory
//! must print exactly `golden/query-10k-w2-s7.txt`. A change that moves a
//! printed number on purpose regenerates the goldens with
//!
//! ```text
//! repro all --population 10000 --weeks 2 --seed 7 > crates/bench/tests/golden/all-10k-w2-s7.txt
//! repro all --population 10000 --weeks 2 --seed 7 --collection delta --spill-dir D
//! repro query --spill-dir D > crates/bench/tests/golden/query-10k-w2-s7.txt
//! ```
//!
//! and names the moved numbers in its change note. The 100,000-site
//! golden beside it (`all-100k-s42.txt`, `repro all` at its defaults) is
//! diffed by CI against a release build.

use std::process::Command;

const GOLDEN: &str = include_str!("golden/all-10k-w2-s7.txt");
const QUERY_GOLDEN: &str = include_str!("golden/query-10k-w2-s7.txt");

/// The 10k, two-week, seed-7 campaign: `repro <args> --population 10000
/// --weeks 2 --seed 7`, which must succeed; returns its stdout.
fn repro(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args(["--population", "10000", "--weeks", "2", "--seed", "7"])
        .output()
        .expect("repro binary runs");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Panics at the first line where `stdout` departs from `golden`.
fn assert_matches(stdout: &str, golden: &str, what: &str) {
    if stdout != golden {
        let (line, (got, want)) = stdout
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (got, want))| got != want)
            .unwrap_or((
                stdout.lines().count().min(golden.lines().count()),
                ("<end>", "<end>"),
            ));
        panic!(
            "{what}: stdout departs from the golden at line {}:\n  got:  {got}\n  want: {want}",
            line + 1
        );
    }
}

#[test]
fn repro_all_matches_the_golden_at_every_worker_count() {
    for workers in ["1", "2"] {
        let stdout = repro(&["all", "--workers", workers]);
        assert_matches(&stdout, GOLDEN, &format!("--workers {workers}"));
    }
}

#[test]
fn repro_query_matches_the_golden() {
    let dir = std::env::temp_dir().join("remnant-repro-golden-query");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let stdout = repro(&["all", "--collection", "delta", "--spill-dir", dir_arg]);
    assert_matches(&stdout, GOLDEN, "delta --spill-dir");
    let stdout = repro(&["query", "--spill-dir", dir_arg]);
    assert_matches(&stdout, QUERY_GOLDEN, "query");
    let _ = std::fs::remove_dir_all(&dir);
}
