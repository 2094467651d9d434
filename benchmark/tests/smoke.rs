//! Runs every workload at `--smoke` scale, untraced and traced, and checks
//! the result lines against `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The `"name"` values listed under `section` in `BENCHMARK.json`.
fn declared_names(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = rest.split('"').nth(1).expect("name is a string");
            value.to_owned()
        })
        .collect()
}

struct Run {
    result: String,
    stderr: String,
}

fn run(dir: &Path, workload: &str, trace: u8) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .current_dir(dir)
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let stderr = String::from_utf8(output.stderr).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    Run {
        result: stdout.lines().last().expect("a result line").to_owned(),
        stderr,
    }
}

fn digest_line(stderr: &str) -> String {
    stderr
        .lines()
        .find_map(|line| line.strip_prefix("benchmark: digest "))
        .expect("reference digests are printed")
        .to_owned()
}

#[test]
fn every_workload_prints_every_declared_metric_and_outputs_agree() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(manifest.join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let workloads = declared_names(&json, "workloads");
    let end_to_end = declared_names(&json, "end_to_end");
    let per_layer = declared_names(&json, "per_layer");
    assert_eq!(workloads.len(), 3);
    assert!(end_to_end.contains(&"setup_s".to_owned()));

    let dir: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("benchmark-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test directory");

    let mut digests = Vec::new();
    for workload in &workloads {
        for (trace, declared) in [(0, &end_to_end), (1, &per_layer)] {
            let run = run(&dir, workload, trace);
            assert!(
                run.result.starts_with("{\"correct\": true,")
                    && run.result.contains("\"failed\": 0,"),
                "{workload} --trace {trace}: {}",
                run.result
            );
            for name in declared.iter() {
                assert!(
                    run.result.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} --trace {trace} lacks {name}"
                );
            }
            assert_eq!(
                run.result.matches("\"value\": ").count(),
                declared.len(),
                "{workload} --trace {trace} prints undeclared metrics"
            );
            if trace == 0 {
                digests.push(digest_line(&run.stderr));
            }
        }
    }
    // Full and delta, in-memory and spilled: one output at one seed.
    assert!(
        digests.windows(2).all(|pair| pair[0] == pair[1]),
        "{digests:?}"
    );
    assert!(dir.join("benchmark-trace.json").exists());
    assert!(
        !dir.join(".benchmark-scratch").exists(),
        "scratch directory left behind"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
