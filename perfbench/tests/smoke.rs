//! Smoke test of the benchmark binary at tiny sizes: every workload, and
//! its traced run, prints every metric `BENCHMARK.json` names with the
//! declared unit and passes its output checks; an injected wrong decision
//! and a missed gap target are reported as failed operations.

use scd_serve::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["train-syscd", "train-dist-tpa", "serve-swap"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json is JSON");
    spec.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    code: i32,
    stdout: String,
    result: Json,
}

fn run(workload: &str, trace: u8, inject: Option<&str>) -> Run {
    let dir: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{workload}-{trace}-{}",
        inject.unwrap_or("none")
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--size",
        "tiny",
    ])
    .args(["--trace", &trace.to_string()])
    .current_dir(&dir);
    if let Some(fault) = inject {
        cmd.args(["--inject", fault]);
    }
    let out = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap_or_default().to_string();
    let result = Json::parse(&last).unwrap_or_else(|e| {
        panic!(
            "last line is not JSON ({e}):\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    Run {
        code: out.status.code().unwrap_or(-1),
        stdout,
        result,
    }
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no numeric {key}"))
}

fn assert_clean(run: &Run, section: &str) {
    assert_eq!(run.code, 0, "{}", run.stdout);
    assert_eq!(
        run.result.get("correct"),
        Some(&Json::Bool(true)),
        "{}",
        run.stdout
    );
    assert_eq!(num(&run.result, "failed"), 0.0);
    assert!(num(&run.result, "attempted") >= 1.0);
    let metrics = run.result.get("metrics").expect("metrics object");
    let declared = declared(section);
    for (name, unit) in &declared {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing:\n{}", run.stdout));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let value = num(m, "value");
        assert!(value.is_finite(), "{name} = {value}");
        if section == "end_to_end" {
            assert!(value > 0.0, "{name} = {value}:\n{}", run.stdout);
        }
        // Layers a workload does not exercise report 0 without a line.
        let printed = run
            .stdout
            .lines()
            .any(|l| l.split_whitespace().take(2).eq(["metric", name.as_str()]));
        assert!(
            printed || value == 0.0,
            "{name} not printed as a metric line"
        );
    }
    match metrics {
        Json::Obj(fields) => assert_eq!(fields.len(), declared.len(), "undeclared metrics printed"),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn every_workload_prints_its_end_to_end_metrics() {
    for workload in WORKLOADS {
        assert_clean(&run(workload, 0, None), "end_to_end");
    }
}

#[test]
fn every_workload_prints_its_per_layer_metrics() {
    for workload in WORKLOADS {
        let run = run(workload, 1, None);
        assert_clean(&run, "per_layer");
        assert!(
            run.stdout.contains("metric trace.overhead_pct"),
            "{}",
            run.stdout
        );
    }
}

#[test]
fn a_tampered_decision_is_a_failed_operation() {
    let run = run("serve-swap", 0, Some("tamper-decision"));
    assert_eq!(run.code, 3, "{}", run.stdout);
    assert_eq!(run.result.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(num(&run.result, "failed"), 1.0, "{}", run.stdout);
    assert!(
        run.stdout.contains("note FAILED: decision"),
        "{}",
        run.stdout
    );
}

#[test]
fn a_missed_gap_target_is_a_failed_operation() {
    for workload in ["train-syscd", "train-dist-tpa"] {
        let run = run(workload, 0, Some("miss-gap"));
        assert_eq!(run.code, 3, "{}", run.stdout);
        assert_eq!(run.result.get("correct"), Some(&Json::Bool(false)));
        assert!(num(&run.result, "failed") >= 1.0, "{}", run.stdout);
        assert!(run.stdout.contains("above target"), "{}", run.stdout);
    }
}

#[test]
fn a_bad_workload_exits_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert_ne!(out.status.code(), Some(0));
    assert!(out.stdout.is_empty());
}
