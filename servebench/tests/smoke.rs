//! Smoke runs of every workload, traced and untraced, on two seeds: every
//! metric `BENCHMARK.json` names must print with its unit, every answer
//! must pass its checks, and the provenance line must record the host and
//! the inputs.

use serde::Content;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn benchmark_json() -> Content {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    serde_json::parse_value(&text).expect("BENCHMARK.json parses")
}

fn str_of(c: &Content) -> &str {
    match c {
        Content::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn seq_of(c: &Content) -> &[Content] {
    match c {
        Content::Seq(v) => v,
        other => panic!("expected a list, got {other:?}"),
    }
}

fn map_of(c: &Content) -> &[(String, Content)] {
    match c {
        Content::Map(v) => v,
        other => panic!("expected an object, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one of BENCHMARK.json's lists.
fn declared(list: &str) -> Vec<(String, String)> {
    let spec = benchmark_json();
    seq_of(spec.field(list).expect("metric list"))
        .iter()
        .map(|m| {
            (
                str_of(m.field("name").expect("name")).to_string(),
                str_of(m.field("unit").expect("unit")).to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, seed: u64, trace: bool) -> (Content, Content) {
    let trace_out =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{seed}.ndjson"));
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .arg("--trace-out")
        .arg(&trace_out)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "expected provenance and result lines:\n{stdout}"
    );
    let provenance = serde_json::parse_value(lines[lines.len() - 2]).expect("provenance parses");
    let result = serde_json::parse_value(lines[lines.len() - 1]).expect("result parses");
    if trace {
        let spans = std::fs::read_to_string(&trace_out).expect("trace file written");
        assert!(spans.lines().count() > 1, "trace file holds spans");
    }
    (provenance, result)
}

fn check(workload: &str) {
    for seed in [7, 8] {
        for trace in [false, true] {
            let (provenance, result) = run(workload, seed, trace);
            let keys: Vec<&str> = map_of(&result).iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(
                matches!(result.field("correct"), Ok(Content::Bool(true))),
                "{workload} seed {seed}: answers failed their checks: {result:?}"
            );
            assert!(matches!(result.field("failed"), Ok(Content::Int(0))));
            assert!(matches!(result.field("attempted"), Ok(Content::Int(n)) if *n >= 1));

            let want = declared(if trace { "per_layer" } else { "end_to_end" });
            let got = map_of(result.field("metrics").expect("metrics"));
            let names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
            let want_names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, want_names, "{workload} trace {trace}: metric names");
            for ((name, metric), (_, unit)) in got.iter().zip(&want) {
                assert_eq!(str_of(metric.field("unit").expect("unit")), unit, "{name}");
                assert!(
                    matches!(
                        metric.field("value"),
                        Ok(Content::Int(_) | Content::Float(_))
                    ),
                    "{name} has a numeric value"
                );
            }

            let p = provenance.field("provenance").expect("provenance object");
            assert_eq!(str_of(p.field("workload").expect("workload")), workload);
            assert!(matches!(p.field("seed"), Ok(Content::Int(s)) if *s == i128::from(seed)));
            assert!(matches!(p.field("nproc"), Ok(Content::Int(n)) if *n >= 1));
            assert!(p.field("params").is_ok());
        }
    }
}

#[test]
fn hit_wire_smoke() {
    check("hit_wire");
}

#[test]
fn miss_wire_smoke() {
    check("miss_wire");
}

#[test]
fn ring_rolling_smoke() {
    check("ring_rolling");
}

#[test]
fn bad_flags_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
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
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn declared_workloads_are_miss_wire_and_ring_rolling() {
    let spec = benchmark_json();
    let names: Vec<&str> = seq_of(spec.field("workloads").expect("workloads"))
        .iter()
        .map(|w| str_of(w.field("name").expect("name")))
        .collect();
    assert_eq!(names, ["miss_wire", "ring_rolling"]);
}
