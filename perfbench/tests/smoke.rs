//! Every workload runs at small scale, passes its checks, and emits
//! every declared metric with its unit; the declared metrics match
//! `BENCHMARK.json`.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{execute, Config, Scale, Workload};
use std::process::Command;

fn small(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 3,
        seconds: 0.2,
        trace,
        scale: Scale::SMALL,
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for w in Workload::ALL {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let out = execute(&small(w, trace), None);
            assert!(out.attempted >= 2, "{}: {} ops", w.name(), out.attempted);
            assert_eq!(out.failed, 0, "{} trace={}", w.name(), trace);
            let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, table.to_vec(), "{} trace={}", w.name(), trace);
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{} {}", w.name(), m.name);
            }
            if !trace {
                for m in &out.metrics {
                    assert!(m.value > 0.0, "{} {} is 0", w.name(), m.name);
                }
            } else {
                let coverage = out
                    .metrics
                    .iter()
                    .find(|m| m.name == "trace.coverage")
                    .unwrap();
                assert!(
                    coverage.value > 0.5 && coverage.value <= 1.0,
                    "{}",
                    coverage.value
                );
            }
        }
    }
}

#[test]
fn benchmark_json_declares_the_same_metrics_and_workloads() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let declared = |name: &str, unit: &str| {
        doc.contains(&format!("\"name\": \"{}\", \"unit\": \"{}\"", name, unit))
    };
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            declared(name, unit),
            "{} ({}) missing from BENCHMARK.json",
            name,
            unit
        );
    }
    for w in Workload::ALL {
        assert!(
            doc.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
}

#[test]
fn command_line_prints_the_result_as_its_last_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "music-7pair", "--seed", "4"])
        .args(["--seconds", "0.2", "--trace", "0"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{}",
        last
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "));
    assert!(stdout.contains("# host {\"nproc\": "));

    let bad = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty());
}
