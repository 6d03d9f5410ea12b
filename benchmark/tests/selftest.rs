//! Self-tests of the benchmark at a tiny input size: the printed result
//! matches `BENCHMARK.json`, and digests and exact counts follow the seed.

use std::process::Command;

use sps_trace::Json;

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(spec: &'a Json, key: &str) -> &'a [Json] {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
}

fn field<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} in {}", item.render()))
}

/// One tiny run: its standard output and its parsed last line.
fn run(workload: &str, seed: u64, trace: bool) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_sps-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--trace", if trace { "1" } else { "0" }])
        .args(["--size", "tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output").to_string();
    let result = Json::parse(&last).unwrap_or_else(|e| panic!("last line is JSON ({e}): {last}"));
    (stdout, result)
}

fn digest(stdout: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .expect("a digest line")
        .to_string()
}

fn workloads() -> Vec<String> {
    list(&spec(), "workloads")
        .iter()
        .map(|w| field(w, "name").to_string())
        .collect()
}

fn allowed_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn allowed_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Check that `result` is correct and carries exactly the metrics listed
/// under `key`, each with its declared unit and a finite value.
fn assert_metrics(result: &Json, key: &str, workload: &str) {
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_i64),
        Some(0),
        "{workload}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_i64) >= Some(1),
        "{workload}"
    );
    let spec = spec();
    let declared = list(&spec, key);
    let Some(Json::Obj(printed)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    assert_eq!(
        printed.len(),
        declared.len(),
        "{workload} {key}: metric count"
    );
    for m in declared {
        let (name, unit) = (field(m, "name"), field(m, "unit"));
        assert!(allowed_name(name), "bad metric name {name:?}");
        assert!(allowed_unit(unit), "bad unit {unit:?}");
        let got = result
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .unwrap_or_else(|| panic!("{workload} does not print {name}"));
        assert_eq!(
            got.get("unit").and_then(Json::as_str),
            Some(unit),
            "{workload} {name}"
        );
        let value = got.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload} {name}: {value:?}"
        );
    }
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for w in workloads() {
        assert!(allowed_name(&w), "bad workload name {w:?}");
        let (_, plain) = run(&w, 3, false);
        assert_metrics(&plain, "end_to_end", &w);
        let (_, traced) = run(&w, 3, true);
        assert_metrics(&traced, "per_layer", &w);
    }
}

#[test]
fn same_seed_repeats_digest_and_exact_counts() {
    const EXACT: [&str; 5] = [
        "sim.events",
        "sim.decides",
        "sim.preemptions",
        "sim.reclaimed_slots",
        "trace.records",
    ];
    for w in workloads() {
        let (a, ra) = run(&w, 5, true);
        let (b, rb) = run(&w, 5, true);
        let (plain, _) = run(&w, 5, false);
        assert_eq!(digest(&a), digest(&b), "{w}: traced digests differ");
        assert_eq!(
            digest(&a),
            digest(&plain),
            "{w}: traced and plain digests differ"
        );
        for name in EXACT {
            let value = |r: &Json| {
                r.get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
            };
            assert_eq!(value(&ra), value(&rb), "{w}: {name} differs between runs");
        }
    }
}

#[test]
fn different_seed_changes_the_digest() {
    for w in workloads() {
        let (a, _) = run(&w, 5, false);
        let (b, _) = run(&w, 6, false);
        assert_ne!(
            digest(&a),
            digest(&b),
            "{w}: seed does not reach the inputs"
        );
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "paper_grid", "--seed", "1", "--seconds", "1"],
        vec![
            "--workload",
            "paper_grid",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sps-benchmark"))
            .args(&args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
