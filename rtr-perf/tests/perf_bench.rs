//! Runs every workload in-process at a tiny size and checks the result
//! record against `BENCHMARK.json` and against a second run.

use std::collections::BTreeMap;

use rtr_perf::loops::{episodes, WORLDS};
use rtr_perf::report::{per_layer, Outcome, END_TO_END, KERNELS};
use rtr_perf::{Scope, Workload};

/// Two episodes, one pass, cheap kernels.
fn tiny() -> Scope {
    Scope {
        seed: 3,
        seconds: 0.0,
        episodes: 2,
        kernels: vec!["02.ekfslam", "13.dmp"],
    }
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`.
fn section(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, name: &str| {
        let at = entry.find(&format!("\"{name}\"")).expect("field present");
        let value = entry[at + name.len() + 2..]
            .split('"')
            .nth(1)
            .expect("string value");
        value.to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let json = benchmark_json();
    let end_to_end: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(section(&json, "end_to_end"), end_to_end);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(section(&json, "per_layer"), layers);
    assert!(layers.len() <= 128);
    for (name, _) in end_to_end.iter().chain(&layers) {
        assert!(valid_name(name), "bad metric name {name}");
    }
    for workload in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
}

#[test]
fn kernel_catalogue_follows_the_registry() {
    let names: Vec<&str> = rtr_core::registry().iter().map(|k| k.name()).collect();
    assert_eq!(names, KERNELS);
}

#[test]
fn episode_draw_depends_only_on_the_seed() {
    let draw = episodes(7, 24);
    assert_eq!(draw, episodes(7, 24));
    assert_ne!(draw, episodes(8, 24));
    let mut sorted = draw.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 24);
    assert!(draw.iter().all(|w| WORLDS.contains(w)));
}

/// The numbers a run must reproduce exactly: informational lines other
/// than host notes, and every count metric.
fn deterministic(outcome: &Outcome) -> BTreeMap<String, String> {
    let mut out: BTreeMap<String, String> = outcome
        .info
        .iter()
        .filter(|(key, _)| !["run_valid", "ticks_measured", "tick_p99_us"].contains(&key.as_str()))
        .cloned()
        .collect();
    for (name, unit) in outcome.catalogue() {
        if unit == "count" {
            out.insert(name.clone(), outcome.metrics[&name].value.to_string());
        }
    }
    out
}

fn check_workload(workload: Workload) {
    let scope = tiny();
    let mut digests = Vec::new();
    for traced in [false, true] {
        let first = workload.run(&scope, traced);
        assert!(first.correct(), "{}: {:?}", workload.name(), first.failures);
        assert!(first.attempted > 0);
        let catalogue = first.catalogue();
        assert_eq!(first.metrics.len(), catalogue.len());
        for (name, _) in &catalogue {
            let value = first.metrics[name].value;
            assert!(value.is_finite(), "{} {name} = {value}", workload.name());
        }
        if !traced {
            for (name, _) in &catalogue {
                assert!(
                    first.metrics[name].value > 0.0,
                    "{} {name} is 0",
                    workload.name()
                );
            }
        }
        let line = rtr_perf::report::result_line(std::slice::from_ref(&first));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        let second = workload.run(&scope, traced);
        assert_eq!(
            deterministic(&first),
            deterministic(&second),
            "{}",
            workload.name()
        );
        digests.push(deterministic(&first).remove("output_digest"));
    }
    // Tracing observes the workload; it must not change its outputs.
    assert_eq!(digests[0], digests[1], "{}", workload.name());
    assert!(digests[0].is_some());
}

#[test]
fn loop_pfl_runs_small() {
    check_workload(Workload::LoopPfl);
}

#[test]
fn loop_ekfslam_runs_small() {
    check_workload(Workload::LoopEkfSlam);
}

#[test]
fn kernels_run_small() {
    check_workload(Workload::Kernels);
}

#[test]
fn char_small_runs_small() {
    check_workload(Workload::CharSmall);
}

#[test]
fn traced_kernels_attribute_time_to_the_kernels_in_scope() {
    let outcome = Workload::Kernels.run(&tiny(), true);
    let value = |name: &str| outcome.metrics[name].value;
    assert!(value("kernel.13.dmp.share") > 0.0);
    assert!(value("kernel.13.dmp.step_p99_over_p50") >= 1.0);
    assert!(value("core.registry_overhead.13.dmp") > 0.0);
    assert_eq!(value("kernel.01.pfl.share"), 0.0);
    assert_eq!(value("host.nproc") as usize, rtr_perf::host::nproc());
}
