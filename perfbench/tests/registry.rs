//! `BENCHMARK.json` at the repository root and the metric registry the
//! benchmark prints from must list the same metrics, with the same
//! units, in the same order.

use astro_perfbench::report::{END_TO_END, PER_LAYER};
use astro_perfbench::WORKLOADS;

/// `(name, unit)` of every `{"name": …, "unit": …}` entry of the array
/// under `key` (entries without a unit, like workloads, give "").
fn entries(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |entry: &str, f: &str| -> String {
        let tag = format!("\"{f}\": \"");
        entry
            .find(&tag)
            .map(|i| {
                let rest = &entry[i + tag.len()..];
                rest[..rest.find('"').expect("string closes")].to_string()
            })
            .unwrap_or_default()
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

fn owned(reg: &[(&str, &str)]) -> Vec<(String, String)> {
    reg.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn end_to_end_metrics_match_the_registry() {
    assert_eq!(entries(&benchmark_json(), "end_to_end"), owned(END_TO_END));
}

#[test]
fn per_layer_metrics_match_the_registry() {
    assert_eq!(entries(&benchmark_json(), "per_layer"), owned(PER_LAYER));
}

#[test]
fn workloads_match_the_command_line() {
    let names: Vec<String> = entries(&benchmark_json(), "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(names, WORKLOADS);
}
