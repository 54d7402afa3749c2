//! Every workload at test size, untraced and traced, against the
//! metric tables of `BENCHMARK.json`.

use firefly_benchmark::json::{self, Value};
use firefly_benchmark::metrics::{end_to_end, per_layer, valid_name, MetricDef};
use firefly_benchmark::run::{run, RunConfig};
use firefly_benchmark::workloads::{Kind, Size};
use std::time::Duration;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark"))
        .unwrap()
}

fn names(v: &Value, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("named").to_string())
        .collect()
}

fn assert_table_matches(v: &Value, key: &str, defs: &[MetricDef]) {
    let entries = v.get(key).and_then(Value::as_arr).unwrap();
    assert_eq!(entries.len(), defs.len(), "{key}: count");
    for (e, d) in entries.iter().zip(defs) {
        assert_eq!(e.get("name").and_then(Value::as_str), Some(d.name.as_str()));
        assert_eq!(e.get("unit").and_then(Value::as_str), Some(d.unit), "{}", d.name);
        assert_eq!(e.get("better").and_then(Value::as_str), Some(d.better.as_str()), "{}", d.name);
        assert_eq!(e.get("bound").and_then(Value::as_f64), d.bound, "{}", d.name);
        let keys: Vec<&str> = e.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        let expected: &[&str] = if d.bound.is_some() {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys, expected, "{}", d.name);
    }
}

#[test]
fn benchmark_json_matches_the_crate() {
    let v = benchmark_json();
    assert_table_matches(&v, "end_to_end", &end_to_end());
    assert_table_matches(&v, "per_layer", &per_layer());
    let workloads = names(&v, "workloads");
    assert_eq!(workloads, Kind::ALL.map(|k| k.name().to_string()));
    for w in v.get("workloads").and_then(Value::as_arr).unwrap() {
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    for n in names(&v, "end_to_end").iter().chain(&names(&v, "per_layer")).chain(&workloads) {
        assert!(valid_name(n), "{n}");
    }
}

fn smoke(kind: Kind, seed: u64, trace: bool) -> Vec<(String, f64)> {
    let cfg = RunConfig {
        kind,
        seed,
        budget: Duration::from_millis(50),
        trace,
        size: Size::Smoke,
        trace_dir: None,
    };
    let r = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    assert!(r.correct && r.failed == 0, "{} (trace {trace}): {:?}", kind.name(), r.notes);
    // Set-ups and at least two operations (a traced run pairs each
    // untraced operation with a traced one), all agreeing.
    assert!(r.attempted >= if trace { 3 } else { 4 }, "{}", kind.name());
    json::parse(&r.json_line().unwrap()).unwrap();
    r.report.entries().unwrap().into_iter().map(|(d, v)| (d.name.clone(), v)).collect()
}

#[test]
fn every_workload_emits_every_metric_with_agreeing_digests() {
    let v = benchmark_json();
    let (e2e, layers) = (names(&v, "end_to_end"), names(&v, "per_layer"));
    for kind in Kind::ALL {
        let untraced = smoke(kind, 3, false);
        assert_eq!(untraced.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(), e2e);
        for (name, value) in &untraced {
            assert!(*value > 0.0, "{}: {name} = {value}", kind.name());
        }
        let traced = smoke(kind, 3, true);
        assert_eq!(traced.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(), layers);
        let get = |n: &str| traced.iter().find(|(m, _)| m == n).unwrap().1;
        assert!(get("trace.traced_op_ms") > 0.0 && get("trace.null_span_ns") > 0.0);
    }
}
