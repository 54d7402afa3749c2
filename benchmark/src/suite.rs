//! Repeated runs of every workload, result files, and `compare`.
//!
//! `suite` runs each workload `runs` times, each run in a child process
//! of its own (this executable, re-run with `--workload`), one child at
//! a time, round-robin across workloads so that a burst of load from a
//! neighbour lands on one run of several workloads rather than on every
//! run of one. Run `i` uses seed `first_seed + i`, so a claim is
//! checked on several seeds. The result file keeps every sample.

use crate::host::Fingerprint;
use crate::json::{self, Value};
use crate::metrics::{end_to_end, MetricDef, MAX_BOUND};
use crate::stats::{derive_bound, median, min_max, spread, verdict, Verdict};
use crate::workloads::Kind;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

/// Samples of one workload across runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadSamples {
    /// Workload name.
    pub name: String,
    /// Checked operations, summed over runs.
    pub attempted: u64,
    /// Failed operations, summed over runs.
    pub failed: u64,
    /// Every run was correct.
    pub correct: bool,
    /// `(metric, unit, one value per run)`.
    pub metrics: Vec<(String, String, Vec<f64>)>,
}

impl WorkloadSamples {
    /// Values of `metric`, if recorded.
    pub fn values(&self, metric: &str) -> Option<&[f64]> {
        self.metrics.iter().find(|(n, _, _)| n == metric).map(|(_, _, v)| v.as_slice())
    }

    fn absorb(&mut self, line: &Value) -> Result<(), String> {
        let num =
            |k: &str| line.get(k).and_then(Value::as_f64).ok_or(format!("result line lacks {k}"));
        self.attempted += num("attempted")? as u64;
        self.failed += num("failed")? as u64;
        self.correct &= line.get("correct") == Some(&Value::Bool(true));
        let metrics =
            line.get("metrics").and_then(Value::as_obj).ok_or("result line lacks metrics")?;
        for (name, m) in metrics {
            let value =
                m.get("value").and_then(Value::as_f64).ok_or(format!("{name} has no value"))?;
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("").to_string();
            match self.metrics.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, v)) => v.push(value),
                None => self.metrics.push((name.clone(), unit, vec![value])),
            }
        }
        Ok(())
    }
}

/// A result file: where it was measured and every workload's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultSet {
    /// Host fingerprint as JSON.
    pub host: String,
    /// Seconds each run measured.
    pub seconds: u64,
    /// Seed of the first run.
    pub first_seed: u64,
    /// One entry per workload.
    pub workloads: Vec<WorkloadSamples>,
}

impl ResultSet {
    /// Serializes the result file.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"host\": {},\n  \"seconds\": {},\n  \"first_seed\": {},\n  \"workloads\": [",
            self.host, self.seconds, self.first_seed
        );
        for (i, w) in self.workloads.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"name\": {}, \"attempted\": {}, \"failed\": {}, \"correct\": {}, \"metrics\": {{",
                if i > 0 { "," } else { "" },
                json::quote(&w.name),
                w.attempted,
                w.failed,
                w.correct
            );
            for (j, (name, unit, values)) in w.metrics.iter().enumerate() {
                let vals: Vec<String> = values.iter().map(f64::to_string).collect();
                let _ = write!(
                    out,
                    "{}\n      {}: {{\"unit\": {}, \"values\": [{}]}}",
                    if j > 0 { "," } else { "" },
                    json::quote(name),
                    json::quote(unit),
                    vals.join(", ")
                );
            }
            out.push_str("\n    }}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a result file.
    ///
    /// # Errors
    ///
    /// When the text is not a result file.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let num =
            |k: &str| v.get(k).and_then(Value::as_f64).ok_or(format!("result file lacks {k}"));
        let mut workloads = Vec::new();
        for w in v.get("workloads").and_then(Value::as_arr).ok_or("result file lacks workloads")? {
            let name = w.get("name").and_then(Value::as_str).ok_or("workload without a name")?;
            let wnum =
                |k: &str| w.get(k).and_then(Value::as_f64).ok_or(format!("{name} lacks {k}"));
            let mut metrics = Vec::new();
            for (m, body) in
                w.get("metrics").and_then(Value::as_obj).ok_or("workload without metrics")?
            {
                let unit = body.get("unit").and_then(Value::as_str).unwrap_or("").to_string();
                let values = body
                    .get("values")
                    .and_then(Value::as_arr)
                    .ok_or(format!("{name}.{m} has no values"))?
                    .iter()
                    .map(|x| x.as_f64().ok_or(format!("{name}.{m}: not a number")))
                    .collect::<Result<Vec<f64>, String>>()?;
                if values.is_empty() {
                    return Err(format!("{name}.{m} has no values"));
                }
                metrics.push((m.clone(), unit, values));
            }
            workloads.push(WorkloadSamples {
                name: name.to_string(),
                attempted: wnum("attempted")? as u64,
                failed: wnum("failed")? as u64,
                correct: w.get("correct") == Some(&Value::Bool(true)),
                metrics,
            });
        }
        Ok(ResultSet {
            host: v.get("host").map_or("{}".into(), render),
            seconds: num("seconds")? as u64,
            first_seed: num("first_seed")? as u64,
            workloads,
        })
    }
}

fn render(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => n.to_string(),
        Value::Str(s) => json::quote(s),
        Value::Arr(items) => {
            format!("[{}]", items.iter().map(render).collect::<Vec<_>>().join(","))
        }
        Value::Obj(m) => format!(
            "{{{}}}",
            m.iter()
                .map(|(k, v)| format!("{}:{}", json::quote(k), render(v)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

/// Runs every workload `runs` times in child processes and returns the
/// samples. Progress goes to stderr.
///
/// # Errors
///
/// When a child cannot start, fails, or prints no result line.
pub fn run_suite(runs: usize, seconds: u64, first_seed: u64) -> Result<ResultSet, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut workloads: Vec<WorkloadSamples> = Kind::ALL
        .iter()
        .map(|k| WorkloadSamples { name: k.name().into(), correct: true, ..Default::default() })
        .collect();
    for run in 0..runs {
        let seed = first_seed + run as u64;
        for (kind, samples) in Kind::ALL.iter().zip(&mut workloads) {
            eprintln!("suite: run {}/{runs}, {} (seed {seed})", run + 1, kind.name());
            let out = Command::new(&exe)
                .args(["--workload", kind.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            if !out.status.success() {
                return Err(format!("{} exited with {}", kind.name(), out.status));
            }
            let last = stdout.lines().last().ok_or(format!("{} printed nothing", kind.name()))?;
            samples.absorb(&json::parse(last)?)?;
        }
    }
    Ok(ResultSet { host: Fingerprint::take().to_json(), seconds, first_seed, workloads })
}

/// A table of each end-to-end metric's median, min, max and spread, with
/// what the bound rule ([`derive_bound`]) makes of that spread.
/// `setup_s` is not held to the rule.
pub fn spread_table(set: &ResultSet) -> String {
    let mut out = String::from(
        "workload          metric        n    median         min         max   spread  bound rule\n",
    );
    for w in &set.workloads {
        for d in end_to_end() {
            let Some(v) = w.values(&d.name) else { continue };
            let (lo, hi) = min_max(v);
            let s = spread(v);
            let bound = d.bound.expect("end-to-end metrics have bounds");
            let rule = match derive_bound(bound, s, MAX_BOUND) {
                _ if d.name == "setup_s" => "-".to_string(),
                Ok(b) if b == bound => "holds".to_string(),
                Ok(b) => format!("raise to {b:.2}"),
                Err(_) => "needs longer runs".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<17} {:<12} {:>2} {:>10.4} {:>11.4} {:>11.4} {:>7.4}  {rule}",
                w.name,
                d.name,
                v.len(),
                median(v),
                lo,
                hi,
                s,
            );
        }
    }
    out
}

/// One line of a comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of A and of B.
    pub medians: (f64, f64),
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges result set `b` against baseline `a`, metric by metric, for
/// every workload both hold. Returns the rows and whether B passes: no
/// metric worse, and no workload failing a larger share of operations.
///
/// # Errors
///
/// When a workload of A is missing from B, or a metric from either.
pub fn compare(a: &ResultSet, b: &ResultSet) -> Result<(Vec<Row>, bool), String> {
    let defs: Vec<MetricDef> = end_to_end();
    let mut rows = Vec::new();
    let mut pass = true;
    for wa in &a.workloads {
        let wb = b
            .workloads
            .iter()
            .find(|w| w.name == wa.name)
            .ok_or(format!("B lacks workload {}", wa.name))?;
        let frac = |w: &WorkloadSamples| w.failed as f64 / w.attempted.max(1) as f64;
        if frac(wb) > frac(wa) {
            pass = false;
        }
        for d in &defs {
            let va = wa.values(&d.name).ok_or(format!("A lacks {}.{}", wa.name, d.name))?;
            let vb = wb.values(&d.name).ok_or(format!("B lacks {}.{}", wb.name, d.name))?;
            let v = verdict(va, vb, d.better, d.bound.expect("end-to-end metrics have bounds"));
            pass &= v != Verdict::Worse;
            rows.push(Row {
                workload: wa.name.clone(),
                metric: d.name.clone(),
                medians: (median(va), median(vb)),
                verdict: v,
            });
        }
    }
    Ok((rows, pass))
}

/// Reads a result file.
///
/// # Errors
///
/// When it cannot be read or parsed.
pub fn load(path: &Path) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    ResultSet::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(op_ms: &[f64], failed: u64) -> ResultSet {
        let mut w = WorkloadSamples {
            name: "paper-4cpu".into(),
            attempted: 100,
            failed,
            correct: failed == 0,
            metrics: vec![],
        };
        w.metrics.push(("setup_s".into(), "s".into(), vec![0.20, 0.21, 0.20]));
        w.metrics.push(("op_ms".into(), "ms".into(), op_ms.to_vec()));
        w.metrics.push(("peak_rss_mb".into(), "MB".into(), vec![40.0, 40.1, 40.0]));
        ResultSet { host: "{\"nproc\":2}".into(), seconds: 10, first_seed: 7, workloads: vec![w] }
    }

    #[test]
    fn result_files_round_trip() {
        let s = set(&[100.0, 101.5, 99.25], 0);
        assert_eq!(ResultSet::parse(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn compare_passes_unchanged_and_fails_worse_or_more_failures() {
        let a = set(&[100.0, 101.0, 100.5], 0);
        let (rows, pass) = compare(&a, &set(&[100.2, 100.8, 100.4], 0)).unwrap();
        assert!(pass);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Unchanged), "{rows:?}");
        let (rows, pass) = compare(&a, &set(&[130.0, 131.0, 129.0], 0)).unwrap();
        assert!(!pass);
        assert_eq!(rows.iter().find(|r| r.metric == "op_ms").unwrap().verdict, Verdict::Worse);
        let (_, pass) = compare(&a, &set(&[100.0, 101.0, 100.5], 1)).unwrap();
        assert!(!pass, "more failed operations fail the comparison");
    }
}
