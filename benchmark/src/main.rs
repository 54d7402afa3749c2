//! The `benchmark` command.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! benchmark suite --runs N [--seconds S] [--seed N] --out <file>
//! benchmark compare <baseline.json> <candidate.json>
//! ```
//!
//! A workload run prints its metrics one per line, then, as its last
//! line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics untraced, per-layer metrics traced).

use firefly_benchmark::host::{self, Fingerprint};
use firefly_benchmark::run::{run, RunConfig};
use firefly_benchmark::suite::{self, compare, run_suite, spread_table};
use firefly_benchmark::workloads::{Kind, Size, DEFAULT_SEED};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage:
  benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
  benchmark suite --runs N [--seconds S] [--seed N] --out <file>
  benchmark compare <baseline.json> <candidate.json>
workloads: paper-4cpu sharing-8cpu fleet-serving fleet-storm checkpoint paper-regen";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => cmd_compare(&args[1..]),
        Some("suite") => host::guard().and_then(|()| cmd_suite(&args[1..])),
        Some(_) => host::guard().and_then(|()| cmd_run(&args)),
        None => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs, each flag at most once, none unknown.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out: Vec<(&str, &str)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}\n{USAGE}"));
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        if out.iter().any(|(f, _)| f == flag) {
            return Err(format!("{flag} given twice"));
        }
        out.push((flag, value));
    }
    Ok(out)
}

fn flag<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(f, _)| *f == name).map(|(_, v)| *v)
}

fn number(flags: &[(&str, &str)], name: &str, default: u64) -> Result<u64, String> {
    flag(flags, name).map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("{name} wants a whole number, got {v:?}"))
    })
}

/// Where the traced pass writes its Chrome traces: a directory beside
/// the build output this executable lives in.
fn trace_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let target = exe.parent().and_then(Path::parent).ok_or("executable has no target directory")?;
    Ok(target.join("benchmark-traces"))
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let f = flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name = flag(&f, "--workload").ok_or(format!("--workload is required\n{USAGE}"))?;
    let kind = Kind::parse(name).ok_or(format!("unknown workload {name:?}\n{USAGE}"))?;
    let seconds = number(&f, "--seconds", 10)?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, got {seconds}"));
    }
    let trace = match flag(&f, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace wants 0 or 1, got {t:?}")),
    };
    let cfg = RunConfig {
        kind,
        seed: number(&f, "--seed", DEFAULT_SEED)?,
        budget: Duration::from_secs(seconds),
        trace,
        size: Size::Full,
        trace_dir: Some(trace_dir()?),
    };
    let host = Fingerprint::take();
    println!(
        "benchmark: {} seed {} for {seconds} s, {}",
        kind.name(),
        cfg.seed,
        if trace { "traced" } else { "untraced" }
    );
    println!("host: nproc {}, cpu {}, revision {}", host.nproc, host.cpu, host.rev);
    let result = run(&cfg)?;
    for note in &result.notes {
        println!("note: {note}");
    }
    println!("checks: {} attempted, {} failed", result.attempted, result.failed);
    for (d, v) in result.report.entries()? {
        println!("{} = {v} {}", d.name, d.unit);
    }
    println!("{}", result.json_line()?);
    Ok(true)
}

fn cmd_suite(args: &[String]) -> Result<bool, String> {
    let f = flags(args, &["--runs", "--seconds", "--seed", "--out"])?;
    let out = flag(&f, "--out").ok_or("--out is required")?;
    let runs = number(&f, "--runs", 3)? as usize;
    let set =
        run_suite(runs.max(1), number(&f, "--seconds", 10)?, number(&f, "--seed", DEFAULT_SEED)?)?;
    std::fs::write(out, set.to_json()).map_err(|e| format!("{out}: {e}"))?;
    print!("{}", spread_table(&set));
    println!("wrote {out}");
    Ok(set.workloads.iter().all(|w| w.correct && w.failed == 0))
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(format!("compare takes two result files\n{USAGE}"));
    };
    let (a, b) = (suite::load(Path::new(a))?, suite::load(Path::new(b))?);
    let (rows, pass) = compare(&a, &b)?;
    println!("{:<17} {:<12} {:>12} {:>12}  verdict", "workload", "metric", "A median", "B median");
    for r in &rows {
        println!(
            "{:<17} {:<12} {:>12.4} {:>12.4}  {}",
            r.workload,
            r.metric,
            r.medians.0,
            r.medians.1,
            r.verdict.as_str()
        );
    }
    println!(
        "{}",
        if pass { "pass" } else { "FAIL: a metric got worse or more operations failed" }
    );
    Ok(pass)
}
