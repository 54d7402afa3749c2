//! CI guard for `--trace` output: reads a Chrome trace-event JSON file
//! and verifies it is well-formed and non-trivial.
//!
//! Usage: `trace_check <file>`. Exits 0 when the file parses as JSON
//! and contains a non-empty `traceEvents` array; prints the failure and
//! exits 1 otherwise. The validator is the simulator's own
//! ([`firefly_core::events::validate_json`]), so the check needs no
//! external JSON tooling.

#![deny(unsafe_code)]

use std::process::ExitCode;

fn check(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    firefly_core::events::validate_json(&text).map_err(|e| format!("{path}: {e}"))?;
    if !text.contains("\"traceEvents\"") {
        return Err(format!("{path}: no \"traceEvents\" key"));
    }
    // A trace of a real run is never empty: count the event objects by
    // their mandatory "ph" (phase) keys.
    let events = text.matches("\"ph\":").count();
    if events == 0 {
        return Err(format!("{path}: traceEvents is empty"));
    }
    Ok(events)
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: trace_check <chrome-trace.json>");
        return ExitCode::FAILURE;
    };
    match check(&path) {
        Ok(events) => {
            println!("{path}: valid Chrome trace with {events} event(s)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace_check: {e}");
            ExitCode::FAILURE
        }
    }
}
