//! The host under measurement: its fingerprint, memory high-water
//! marks, and the guards that refuse to measure a misconfigured build.

use std::path::Path;
use std::process::Command;

/// Refuses configurations whose numbers would mislead.
///
/// # Errors
///
/// * a debug build: host times would be those of unoptimized code;
/// * `FIREFLY_ENGINE` set: it silently swaps the engine of every machine
///   the benchmark builds.
pub fn guard() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".into());
    }
    if let Some(v) = std::env::var_os("FIREFLY_ENGINE") {
        return Err(format!("refusing to run with FIREFLY_ENGINE={v:?} set: it swaps engines"));
    }
    Ok(())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The CPU model from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The git revision of the working directory with `+dirty` when it has
/// uncommitted changes, or `none` outside a git checkout.
pub fn git_revision() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short=12", "HEAD"]) {
        Some(rev) if !rev.is_empty() => {
            let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{rev}+dirty")
            } else {
                rev
            }
        }
        _ => "none".into(),
    }
}

/// What every result records about where it was measured.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Logical CPUs.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Git revision, `+dirty` if modified, or `none`.
    pub rev: String,
}

impl Fingerprint {
    /// Fingerprints this host and working directory.
    pub fn take() -> Self {
        Fingerprint { nproc: nproc(), cpu: cpu_model(), rev: git_revision() }
    }

    /// As a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu\":{},\"rev\":{}}}",
            self.nproc,
            crate::json::quote(&self.cpu),
            crate::json::quote(&self.rev)
        )
    }
}

/// This process's resident-set high-water mark (`VmHWM`), in MB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    vm_hwm_kb(Path::new("/proc/self/status")).map(|kb| kb as f64 / 1024.0)
}

fn vm_hwm_kb(status: &Path) -> Result<u64, String> {
    let text = std::fs::read_to_string(status).map_err(|e| format!("{}: {e}", status.display()))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{}: no VmHWM", status.display()))
}

/// The largest resident-set high-water mark among this process's
/// waited-for children, in MB.
///
/// # Errors
///
/// When `getrusage` fails.
#[cfg(target_os = "linux")]
pub fn children_peak_rss_mb() -> Result<f64, String> {
    // `struct rusage` on Linux: two `struct timeval`s (two longs each)
    // followed by fourteen longs, the first of which is `ru_maxrss` in
    // kilobytes.
    #[repr(C)]
    struct Rusage {
        times: [libc_long; 4],
        maxrss: libc_long,
        rest: [libc_long; 13],
    }
    #[allow(non_camel_case_types)]
    type libc_long = std::ffi::c_long;
    const RUSAGE_CHILDREN: std::ffi::c_int = -1;
    extern "C" {
        fn getrusage(who: std::ffi::c_int, usage: *mut Rusage) -> std::ffi::c_int;
    }
    let mut usage = Rusage { times: [0; 4], maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // library's `struct rusage` on Linux (see above), and `getrusage`
    // writes only within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return Err(format!("getrusage failed: {}", std::io::Error::last_os_error()));
    }
    Ok(usage.maxrss as f64 / 1024.0)
}

/// Stand-in where children's usage is not available.
#[cfg(not(target_os = "linux"))]
pub fn children_peak_rss_mb() -> Result<f64, String> {
    Err("children's peak RSS is only measured on Linux".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_and_memory_are_readable() {
        let f = Fingerprint::take();
        assert!(f.nproc >= 1 && !f.cpu.is_empty() && !f.rev.is_empty());
        crate::json::parse(&f.to_json()).unwrap();
        assert!(peak_rss_mb().unwrap() > 1.0);
        let ran = Command::new("true").status().map(|s| s.success()).unwrap_or(false);
        if ran {
            assert!(children_peak_rss_mb().unwrap() > 0.0);
        }
    }
}
