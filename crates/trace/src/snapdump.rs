//! Human-readable dump of binary machine snapshots.
//!
//! Snapshots (see `firefly_core::snapshot`) are an opaque binary format
//! by design — versioned, checksummed, dependency-free. When a resume
//! diverges or a soak run flags a checkpoint, the first debugging
//! question is "what is *in* this file?"; this module answers it with a
//! text form: the container header, each section's name and size, and a
//! bounded hex preview of each payload.

use firefly_core::snapshot::{SnapshotFile, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use firefly_core::Error;
use std::fmt::Write as _;

/// Bytes of payload shown per section in the hex preview.
const PREVIEW_BYTES: usize = 16;

/// Renders a snapshot image as text: header, section table, and a short
/// hex preview of each payload. A section holding a nested image (a
/// machine's `memsys`) also lists that image's sections, indented
/// under it.
///
/// The output is stable for a given image (no timestamps, no
/// addresses), so two dumps can be diffed to localize which section of
/// two snapshots differs.
///
/// # Errors
///
/// Returns the [`SnapshotFile::parse`] error — [`Error::SnapshotCorrupt`]
/// or [`Error::SnapshotVersion`] — when the image is not a valid
/// snapshot.
///
/// # Examples
///
/// ```
/// use firefly_core::system::MemSystem;
/// use firefly_core::{ProtocolKind, SystemConfig};
///
/// let sys = MemSystem::new(SystemConfig::microvax(2), ProtocolKind::Firefly).unwrap();
/// let text = firefly_trace::snapdump::dump_snapshot(&sys.save_snapshot()).unwrap();
/// assert!(text.contains("section config"));
/// assert!(text.contains("section memory"));
/// ```
pub fn dump_snapshot(bytes: &[u8]) -> Result<String, Error> {
    let file = SnapshotFile::parse(bytes)?;
    let mut out = String::new();
    let magic = String::from_utf8_lossy(&SNAPSHOT_MAGIC).into_owned();
    let _ = writeln!(out, "snapshot {magic} v{SNAPSHOT_VERSION}: {} bytes", bytes.len());
    dump_sections(&mut out, &file, "");
    Ok(out)
}

/// Appends `file`'s section table, each line after `indent`.
fn dump_sections(out: &mut String, file: &SnapshotFile<'_>, indent: &str) {
    for (name, len) in file.sections() {
        let _ = writeln!(out, "{indent}section {name}: {len} bytes");
        if let Ok(mut r) = file.section(name) {
            let shown = len.min(PREVIEW_BYTES);
            let mut hex = String::with_capacity(shown * 3);
            for _ in 0..shown {
                let b = r.u8().expect("preview within section length");
                let _ = write!(hex, "{b:02x} ");
            }
            let ellipsis = if len > shown { "…" } else { "" };
            let _ = writeln!(out, "{indent}  {}{ellipsis}", hex.trim_end());
        }
        if let Ok(inner) = file.nested(name) {
            dump_sections(out, &inner, &format!("{indent}    "));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firefly_core::system::{MemSystem, Request};
    use firefly_core::{Addr, PortId, ProtocolKind, SystemConfig};

    fn snapshot_bytes() -> Vec<u8> {
        let mut sys =
            MemSystem::new(SystemConfig::microvax(2), ProtocolKind::Firefly).expect("config");
        sys.run_to_completion(PortId::new(0), Request::write(Addr::new(0x40), 7)).unwrap();
        sys.save_snapshot()
    }

    #[test]
    fn dump_names_every_section() {
        let text = dump_snapshot(&snapshot_bytes()).expect("dump");
        for section in ["config", "system", "ports", "bus", "memory", "faults", "events"] {
            assert!(text.contains(&format!("section {section}")), "missing {section}:\n{text}");
        }
        assert!(text.starts_with(&format!("snapshot FFSN v{SNAPSHOT_VERSION}")));
    }

    #[test]
    fn dump_is_deterministic_and_rejects_garbage() {
        let bytes = snapshot_bytes();
        assert_eq!(dump_snapshot(&bytes).unwrap(), dump_snapshot(&bytes).unwrap());
        assert!(dump_snapshot(b"not a snapshot").is_err());
    }
}
