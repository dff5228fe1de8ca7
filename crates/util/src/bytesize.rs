//! Human-readable byte sizes for reports.

/// Format a byte count with binary-ish decimal units (KB = 1000 B style is
/// avoided; we use IEC multiples but the familiar suffixes the paper uses:
/// "10 GB subset", "0.1 MB/sample").
pub fn format_bytes(bytes: u64) -> String {
    const UNITS: [&str; 6] = ["B", "KiB", "MiB", "GiB", "TiB", "PiB"];
    if bytes < 1024 {
        return format!("{} B", bytes);
    }
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if value >= 100.0 {
        format!("{:.0} {}", value, UNITS[unit])
    } else if value >= 10.0 {
        format!("{:.1} {}", value, UNITS[unit])
    } else {
        format!("{:.2} {}", value, UNITS[unit])
    }
}

/// Megabytes (MiB) → bytes, for the paper's per-sample sizes.
pub const fn mib(n: u64) -> u64 {
    n << 20
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(format_bytes(0), "0 B");
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.00 KiB");
        assert_eq!(format_bytes(10 * 1024 * 1024), "10.0 MiB");
        assert_eq!(format_bytes(10 << 30), "10.0 GiB");
        assert!(format_bytes(u64::MAX).contains("PiB"));
    }
}
