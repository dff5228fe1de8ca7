//! This process's own CPU time and memory, from `/proc/self`.
//!
//! `/proc/self/stat`, not `/proc/stat`: the sandbox is shared, and another
//! tenant's CPU time must not leak into the modelled joules.

use std::sync::Mutex;
use std::time::Instant;

/// Linux reports process times in `USER_HZ` ticks, which is 100 on every
/// supported architecture regardless of the kernel's own tick rate.
const TICKS_PER_SEC: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name may itself hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command name: state(3) … utime(14) stime(15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_status_peak_rss_kib(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// CPU seconds this process has used so far (all threads); 0 off Linux.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat_cpu_ticks(&t))
        .map_or(0.0, |ticks| ticks as f64 / TICKS_PER_SEC)
}

/// Peak resident set in MiB; 0 off Linux.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_status_peak_rss_kib(&t))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Share of the machine's CPU capacity this process used since the last
/// call, in `[0, 1]`: Δ(process CPU time) / (Δwall × nproc).
pub struct CpuShare {
    last: Mutex<(Instant, f64)>,
    cores: f64,
}

impl CpuShare {
    pub fn new() -> CpuShare {
        CpuShare {
            last: Mutex::new((Instant::now(), cpu_seconds())),
            cores: nproc() as f64,
        }
    }

    pub fn since_last(&self) -> f64 {
        let now = (Instant::now(), cpu_seconds());
        let mut last = self
            .last
            .lock()
            .expect("only assignments happen under this lock");
        let wall = now.0.duration_since(last.0).as_secs_f64();
        let share = if wall > 0.0 {
            (now.1 - last.1) / (wall * self.cores)
        } else {
            0.0
        };
        *last = now;
        share.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        // A command name with spaces and a ')' in it, as the kernel allows.
        let text = "4242 (perf ledger) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    1234 66 0 0 20 0 9 0 100 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(text), Some(1234 + 66));
        assert_eq!(parse_stat_cpu_ticks("no paren"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_peak_rss() {
        let text = "Name:\tx\nVmPeak:\t  99 kB\nVmHWM:\t  20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_status_peak_rss_kib(text), Some(20480));
        assert_eq!(parse_status_peak_rss_kib("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        let share = CpuShare::new();
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let s = share.since_last();
        assert!((0.0..=1.0).contains(&s));
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
