//! Process figures read from `/proc`: peak resident set and CPU time.

use std::fs;

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is
/// 100 on every mainstream architecture.
const TICKS_PER_SEC: f64 = 100.0;

/// Peak resident set size (`VmHWM`) of `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time of `pid` so far, in seconds.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        let me = std::process::id();
        assert!(peak_rss_mib(me).unwrap() > 0.0);
        assert!(cpu_seconds(me).is_some());
        assert!(peak_rss_mib(u32::MAX).is_none());
    }
}
