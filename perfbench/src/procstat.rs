//! Process CPU time and peak resident set size, read from `/proc`.

/// Kernel ticks per second of the `/proc/<pid>/stat` time fields. Linux
/// exports them in `USER_HZ`, which is 100 on every mainstream
/// architecture.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by process `pid` (all its
/// threads, including ones that have exited). `"self"` names this process.
pub fn cpu_seconds(pid: &str) -> std::io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_stat_cpu(&stat).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unparsable /proc/{pid}/stat"),
        )
    })
}

/// `utime + stime` from a `/proc/<pid>/stat` line, in seconds. The command
/// name (field 2) may contain spaces, so fields are counted from the
/// closing parenthesis.
fn parse_stat_cpu(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the command name: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size (`VmHWM`) of process `pid` in MiB.
pub fn peak_rss_mib(pid: &str) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no VmHWM line"))
}

/// Reset process `pid`'s `VmHWM` to its current resident set size, so the
/// next reading is the peak of what follows.
pub fn reset_peak_rss(pid: &str) -> std::io::Result<()> {
    std::fs::write(format!("/proc/{pid}/clear_refs"), "5")
}

/// `(steal, total)` CPU ticks of the host's `cpu` line in `/proc/stat` so
/// far: the ticks the hypervisor stole from this virtual machine, and all
/// ticks. `(0, 0)` where unreadable.
pub fn host_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal ...
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_are_counted_past_the_command_name() {
        let line = "4242 (a (weird) name) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 75 0 0 20 0 3 0";
        assert_eq!(parse_stat_cpu(line), Some(3.25));
    }

    #[test]
    fn own_process_is_readable() {
        assert!(cpu_seconds("self").expect("stat") >= 0.0);
        assert!(peak_rss_mib("self").expect("status") > 0.0);
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let before = peak_rss_mib("self").expect("status");
        reset_peak_rss("self").expect("clear_refs");
        assert!(
            peak_rss_mib("self").expect("status") < before,
            "VmHWM was not reset"
        );
    }
}
