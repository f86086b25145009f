//! Process and thread resource counters read from `/proc`.
//!
//! The parsers take the file's text so they can be tested on canned
//! input; the readers return `None` where `/proc` is not mounted (the
//! harness then refuses to report CPU or memory numbers rather than
//! inventing them).

use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Fixed at
/// 100 on every Linux ABI (the kernel scales its internal tick to it).
const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds (user + system, all threads) from `/proc/<pid>/stat` text.
/// The command name sits in parentheses and may itself contain spaces and
/// parentheses, so fields are counted from the **last** `)`.
pub fn parse_stat_cpu_secs(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // After the comm come state(3) ppid(4) … utime(14) stime(15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// A `Key:   <number> [kB]` field of `/proc/<pid>/status` text.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_ascii_whitespace().next()?.parse().ok())
}

/// On-CPU nanoseconds from `/proc/<pid>/task/<tid>/schedstat` text
/// (`<run ns> <runqueue wait ns> <timeslices>`).
pub fn parse_schedstat_run_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// CPU seconds consumed by the whole process so far.
pub fn process_cpu_secs() -> Option<f64> {
    parse_stat_cpu_secs(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set of the process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let kb = parse_status_field(&fs::read_to_string("/proc/self/status").ok()?, "VmHWM")?;
    Some(kb as f64 / 1024.0)
}

/// Voluntary context switches of the **calling thread** so far.
pub fn thread_voluntary_switches() -> Option<u64> {
    parse_status_field(
        &fs::read_to_string("/proc/thread-self/status").ok()?,
        "voluntary_ctxt_switches",
    )
}

/// On-CPU nanoseconds of the **calling thread** so far.
pub fn thread_cpu_ns() -> Option<u64> {
    parse_schedstat_run_ns(&fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_a_hostile_command_name() {
        // comm = "a) b (c" — spaces and parentheses inside the parens.
        let stat = "4242 (a) b (c) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    731 269 0 0 20 0 3 0 8812345 1234567 890 18446744073709551615";
        assert_eq!(parse_stat_cpu_secs(stat), Some(10.0));
        assert_eq!(parse_stat_cpu_secs("no parens here"), None);
        assert_eq!(parse_stat_cpu_secs("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_by_exact_key() {
        let status = "Name:\tscorecard\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\n\
                      VmRSS:\t   10000 kB\nvoluntary_ctxt_switches:\t77\n\
                      nonvoluntary_ctxt_switches:\t5\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(20480));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(77)
        );
        assert_eq!(parse_status_field(status, "VmSwap"), None);
        // A key that is only a prefix of a longer one must not match it.
        assert_eq!(parse_status_field(status, "Vm"), None);
    }

    #[test]
    fn schedstat_first_field_is_run_time() {
        assert_eq!(
            parse_schedstat_run_ns("123456789 4242 17\n"),
            Some(123456789)
        );
        assert_eq!(parse_schedstat_run_ns(""), None);
    }
}
