//! Process CPU time and peak resident set from `/proc/self`, standard
//! library only. A missing or malformed file is a [`ProcError`] naming
//! the file and the problem; nothing here panics on its contents.

use std::fmt;

const STAT: &str = "/proc/self/stat";
const STATUS: &str = "/proc/self/status";

/// Clock ticks per second of the `utime`/`stime` fields. Linux fixes
/// `USER_HZ` at 100 in the `/proc` interface on every architecture it
/// exports it for, independent of the kernel's internal tick rate.
const USER_HZ: f64 = 100.0;

/// Why a `/proc` read failed.
#[derive(Debug)]
pub enum ProcError {
    /// The file could not be read at all.
    Unreadable {
        path: &'static str,
        source: std::io::Error,
    },
    /// The file was read but did not hold what was expected.
    Malformed { path: &'static str, what: String },
}

impl fmt::Display for ProcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcError::Unreadable { path, source } => write!(f, "cannot read {path}: {source}"),
            ProcError::Malformed { path, what } => write!(f, "malformed {path}: {what}"),
        }
    }
}

impl std::error::Error for ProcError {}

fn read(path: &'static str) -> Result<String, ProcError> {
    std::fs::read_to_string(path).map_err(|source| ProcError::Unreadable { path, source })
}

/// User plus system CPU seconds of this process, all threads included
/// (threads that already exited too).
pub fn cpu_seconds() -> Result<f64, ProcError> {
    parse_cpu_seconds(&read(STAT)?).map_err(|what| ProcError::Malformed { path: STAT, what })
}

/// Peak resident set (`VmHWM`) of this process in kilobytes.
pub fn peak_rss_kb() -> Result<u64, ProcError> {
    parse_vm_hwm_kb(&read(STATUS)?).map_err(|what| ProcError::Malformed { path: STATUS, what })
}

/// `utime + stime` from the text of `/proc/<pid>/stat`, in seconds.
/// The command name (field 2) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the last `)`.
fn parse_cpu_seconds(stat: &str) -> Result<f64, String> {
    let close = stat
        .rfind(')')
        .ok_or_else(|| "no ')' closing the command name".to_string())?;
    // After the command name come field 3 (state) onward; utime and stime
    // are fields 14 and 15.
    let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
    let tick = |field: usize| -> Result<u64, String> {
        let raw = fields
            .get(field - 3)
            .ok_or_else(|| format!("only {} fields after the command name", fields.len()))?;
        raw.parse::<u64>()
            .map_err(|_| format!("field {field} is not a tick count: {raw:?}"))
    };
    let ticks = tick(14)?
        .checked_add(tick(15)?)
        .ok_or_else(|| "utime + stime overflows".to_string())?;
    Ok(ticks as f64 / USER_HZ)
}

/// The `VmHWM:` value from the text of `/proc/<pid>/status`, in kB.
fn parse_vm_hwm_kb(status: &str) -> Result<u64, String> {
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or_else(|| "no VmHWM line".to_string())?;
    let value = line
        .trim()
        .strip_suffix("kB")
        .ok_or_else(|| format!("VmHWM is not in kB: {:?}", line.trim()))?;
    value
        .trim()
        .parse::<u64>()
        .map_err(|_| format!("VmHWM is not a number: {:?}", value.trim()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_are_counted_after_the_command_name() {
        let stat = "4242 (a (weird) name) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0";
        assert_eq!(parse_cpu_seconds(stat), Ok(3.0));
    }

    #[test]
    fn malformed_stat_is_an_error_not_a_panic() {
        for bad in [
            "",
            "12 comm R 1",
            "1 (x) R 1 2",
            "1 (x) R 1 2 3 4 5 6 7 8 9 10 ab 5",
        ] {
            assert!(parse_cpu_seconds(bad).is_err(), "{bad:?}");
        }
        let huge = format!("1 (x) R 1 2 3 4 5 6 7 8 9 10 {} 1", u64::MAX);
        assert!(parse_cpu_seconds(&huge).is_err());
    }

    #[test]
    fn vm_hwm_parses_and_rejects_garbage() {
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmHWM:\t  12345 kB\n"), Ok(12345));
        for bad in ["", "VmRSS: 1 kB", "VmHWM: 12 MB", "VmHWM: x kB", "VmHWM:"] {
            assert!(parse_vm_hwm_kb(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn live_reads_work_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(cpu_seconds().expect("stat") >= 0.0);
            assert!(peak_rss_kb().expect("status") > 0);
        }
    }

    #[test]
    fn errors_name_the_file() {
        let e = ProcError::Malformed {
            path: STATUS,
            what: "no VmHWM line".into(),
        };
        assert_eq!(e.to_string(), "malformed /proc/self/status: no VmHWM line");
    }
}
