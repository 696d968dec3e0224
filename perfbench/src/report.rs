//! Statistics, `/proc` readers, the run fingerprint and the result line.

use std::fmt::Write as _;
use std::path::Path;

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Mean of the middle half of `values` (the interquartile mean; 0 when
/// empty): it drops the quarter of the values a slow or a lucky stretch
/// of the machine pushed to either end, and averages the rest, so it
/// moves less from run to run than the median of a few values does.
pub fn mid_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Nearest-rank percentile `q ∈ (0, 1]` (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method); needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let m = d.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, d.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        d[j - 1] + (d[j] - d[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// utime + stime of a process, in seconds.
pub fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) are the 12th and 13th after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// A `kB` field of `/proc/<pid>/status`, in KiB.
fn status_kib(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn rss_peak_mib(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status_kib(&status, "VmHWM:") as f64 / 1024.0
}

/// Involuntary context switches summed over every live thread.
pub fn involuntary_switches(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .map(|t| {
            let status = std::fs::read_to_string(t.path().join("status")).unwrap_or_default();
            status_kib(&status, "nonvoluntary_ctxt_switches:")
        })
        .sum()
}

/// Filesystem type of the mount holding `path` (from
/// `/proc/self/mountinfo`; the longest matching mount point wins).
pub fn filesystem_type(path: &Path) -> String {
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best = (0usize, "unknown".to_string());
    for line in info.lines() {
        let Some((pre, post)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount) = pre.split_whitespace().nth(4) else {
            continue;
        };
        let fstype = post.split_whitespace().next().unwrap_or("unknown");
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fstype.to_string());
        }
    }
    best.1
}

/// Commit of the checkout when it is a git work tree ("unknown" for an
/// exported source tree), read without running git.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                let packed = std::fs::read_to_string(git.join("packed-refs"))?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
                    .ok_or(std::io::Error::other("ref not packed"))
            })
            .unwrap_or_else(|_| "unknown".to_string()),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, m)| m.trim().to_string())
}

/// Jiffies of the whole machine from the `cpu` line of `/proc/stat`:
/// (steal, total).  Steal is time the hypervisor gave this machine's
/// virtual CPUs to someone else while they had work.
pub fn steal_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// CPUs available to this process before it pinned itself.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The machine and build a result was taken on, as one JSON object.
pub fn fingerprint(root: &Path, pool_threads: usize, pinned: bool, work_dir: &Path) -> String {
    let nproc = nproc();
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"git_rev\":\"{}\",\"simd\":{},\
         \"pool_threads\":{pool_threads},\"generator_threads\":2,\"pinned\":{pinned},\"persist_fs\":\"{}\"}}",
        cpu_model().replace('"', "'"),
        git_rev(root),
        cfg!(feature = "simd"),
        filesystem_type(work_dir),
    )
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("write to String");
    }
    out.push_str("}}");
    out
}

/// `(name, value, unit)` of each metric in a result line.
pub type ParsedMetrics = Vec<(String, f64, String)>;

/// Reads back the metric values of a [`result_line`] (the self-check
/// mode's parser; it only has to understand what this program prints).
pub fn parse_result_line(line: &str) -> Option<(bool, ParsedMetrics)> {
    let correct = line.contains("\"correct\": true");
    let metrics = line.split_once("\"metrics\": {")?.1;
    let mut out = Vec::new();
    for part in metrics.split("}, ") {
        let (name, rest) = part.split_once(": {\"value\": ")?;
        let (value, unit) = rest.split_once(", \"unit\": ")?;
        let unit = unit.trim_end_matches('}').trim_matches('"');
        out.push((
            name.trim().trim_matches('"').to_string(),
            value.parse().ok()?,
            unit.to_string(),
        ));
    }
    Some((correct, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn mid_mean_averages_the_middle_half() {
        assert_eq!(mid_mean(&[]), 0.0);
        assert_eq!(mid_mean(&[3.0]), 3.0);
        // 8 values: the two lowest and two highest are dropped.
        assert_eq!(mid_mean(&[9.0, 1.0, 4.0, 5.0, 100.0, 6.0, 0.0, 3.0]), 4.5);
        // 7 values: one dropped at each end.
        assert_eq!(mid_mean(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 70.0]), 4.0);
    }

    #[test]
    fn result_line_round_trips() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric {
                    name: "a",
                    unit: "ms",
                    value: 1.5,
                },
                Metric {
                    name: "b.c",
                    unit: "actions/s",
                    value: 2e5,
                },
            ],
        );
        let (correct, metrics) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!(metrics[0], ("a".into(), 1.5, "ms".into()));
        assert_eq!(metrics[1], ("b.c".into(), 2e5, "actions/s".into()));
    }
}
