//! Summary statistics, the counter digest, and process memory.

use bgp_core::dump::NodeDump;
use bgp_core::WHOLE_PROGRAM_SET;

/// Median of `xs` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile of `xs` by linear interpolation between the
/// closest ranks; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (v.len() - 1) as f64 * p / 100.0;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Percentiles a timing may be reported at, lowest first.
pub const REPORTABLE: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest of [`REPORTABLE`] that has at least ten of `n` samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // n·(100 − p)/100 ≥ 10, with slack for 100 − 99.9 not being exact.
    REPORTABLE
        .iter()
        .rev()
        .copied()
        .find(|&p| n as f64 * (100.0 - p) >= 1000.0 - 1e-6)
}

/// Identity digest of a job's simulated outcome: every node's decoded
/// whole-program counter values (with its node id and counter mode),
/// then `job_cycles` and `phases`. Decoded values, not dump bytes, so a
/// change of the dump encoding alone keeps the digest.
pub fn digest(dumps: &[NodeDump], job_cycles: u64, phases: u64) -> Result<u64, String> {
    let mut bytes = Vec::with_capacity(dumps.len() * 2100 + 16);
    let mut nodes: Vec<&NodeDump> = dumps.iter().collect();
    nodes.sort_by_key(|d| d.node);
    for d in nodes {
        let set = d
            .set(WHOLE_PROGRAM_SET)
            .ok_or_else(|| format!("node {} has no whole-program set", d.node))?;
        bytes.extend_from_slice(&d.node.to_le_bytes());
        bytes.push(d.mode.index() as u8);
        bytes.extend_from_slice(&set.records.to_le_bytes());
        for c in set.counts.iter() {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
    }
    bytes.extend_from_slice(&job_cycles.to_le_bytes());
    bytes.extend_from_slice(&phases.to_le_bytes());
    Ok(bgp_arch::wire::checksum(&bytes))
}

/// CPU time the process has used so far (user plus system, all
/// threads), in seconds; 0 where `/proc/self/stat` is unavailable.
pub fn cpu_seconds() -> f64 {
    // Fields after the parenthesised command name: state is the first,
    // utime and stime the 12th and 13th, in USER_HZ (100/s) ticks.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// The process's peak resident set (`VmHWM`) in MB (10^6 bytes); 0
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 91.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
