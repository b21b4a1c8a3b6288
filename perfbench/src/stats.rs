//! Sample summaries and the pass/fail ledger every workload keeps.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of `xs`, `pm` in per-mille (`500` = median).
pub fn percentile(xs: &[f64], pm: usize) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), pm).max(1) - 1]
}

/// 1-based nearest rank of per-mille `pm` among `n` samples.
fn rank(n: usize, pm: usize) -> usize {
    (pm * n).div_ceil(1000)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 500)
}

/// A repeated operation made of fixed parts, at median speed: the sum
/// over parts of each part's median across the repeats (`repeats[r][part]`).
/// A burst of interference slows a few parts of one repeat and moves this
/// less than it moves the repeat's total.
pub fn median_of_parts(repeats: &[Vec<f64>]) -> f64 {
    let parts = repeats[0].len();
    assert!(repeats.iter().all(|r| r.len() == parts), "ragged repeats");
    (0..parts)
        .map(|i| median(&repeats.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .sum()
}

/// The highest of p99.9, p99 and p90 with at least ten samples beyond
/// it, as `(label, value)`; `None` when there are too few samples.
pub fn tail(xs: &[f64]) -> Option<(&'static str, f64)> {
    [("p99.9", 999), ("p99", 990), ("p90", 900)]
        .into_iter()
        .find(|&(_, pm)| xs.len() - rank(xs.len(), pm) >= 10)
        .map(|(label, pm)| (label, percentile(xs, pm)))
}

/// Operations attempted and failed: a failed operation is an `Err`, a
/// wrong result or a failed check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ledger {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
}

impl Ledger {
    /// Count one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Fold another ledger into this one.
    pub fn merge(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Run `op` until `budget` has passed, and at least `min` (≥ 1) times.
pub fn repeat_for(budget: Duration, min: usize, mut op: impl FnMut()) {
    let t0 = Instant::now();
    op();
    let mut n = 1;
    while n < min || t0.elapsed() < budget {
        op();
        n += 1;
    }
}

/// Peak resident memory of this process so far (`VmHWM`), MiB; NaN, with
/// the reason on stderr, where the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        });
    match kib {
        Some(kib) => kib / 1024.0,
        None => {
            eprintln!("perfbench: no VmHWM in /proc/self/status");
            f64::NAN
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 900), 90.0);
        assert_eq!(percentile(&xs, 1000), 100.0);
        assert_eq!(percentile(&xs, 0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn median_of_parts_takes_each_part_at_its_median() {
        let repeats = vec![vec![1.0, 10.0], vec![9.0, 20.0], vec![2.0, 30.0]];
        assert_eq!(median_of_parts(&repeats), 2.0 + 20.0);
        assert_eq!(median_of_parts(&[vec![4.0, 5.0]]), 9.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 50]), None);
        assert_eq!(tail(&vec![1.0; 100]).map(|t| t.0), Some("p90"));
        assert_eq!(tail(&vec![1.0; 1000]).map(|t| t.0), Some("p99"));
        assert_eq!(tail(&vec![1.0; 10_000]).map(|t| t.0), Some("p99.9"));
    }
}
