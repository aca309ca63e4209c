//! Order statistics, the output digest, and the run's time budget.

use std::time::{Duration, Instant};

/// Nearest-rank quantile `q ∈ [0, 1]` of `values` (sorted in place).
/// Returns 0 for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values` (sorted in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `numerator / denominator`, or 0 when the denominator is not positive.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// A metric summarised over the passes of one run: the reported median
/// and the range it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Median over the samples.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Spread {
    /// Summarises `samples` (reordered in place).
    pub fn of(samples: &mut [f64]) -> Spread {
        let median = median(samples);
        Spread {
            median,
            min: samples.first().copied().unwrap_or(0.0),
            max: samples.last().copied().unwrap_or(0.0),
        }
    }
}

/// FNV-1a over a byte stream: the `output_digest` every workload prints,
/// so a change that claims to be performance-only can show that its
/// outputs stayed byte-identical.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn feed(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Wall-clock budget for the measured passes of one run: a pass starts
/// while time is left, and the first pass always runs, so a run measures
/// at least its budget and at most one pass longer.
#[derive(Debug)]
pub struct Budget {
    start: Instant,
    limit: Duration,
    passes: usize,
}

impl Budget {
    /// A budget of `seconds` starting now.
    pub fn new(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            limit: Duration::from_secs_f64(seconds),
            passes: 0,
        }
    }

    /// Whether another pass starts; call once before each pass.
    pub fn next_pass(&mut self) -> bool {
        let go = self.passes == 0 || self.start.elapsed() < self.limit;
        self.passes += usize::from(go);
        go
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(quantile(&mut v, 0.99), 5.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn budget_always_runs_one_pass() {
        let mut budget = Budget::new(0.0);
        assert!(budget.next_pass());
        assert!(!budget.next_pass());
    }
}
