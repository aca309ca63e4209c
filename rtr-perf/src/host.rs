//! Host facts and the host-noise probe.
//!
//! Small shared hosts switch between a fast and a slow mode for
//! identical work, in bursts of a tenth of a second or more. The probe
//! times a fixed arithmetic loop between passes, so every result shows
//! how much of its run fell into such bursts. Its reference is the run's
//! own fastest sample, so a run that is slow throughout reads as clean.

use std::hint::black_box;
use std::time::Instant;

use crate::report::Outcome;

/// Iterations of the probe loop (about 1 ms on a 3 GHz core).
const SPIN_ITERATIONS: u64 = 1 << 18;
/// Probe samples taken between passes.
const SAMPLES_PER_PROBE: usize = 50;
/// A sample slower than this multiple of the fastest counts as slow.
const SLOW_FACTOR: f64 = 1.3;
/// Above this share of slow samples the run is flagged as not valid.
const SLOW_SHARE_LIMIT: f64 = 0.2;

/// Hardware threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Accumulates probe samples over a run.
#[derive(Debug, Default)]
pub struct NoiseProbe {
    samples: Vec<f64>,
}

impl NoiseProbe {
    /// Times the probe loop [`SAMPLES_PER_PROBE`] times.
    pub fn sample(&mut self) {
        for _ in 0..SAMPLES_PER_PROBE {
            // Eight independent xorshift chains keep every ALU port busy,
            // so a sibling hyperthread's load shows as well as a slower clock.
            let start = Instant::now();
            let mut lanes = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
            for _ in 0..black_box(SPIN_ITERATIONS) {
                for x in &mut lanes {
                    *x ^= *x << 13;
                    *x ^= *x >> 7;
                    *x ^= *x << 17;
                }
            }
            black_box(lanes);
            self.samples.push(start.elapsed().as_secs_f64());
        }
    }

    /// Share of samples slower than [`SLOW_FACTOR`] × the fastest.
    pub fn slow_share(&self) -> f64 {
        let fastest = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        let slow = self
            .samples
            .iter()
            .filter(|&&s| s > SLOW_FACTOR * fastest)
            .count();
        crate::stats::ratio(slow as f64, self.samples.len() as f64)
    }
}

/// Prints the `run_valid` line every run carries and records the host
/// metrics of a traced run.
pub fn note(outcome: &mut Outcome, probe: &NoiseProbe) {
    let slow = probe.slow_share();
    let verdict = if slow > SLOW_SHARE_LIMIT {
        "false"
    } else {
        "true"
    };
    outcome.note(
        "run_valid",
        format!("{verdict} (host.slow_share {slow:.3}, limit {SLOW_SHARE_LIMIT})"),
    );
    if outcome.traced {
        outcome.set("host.nproc", nproc() as f64);
        outcome.set("host.slow_share", slow);
    }
}

/// `(key, value)` host identity for the ledger: thread count, CPU model
/// and compiler. Reads `/proc/cpuinfo` and runs `rustc -V`, so only the
/// ledger writer calls it.
pub fn identity() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("nproc", nproc().to_string()),
        ("cpu", cpu),
        ("rustc", rustc),
    ]
}
