//! `16.bo` — Bayesian optimization of control parameters.
//!
//! "In robotics, Bayesian optimization (BO) is used to optimize control
//! parameters in reinforcement learning. BO is data-efficient and
//! gradient-free. ... We use an upper confidence bound (UCB) acquisition
//! function. Training and testing are done using a Gaussian process"
//! (§V.16, Fig. 19: reward over 45 learning iterations). Compared with
//! CEM the kernel is far more compute-intensive (GP refits plus dense
//! candidate scoring each iteration) and keeps more per-candidate
//! metadata, making its sort "~6× as compared to cem" — the `sort` region
//! isolates it.

use rtr_harness::Profiler;
use rtr_linalg::Workspace;
use rtr_sim::{SimRng, ThrowParams, ThrowSim};
use rtr_trace::MemTrace;

/// Synthetic address regions for the traced learner: the normalized
/// training set (24 bytes per point), the GP's lower-triangular factor
/// (row-major, 8 bytes per entry), and the per-candidate metadata rows
/// (point, μ, σ², UCB — 32 bytes).
const XS_REGION: u64 = 0;
const K_REGION: u64 = 1 << 24;
const CAND_REGION: u64 = 1 << 34;

use crate::GaussianProcess;

/// Configuration for [`BayesOpt`].
#[derive(Debug, Clone, Copy)]
pub struct BoConfig {
    /// Learning iterations after seeding (the paper's Fig. 19 uses 45).
    pub iterations: usize,
    /// Random evaluations used to seed the GP.
    pub seed_points: usize,
    /// Candidate points scored by the acquisition per iteration.
    pub candidates: usize,
    /// UCB exploration coefficient κ (`μ + κ·σ`).
    pub kappa: f64,
    /// GP RBF length scale.
    pub length_scale: f64,
    /// GP observation-noise/jitter term.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BoConfig {
    fn default() -> Self {
        BoConfig {
            iterations: 45,
            seed_points: 5,
            candidates: 500,
            kappa: 2.0,
            length_scale: 0.8,
            noise: 1e-4,
            seed: 0,
        }
    }
}

/// Result of a BO run.
#[derive(Debug, Clone)]
pub struct BoResult {
    /// Best parameters found.
    pub best_params: ThrowParams,
    /// Best reward found.
    pub best_reward: f64,
    /// Reward of each evaluation in order (seed points first) — the
    /// paper's Fig. 19 series.
    pub reward_trace: Vec<f64>,
    /// Total reward evaluations (seed + iterations).
    pub evaluations: u64,
    /// Total candidate acquisitions scored (the "more iterations"
    /// compute-intensity signal vs CEM).
    pub candidates_scored: u64,
}

/// The Bayesian-optimization kernel.
///
/// # Example
///
/// ```
/// use rtr_control::{BayesOpt, BoConfig};
/// use rtr_sim::ThrowSim;
/// use rtr_harness::Profiler;
///
/// let sim = ThrowSim::new(2.0);
/// let mut profiler = Profiler::new();
/// let config = BoConfig { iterations: 10, ..Default::default() };
/// let result = BayesOpt::new(config).learn(&sim, &mut profiler, &mut rtr_trace::NullTrace);
/// assert!(result.best_reward > -2.0);
/// ```
#[derive(Debug, Clone)]
pub struct BayesOpt {
    config: BoConfig,
}

/// Parameter-space bounds: shoulder, elbow, speed.
const LO: [f64; 3] = [-0.5, -1.5, 0.5];
const HI: [f64; 3] = [1.5, 1.5, 10.0];

fn to_params(x: &[f64; 3]) -> ThrowParams {
    ThrowParams {
        shoulder: x[0],
        elbow: x[1],
        speed: x[2],
    }
}

/// Normalizes a point into the unit cube for GP conditioning.
fn normalize(x: &[f64; 3]) -> Vec<f64> {
    let mut out = [0.0; 3];
    normalize_into(x, &mut out);
    out.to_vec()
}

/// Allocation-free [`normalize`]: writes the unit-cube coordinates into a
/// caller-owned stack buffer (the acquisition loop normalizes hundreds of
/// candidates per iteration).
fn normalize_into(x: &[f64; 3], out: &mut [f64; 3]) {
    for d in 0..3 {
        out[d] = (x[d] - LO[d]) / (HI[d] - LO[d]);
    }
}

impl BayesOpt {
    /// Creates the kernel.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is degenerate.
    pub fn new(config: BoConfig) -> Self {
        assert!(config.iterations > 0, "need at least one iteration");
        assert!(config.seed_points >= 2, "need at least two seed points");
        assert!(config.candidates > 0, "need candidates to score");
        BayesOpt { config }
    }

    /// Runs the learning loop against the throwing simulator.
    ///
    /// Profiler regions: `gp_fit` (Cholesky refit per iteration),
    /// `acquisition` (candidate scoring), `sort` (ranking candidates by
    /// UCB — the paper's heavier sort) and `simulate` (reward
    /// collection).
    ///
    /// When a real [`MemTrace`] sink is attached, the refit emits the
    /// training-set loads and triangular-factor stores of the Cholesky,
    /// each scored candidate emits one load per training point (the
    /// posterior conditions on every observation) plus its metadata
    /// store, and the sort emits a load/store pass over the candidate
    /// rows.
    pub fn learn<T: MemTrace + ?Sized>(
        &self,
        sim: &ThrowSim,
        profiler: &mut Profiler,
        trace: &mut T,
    ) -> BoResult {
        let mut rng = SimRng::seed_from(self.config.seed);
        let mut xs_raw: Vec<[f64; 3]> = Vec::new();
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        let mut reward_trace = Vec::new();
        let mut candidates_scored = 0u64;
        // Scratch pool for GP posterior queries: the acquisition loop runs
        // `candidates` predictions per refit, all against the same training
        // set, so after the first query of each iteration every buffer is a
        // pool hit.
        let mut ws = Workspace::new();

        let sample_point = |rng: &mut SimRng| -> [f64; 3] {
            [
                rng.uniform(LO[0], HI[0]),
                rng.uniform(LO[1], HI[1]),
                rng.uniform(LO[2], HI[2]),
            ]
        };

        // Seed evaluations.
        for _ in 0..self.config.seed_points {
            let x = sample_point(&mut rng);
            let reward = profiler.time("simulate", || sim.reward(&to_params(&x)));
            xs_raw.push(x);
            xs.push(normalize(&x));
            ys.push(reward);
            reward_trace.push(reward);
        }

        let tr = &mut *trace;
        for _ in 0..self.config.iterations {
            // Refit the GP on everything observed so far.
            let gp = profiler.time("gp_fit", || {
                if tr.enabled() {
                    let n = xs.len() as u64;
                    for i in 0..n {
                        tr.read(XS_REGION + i * 24);
                        for j in 0..=i {
                            tr.write(K_REGION + (i * n + j) * 8);
                        }
                    }
                }
                GaussianProcess::fit(&xs, &ys, self.config.length_scale, 1.0, self.config.noise)
                    .expect("jittered kernel is SPD")
            });

            // Score random candidates with UCB. Each entry carries the
            // metadata BO keeps per candidate (point, μ, σ², UCB) — the
            // paper's "more metadata is kept with BO".
            let mut scored: Vec<([f64; 3], f64, f64, f64)> = profiler.time("acquisition", || {
                let mut unit = [0.0; 3];
                (0..self.config.candidates)
                    .map(|c| {
                        let x = sample_point(&mut rng);
                        normalize_into(&x, &mut unit);
                        if tr.enabled() {
                            // The posterior conditions on every training
                            // point; the scored row is then stored.
                            for j in 0..xs.len() as u64 {
                                tr.read(XS_REGION + j * 24);
                            }
                            tr.write(CAND_REGION + c as u64 * 32);
                        }
                        let (mu, var) = gp.predict_with(&unit, &mut ws);
                        candidates_scored += 1;
                        (x, mu, var, mu + self.config.kappa * var.sqrt())
                    })
                    .collect()
            });

            // Rank by acquisition value.
            profiler.time("sort", || {
                if tr.enabled() {
                    // The in-place sort reads and rewrites every row.
                    for c in 0..scored.len() as u64 {
                        tr.read(CAND_REGION + c * 32);
                        tr.write(CAND_REGION + c * 32);
                    }
                }
                scored.sort_by(|a, b| b.3.total_cmp(&a.3));
            });

            let chosen = scored[0].0;
            let reward = profiler.time("simulate", || sim.reward(&to_params(&chosen)));
            xs_raw.push(chosen);
            xs.push(normalize(&chosen));
            ys.push(reward);
            reward_trace.push(reward);
        }

        let (best_idx, best_reward) = ys
            .iter()
            .enumerate()
            .map(|(i, &r)| (i, r))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least the seed points exist");
        BoResult {
            best_params: to_params(&xs_raw[best_idx]),
            best_reward,
            evaluations: reward_trace.len() as u64,
            reward_trace,
            candidates_scored,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_trace::{CountingTrace, NullTrace};

    fn run(seed: u64, iterations: usize) -> BoResult {
        let sim = ThrowSim::new(2.0);
        let mut profiler = Profiler::new();
        BayesOpt::new(BoConfig {
            seed,
            iterations,
            ..Default::default()
        })
        .learn(&sim, &mut profiler, &mut NullTrace)
    }

    #[test]
    fn finds_near_optimal_throw() {
        let r = run(1, 45);
        assert!(r.best_reward > -0.15, "best reward {}", r.best_reward);
    }

    #[test]
    fn improves_over_random_seeding() {
        let r = run(2, 45);
        let seed_best = r.reward_trace[..5]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            r.best_reward >= seed_best,
            "BO must never be worse than its seeds"
        );
        // Later evaluations concentrate near the optimum: mean of the last
        // 10 beats the mean of the seeds.
        let seeds_mean = r.reward_trace[..5].iter().sum::<f64>() / 5.0;
        let tail = &r.reward_trace[r.reward_trace.len() - 10..];
        let tail_mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(tail_mean > seeds_mean, "{tail_mean} vs {seeds_mean}");
    }

    #[test]
    fn evaluation_counts() {
        let r = run(3, 10);
        assert_eq!(r.evaluations, 15);
        assert_eq!(r.reward_trace.len(), 15);
        assert_eq!(r.candidates_scored, 10 * 500);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(4, 8);
        let b = run(4, 8);
        assert_eq!(a.reward_trace, b.reward_trace);
    }

    #[test]
    fn more_compute_than_cem() {
        // The paper: BO is computationally far more intensive than CEM
        // (~15000x more iterations in their configurations; here we verify
        // the ordering, not the constant).
        use crate::{Cem, CemConfig};
        let sim = ThrowSim::new(2.0);
        let mut p_bo = Profiler::new();
        let mut p_cem = Profiler::new();
        BayesOpt::new(BoConfig {
            iterations: 20,
            ..Default::default()
        })
        .learn(&sim, &mut p_bo, &mut NullTrace);
        Cem::new(CemConfig::default()).learn(&sim, &mut p_cem, &mut NullTrace);
        let work = |p: &Profiler| {
            p.report()
                .iter()
                .map(|r| r.total)
                .sum::<std::time::Duration>()
        };
        assert!(work(&p_bo) > work(&p_cem) * 2);
        // And its sort handles far more items per call.
        assert!(
            p_bo.region_total("sort") > p_cem.region_total("sort"),
            "BO sort should outweigh CEM sort"
        );
    }

    #[test]
    fn profiler_regions_present() {
        let sim = ThrowSim::new(2.0);
        let mut profiler = Profiler::new();
        BayesOpt::new(BoConfig {
            iterations: 5,
            ..Default::default()
        })
        .learn(&sim, &mut profiler, &mut NullTrace);
        for region in ["gp_fit", "acquisition", "sort", "simulate"] {
            assert!(
                profiler.region_calls(region) >= 5,
                "missing region {region}"
            );
        }
    }

    #[test]
    fn traced_learn_is_bit_identical_and_scales_with_training_set() {
        let sim = ThrowSim::new(2.0);
        let config = BoConfig {
            iterations: 4,
            candidates: 40,
            ..Default::default()
        };

        let mut p_null = Profiler::new();
        let untraced = BayesOpt::new(config).learn(&sim, &mut p_null, &mut NullTrace);

        let mut p_counted = Profiler::new();
        let mut counts = CountingTrace::default();
        let traced = BayesOpt::new(config).learn(&sim, &mut p_counted, &mut counts);

        assert_eq!(untraced.reward_trace, traced.reward_trace);
        assert_eq!(untraced.best_reward.to_bits(), traced.best_reward.to_bits());

        // The training set grows by one point per iteration, so both the
        // Cholesky refit and the per-candidate conditioning sweep grow
        // with it.
        let cands = config.candidates as u64;
        let mut expect_reads = 0u64;
        let mut expect_writes = 0u64;
        for t in 0..config.iterations as u64 {
            let n = config.seed_points as u64 + t;
            expect_reads += n; // gp_fit training loads
            expect_writes += n * (n + 1) / 2; // triangular factor stores
            expect_reads += cands * n; // acquisition conditioning
            expect_writes += cands; // candidate metadata stores
            expect_reads += cands; // sort loads
            expect_writes += cands; // sort stores
        }
        assert_eq!(counts.reads, expect_reads);
        assert_eq!(counts.writes, expect_writes);
    }

    #[test]
    #[should_panic(expected = "seed points")]
    fn too_few_seeds_panics() {
        let _ = BayesOpt::new(BoConfig {
            seed_points: 1,
            ..Default::default()
        });
    }
}
