//! `15.cem` — cross-entropy-method reinforcement learning.
//!
//! "CEM learns the policy (throwing parameters) by repeatedly drawing
//! samples, collecting rewards, and minimizing the cross-entropy loss to
//! shift the policy towards samples that result in larger rewards. We
//! execute CEM for five iterations and draw fifteen samples in every
//! iteration" (§V.15). The paper flags the sort used to select the largest
//! rewards as "a non-trivial execution bottleneck ... around one-third of
//! the entire execution time"; the sort here is its own profiler region.

use rtr_harness::{Pool, Profiler};
use rtr_sim::{SimRng, ThrowParams, ThrowSim};
use rtr_trace::MemTrace;

/// Synthetic address regions for the traced learner: the drawn population
/// (three `f64` parameters per sample) and the scored array the elite sort
/// permutes (reward + parameters per entry).
const POP_REGION: u64 = 0;
const SCORED_REGION: u64 = 1 << 20;

/// Initial sampling std dev per parameter.
const INITIAL_STD: [f64; 3] = [0.6, 0.6, 2.0];
/// Std-dev floor to keep exploring.
const MIN_STD: f64 = 0.01;

/// Configuration for [`Cem`].
#[derive(Debug, Clone, Copy)]
pub struct CemConfig {
    /// Learning iterations (the paper uses 5).
    pub iterations: usize,
    /// Samples per iteration (the paper uses 15).
    pub samples_per_iteration: usize,
    /// Elite count kept per iteration.
    pub elites: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for rollout evaluation (`1` = sequential legacy
    /// path, `0` = one per hardware thread). Sampling, elite sort, and
    /// distribution refits stay sequential, so results are bit-identical
    /// for every thread count.
    pub threads: usize,
}

impl Default for CemConfig {
    fn default() -> Self {
        CemConfig {
            iterations: 5,
            samples_per_iteration: 15,
            elites: 4,
            seed: 0,
            threads: 1,
        }
    }
}

/// Result of a CEM run.
#[derive(Debug, Clone)]
pub struct CemResult {
    /// Best parameters found.
    pub best_params: ThrowParams,
    /// Best reward found.
    pub best_reward: f64,
    /// Reward of every sample in draw order — the paper's Fig. 18 series.
    pub reward_trace: Vec<f64>,
    /// Mean reward per iteration.
    pub iteration_means: Vec<f64>,
    /// Total samples evaluated.
    pub evaluations: u64,
}

/// The CEM kernel.
///
/// # Example
///
/// ```
/// use rtr_control::{Cem, CemConfig};
/// use rtr_sim::ThrowSim;
/// use rtr_harness::Profiler;
///
/// let sim = ThrowSim::new(2.0);
/// let mut profiler = Profiler::new();
/// let result = Cem::new(CemConfig::default()).learn(&sim, &mut profiler, &mut rtr_trace::NullTrace);
/// assert!(result.best_reward > -2.0);
/// ```
#[derive(Debug, Clone)]
pub struct Cem {
    config: CemConfig,
}

impl Cem {
    /// Creates the kernel.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is degenerate (no iterations, no
    /// samples, or more elites than samples).
    pub fn new(config: CemConfig) -> Self {
        assert!(config.iterations > 0, "need at least one iteration");
        assert!(
            config.samples_per_iteration > 0,
            "need at least one sample per iteration"
        );
        assert!(
            config.elites > 0 && config.elites <= config.samples_per_iteration,
            "elites must be in 1..=samples"
        );
        Cem { config }
    }

    /// Runs the learning loop against the throwing simulator.
    ///
    /// Profiler regions: `sample` (drawing parameters), `simulate` (reward
    /// collection), `sort` (elite selection — the paper's bottleneck) and
    /// `update` (distribution refitting).
    ///
    /// When a real [`MemTrace`] sink is attached, each phase emits its
    /// array traffic: population stores while sampling, population loads
    /// plus scored stores while simulating, a load/store pass over the
    /// scored array for the elite sort, and two elite-prefix read sweeps
    /// for the distribution refit. Emission is in draw order independent
    /// of the rollout thread count.
    pub fn learn<T: MemTrace + ?Sized>(
        &self,
        sim: &ThrowSim,
        profiler: &mut Profiler,
        trace: &mut T,
    ) -> CemResult {
        let pool = Pool::new(self.config.threads);
        let mut rng = SimRng::seed_from(self.config.seed);
        // Policy distribution: mean/std per parameter. Start centered on a
        // generic overhand throw.
        let mut mean = [0.8f64, -0.2, sim.max_speed() * 0.5];
        let mut std = INITIAL_STD;

        let mut reward_trace = Vec::new();
        let mut iteration_means = Vec::new();
        let mut best_reward = f64::NEG_INFINITY;
        let mut best_params = ThrowParams {
            shoulder: mean[0],
            elbow: mean[1],
            speed: mean[2],
        };
        let mut evaluations = 0u64;

        let tr = &mut *trace;
        for _ in 0..self.config.iterations {
            // Draw the population.
            let population: Vec<ThrowParams> = profiler.time("sample", || {
                (0..self.config.samples_per_iteration)
                    .map(|i| {
                        if let Some(g) = tr.gate() {
                            tr.write(POP_REGION + i as u64 * 24, g);
                        }
                        ThrowParams {
                            shoulder: rng.gaussian(mean[0], std[0]),
                            elbow: rng.gaussian(mean[1], std[1]),
                            speed: rng.gaussian(mean[2], std[2]).clamp(0.0, sim.max_speed()),
                        }
                    })
                    .collect()
            });

            // Collect rewards: each rollout is an independent pure
            // physics simulation, so it runs on the pool (inline when
            // `threads == 1`) with outputs kept in draw order.
            let mut scored: Vec<(f64, ThrowParams)> = profiler.time("simulate", || {
                pool.par_map(&population, |_, p| (sim.reward(p), *p))
            });
            if let Some(g) = tr.gate() {
                // Emitted after the (possibly pooled) rollouts, in draw
                // order, so the stream is thread-count independent.
                for i in 0..scored.len() as u64 {
                    tr.read(POP_REGION + i * 24, g);
                    tr.write(SCORED_REGION + i * 32, g);
                }
            }
            evaluations += scored.len() as u64;
            for (r, p) in &scored {
                reward_trace.push(*r);
                if *r > best_reward {
                    best_reward = *r;
                    best_params = *p;
                }
            }
            iteration_means.push(scored.iter().map(|(r, _)| r).sum::<f64>() / scored.len() as f64);

            // Elite selection: the sort the paper singles out.
            profiler.time("sort", || {
                if let Some(g) = tr.gate() {
                    // The in-place sort reads and rewrites every entry.
                    for i in 0..scored.len() as u64 {
                        tr.read(SCORED_REGION + i * 32, g);
                        tr.write(SCORED_REGION + i * 32, g);
                    }
                }
                scored.sort_by(|a, b| b.0.total_cmp(&a.0));
            });

            // Refit the sampling distribution to the elites.
            profiler.time("update", || {
                if let Some(g) = tr.gate() {
                    // Mean pass then variance pass over the elite prefix.
                    for _ in 0..2 {
                        for i in 0..self.config.elites as u64 {
                            tr.read(SCORED_REGION + i * 32, g);
                        }
                    }
                }
                let elites = &scored[..self.config.elites];
                let n = elites.len() as f64;
                let fields = |p: &ThrowParams| [p.shoulder, p.elbow, p.speed];
                let mut new_mean = [0.0f64; 3];
                for (_, p) in elites {
                    let f = fields(p);
                    for d in 0..3 {
                        new_mean[d] += f[d] / n;
                    }
                }
                let mut new_std = [0.0f64; 3];
                for (_, p) in elites {
                    let f = fields(p);
                    for d in 0..3 {
                        new_std[d] += (f[d] - new_mean[d]).powi(2) / n;
                    }
                }
                mean = new_mean;
                for d in 0..3 {
                    std[d] = new_std[d].sqrt().max(MIN_STD);
                }
            });
        }

        CemResult {
            best_params,
            best_reward,
            reward_trace,
            iteration_means,
            evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_trace::{CountingTrace, NullTrace};

    fn run(seed: u64, iterations: usize) -> CemResult {
        let sim = ThrowSim::new(2.0);
        let mut profiler = Profiler::new();
        Cem::new(CemConfig {
            seed,
            iterations,
            ..Default::default()
        })
        .learn(&sim, &mut profiler, &mut NullTrace)
    }

    #[test]
    fn reward_improves_over_iterations() {
        // The Fig. 18 signal: later iterations throw closer to the goal.
        let r = run(1, 5);
        let first = r.iteration_means.first().unwrap();
        let last = r.iteration_means.last().unwrap();
        assert!(last > first, "means did not improve: {first} -> {last}");
    }

    #[test]
    fn finds_a_near_hit() {
        let r = run(2, 8);
        assert!(r.best_reward > -0.3, "best reward {}", r.best_reward);
    }

    #[test]
    fn trace_has_expected_length() {
        let r = run(3, 5);
        assert_eq!(r.reward_trace.len(), 5 * 15);
        assert_eq!(r.evaluations, 75);
        assert_eq!(r.iteration_means.len(), 5);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(4, 5);
        let b = run(4, 5);
        assert_eq!(a.reward_trace, b.reward_trace);
        assert_eq!(a.best_reward, b.best_reward);
    }

    #[test]
    fn best_reward_is_max_of_trace() {
        let r = run(5, 5);
        let max = r
            .reward_trace
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(r.best_reward, max);
    }

    #[test]
    fn profiler_records_sort_region() {
        let sim = ThrowSim::new(2.0);
        let mut profiler = Profiler::new();
        Cem::new(CemConfig::default()).learn(&sim, &mut profiler, &mut NullTrace);
        assert_eq!(profiler.region_calls("sort"), 5);
        assert_eq!(profiler.region_calls("simulate"), 5);
    }

    #[test]
    fn traced_learn_is_bit_identical_and_counts_phase_traffic() {
        let sim = ThrowSim::new(2.0);
        let config = CemConfig::default();

        let mut p_null = Profiler::new();
        let untraced = Cem::new(config).learn(&sim, &mut p_null, &mut NullTrace);

        let mut p_counted = Profiler::new();
        let mut counts = CountingTrace::default();
        let traced = Cem::new(config).learn(&sim, &mut p_counted, &mut counts);

        // Sampling, rollouts, sort and refit are all deterministic given
        // the seed; the sink must not perturb any of it.
        assert_eq!(untraced.reward_trace, traced.reward_trace);
        assert_eq!(untraced.best_reward.to_bits(), traced.best_reward.to_bits());

        // Per iteration: S population stores while sampling, S population
        // loads + S scored stores while simulating, S load/store pairs in
        // the sort, and two elite-prefix read sweeps in the refit.
        let iters = config.iterations as u64;
        let s = config.samples_per_iteration as u64;
        let e = config.elites as u64;
        assert_eq!(counts.writes, iters * 3 * s);
        assert_eq!(counts.reads, iters * (2 * s + 2 * e));
    }

    #[test]
    #[should_panic(expected = "elites")]
    fn too_many_elites_panics() {
        let _ = Cem::new(CemConfig {
            elites: 100,
            ..Default::default()
        });
    }
}
