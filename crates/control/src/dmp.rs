//! `13.dmp` — dynamic movement primitives.
//!
//! DMP "represents the problem using a virtual spring and damper system
//! and adapts it to the planned path", with Gaussian basis functions and
//! shape parameters "acquired through imitation learning and linear
//! regression, typically through a single demonstration". The paper
//! measures IPC < 1 "due to significant data dependency in the algorithm:
//! the trajectory, velocity, and acceleration are all computed
//! incrementally" — the rollout here is exactly that serial integration
//! loop.

use rtr_harness::Profiler;
use rtr_trace::MemTrace;

/// Synthetic address regions for the traced rollout. The basis tables are
/// small read-only arrays swept in full on every forcing evaluation;
/// weights are laid out `[dim][basis]` row-major.
const WIDTHS_REGION: u64 = 1 << 20;
const WEIGHTS_REGION: u64 = 1 << 21;
/// Integrator state `(y, z)` per dimension, 16 bytes each.
const STATE_REGION: u64 = 1 << 24;
/// Output rows `(pos, vel, acc)` per `(step, dim)`, 24 bytes each.
const ROLLOUT_REGION: u64 = 1 << 30;

/// Spring constant α_z of the transformation system.
const ALPHA_Z: f64 = 25.0;
/// Damping β_z (critically damped at α_z/4).
const BETA_Z: f64 = 6.25;
/// Canonical-system decay rate α_x.
const ALPHA_X: f64 = 4.0;

/// Configuration for [`Dmp`].
#[derive(Debug, Clone, Copy)]
pub struct DmpConfig {
    /// Number of Gaussian basis functions per dimension.
    pub basis_count: usize,
    /// Integration time step (seconds).
    pub dt: f64,
}

impl Default for DmpConfig {
    fn default() -> Self {
        DmpConfig {
            basis_count: 30,
            dt: 0.002,
        }
    }
}

/// A generated trajectory: positions, velocities and accelerations per
/// time step (the paper's Fig. 15 outputs).
#[derive(Debug, Clone)]
pub struct DmpRollout {
    /// Time stamps.
    pub t: Vec<f64>,
    /// Position per step and dimension (`[step][dim]`).
    pub position: Vec<Vec<f64>>,
    /// Velocity per step and dimension.
    pub velocity: Vec<Vec<f64>>,
    /// Acceleration per step and dimension.
    pub acceleration: Vec<Vec<f64>>,
}

/// One learned movement primitive per trajectory dimension.
#[derive(Debug, Clone)]
struct DimensionModel {
    weights: Vec<f64>,
    y0: f64,
    goal: f64,
}

/// Loop state of one stepped rollout.
///
/// Created by [`Dmp::begin_rollout`], advanced one Euler step at a time
/// by [`Dmp::integrate_step`], and turned into a [`DmpRollout`] by
/// [`Dmp::finish_rollout`]. The integrator state `(y, z, x)` lives here;
/// the output rows accumulate into the pre-reserved rollout buffers.
#[derive(Debug)]
pub struct RolloutRun {
    y: Vec<f64>,
    z: Vec<f64>,
    x: f64,
    /// Next step index (1-based; row 0 is the initial state).
    step: usize,
    steps: usize,
    rollout: DmpRollout,
}

impl RolloutRun {
    /// Current position per dimension.
    pub fn position(&self) -> &[f64] {
        &self.y
    }

    /// Euler steps executed so far (excluding the initial row).
    pub fn steps_done(&self) -> usize {
        self.step - 1
    }
}

/// The DMP kernel: learn from one demonstration, then generate smooth
/// trajectories toward (possibly new) goals.
///
/// # Example
///
/// ```
/// use rtr_control::{Dmp, DmpConfig};
/// use rtr_harness::Profiler;
///
/// // Demonstrate a 1-D reach from 0 to 1 over one second.
/// let demo: Vec<Vec<f64>> = (0..=100)
///     .map(|i| vec![(i as f64 / 100.0).powi(2) * (3.0 - 2.0 * i as f64 / 100.0)])
///     .collect();
/// let dmp = Dmp::learn(&demo, 1.0, DmpConfig::default());
/// let mut profiler = Profiler::new();
/// let rollout = dmp.rollout(1.0, &mut profiler, &mut rtr_trace::NullTrace);
/// let end = rollout.position.last().unwrap()[0];
/// assert!((end - 1.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct Dmp {
    config: DmpConfig,
    dims: Vec<DimensionModel>,
    /// Basis centers in canonical phase x ∈ (0, 1].
    centers: Vec<f64>,
    /// Basis widths.
    widths: Vec<f64>,
    /// Duration of the demonstration (sets the canonical time constant).
    tau: f64,
}

impl Dmp {
    /// Learns a DMP from a demonstration.
    ///
    /// `demo[t][d]` is the position of dimension `d` at uniformly spaced
    /// times covering `duration` seconds. Velocities/accelerations are
    /// estimated by finite differences; basis weights by locally weighted
    /// regression (the paper's "imitation learning and linear regression
    /// ... through a single demonstration").
    ///
    /// # Panics
    ///
    /// Panics if the demo has fewer than three samples, zero dimensions,
    /// or inconsistent dimension counts.
    pub fn learn(demo: &[Vec<f64>], duration: f64, config: DmpConfig) -> Self {
        assert!(demo.len() >= 3, "demonstration needs at least 3 samples");
        let ndim = demo[0].len();
        assert!(ndim > 0, "demonstration needs at least one dimension");
        assert!(
            demo.iter().all(|s| s.len() == ndim),
            "inconsistent demo dimensions"
        );
        assert!(duration > 0.0, "duration must be positive");

        let steps = demo.len();
        let demo_dt = duration / (steps - 1) as f64;
        let tau = duration;

        // Basis centers spread along the canonical trajectory
        // x(t) = exp(-αx t / τ), with widths inversely proportional to the
        // squared gap between consecutive centers.
        let centers: Vec<f64> = (0..config.basis_count)
            .map(|i| {
                let t = i as f64 / (config.basis_count - 1).max(1) as f64;
                (-ALPHA_X * t).exp()
            })
            .collect();
        let widths: Vec<f64> = (0..config.basis_count)
            .map(|i| {
                let next = if i + 1 < centers.len() {
                    centers[i + 1]
                } else {
                    centers[i]
                };
                let gap = (next - centers[i]).abs().max(1e-6);
                1.0 / (gap * gap)
            })
            .collect();

        let mut dims = Vec::with_capacity(ndim);
        for d in 0..ndim {
            let y: Vec<f64> = demo.iter().map(|s| s[d]).collect();
            let y0 = y[0];
            let goal = y[steps - 1];

            // Finite-difference velocity and acceleration.
            let mut yd = vec![0.0; steps];
            let mut ydd = vec![0.0; steps];
            for t in 1..steps - 1 {
                yd[t] = (y[t + 1] - y[t - 1]) / (2.0 * demo_dt);
            }
            yd[0] = (y[1] - y[0]) / demo_dt;
            yd[steps - 1] = (y[steps - 1] - y[steps - 2]) / demo_dt;
            for t in 1..steps - 1 {
                ydd[t] = (yd[t + 1] - yd[t - 1]) / (2.0 * demo_dt);
            }

            // Forcing-term targets at each demo sample.
            let scale = goal - y0;
            let mut num = vec![0.0; config.basis_count];
            let mut den = vec![1e-10; config.basis_count];
            for t in 0..steps {
                let time = t as f64 * demo_dt;
                let x = (-ALPHA_X * time / tau).exp();
                let f_target =
                    tau * tau * ydd[t] - ALPHA_Z * (BETA_Z * (goal - y[t]) - tau * yd[t]);
                // Locally weighted regression against ξ = x·(g − y0).
                let xi = x * scale;
                if xi.abs() < 1e-12 {
                    continue;
                }
                for (b, (&c, &w)) in centers.iter().zip(widths.iter()).enumerate() {
                    let psi = (-w * (x - c) * (x - c)).exp();
                    num[b] += psi * xi * f_target;
                    den[b] += psi * xi * xi;
                }
            }
            let weights: Vec<f64> = num.iter().zip(den.iter()).map(|(n, d)| n / d).collect();
            dims.push(DimensionModel { weights, y0, goal });
        }

        Dmp {
            config,
            dims,
            centers,
            widths,
            tau,
        }
    }

    /// The goal position the primitive converges to, per dimension.
    pub fn goals(&self) -> Vec<f64> {
        self.dims.iter().map(|d| d.goal).collect()
    }

    /// Evaluates the forcing term for dimension `d` at phase `x`.
    fn forcing(&self, d: &DimensionModel, x: f64) -> f64 {
        let mut num = 0.0;
        let mut den = 1e-10;
        for (b, (&c, &w)) in self.centers.iter().zip(self.widths.iter()).enumerate() {
            let psi = (-w * (x - c) * (x - c)).exp();
            num += psi * d.weights[b];
            den += psi;
        }
        (num / den) * x * (d.goal - d.y0)
    }

    /// Integrates the primitive for `duration` seconds.
    ///
    /// Profiler region: `integration` — the serial Euler loop where each
    /// step's position/velocity/acceleration depends on the previous
    /// step's (the paper's low-ILP data dependency).
    ///
    /// When a real [`MemTrace`] sink is attached, every forcing evaluation
    /// emits its full basis-table sweep (centers, widths, and the
    /// dimension's weight row) plus the state read/write and output-row
    /// store of the Euler update.
    pub fn rollout<T: MemTrace + ?Sized>(
        &self,
        duration: f64,
        profiler: &mut Profiler,
        trace: &mut T,
    ) -> DmpRollout {
        let tr = &mut *trace;
        profiler.time("integration", || {
            let mut run = self.begin_rollout(duration);
            while self.step_inner(&mut run, &mut *tr) {}
            run.rollout
        })
    }

    /// Starts a stepped rollout: sizes the output buffers, seeds the
    /// integrator at the demonstration start, and records the initial
    /// row. Drive the returned [`RolloutRun`] with
    /// [`Dmp::integrate_step`] until it returns `false`, then call
    /// [`Dmp::finish_rollout`]; that sequence produces the same
    /// trajectory as [`Dmp::rollout`], bit for bit (the monolith differs
    /// only in wrapping the whole loop in a single `integration` region
    /// instead of one per step).
    pub fn begin_rollout(&self, duration: f64) -> RolloutRun {
        let steps = (duration / self.config.dt).ceil() as usize;
        let ndim = self.dims.len();
        let mut t_axis = Vec::with_capacity(steps + 1);
        let mut pos = Vec::with_capacity(steps + 1);
        let mut vel = Vec::with_capacity(steps + 1);
        let mut acc = Vec::with_capacity(steps + 1);

        let y: Vec<f64> = self.dims.iter().map(|d| d.y0).collect();
        t_axis.push(0.0);
        pos.push(y.clone());
        vel.push(vec![0.0; ndim]);
        acc.push(vec![0.0; ndim]);

        RolloutRun {
            y,
            z: vec![0.0; ndim],
            x: 1.0,
            step: 1,
            steps,
            rollout: DmpRollout {
                t: t_axis,
                position: pos,
                velocity: vel,
                acceleration: acc,
            },
        }
    }

    /// One Euler step of the transformation and canonical systems, with
    /// no profiler region (shared by the monolithic and stepped drivers).
    fn step_inner<T: MemTrace + ?Sized>(&self, run: &mut RolloutRun, tr: &mut T) -> bool {
        if run.step > run.steps {
            return false;
        }
        let step = run.step;
        run.step += 1;
        let ndim = self.dims.len();
        let dt = self.config.dt;
        let mut a_row = Vec::with_capacity(ndim);
        let mut v_row = Vec::with_capacity(ndim);
        for (d, model) in self.dims.iter().enumerate() {
            if let Some(g) = tr.gate() {
                // The forcing term sweeps every basis function:
                // center, width, and this dimension's weight.
                let nb = self.centers.len() as u64;
                for b in 0..nb {
                    tr.read(b * 8, g);
                    tr.read(WIDTHS_REGION + b * 8, g);
                    tr.read(WEIGHTS_REGION + (d as u64 * nb + b) * 8, g);
                }
                tr.read(STATE_REGION + d as u64 * 16, g);
                tr.write(STATE_REGION + d as u64 * 16, g);
                let row = (step * ndim + d) as u64;
                tr.write(ROLLOUT_REGION + row * 24, g);
            }
            let f = self.forcing(model, run.x);
            // τ ż = αz(βz(g − y) − z) + f;  τ ẏ = z.
            let zd = (ALPHA_Z * (BETA_Z * (model.goal - run.y[d]) - run.z[d]) + f) / self.tau;
            run.z[d] += zd * dt;
            let yd = run.z[d] / self.tau;
            run.y[d] += yd * dt;
            v_row.push(yd);
            a_row.push(zd / self.tau);
        }
        run.x += -ALPHA_X * run.x / self.tau * dt;
        run.rollout.t.push(step as f64 * dt);
        run.rollout.position.push(run.y.clone());
        run.rollout.velocity.push(v_row);
        run.rollout.acceleration.push(a_row);
        true
    }

    /// Advances a stepped rollout by one Euler step under its own
    /// `integration` region. Returns `true` while steps remain. The
    /// appended output rows are fresh per-row vectors — they are the
    /// rollout's result, sized by the run, not reusable scratch.
    pub fn integrate_step<T: MemTrace + ?Sized>(
        &self,
        run: &mut RolloutRun,
        profiler: &mut Profiler,
        trace: &mut T,
    ) -> bool {
        let tr = &mut *trace;
        profiler.time("integration", || self.step_inner(run, &mut *tr))
    }

    /// Completes a stepped rollout, yielding the accumulated trajectory.
    pub fn finish_rollout(&self, run: RolloutRun) -> DmpRollout {
        run.rollout
    }
}

/// Synthesizes the paper's Fig. 15 demonstration: a wheeled robot's ~15 m
/// smooth advance over 1.5 s with a lateral S-curve, sampled at `steps`
/// points. Returns `(demo, duration)`.
pub fn wheeled_robot_demo(steps: usize) -> (Vec<Vec<f64>>, f64) {
    let duration = 1.5;
    let demo = (0..steps)
        .map(|i| {
            let s = i as f64 / (steps - 1) as f64;
            // Min-jerk advance to 15 m.
            let adv = 15.0 * (10.0 * s.powi(3) - 15.0 * s.powi(4) + 6.0 * s.powi(5));
            // Lateral sway of ±0.5 m.
            let sway = 0.5 * (2.0 * std::f64::consts::PI * s).sin();
            vec![adv, sway]
        })
        .collect();
    (demo, duration)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_trace::{CountingTrace, NullTrace};

    fn minjerk_demo() -> (Vec<Vec<f64>>, f64) {
        let demo = (0..=200)
            .map(|i| {
                let s = i as f64 / 200.0;
                vec![10.0 * s.powi(3) - 15.0 * s.powi(4) + 6.0 * s.powi(5)]
            })
            .collect();
        (demo, 1.0)
    }

    #[test]
    fn rollout_reaches_goal() {
        let (demo, dur) = minjerk_demo();
        let dmp = Dmp::learn(&demo, dur, DmpConfig::default());
        let mut profiler = Profiler::new();
        let rollout = dmp.rollout(dur * 1.5, &mut profiler, &mut NullTrace);
        let end = rollout.position.last().unwrap()[0];
        assert!((end - 1.0).abs() < 0.02, "end {end}");
    }

    #[test]
    fn rollout_tracks_demo_shape() {
        let (demo, dur) = minjerk_demo();
        let dmp = Dmp::learn(&demo, dur, DmpConfig::default());
        let mut profiler = Profiler::new();
        let rollout = dmp.rollout(dur, &mut profiler, &mut NullTrace);
        // Compare positions at matching normalized times.
        let mut max_err: f64 = 0.0;
        for (i, p) in rollout.position.iter().enumerate() {
            let s = i as f64 / (rollout.position.len() - 1) as f64;
            let demo_idx = (s * (demo.len() - 1) as f64).round() as usize;
            max_err = max_err.max((p[0] - demo[demo_idx][0]).abs());
        }
        assert!(max_err < 0.1, "tracking error {max_err}");
    }

    #[test]
    fn velocity_starts_and_ends_near_zero() {
        let (demo, dur) = wheeled_robot_demo(300);
        let dmp = Dmp::learn(&demo, dur, DmpConfig::default());
        let mut profiler = Profiler::new();
        let rollout = dmp.rollout(dur * 1.4, &mut profiler, &mut NullTrace);
        assert!(rollout.velocity[0].iter().all(|v| v.abs() < 1e-9));
        let end_v = rollout.velocity.last().unwrap();
        assert!(
            end_v.iter().all(|v| v.abs() < 0.5),
            "end velocity {end_v:?}"
        );
        // Peak velocity happens mid-trajectory (smooth bell profile).
        let peak = rollout
            .velocity
            .iter()
            .map(|v| v[0])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(peak > 10.0, "peak forward velocity {peak}");
    }

    #[test]
    fn two_dimensional_demo_learns_both_dims() {
        let (demo, dur) = wheeled_robot_demo(300);
        let dmp = Dmp::learn(&demo, dur, DmpConfig::default());
        assert_eq!(dmp.dims.len(), 2);
        let goals = dmp.goals();
        assert!((goals[0] - 15.0).abs() < 1e-9);
        let mut profiler = Profiler::new();
        let rollout = dmp.rollout(dur * 1.5, &mut profiler, &mut NullTrace);
        let end = rollout.position.last().unwrap();
        assert!((end[0] - 15.0).abs() < 0.3, "x end {}", end[0]);
        assert!(end[1].abs() < 0.2, "y end {}", end[1]);
    }

    #[test]
    fn integration_region_accounts_for_rollout() {
        let (demo, dur) = minjerk_demo();
        let dmp = Dmp::learn(&demo, dur, DmpConfig::default());
        let mut profiler = Profiler::new();
        dmp.rollout(dur, &mut profiler, &mut NullTrace);
        assert_eq!(profiler.region_calls("integration"), 1);
        profiler.freeze_total();
        assert!(profiler.fraction("integration") > 0.5);
    }

    #[test]
    fn goal_change_generalizes() {
        // DMPs generalize to new goals by construction; emulate by scaling
        // the demo and confirming convergence to the demo's own endpoint.
        let (mut demo, dur) = minjerk_demo();
        for s in &mut demo {
            s[0] *= 3.0; // endpoint now 3.0
        }
        let dmp = Dmp::learn(&demo, dur, DmpConfig::default());
        let mut profiler = Profiler::new();
        let rollout = dmp.rollout(dur * 1.5, &mut profiler, &mut NullTrace);
        assert!((rollout.position.last().unwrap()[0] - 3.0).abs() < 0.06);
    }

    #[test]
    #[should_panic(expected = "at least 3 samples")]
    fn tiny_demo_panics() {
        let _ = Dmp::learn(&[vec![0.0], vec![1.0]], 1.0, DmpConfig::default());
    }

    #[test]
    fn traced_rollout_is_bit_identical_and_sweeps_bases() {
        let (demo, dur) = wheeled_robot_demo(300);
        let config = DmpConfig::default();
        let dmp = Dmp::learn(&demo, dur, config);

        let mut p_null = Profiler::new();
        let untraced = dmp.rollout(dur, &mut p_null, &mut NullTrace);

        let mut p_counted = Profiler::new();
        let mut counts = CountingTrace::default();
        let traced = dmp.rollout(dur, &mut p_counted, &mut counts);

        // The serial integration is deterministic: attaching a sink must
        // not perturb a single bit of the trajectory.
        assert_eq!(untraced.position, traced.position);
        assert_eq!(untraced.velocity, traced.velocity);
        assert_eq!(untraced.acceleration, traced.acceleration);

        // Every (step, dim) forcing evaluation sweeps the whole basis
        // table (3 arrays) and reads its integrator state; the Euler
        // update stores the state and one rollout row.
        let steps = (dur / config.dt).ceil() as u64;
        let ndim = dmp.dims.len() as u64;
        let nb = config.basis_count as u64;
        assert_eq!(counts.reads, steps * ndim * (3 * nb + 1));
        assert_eq!(counts.writes, steps * ndim * 2);
    }
}
