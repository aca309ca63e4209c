//! `14.mpc` — model predictive control.
//!
//! Models the paper's Fig. 16 scenario: "a self-driving car following a
//! long reference trajectory while not exceeding predefined velocity and
//! acceleration values. The cost is formulated as a function of the
//! deviation from the reference trajectory and the state change during the
//! path." Each control step solves a finite-horizon optimization by
//! projected gradient descent with numerical gradients — the paper
//! measures this solve at "more than 80 % of the entire execution time",
//! which the `optimize` region captures.

use rtr_geom::{normalize_angle, Point2, Pose2};
use rtr_harness::Profiler;
use rtr_linalg::Workspace;
use rtr_trace::MemTrace;

/// Synthetic address regions for the traced solver. The control sequence
/// and the gradient are horizon-length arrays of `(f64, f64)` pairs; the
/// reference window holds one `Point2` per horizon slot.
const CTRL_REGION: u64 = 0;
const GRAD_REGION: u64 = 1 << 20;
const REF_REGION: u64 = 1 << 24;

/// Configuration for [`Mpc`].
#[derive(Debug, Clone, Copy)]
pub struct MpcConfig {
    /// Prediction horizon (steps).
    pub horizon: usize,
    /// Control period (seconds).
    pub dt: f64,
    /// Maximum speed (m/s) — the paper's velocity constraint.
    pub v_max: f64,
    /// Maximum |acceleration| (m/s²) — the acceleration constraint.
    pub a_max: f64,
    /// Maximum |steering rate| (rad/s).
    pub steer_max: f64,
    /// Gradient-descent iterations per control step.
    pub opt_iterations: usize,
    /// Weight on deviation from the reference position.
    pub w_tracking: f64,
    /// Weight on control effort (the "state change" penalty).
    pub w_effort: f64,
}

impl Default for MpcConfig {
    fn default() -> Self {
        MpcConfig {
            horizon: 12,
            dt: 0.1,
            v_max: 8.0,
            a_max: 3.0,
            steer_max: 0.8,
            opt_iterations: 40,
            w_tracking: 1.0,
            w_effort: 0.05,
        }
    }
}

/// Car state: pose plus longitudinal speed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CarState {
    pose: Pose2,
    v: f64,
}

/// Result of tracking a reference trajectory.
#[derive(Debug, Clone)]
pub struct MpcResult {
    /// Realized positions at each control step.
    pub trace: Vec<Point2>,
    /// Mean distance to the reference over the run.
    pub mean_tracking_error: f64,
    /// Maximum distance to the reference.
    pub max_tracking_error: f64,
    /// Maximum speed reached (must respect `v_max`).
    pub max_speed: f64,
    /// Maximum |acceleration| commanded (must respect `a_max`).
    pub max_accel: f64,
    /// Optimizer iterations executed in total.
    pub opt_iterations: u64,
    /// Fresh scratch-buffer allocations performed by the solver over the
    /// whole run. Plateaus after the first control step —
    /// the allocation-regression tests assert it stays at the warmup
    /// count no matter how long the reference is.
    pub workspace_allocations: usize,
}

/// One slot of the nominal rollout that [`Mpc::optimize_ws`] caches once
/// per iteration: what a central difference at this slot needs to replay
/// only the slots its perturbation reaches.
#[derive(Debug, Clone, Copy)]
struct RolloutSlot {
    /// State entering the slot.
    entry: CarState,
    /// Running horizon cost after the slots before this one.
    cost: f64,
    /// Cosine of the heading after the slot, which moved the car.
    cos: f64,
    /// Sine of the same heading.
    sin: f64,
}

/// Reusable solver scratch: a [`Workspace`] pool for the flattened
/// gradient plus struct buffers for the nominal rollout and the projected
/// proposal (neither can live in the `f64` pool).
#[derive(Debug, Default, Clone)]
struct SolveScratch {
    ws: Workspace,
    rollout: Vec<RolloutSlot>,
    proposal: Vec<(f64, f64)>,
    /// Times the rollout and proposal buffers had to grow (counts as an
    /// allocation for the regression tests). Both are horizon-sized, so
    /// they grow together, in one event.
    growths: usize,
}

/// Loop state of one receding-horizon tracking run.
///
/// Created by [`Mpc::begin_track`], advanced one control step at a time
/// by [`Mpc::tick`], and turned into an [`MpcResult`] by
/// [`Mpc::finish_track`]. After the first tick warms the solver scratch,
/// further ticks are allocation-free (the realized-trajectory and error
/// buffers are pre-reserved for the whole run in `begin_track`).
#[derive(Debug)]
pub struct TrackRun {
    state: CarState,
    controls: Vec<(f64, f64)>,
    trace: Vec<Point2>,
    errors: Vec<f64>,
    max_speed: f64,
    max_accel: f64,
    opt_iterations: u64,
    scratch: SolveScratch,
    window: Vec<Point2>,
    window_growths: usize,
    /// Progress along the reference: the window starts just past this.
    ref_idx: usize,
    steps_done: usize,
    max_steps: usize,
}

impl TrackRun {
    /// The car's current position.
    pub fn position(&self) -> Point2 {
        self.state.pose.position()
    }

    /// The car's current pose — what a sensor rigidly mounted on the car
    /// observes the world from.
    pub fn pose(&self) -> Pose2 {
        self.state.pose
    }

    /// The car's current longitudinal speed (m/s).
    pub fn speed(&self) -> f64 {
        self.state.v
    }

    /// Control steps executed so far.
    pub fn steps_done(&self) -> usize {
        self.steps_done
    }

    /// Scratch-buffer growths performed by the solver so far (see
    /// [`MpcResult::workspace_allocations`]).
    pub fn workspace_allocations(&self) -> usize {
        self.scratch.ws.allocations() + self.scratch.growths + self.window_growths
    }
}

/// The MPC kernel.
///
/// # Example
///
/// ```
/// use rtr_control::{Mpc, MpcConfig};
/// use rtr_geom::Point2;
/// use rtr_harness::Profiler;
///
/// // A straight 20 m reference sampled at 0.5 m.
/// let reference: Vec<Point2> = (0..40).map(|i| Point2::new(i as f64 * 0.5, 0.0)).collect();
/// let mut profiler = Profiler::new();
/// let result = Mpc::new(MpcConfig::default()).track(&reference, &mut profiler, &mut rtr_trace::NullTrace);
/// assert!(result.mean_tracking_error < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Mpc {
    config: MpcConfig,
}

impl Mpc {
    /// Creates the kernel.
    pub fn new(config: MpcConfig) -> Self {
        Mpc { config }
    }

    /// Unicycle-with-speed dynamics under control `(a, ω)`.
    fn step(&self, s: CarState, a: f64, omega: f64) -> CarState {
        let theta = normalize_angle(s.pose.theta + omega * self.config.dt);
        let (x, y, v) = self.advance(s.pose.x, s.pose.y, s.v, a, theta.cos(), theta.sin());
        CarState {
            pose: Pose2::new(x, y, theta),
            v,
        }
    }

    /// The part of [`Mpc::step`] an acceleration reaches: accelerates by
    /// `a` from speed `v` and moves `(x, y)` along the heading whose
    /// cosine and sine are given. Returns the new `(x, y, v)`.
    fn advance(&self, x: f64, y: f64, v: f64, a: f64, cos: f64, sin: f64) -> (f64, f64, f64) {
        let dt = self.config.dt;
        let v = (v + a * dt).clamp(0.0, self.config.v_max);
        (x + v * cos * dt, y + v * sin * dt, v)
    }

    /// Adds slot `k`'s cost — tracking error at `position`, effort of
    /// `(a, ω)` — to the running `cost`, with the operations and order of
    /// [`Mpc::horizon_cost`], so a replayed suffix continues a cached
    /// prefix bit for bit.
    fn add_slot_cost(
        &self,
        cost: f64,
        k: usize,
        position: Point2,
        (a, omega): (f64, f64),
        refs: &[Point2],
    ) -> f64 {
        let target = refs[k.min(refs.len() - 1)];
        cost + self.config.w_tracking * position.distance_squared(target)
            + self.config.w_effort * (a * a + omega * omega)
    }

    /// Horizon cost of a control sequence from state `s0` against the
    /// reference window `refs`.
    fn horizon_cost(&self, s0: CarState, controls: &[(f64, f64)], refs: &[Point2]) -> f64 {
        let mut s = s0;
        let mut cost = 0.0;
        for (k, &(a, omega)) in controls.iter().enumerate() {
            s = self.step(s, a, omega);
            let target = refs[k.min(refs.len() - 1)];
            cost += self.config.w_tracking * s.pose.position().distance_squared(target);
            cost += self.config.w_effort * (a * a + omega * omega);
        }
        cost
    }

    /// Rolls `controls` out from `s0` into `slots`, one [`RolloutSlot`]
    /// per control, with exactly the operations of
    /// [`Mpc::horizon_cost`].
    fn roll_out(
        &self,
        s0: CarState,
        controls: &[(f64, f64)],
        refs: &[Point2],
        slots: &mut Vec<RolloutSlot>,
    ) {
        slots.clear();
        let mut s = s0;
        let mut cost = 0.0;
        for (k, &u) in controls.iter().enumerate() {
            let theta = normalize_angle(s.pose.theta + u.1 * self.config.dt);
            let (cos, sin) = (theta.cos(), theta.sin());
            slots.push(RolloutSlot {
                entry: s,
                cost,
                cos,
                sin,
            });
            let (x, y, v) = self.advance(s.pose.x, s.pose.y, s.v, u.0, cos, sin);
            s = CarState {
                pose: Pose2::new(x, y, theta),
                v,
            };
            cost = self.add_slot_cost(cost, k, s.pose.position(), u, refs);
        }
    }

    /// Horizon cost of `controls` with slot `k`'s acceleration replaced
    /// by `a_k`, replaying only slots `k..` from the cached rollout. An
    /// acceleration never turns the car, so every slot keeps its cached
    /// heading: no trig, no angle normalization.
    fn replay_accel(
        &self,
        slots: &[RolloutSlot],
        k: usize,
        a_k: f64,
        controls: &[(f64, f64)],
        refs: &[Point2],
    ) -> f64 {
        let RolloutSlot {
            entry, mut cost, ..
        } = slots[k];
        let (mut x, mut y, mut v) = (entry.pose.x, entry.pose.y, entry.v);
        for (j, (&u, slot)) in (k..).zip(controls[k..].iter().zip(&slots[k..])) {
            let u = if j == k { (a_k, u.1) } else { u };
            (x, y, v) = self.advance(x, y, v, u.0, slot.cos, slot.sin);
            cost = self.add_slot_cost(cost, j, Point2::new(x, y), u, refs);
        }
        cost
    }

    /// Horizon cost of `controls` with slot `k`'s steering rate replaced
    /// by `omega_k`, replaying full steps over slots `k..` from the cached
    /// rollout.
    fn replay_steer(
        &self,
        slots: &[RolloutSlot],
        k: usize,
        omega_k: f64,
        controls: &[(f64, f64)],
        refs: &[Point2],
    ) -> f64 {
        let RolloutSlot {
            entry: mut s,
            mut cost,
            ..
        } = slots[k];
        for (j, &u) in (k..).zip(&controls[k..]) {
            let u = if j == k { (u.0, omega_k) } else { u };
            s = self.step(s, u.0, u.1);
            cost = self.add_slot_cost(cost, j, s.pose.position(), u, refs);
        }
        cost
    }

    /// Solves the horizon problem by projected gradient descent with
    /// central-difference gradients, warm-started from `controls`.
    ///
    /// Each iteration rolls the controls out once into a per-slot cache;
    /// a difference at slot `k` leaves slots `0..k` untouched, so it
    /// replays only slots `k..` from there. Per iteration that is H²+3H
    /// full steps plus H(H+1) trig-free acceleration steps, against
    /// 4H²+H full steps for re-simulating the whole horizon per
    /// difference. The gradient lives in a pooled flat buffer and the
    /// rollout and proposal in reused struct buffers, so after the first
    /// control step the loop never touches the heap; a proptest below
    /// holds it bit-identical to the allocating full-horizon formulation.
    fn optimize_ws<T: MemTrace + ?Sized>(
        &self,
        s0: CarState,
        controls: &mut [(f64, f64)],
        refs: &[Point2],
        scratch: &mut SolveScratch,
        trace: &mut T,
    ) -> u64 {
        let h = 1e-4;
        let mut step_size = 0.4;
        let mut best = self.horizon_cost(s0, controls, refs);
        let mut iterations = 0u64;
        let n = controls.len();
        // Flattened gradient: (∂/∂a_k, ∂/∂ω_k) at [2k, 2k+1]. Every slot
        // is rewritten each iteration before it is read, so the buffer is
        // taken once per solve and never re-zeroed.
        let mut grad = scratch.ws.vector(2 * n);
        for _ in 0..self.config.opt_iterations {
            iterations += 1;
            if scratch.rollout.capacity() < n || scratch.proposal.capacity() < n {
                scratch.growths += 1;
            }
            self.roll_out(s0, controls, refs, &mut scratch.rollout);
            let slots = &scratch.rollout;
            for k in 0..n {
                if trace.enabled() {
                    trace.read(CTRL_REGION + k as u64 * 16);
                    trace.read(REF_REGION + k as u64 * 16);
                    trace.write(GRAD_REGION + k as u64 * 16);
                }
                let (a, omega) = controls[k];
                let up = self.replay_accel(slots, k, a + h, controls, refs);
                let down = self.replay_accel(slots, k, a - h, controls, refs);
                grad[2 * k] = (up - down) / (2.0 * h);

                let up = self.replay_steer(slots, k, omega + h, controls, refs);
                let down = self.replay_steer(slots, k, omega - h, controls, refs);
                grad[2 * k + 1] = (up - down) / (2.0 * h);
            }
            scratch.proposal.clear();
            scratch
                .proposal
                .extend(controls.iter().enumerate().map(|(k, &(a, w))| {
                    (
                        (a - step_size * grad[2 * k]).clamp(-self.config.a_max, self.config.a_max),
                        (w - step_size * grad[2 * k + 1])
                            .clamp(-self.config.steer_max, self.config.steer_max),
                    )
                }));
            let cost = self.horizon_cost(s0, &scratch.proposal, refs);
            if cost < best {
                best = cost;
                if trace.enabled() {
                    for k in 0..n {
                        trace.write(CTRL_REGION + k as u64 * 16);
                    }
                }
                controls.copy_from_slice(&scratch.proposal);
            } else {
                step_size *= 0.5;
                if step_size < 1e-6 {
                    break;
                }
            }
        }
        scratch.ws.recycle_vector(grad);
        iterations
    }

    /// Tracks `reference` from its first point, running one optimization
    /// per control step (receding horizon) until the end of the reference
    /// is approached.
    ///
    /// Profiler regions: `optimize` (the solver) and `simulate` (plant
    /// update + bookkeeping).
    ///
    /// # Panics
    ///
    /// Panics if `reference` has fewer than 2 points.
    ///
    /// When a real [`MemTrace`] sink is attached, each optimizer iteration
    /// emits the central-difference sweep over the horizon: per slot a
    /// control-sequence load, a reference-window load, and a gradient
    /// store, plus a control-sequence store per slot when a projected step
    /// is accepted.
    pub fn track<T: MemTrace + ?Sized>(
        &self,
        reference: &[Point2],
        profiler: &mut Profiler,
        trace: &mut T,
    ) -> MpcResult {
        let mut run = self.begin_track(reference);
        while self.tick(&mut run, reference, profiler, &mut *trace) {}
        self.finish_track(run)
    }

    /// Starts a stepped tracking run from the first reference point.
    /// Drive the returned [`TrackRun`] with [`Mpc::tick`] until it
    /// returns `false`, then call [`Mpc::finish_track`]; that sequence is
    /// exactly [`Mpc::track`], bit for bit. The realized-trajectory and
    /// error buffers are reserved up front for the run's step budget, so
    /// ticking never grows them.
    ///
    /// # Panics
    ///
    /// Panics if `reference` has fewer than 2 points.
    pub fn begin_track(&self, reference: &[Point2]) -> TrackRun {
        assert!(reference.len() >= 2, "reference needs at least 2 points");
        let initial_heading = (reference[1] - reference[0]).angle();
        let state = CarState {
            pose: Pose2::new(reference[0].x, reference[0].y, initial_heading),
            v: 0.0,
        };
        let max_steps = reference.len() * 4;
        let mut trace = Vec::with_capacity(max_steps + 1);
        trace.push(state.pose.position());
        TrackRun {
            state,
            controls: vec![(0.0, 0.0); self.config.horizon],
            trace,
            errors: Vec::with_capacity(max_steps),
            max_speed: 0.0,
            max_accel: 0.0,
            opt_iterations: 0,
            scratch: SolveScratch::default(),
            window: Vec::new(),
            window_growths: 0,
            ref_idx: 0,
            steps_done: 0,
            max_steps,
        }
    }

    /// Advances a stepped tracking run by one control step: advances the
    /// reference window to the closest point ahead of the car, solves the
    /// horizon problem (the `optimize` region), and applies the first
    /// control to the plant (`simulate`). Returns `true` while the run
    /// continues — `false` once the end of the reference is approached or
    /// the step budget is spent.
    pub fn tick<T: MemTrace + ?Sized>(
        &self,
        run: &mut TrackRun,
        reference: &[Point2],
        profiler: &mut Profiler,
        trace: &mut T,
    ) -> bool {
        if run.steps_done >= run.max_steps {
            return false;
        }
        let tr = &mut *trace;
        // Find the local window of the reference.
        while run.ref_idx + 1 < reference.len()
            && reference[run.ref_idx].distance(run.state.pose.position())
                > reference[run.ref_idx + 1].distance(run.state.pose.position())
        {
            run.ref_idx += 1;
        }
        if run.ref_idx + 1 >= reference.len()
            && run
                .state
                .pose
                .position()
                .distance(*reference.last().unwrap())
                < 1.0
        {
            return false;
        }
        run.steps_done += 1;
        if run.window.capacity() < self.config.horizon {
            run.window_growths += 1;
        }
        run.window.clear();
        run.window.extend(
            (0..self.config.horizon)
                .map(|k| reference[(run.ref_idx + 1 + k).min(reference.len() - 1)]),
        );

        let state = run.state;
        let controls = &mut run.controls;
        let window = &run.window;
        let scratch = &mut run.scratch;
        run.opt_iterations += profiler.time("optimize", || {
            self.optimize_ws(state, controls, window, scratch, &mut *tr)
        });

        let (a, omega) = run.controls[0];
        profiler.time("simulate", || {
            run.state = self.step(run.state, a, omega);
            run.trace.push(run.state.pose.position());
            let nearest = reference
                .iter()
                .map(|r| r.distance(run.state.pose.position()))
                .fold(f64::INFINITY, f64::min);
            run.errors.push(nearest);
            run.max_speed = run.max_speed.max(run.state.v);
            run.max_accel = run.max_accel.max(a.abs());
            // Shift the warm start.
            run.controls.rotate_left(1);
            let last = run.controls.len() - 1;
            run.controls[last] = (0.0, 0.0);
        });
        true
    }

    /// Completes a stepped tracking run: reduces the per-step error
    /// series and assembles the result.
    pub fn finish_track(&self, run: TrackRun) -> MpcResult {
        let workspace_allocations = run.workspace_allocations();
        let mean = if run.errors.is_empty() {
            0.0
        } else {
            run.errors.iter().sum::<f64>() / run.errors.len() as f64
        };
        MpcResult {
            trace: run.trace,
            mean_tracking_error: mean,
            max_tracking_error: run.errors.iter().copied().fold(0.0, f64::max),
            max_speed: run.max_speed,
            max_accel: run.max_accel,
            opt_iterations: run.opt_iterations,
            workspace_allocations,
        }
    }
}

/// The paper's "long reference trajectory": a winding road of `n` samples,
/// 0.5 m apart, with sweeping curves.
pub fn winding_reference(n: usize) -> Vec<Point2> {
    (0..n)
        .map(|i| {
            let s = i as f64 * 0.5;
            Point2::new(s, 4.0 * (s * 0.08).sin() + 1.5 * (s * 0.023).cos() - 1.5)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rtr_trace::{CountingTrace, NullTrace, RecordingTrace};

    /// The allocating formulation of [`Mpc::optimize_ws`]: a fresh gradient
    /// and proposal `Vec` per iteration. Reference for the proptest below.
    fn optimize_allocating<T: MemTrace + ?Sized>(
        mpc: &Mpc,
        s0: CarState,
        controls: &mut Vec<(f64, f64)>,
        refs: &[Point2],
        trace: &mut T,
    ) -> u64 {
        let h = 1e-4;
        let mut step_size = 0.4;
        let mut best = mpc.horizon_cost(s0, controls, refs);
        let mut iterations = 0u64;
        for _ in 0..mpc.config.opt_iterations {
            iterations += 1;
            // Numerical gradient over the 2H control variables.
            let mut grad = vec![(0.0f64, 0.0f64); controls.len()];
            for k in 0..controls.len() {
                if trace.enabled() {
                    trace.read(CTRL_REGION + k as u64 * 16);
                    trace.read(REF_REGION + k as u64 * 16);
                    trace.write(GRAD_REGION + k as u64 * 16);
                }
                let orig = controls[k];
                controls[k].0 = orig.0 + h;
                let up = mpc.horizon_cost(s0, controls, refs);
                controls[k].0 = orig.0 - h;
                let down = mpc.horizon_cost(s0, controls, refs);
                controls[k].0 = orig.0;
                grad[k].0 = (up - down) / (2.0 * h);

                controls[k].1 = orig.1 + h;
                let up = mpc.horizon_cost(s0, controls, refs);
                controls[k].1 = orig.1 - h;
                let down = mpc.horizon_cost(s0, controls, refs);
                controls[k].1 = orig.1;
                grad[k].1 = (up - down) / (2.0 * h);
            }
            // Projected descent step with backtracking.
            let proposal: Vec<(f64, f64)> = controls
                .iter()
                .zip(grad.iter())
                .map(|(&(a, w), &(ga, gw))| {
                    (
                        (a - step_size * ga).clamp(-mpc.config.a_max, mpc.config.a_max),
                        (w - step_size * gw).clamp(-mpc.config.steer_max, mpc.config.steer_max),
                    )
                })
                .collect();
            let cost = mpc.horizon_cost(s0, &proposal, refs);
            if cost < best {
                best = cost;
                if trace.enabled() {
                    for k in 0..proposal.len() {
                        trace.write(CTRL_REGION + k as u64 * 16);
                    }
                }
                *controls = proposal;
            } else {
                step_size *= 0.5;
                if step_size < 1e-6 {
                    break;
                }
            }
        }
        iterations
    }

    #[test]
    fn tracks_straight_line() {
        let reference: Vec<Point2> = (0..60).map(|i| Point2::new(i as f64 * 0.5, 0.0)).collect();
        let mut profiler = Profiler::new();
        let r = Mpc::new(MpcConfig::default()).track(&reference, &mut profiler, &mut NullTrace);
        assert!(
            r.mean_tracking_error < 0.5,
            "mean err {}",
            r.mean_tracking_error
        );
        // Reached the far end.
        let end = r.trace.last().unwrap();
        assert!(end.x > 25.0, "only got to {end}");
    }

    #[test]
    fn tracks_winding_road_within_bounds() {
        let reference = winding_reference(120);
        let mut profiler = Profiler::new();
        let r = Mpc::new(MpcConfig::default()).track(&reference, &mut profiler, &mut NullTrace);
        assert!(
            r.mean_tracking_error < 1.0,
            "mean err {}",
            r.mean_tracking_error
        );
        assert!(r.max_speed <= MpcConfig::default().v_max + 1e-9);
        assert!(r.max_accel <= MpcConfig::default().a_max + 1e-9);
    }

    #[test]
    fn optimization_dominates_profile() {
        let reference = winding_reference(60);
        let mut profiler = Profiler::new();
        Mpc::new(MpcConfig::default()).track(&reference, &mut profiler, &mut NullTrace);
        profiler.freeze_total();
        let frac = profiler.fraction("optimize");
        assert!(frac > 0.8, "optimize fraction only {frac}");
    }

    #[test]
    fn speed_constraint_binds() {
        // With a tiny v_max the car cannot reach the end quickly; verify
        // the constraint is respected rather than violated.
        let reference: Vec<Point2> = (0..40).map(|i| Point2::new(i as f64 * 0.5, 0.0)).collect();
        let config = MpcConfig {
            v_max: 1.0,
            ..Default::default()
        };
        let mut profiler = Profiler::new();
        let r = Mpc::new(config).track(&reference, &mut profiler, &mut NullTrace);
        assert!(r.max_speed <= 1.0 + 1e-9);
    }

    #[test]
    fn more_iterations_do_not_hurt_tracking() {
        let reference = winding_reference(60);
        let run = |iters: usize| {
            let mut profiler = Profiler::new();
            Mpc::new(MpcConfig {
                opt_iterations: iters,
                ..Default::default()
            })
            .track(&reference, &mut profiler, &mut NullTrace)
            .mean_tracking_error
        };
        let rough = run(3);
        let fine = run(60);
        assert!(fine <= rough * 1.5 + 0.05, "fine {fine} vs rough {rough}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn workspace_solver_matches_allocating_reference(
            pose in prop::array::uniform3(-5.0f64..5.0),
            // Starting speed as a fraction of `v_max`: exactly 0 or 1 a
            // third of the time each, so the speed clamp fires at both
            // ends of the replayed rollouts.
            speed in (0usize..3, 0.0f64..1.0).prop_map(|(pick, f)| [0.0, 1.0, f][pick]),
            // Warm starts of 1..=16 slots.
            warm in prop::collection::vec((-3.0f64..3.0, -0.8f64..0.8), 1..17),
            window in prop::collection::vec(prop::array::uniform2(-10.0f64..10.0), 1..16),
        ) {
            let scenario = MpcConfig {
                horizon: 10,
                v_max: 2.0,
                a_max: 2.5,
                opt_iterations: 25,
                ..Default::default()
            };
            let refs: Vec<Point2> = window.iter().map(|p| Point2::new(p[0], p[1])).collect();
            let bits = |c: &[(f64, f64)]| -> Vec<(u64, u64)> {
                c.iter().map(|&(a, w)| (a.to_bits(), w.to_bits())).collect()
            };
            for config in [MpcConfig::default(), scenario] {
                let mpc = Mpc::new(config);
                let v = speed * config.v_max;
                let s0 = CarState { pose: Pose2::new(pose[0], pose[1], pose[2]), v };
                let mut reference = warm.clone();
                let mut fast = warm.clone();
                let mut scratch = SolveScratch::default();
                // Two solves on one scratch: the second runs on warm buffers.
                for _ in 0..2 {
                    let mut ref_trace = RecordingTrace::default();
                    let ref_iters =
                        optimize_allocating(&mpc, s0, &mut reference, &refs, &mut ref_trace);
                    let mut fast_trace = RecordingTrace::default();
                    let fast_iters =
                        mpc.optimize_ws(s0, &mut fast, &refs, &mut scratch, &mut fast_trace);
                    prop_assert_eq!(fast_iters, ref_iters);
                    prop_assert_eq!(bits(&fast), bits(&reference));
                    prop_assert_eq!(fast_trace.ops, ref_trace.ops);
                }
            }
        }
    }

    #[test]
    fn workspace_allocations_plateau_with_reference_length() {
        let run = |n: usize| {
            let mut profiler = Profiler::new();
            Mpc::new(MpcConfig::default())
                .track(&winding_reference(n), &mut profiler, &mut NullTrace)
                .workspace_allocations
        };
        let short = run(30);
        let long = run(120);
        // One gradient buffer, one rollout-and-proposal growth, one window
        // growth — all during the first control step, regardless of run
        // length.
        assert_eq!(short, 3, "warmup allocations");
        assert_eq!(long, short, "allocations must not scale with steps");
    }

    #[test]
    #[should_panic(expected = "at least 2 points")]
    fn short_reference_panics() {
        let mut profiler = Profiler::new();
        let _ =
            Mpc::new(MpcConfig::default()).track(&[Point2::ORIGIN], &mut profiler, &mut NullTrace);
    }

    #[test]
    fn traced_track_is_bit_identical() {
        let reference = winding_reference(60);
        let mut profiler = Profiler::new();
        let untraced =
            Mpc::new(MpcConfig::default()).track(&reference, &mut profiler, &mut NullTrace);

        let mut ws_counts = CountingTrace::default();
        let ws = Mpc::new(MpcConfig::default()).track(&reference, &mut profiler, &mut ws_counts);

        // Attaching a sink must not perturb the controller.
        assert_eq!(untraced.opt_iterations, ws.opt_iterations);
        assert_eq!(
            untraced.mean_tracking_error.to_bits(),
            ws.mean_tracking_error.to_bits()
        );
        for (a, b) in untraced.trace.iter().zip(ws.trace.iter()) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
        }

        // Every optimizer iteration sweeps the horizon: ctrl + ref loads
        // and a gradient store per slot.
        let horizon = MpcConfig::default().horizon as u64;
        assert_eq!(ws_counts.reads, ws.opt_iterations * horizon * 2);
        assert!(ws_counts.writes >= ws.opt_iterations * horizon);
    }
}
