//! `03.srec` — 3D scene reconstruction via iterative closest point.
//!
//! Implements the point-based reconstruction pipeline of the paper's
//! reference \[50\] (Keller et al., 3DV 2013), whose core is the ICP
//! alignment of successive camera scans: "ICP essentially tries to
//! reconcile two clouds of points to have a unified understanding of the
//! environment." The paper finds the kernel memory-bound — "more than 68 %
//! of the execution time is spent waiting for memory" — because
//! correspondence search chases irregular pointers; the `nn_search` region
//! and the traced k-d-tree visits reproduce exactly that access pattern.
//! The rigid-alignment step uses Horn's closed-form quaternion method,
//! whose "massive matrix operations" are the kernel's second bottleneck.
//!
//! Both bottlenecks carry the suite's fast-path conventions: the
//! correspondence chase runs as a batched k-d-tree fan-out over the worker
//! pool into persistent buffers ([`IcpConfig::threads`], bit-identical for
//! every thread count), and the Horn solve draws its 4×4 scratch from a
//! reusable [`Workspace`] — so after the first iteration an alignment
//! stops allocating entirely outside the initial tree build.

use rtr_geom::{KdTree, Point3, PointCloud, RigidTransform};
use rtr_harness::{Pool, Profiler};
use rtr_linalg::{jacobi_eigen_in_place, Workspace};
use rtr_trace::MemTrace;

/// Synthetic trace address of the correspondence pair buffer: each
/// accepted pair is two `Point3` records (48 bytes), stored in a region
/// far above the target cloud's 32-byte point arena so the cache
/// characterization sees the two streams as distinct data structures.
const PAIR_TRACE_BASE: u64 = 1 << 32;

/// Stop when the mean correspondence distance improves by less than
/// this between iterations (meters).
const CONVERGENCE_EPSILON: f64 = 1e-5;
/// Reject correspondences farther than this (meters). At `INFINITY` the
/// `dist <= MAX_CORRESPONDENCE_DISTANCE` gate rejects only a NaN distance.
const MAX_CORRESPONDENCE_DISTANCE: f64 = f64::INFINITY;

/// Configuration for [`Icp`].
#[derive(Debug, Clone)]
pub struct IcpConfig {
    /// Maximum ICP iterations.
    pub max_iterations: usize,
    /// Worker threads for the correspondence search (`1` = sequential
    /// legacy path, `0` = one per hardware thread). Results are
    /// bit-identical for every thread count; traced runs (with a memory
    /// simulator attached) always execute sequentially.
    pub threads: usize,
}

impl Default for IcpConfig {
    fn default() -> Self {
        IcpConfig {
            max_iterations: 50,
            threads: 1,
        }
    }
}

/// Result of an ICP alignment.
#[derive(Debug, Clone)]
pub struct IcpResult {
    /// Estimated transform mapping the source cloud onto the target.
    pub transform: RigidTransform,
    /// Mean correspondence distance before alignment.
    pub error_before: f64,
    /// Mean correspondence distance after alignment.
    pub error_after: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Nearest-neighbor queries issued (the irregular-access count).
    pub nn_queries: u64,
    /// Fresh heap allocations the Horn-step workspace has performed over
    /// this kernel's lifetime (plateaus after the first solve).
    pub workspace_allocations: usize,
}

/// Persistent scratch reused across iterations and across `align` calls:
/// the re-posed source cloud, the query/result buffers of the batched
/// correspondence search, the gated pair list, and the Horn-step matrix
/// workspace.
#[derive(Debug, Clone, Default)]
struct IcpScratch {
    moved: PointCloud,
    queries: Vec<[f64; 3]>,
    nn: Vec<Option<(usize, f64)>>,
    pairs: Vec<(Point3, Point3)>,
    ws: Workspace,
}

/// Loop state of one stepped ICP alignment: the target k-d tree (owned —
/// [`KdTree`] copies the points at build time) plus the per-iteration
/// accumulators. Created by [`Icp::begin`], advanced one iteration at a
/// time by [`Icp::iterate`], and turned into an [`IcpResult`] by
/// [`Icp::finish_run`].
#[derive(Debug)]
pub struct IcpRun {
    tree: KdTree<3>,
    transform: RigidTransform,
    nn_queries: u64,
    error_before: Option<f64>,
    last_error: f64,
    iterations: usize,
    max_iterations: usize,
    /// Set once an iteration converged or found too few pairs: the run
    /// has ended, and [`Icp::iterate`] does no further work.
    ended: bool,
}

/// The ICP scene-reconstruction kernel.
///
/// # Example
///
/// ```
/// use rtr_perception::{Icp, IcpConfig};
/// use rtr_geom::{Point3, PointCloud, RigidTransform};
/// use rtr_harness::Profiler;
///
/// let target: PointCloud = (0..200)
///     .map(|i| Point3::new((i % 20) as f64 * 0.1, (i / 20) as f64 * 0.1, 0.0))
///     .collect();
/// let shift = RigidTransform::from_yaw_translation(0.0, Point3::new(0.05, 0.0, 0.0));
/// let source = target.transformed(&shift.inverse());
/// let mut icp = Icp::new(IcpConfig::default());
/// let mut profiler = Profiler::new();
/// let result = icp.align(&source, &target, &mut profiler, &mut rtr_trace::NullTrace);
/// assert!(result.error_after < result.error_before);
/// ```
#[derive(Debug, Clone)]
pub struct Icp {
    config: IcpConfig,
    pool: Pool,
    scratch: IcpScratch,
}

impl Default for Icp {
    fn default() -> Self {
        Icp::new(IcpConfig::default())
    }
}

impl Icp {
    /// Creates the kernel.
    pub fn new(config: IcpConfig) -> Self {
        let pool = Pool::new(config.threads);
        Icp {
            config,
            pool,
            scratch: IcpScratch::default(),
        }
    }

    /// Aligns `source` onto `target`, returning the recovered transform.
    ///
    /// Profiler regions: `kdtree_build`, `nn_search` (the memory-bound
    /// correspondence chase), `matrix_ops` (cross-covariance + Horn
    /// eigen-solve). With a live `trace` sink every k-d-tree point visit
    /// is emitted as a read of one 32-byte record, and the search runs
    /// sequentially to keep the access stream ordered.
    ///
    /// # Panics
    ///
    /// Panics if either cloud is empty.
    pub fn align<T: MemTrace + ?Sized>(
        &mut self,
        source: &PointCloud,
        target: &PointCloud,
        profiler: &mut Profiler,
        trace: &mut T,
    ) -> IcpResult {
        let mut run = self.begin(source, target, profiler);
        while self.iterate(&mut run, source, target, profiler, &mut *trace) {}
        self.finish_run(&mut run, source)
    }

    /// Starts a stepped alignment: builds the target k-d tree (the
    /// `kdtree_build` region) and initializes the iteration state. Drive
    /// the returned [`IcpRun`] with [`Icp::iterate`] until it returns
    /// `false`, then call [`Icp::finish_run`]; that sequence is exactly
    /// [`Icp::align`], bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if either cloud is empty.
    pub fn begin(
        &mut self,
        source: &PointCloud,
        target: &PointCloud,
        profiler: &mut Profiler,
    ) -> IcpRun {
        assert!(!source.is_empty() && !target.is_empty(), "empty cloud");
        let config = &self.config;
        let tree = profiler.time("kdtree_build", || {
            let items: Vec<([f64; 3], usize)> = target
                .points()
                .iter()
                .enumerate()
                .map(|(i, p)| (p.to_array(), i))
                .collect();
            KdTree::<3>::build_balanced(&items)
        });
        IcpRun {
            tree,
            transform: RigidTransform::identity(),
            nn_queries: 0,
            error_before: None,
            last_error: f64::INFINITY,
            iterations: 0,
            max_iterations: config.max_iterations,
            ended: false,
        }
    }

    /// Advances a stepped alignment by one ICP iteration: correspondence
    /// search (the `nn_search` region), convergence check, and Horn
    /// transform update (`matrix_ops`). Returns `true` while more
    /// iterations remain — `false` once converged, starved of pairs, or
    /// out of iterations, and from then on `false` without doing any
    /// work. Steady-state calls are allocation-free (persistent scratch,
    /// recycled Horn buffers).
    pub fn iterate<T: MemTrace + ?Sized>(
        &mut self,
        run: &mut IcpRun,
        source: &PointCloud,
        target: &PointCloud,
        profiler: &mut Profiler,
        trace: &mut T,
    ) -> bool {
        if run.ended || run.iterations >= run.max_iterations {
            return false;
        }
        let pool = self.pool;
        let scratch = &mut self.scratch;
        let tree = &run.tree;
        run.iterations += 1;
        source.transform_into(&run.transform, &mut scratch.moved);

        // Correspondence search: irregular tree chases.
        let start = profiler.hot_start();
        scratch.pairs.clear();
        let mut error_sum = 0.0;
        if let Some(g) = trace.gate() {
            // Traced runs share one sink and must replay point visits
            // in query order, so they stay sequential.
            for p in scratch.moved.iter() {
                run.nn_queries += 1;
                let found = tree.nearest_with(&p.to_array(), |payload| {
                    // Point records are ~32 bytes in an
                    // insertion-order arena.
                    trace.read(payload as u64 * 32, g);
                });
                let (idx, d2) = found.expect("target cloud is non-empty");
                let dist = d2.sqrt();
                error_sum += dist;
                if dist <= MAX_CORRESPONDENCE_DISTANCE {
                    // Accepted correspondences are appended to the
                    // pair buffer: one 48-byte store (two Point3
                    // records) per accepted pair, in a region far
                    // above the 32-byte point arena so the stream is
                    // no longer read-only.
                    trace.write(PAIR_TRACE_BASE + scratch.pairs.len() as u64 * 48, g);
                    scratch.pairs.push((*p, target.points()[idx]));
                }
            }
        } else {
            // Pure per-point lookups fan out over the pool into the
            // persistent result buffer (inline when `threads == 1`);
            // the error reduction and pair assembly stay sequential in
            // point order, so the result is bit-identical to the
            // legacy loop for every thread count.
            scratch.queries.clear();
            scratch
                .queries
                .extend(scratch.moved.iter().map(|p| p.to_array()));
            tree.batch_nearest_into(&scratch.queries, &pool, &mut scratch.nn);
            for (p, found) in scratch.moved.iter().zip(&scratch.nn) {
                run.nn_queries += 1;
                let (idx, d2) = found.expect("target cloud is non-empty");
                let dist = d2.sqrt();
                error_sum += dist;
                if dist <= MAX_CORRESPONDENCE_DISTANCE {
                    scratch.pairs.push((*p, target.points()[idx]));
                }
            }
        }
        profiler.hot_add("nn_search", start);

        let mean_error = error_sum / scratch.moved.len() as f64;
        if run.error_before.is_none() {
            run.error_before = Some(mean_error);
        }
        let converged = (run.last_error - mean_error).abs() < CONVERGENCE_EPSILON;
        run.last_error = mean_error;
        // Converged, or too few pairs to constrain a transform.
        run.ended = converged || scratch.pairs.len() < 3;
        if run.ended {
            return false;
        }

        // Closed-form rigid alignment (Horn): the matrix-op bottleneck.
        let mo_start = profiler.hot_start();
        let delta = best_rigid_transform_ws(&scratch.pairs, &mut scratch.ws);
        profiler.hot_add("matrix_ops", mo_start);
        run.transform = delta.compose(&run.transform);
        true
    }

    /// Completes a stepped alignment: one final correspondence pass with
    /// the converged transform (sequential sum keeps the reduction order
    /// fixed) and result assembly.
    pub fn finish_run(&mut self, run: &mut IcpRun, source: &PointCloud) -> IcpResult {
        let pool = self.pool;
        let scratch = &mut self.scratch;
        source.transform_into(&run.transform, &mut scratch.moved);
        scratch.queries.clear();
        scratch
            .queries
            .extend(scratch.moved.iter().map(|p| p.to_array()));
        run.tree
            .batch_nearest_into(&scratch.queries, &pool, &mut scratch.nn);
        let mut error_sum = 0.0;
        for found in &scratch.nn {
            let (_, d2) = found.expect("target cloud is non-empty");
            error_sum += d2.sqrt();
        }
        let error_after = error_sum / scratch.moved.len() as f64;

        IcpResult {
            transform: run.transform,
            error_before: run.error_before.unwrap_or(error_after),
            error_after,
            iterations: run.iterations,
            nn_queries: run.nn_queries,
            workspace_allocations: scratch.ws.allocations(),
        }
    }

    /// Fresh heap allocations the Horn-step workspace has performed so far
    /// (plateaus at 2 — the 4×4 Jacobi matrix and rotation accumulator —
    /// after the first solve).
    pub fn workspace_allocations(&self) -> usize {
        self.scratch.ws.allocations()
    }
}

/// Centroids and 3×3 cross-covariance of the paired points — the
/// allocation-free front half of the Horn solve.
fn horn_cross_covariance(pairs: &[(Point3, Point3)]) -> (Point3, Point3, [[f64; 3]; 3]) {
    let n = pairs.len() as f64;
    let mut src_centroid = Point3::ORIGIN;
    let mut dst_centroid = Point3::ORIGIN;
    for (s, d) in pairs {
        src_centroid = src_centroid + *s;
        dst_centroid = dst_centroid + *d;
    }
    src_centroid = src_centroid * (1.0 / n);
    dst_centroid = dst_centroid * (1.0 / n);

    let mut s = [[0.0f64; 3]; 3];
    for (p, q) in pairs {
        let a = *p - src_centroid;
        let b = *q - dst_centroid;
        let av = [a.x, a.y, a.z];
        let bv = [b.x, b.y, b.z];
        for (i, &ai) in av.iter().enumerate() {
            for (j, &bj) in bv.iter().enumerate() {
                s[i][j] += ai * bj;
            }
        }
    }
    (src_centroid, dst_centroid, s)
}

/// Entries of Horn's 4×4 symmetric matrix whose dominant eigenvector is
/// the optimal quaternion, row-major.
fn horn_matrix_entries(s: &[[f64; 3]; 3]) -> [[f64; 4]; 4] {
    let (sxx, sxy, sxz) = (s[0][0], s[0][1], s[0][2]);
    let (syx, syy, syz) = (s[1][0], s[1][1], s[1][2]);
    let (szx, szy, szz) = (s[2][0], s[2][1], s[2][2]);
    [
        [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
        [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
        [szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy],
        [sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz],
    ]
}

/// Assembles the rigid transform from the optimal quaternion and the
/// paired centroids — the back half of the Horn solve.
fn horn_assemble(
    q: (f64, f64, f64, f64),
    src_centroid: Point3,
    dst_centroid: Point3,
) -> RigidTransform {
    let (w, x, y, z) = q;
    // Quaternion → rotation matrix.
    let rotation = [
        [
            1.0 - 2.0 * (y * y + z * z),
            2.0 * (x * y - w * z),
            2.0 * (x * z + w * y),
        ],
        [
            2.0 * (x * y + w * z),
            1.0 - 2.0 * (x * x + z * z),
            2.0 * (y * z - w * x),
        ],
        [
            2.0 * (x * z - w * y),
            2.0 * (y * z + w * x),
            1.0 - 2.0 * (x * x + y * y),
        ],
    ];

    // Translation aligning the rotated source centroid with the target's.
    let rotated = RigidTransform {
        rotation,
        translation: Point3::ORIGIN,
    }
    .apply(src_centroid);
    RigidTransform {
        rotation,
        translation: dst_centroid - rotated,
    }
}

/// Least-squares rigid transform mapping `pairs.0` onto `pairs.1` (Horn's
/// quaternion method). The 4×4 Jacobi solve runs on matrices drawn from
/// `ws` via [`jacobi_eigen_in_place`], so the steady-state solve performs
/// no heap allocation. The sweep sequence is identical to
/// `symmetric_eigen`'s, and the dominant diagonal entry is selected
/// exactly as its stable descending sort would, so the recovered
/// transform matches the allocating `symmetric_eigen` reference in this
/// file's tests bit for bit.
fn best_rigid_transform_ws(pairs: &[(Point3, Point3)], ws: &mut Workspace) -> RigidTransform {
    let (src_centroid, dst_centroid, s) = horn_cross_covariance(pairs);
    let entries = horn_matrix_entries(&s);
    let mut n_mat = ws.matrix(4, 4);
    for (r, row) in entries.iter().enumerate() {
        for (c, &value) in row.iter().enumerate() {
            n_mat[(r, c)] = value;
        }
    }
    // Mirror the allocating reference's op sequence exactly (a no-op on
    // this already-symmetric matrix, since mirrored entries share bits).
    n_mat.symmetrize_mut();
    let mut v = ws.matrix(4, 4);
    for i in 0..4 {
        v[(i, i)] = 1.0;
    }
    jacobi_eigen_in_place(&mut n_mat, &mut v).expect("fixed 4×4 shape");

    // First strict maximum of the diagonal — the same column a stable
    // descending sort puts first.
    let mut best = 0usize;
    for i in 1..4 {
        if n_mat[(i, i)].total_cmp(&n_mat[(best, best)]).is_gt() {
            best = i;
        }
    }
    let q = (v[(0, best)], v[(1, best)], v[(2, best)], v[(3, best)]);
    ws.recycle_matrix(n_mat);
    ws.recycle_matrix(v);
    horn_assemble(q, src_centroid, dst_centroid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_linalg::{symmetric_eigen, Matrix};
    use rtr_sim::{scene, SimRng};
    use rtr_trace::{CountingTrace, NullTrace};

    /// The allocating Horn solve: `symmetric_eigen` on a freshly built
    /// 4×4 matrix. Reference for [`best_rigid_transform_ws`].
    fn best_rigid_transform(pairs: &[(Point3, Point3)]) -> RigidTransform {
        let (src_centroid, dst_centroid, s) = horn_cross_covariance(pairs);
        let entries = horn_matrix_entries(&s);
        let rows: Vec<&[f64]> = entries.iter().map(|r| r.as_slice()).collect();
        let n_mat = Matrix::from_rows(&rows).expect("fixed shape");

        let eig = symmetric_eigen(&n_mat).expect("square input");
        let q = eig.vectors.column(0); // dominant eigenvector
        horn_assemble((q[0], q[1], q[2], q[3]), src_centroid, dst_centroid)
    }

    fn grid_cloud(n_side: usize) -> PointCloud {
        let mut cloud = PointCloud::new();
        for i in 0..n_side {
            for j in 0..n_side {
                // Two non-parallel planes so rotation is observable.
                cloud.push(Point3::new(i as f64 * 0.1, j as f64 * 0.1, 0.0));
                cloud.push(Point3::new(i as f64 * 0.1, 0.0, j as f64 * 0.1));
            }
        }
        cloud
    }

    #[test]
    fn recovers_pure_translation() {
        let target = grid_cloud(12);
        let truth = RigidTransform::from_yaw_translation(0.0, Point3::new(0.04, -0.03, 0.02));
        let source = target.transformed(&truth.inverse());
        let mut profiler = Profiler::new();
        let result =
            Icp::new(IcpConfig::default()).align(&source, &target, &mut profiler, &mut NullTrace);
        assert!(result.error_after < 0.01, "residual {}", result.error_after);
        let t = result.transform.translation;
        assert!((t.x - 0.04).abs() < 0.02);
    }

    #[test]
    fn recovers_small_rotation() {
        let target = grid_cloud(12);
        let truth = RigidTransform::from_yaw_translation(0.05, Point3::new(0.02, 0.01, 0.0));
        let source = target.transformed(&truth.inverse());
        let mut profiler = Profiler::new();
        let result =
            Icp::new(IcpConfig::default()).align(&source, &target, &mut profiler, &mut NullTrace);
        assert!(
            result.error_after < result.error_before * 0.2,
            "{} -> {}",
            result.error_before,
            result.error_after
        );
    }

    #[test]
    fn aligned_clouds_converge_immediately() {
        let target = grid_cloud(8);
        let mut profiler = Profiler::new();
        let result =
            Icp::new(IcpConfig::default()).align(&target, &target, &mut profiler, &mut NullTrace);
        assert!(result.error_after < 1e-9);
        assert!(result.iterations <= 2);
    }

    #[test]
    fn living_room_scans_align() {
        let mut rng = SimRng::seed_from(6);
        let room = scene::living_room(8_000, &mut rng);
        let camera_motion =
            RigidTransform::from_yaw_translation(0.04, Point3::new(0.06, -0.04, 0.01));
        // Scan 1 in world frame, scan 2 from a displaced camera.
        let scan1 = scene::scan_from(&room, &RigidTransform::identity(), 0.5, 0.002, &mut rng);
        let scan2 = scene::scan_from(&room, &camera_motion, 0.5, 0.002, &mut rng);
        let mut profiler = Profiler::new();
        let result =
            Icp::new(IcpConfig::default()).align(&scan2, &scan1, &mut profiler, &mut NullTrace);
        assert!(
            result.error_after < result.error_before,
            "{} -> {}",
            result.error_before,
            result.error_after
        );
        // Recovered translation should be in the ballpark of the camera
        // motion (symmetric surfaces make exact recovery unnecessary here).
        assert!(result.error_after < 0.05, "residual {}", result.error_after);
    }

    #[test]
    fn nn_search_dominates_profile() {
        let mut rng = SimRng::seed_from(7);
        let room = scene::living_room(6_000, &mut rng);
        let motion = RigidTransform::from_yaw_translation(0.03, Point3::new(0.05, 0.0, 0.0));
        let scan1 = scene::scan_from(&room, &RigidTransform::identity(), 0.6, 0.002, &mut rng);
        let scan2 = scene::scan_from(&room, &motion, 0.6, 0.002, &mut rng);
        let mut profiler = Profiler::timed();
        Icp::new(IcpConfig::default()).align(&scan2, &scan1, &mut profiler, &mut NullTrace);
        profiler.freeze_total();
        assert_eq!(profiler.dominant_region().unwrap().name, "nn_search");
    }

    #[test]
    fn traced_run_emits_multiple_visits_per_query() {
        // (The miss-ratio finding over a >512 KiB arena moves to the bench
        // crate, which owns the cache-simulator dependency.)
        let mut rng = SimRng::seed_from(8);
        let room = scene::living_room(20_000, &mut rng);
        let motion = RigidTransform::from_yaw_translation(0.02, Point3::new(0.03, 0.0, 0.0));
        let scan1 = scene::scan_from(&room, &RigidTransform::identity(), 0.8, 0.002, &mut rng);
        let scan2 = scene::scan_from(&room, &motion, 0.8, 0.002, &mut rng);
        let mut profiler = Profiler::new();
        let config = IcpConfig {
            max_iterations: 3,
            ..Default::default()
        };
        let mut counts = CountingTrace::default();
        let result = Icp::new(config.clone()).align(&scan2, &scan1, &mut profiler, &mut counts);
        // Reads: multiple tree visits per query. Writes: one pair-buffer
        // store per accepted correspondence — with gating disabled (the
        // default) every query accepts, so the write stream is exactly
        // one store per nn query.
        assert!(counts.reads > result.nn_queries);
        assert_eq!(counts.writes, result.nn_queries);
        let plain = Icp::new(config).align(&scan2, &scan1, &mut profiler, &mut NullTrace);
        assert_eq!(
            result.transform.translation.x.to_bits(),
            plain.transform.translation.x.to_bits()
        );
        assert_eq!(result.iterations, plain.iterations);
        assert_eq!(result.nn_queries, plain.nn_queries);
    }

    #[test]
    fn iterate_after_the_run_ends_does_no_work() {
        // The `03.srec --points 1500` scans: the run converges after 9
        // iterations, well inside the budget.
        let mut rng = SimRng::seed_from(6);
        let room = scene::living_room(1_500, &mut rng);
        let motion = RigidTransform::from_yaw_translation(0.04, Point3::new(0.06, -0.04, 0.01));
        let scan1 = scene::scan_from(&room, &RigidTransform::identity(), 0.5, 0.002, &mut rng);
        let scan2 = scene::scan_from(&room, &motion, 0.5, 0.002, &mut rng);
        let finish_after = |extra_calls: usize| {
            let mut profiler = Profiler::new();
            let mut icp = Icp::new(IcpConfig::default());
            let mut run = icp.begin(&scan2, &scan1, &mut profiler);
            while icp.iterate(&mut run, &scan2, &scan1, &mut profiler, &mut NullTrace) {}
            for _ in 0..extra_calls {
                assert!(!icp.iterate(&mut run, &scan2, &scan1, &mut profiler, &mut NullTrace));
            }
            icp.finish_run(&mut run, &scan2)
        };
        let ended = finish_after(0);
        assert!(ended.iterations < IcpConfig::default().max_iterations);
        let called_again = finish_after(2);
        assert_eq!(called_again.iterations, ended.iterations);
        assert_eq!(called_again.nn_queries, ended.nn_queries);
        let bits = |t: &RigidTransform| {
            let p = t.translation;
            (
                t.rotation.map(|row| row.map(f64::to_bits)),
                [p.x, p.y, p.z].map(f64::to_bits),
            )
        };
        assert_eq!(bits(&called_again.transform), bits(&ended.transform));
    }

    #[test]
    fn horn_method_exact_on_noiseless_pairs() {
        let truth = RigidTransform::from_yaw_translation(0.4, Point3::new(1.0, -2.0, 0.5));
        let points: Vec<Point3> = (0..20)
            .map(|i| Point3::new(i as f64 * 0.3, (i % 5) as f64, (i % 3) as f64 * 0.7))
            .collect();
        let pairs: Vec<(Point3, Point3)> = points.iter().map(|p| (*p, truth.apply(*p))).collect();
        let recovered = best_rigid_transform_ws(&pairs, &mut Workspace::new());
        for p in &points {
            assert!(recovered.apply(*p).distance(truth.apply(*p)) < 1e-9);
        }
    }

    #[test]
    fn workspace_horn_matches_allocating_reference_bitwise() {
        let truth = RigidTransform::from_yaw_translation(0.3, Point3::new(0.4, -1.1, 0.2));
        let points: Vec<Point3> = (0..40)
            .map(|i| Point3::new((i % 7) as f64 * 0.4, (i % 5) as f64 * 0.9, i as f64 * 0.05))
            .collect();
        let pairs: Vec<(Point3, Point3)> = points.iter().map(|p| (*p, truth.apply(*p))).collect();
        let reference = best_rigid_transform(&pairs);
        let mut ws = Workspace::new();
        for _ in 0..3 {
            let fast = best_rigid_transform_ws(&pairs, &mut ws);
            for r in 0..3 {
                for c in 0..3 {
                    assert_eq!(
                        fast.rotation[r][c].to_bits(),
                        reference.rotation[r][c].to_bits()
                    );
                }
            }
            assert_eq!(
                fast.translation.x.to_bits(),
                reference.translation.x.to_bits()
            );
            assert_eq!(
                fast.translation.y.to_bits(),
                reference.translation.y.to_bits()
            );
            assert_eq!(
                fast.translation.z.to_bits(),
                reference.translation.z.to_bits()
            );
        }
        // Two 4×4 buffers, however many solves ran.
        assert_eq!(ws.allocations(), 2);
    }

    #[test]
    fn workspace_allocations_plateau_across_aligns() {
        let mut rng = SimRng::seed_from(9);
        let room = scene::living_room(3_000, &mut rng);
        let motion = RigidTransform::from_yaw_translation(0.03, Point3::new(0.05, 0.0, 0.0));
        let scan1 = scene::scan_from(&room, &RigidTransform::identity(), 0.5, 0.002, &mut rng);
        let scan2 = scene::scan_from(&room, &motion, 0.5, 0.002, &mut rng);
        let mut icp = Icp::new(IcpConfig::default());
        let mut profiler = Profiler::new();
        let first = icp.align(&scan2, &scan1, &mut profiler, &mut NullTrace);
        assert!(first.workspace_allocations > 0);
        let second = icp.align(&scan2, &scan1, &mut profiler, &mut NullTrace);
        assert_eq!(
            second.workspace_allocations, first.workspace_allocations,
            "Horn workspace must stop allocating after the first align"
        );
        assert_eq!(icp.workspace_allocations(), first.workspace_allocations);
    }

    #[test]
    #[should_panic(expected = "empty cloud")]
    fn empty_cloud_panics() {
        let mut profiler = Profiler::new();
        let _ = Icp::new(IcpConfig::default()).align(
            &PointCloud::new(),
            &grid_cloud(2),
            &mut profiler,
            &mut NullTrace,
        );
    }
}
