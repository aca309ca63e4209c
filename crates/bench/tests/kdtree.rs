//! Query and batching equivalence for the bucketed SoA k-d tree.
//!
//! Queries have canonical semantics (nearest and k-nearest break distance
//! ties toward the smallest payload; radius results are sorted by
//! `(payload, d²)`), so the answer for a point set is unique and a
//! brute-force scan that sums each distance in dimension order is an exact,
//! independent reference. For every point set — balanced builds,
//! incremental inserts interleaved with queries, rebuild-boundary floods,
//! every bucket size — nearest, k-nearest and radius queries must match
//! the scan **bit for bit** (`to_bits`, no tolerances). The pooled batch
//! entry points carry the same contract against their sequential twins for
//! every thread count.

use proptest::prelude::*;
use rtr_geom::KdTree;
use rtr_harness::Pool;
use rtr_sim::SimRng;

/// Brute-force reference: every stored point scanned for every query.
struct Scan<const D: usize> {
    points: Vec<([f64; D], usize)>,
}

impl<const D: usize> Scan<D> {
    fn new() -> Self {
        Scan { points: Vec::new() }
    }

    fn insert(&mut self, point: [f64; D], payload: usize) {
        self.points.push((point, payload));
    }

    /// `(payload, d²)` for every point, d² summed in dimension order.
    fn distances(&self, q: &[f64; D]) -> Vec<(usize, f64)> {
        self.points
            .iter()
            .map(|(p, payload)| {
                let mut d2 = 0.0;
                for d in 0..D {
                    let diff = p[d] - q[d];
                    d2 += diff * diff;
                }
                (*payload, d2)
            })
            .collect()
    }

    fn k_nearest(&self, q: &[f64; D], k: usize) -> Vec<(usize, f64)> {
        let mut all = self.distances(q);
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    fn nearest(&self, q: &[f64; D]) -> Option<(usize, f64)> {
        self.k_nearest(q, 1).pop()
    }

    fn within_radius(&self, q: &[f64; D], radius: f64) -> Vec<(usize, f64)> {
        let r2 = radius * radius;
        let mut hits: Vec<(usize, f64)> = self
            .distances(q)
            .into_iter()
            .filter(|&(_, d2)| d2 <= r2)
            .collect();
        hits.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        hits
    }
}

/// The tree's `k_nearest_into` into a fresh buffer.
fn tree_k_nearest<const D: usize>(tree: &KdTree<D>, q: &[f64; D], k: usize) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    tree.k_nearest_into(q, k, &mut out);
    out
}

/// The tree's `within_radius_into` into a fresh buffer.
fn tree_within_radius<const D: usize>(
    tree: &KdTree<D>,
    q: &[f64; D],
    radius: f64,
) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    tree.within_radius_into(q, radius, &mut out);
    out
}

fn random_point(rng: &mut SimRng, half: f64) -> [f64; 3] {
    [
        rng.uniform(-half, half),
        rng.uniform(-half, half),
        rng.uniform(-half, half),
    ]
}

fn assert_same_pairs(a: &[(usize, f64)], b: &[(usize, f64)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: result counts differ");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.0, y.0, "{what}: payloads differ");
        assert_eq!(x.1.to_bits(), y.1.to_bits(), "{what}: distance bits differ");
    }
}

fn assert_same_nearest(a: Option<(usize, f64)>, b: Option<(usize, f64)>) {
    assert_eq!(
        a.map(|(p, d)| (p, d.to_bits())),
        b.map(|(p, d)| (p, d.to_bits()))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_query_kind_matches_the_scan(
        seed in 0u64..1_000,
        initial in 0usize..200,
        inserts in 0usize..60,
        bucket_idx in 0usize..5,
        k in 1usize..12,
        radius in 0.5f64..8.0,
    ) {
        let bucket = [1usize, 2, 8, 16, 64][bucket_idx];
        let mut rng = SimRng::seed_from(seed);
        let mut scan = Scan::new();
        let mut tree = KdTree::<3>::new().with_bucket_size(bucket);
        for id in 0..initial + inserts {
            let p = random_point(&mut rng, 10.0);
            scan.insert(p, id);
            tree.insert(p, id);
        }
        prop_assert_eq!(tree.len(), scan.points.len());
        for _ in 0..8 {
            let q = random_point(&mut rng, 12.0);
            assert_same_nearest(tree.nearest(&q), scan.nearest(&q));
            assert_same_pairs(&tree_k_nearest(&tree, &q, k), &scan.k_nearest(&q, k), "k_nearest");
            assert_same_pairs(
                &tree_within_radius(&tree, &q, radius),
                &scan.within_radius(&q, radius),
                "within_radius",
            );
        }
    }

    #[test]
    fn balanced_builds_match_the_scan(
        seed in 0u64..1_000,
        n in 0usize..300,
        k in 1usize..12,
    ) {
        let mut rng = SimRng::seed_from(seed);
        let items: Vec<([f64; 3], usize)> =
            (0..n).map(|i| (random_point(&mut rng, 10.0), i)).collect();
        let tree = KdTree::<3>::build_balanced(&items);
        let scan = Scan { points: items };
        for _ in 0..8 {
            let q = random_point(&mut rng, 12.0);
            assert_same_nearest(tree.nearest(&q), scan.nearest(&q));
            assert_same_pairs(&tree_k_nearest(&tree, &q, k), &scan.k_nearest(&q, k), "k_nearest");
            assert_same_pairs(&tree_within_radius(&tree, &q, 3.0), &scan.within_radius(&q, 3.0), "within_radius");
        }
    }

    #[test]
    fn queries_interleaved_between_inserts_match_the_scan(
        seed in 0u64..1_000,
        rounds in 1usize..12,
        per_round in 1usize..24,
    ) {
        let mut rng = SimRng::seed_from(seed);
        let mut scan = Scan::new();
        let mut tree = KdTree::<3>::new();
        let mut id = 0usize;
        for _ in 0..rounds {
            for _ in 0..per_round {
                let p = random_point(&mut rng, 5.0);
                scan.insert(p, id);
                tree.insert(p, id);
                id += 1;
            }
            let q = random_point(&mut rng, 6.0);
            assert_same_nearest(tree.nearest(&q), scan.nearest(&q));
            assert_same_pairs(&tree_k_nearest(&tree, &q, 5), &scan.k_nearest(&q, 5), "k_nearest");
        }
    }

    #[test]
    fn sorted_insert_floods_cross_rebuild_boundaries_without_divergence(
        bucket_idx in 0usize..3,
        n in 256usize..768,
    ) {
        let bucket = [1usize, 4, 16][bucket_idx];
        // Monotone inserts force the pathological deep-spine shape that
        // trips the scapegoat rebuild; answers must not change.
        let mut scan = Scan::new();
        let mut tree = KdTree::<1>::new().with_bucket_size(bucket);
        for i in 0..n {
            let p = [i as f64 * 0.25];
            scan.insert(p, i);
            tree.insert(p, i);
        }
        prop_assert!(tree.rebuilds() > 0, "flood never crossed a rebuild boundary");
        for q in [-1.0, 0.0, 3.3, n as f64 * 0.125, n as f64 * 0.25 + 1.0] {
            assert_same_nearest(tree.nearest(&[q]), scan.nearest(&[q]));
            assert_same_pairs(
                &tree_within_radius(&tree, &[q], 2.0),
                &scan.within_radius(&[q], 2.0),
                "within_radius",
            );
        }
    }

    #[test]
    fn batch_queries_match_sequential_for_all_thread_counts(
        seed in 0u64..1_000,
        n in 1usize..300,
        queries in 1usize..80,
        k in 1usize..8,
    ) {
        let mut rng = SimRng::seed_from(seed);
        let items: Vec<([f64; 3], usize)> =
            (0..n).map(|i| (random_point(&mut rng, 10.0), i)).collect();
        let tree = KdTree::<3>::build_balanced(&items);
        let qs: Vec<[f64; 3]> = (0..queries).map(|_| random_point(&mut rng, 12.0)).collect();
        let seq_nearest: Vec<Option<(usize, f64)>> = qs.iter().map(|q| tree.nearest(q)).collect();
        let seq_knn: Vec<Vec<(usize, f64)>> = qs.iter().map(|q| tree_k_nearest(&tree, q, k)).collect();
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            let mut batch_nearest = Vec::new();
            tree.batch_nearest_into(&qs, &pool, &mut batch_nearest);
            prop_assert_eq!(batch_nearest.len(), seq_nearest.len());
            for (a, b) in batch_nearest.iter().zip(seq_nearest.iter()) {
                assert_same_nearest(*a, *b);
            }
            let batch_knn = tree.batch_k_nearest(&qs, k, &pool);
            prop_assert_eq!(batch_knn.len(), seq_knn.len());
            for (a, b) in batch_knn.iter().zip(seq_knn.iter()) {
                assert_same_pairs(a, b, "batch_k_nearest");
            }
        }
    }
}

#[test]
fn batch_into_reuses_buffers_across_repeated_fanouts() {
    let mut rng = SimRng::seed_from(42);
    let items: Vec<([f64; 3], usize)> = (0..400)
        .map(|i| (random_point(&mut rng, 10.0), i))
        .collect();
    let tree = KdTree::<3>::build_balanced(&items);
    let qs: Vec<[f64; 3]> = (0..64).map(|_| random_point(&mut rng, 10.0)).collect();
    let pool = Pool::new(4);
    let mut nn = Vec::new();
    tree.batch_nearest_into(&qs, &pool, &mut nn);
    let nn_cap = nn.capacity();
    for _ in 0..5 {
        tree.batch_nearest_into(&qs, &pool, &mut nn);
    }
    assert_eq!(nn.capacity(), nn_cap, "batch_nearest_into must reuse");
    assert_eq!(nn, qs.iter().map(|q| tree.nearest(q)).collect::<Vec<_>>());
}
