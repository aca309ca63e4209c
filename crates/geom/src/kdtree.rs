//! Incremental k-d tree for nearest-neighbor search.
//!
//! Nearest-neighbor search is a first-class bottleneck in RTRBench: the
//! paper measures up to 31 % of `08.rrt`'s and up to 49 % of
//! `09.rrtstar`'s execution time in it, and attributes the cost to
//! irregular memory accesses — "samples whose values (angles) are close
//! could be allocated in distant memory locations". The tree keeps points
//! in an insertion-order arena and indexes them with leaf buckets of ~16
//! points whose coordinates are packed contiguously and scanned linearly,
//! so the bottom of every descent — where most of the time goes — runs on
//! streaming loads instead of pointer chases. The characterization
//! harness replays every scanned point into the cache simulator via the
//! `visit` hook of [`KdTree::nearest_with`]. Incremental
//! [`KdTree::insert`] splits overfull leaves on their widest axis and
//! rebuilds the whole index (scapegoat style) when an insert descends far
//! past the balanced depth, so RRT/RRT*'s growing tree stays balanced
//! without bulk construction.
//!
//! Queries have *canonical* semantics — nearest and k-nearest break
//! distance ties toward the smallest payload, radius results come back
//! sorted by `(payload, distance)` — so every answer is fully determined
//! by the point set and can be checked against a brute-force scan
//! (`crates/bench/tests/kdtree.rs`). [`KdTree::nearest`] returns its
//! answer by value; the k-nearest and radius queries fill a caller's
//! buffer ([`KdTree::k_nearest_into`], [`KdTree::within_radius_into`],
//! allocation-free once the buffer is warm); and the batched queries
//! ([`KdTree::batch_nearest_into`], [`KdTree::batch_k_nearest`]) fan
//! independent queries over the deterministic `rtr-harness` worker pool
//! with fixed chunking — results are written by index, so they too are
//! identical for every thread count.

use rtr_harness::Pool;

/// Default number of points per leaf bucket.
///
/// 16 points × 3–5 dims × 8 bytes keeps a leaf within a handful of cache
/// lines; see EXPERIMENTS.md for the sweep that picked it.
pub const KD_BUCKET: usize = 16;

/// Child edge of the bucketed index.
#[derive(Debug, Clone, Copy)]
enum BucketRef {
    /// Index into `KdTree::inners`.
    Inner(u32),
    /// Index into `KdTree::leaves`.
    Leaf(u32),
}

/// Interior splitting plane of the bucketed index. Both children are
/// always present (a split never produces an empty side).
#[derive(Debug, Clone)]
struct BucketInner {
    axis: u32,
    split: f64,
    children: [BucketRef; 2],
}

/// Bucketed leaf: point ids plus their coordinates re-packed contiguously
/// so the leaf scan is a linear walk over `len × DIM` doubles.
#[derive(Debug, Clone, Default)]
struct BucketLeaf {
    ids: Vec<u32>,
    pts: Vec<f64>,
}

/// An incremental k-d tree over `DIM`-dimensional `f64` points.
///
/// Supports point insertion (no deletion — RRT-family planners only grow),
/// nearest-neighbor, k-nearest and radius queries, each with an `_into`
/// variant that reuses caller scratch and a `batch_*` variant that fans
/// independent queries over a worker pool.
///
/// # Example
///
/// ```
/// use rtr_geom::KdTree;
///
/// let mut tree = KdTree::<2>::new();
/// tree.insert([0.0, 0.0], 0);
/// tree.insert([5.0, 5.0], 1);
/// tree.insert([1.0, 1.0], 2);
/// let (payload, dist2) = tree.nearest(&[0.9, 1.2]).unwrap();
/// assert_eq!(payload, 2);
/// assert!(dist2 < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct KdTree<const DIM: usize> {
    bucket: usize,
    /// Insertion-order SoA arena: point `i` lives at `coords[i * DIM..]`
    /// with payload `payloads[i]`.
    coords: Vec<f64>,
    payloads: Vec<usize>,
    // --- Bucketed index over the arena ---
    inners: Vec<BucketInner>,
    leaves: Vec<BucketLeaf>,
    broot: Option<BucketRef>,
    rebuilds: u64,
}

impl<const DIM: usize> Default for KdTree<DIM> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const DIM: usize> KdTree<DIM> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        KdTree {
            bucket: KD_BUCKET,
            coords: Vec::new(),
            payloads: Vec::new(),
            inners: Vec::new(),
            leaves: Vec::new(),
            broot: None,
            rebuilds: 0,
        }
    }

    /// Creates an empty tree with capacity for `n` points.
    pub fn with_capacity(n: usize) -> Self {
        let mut tree = Self::new();
        tree.coords.reserve(n * DIM);
        tree.payloads.reserve(n);
        tree.leaves.reserve(n / KD_BUCKET + 1);
        tree
    }

    /// Sets the leaf bucket size (builder style). Must be called before
    /// any point is inserted.
    ///
    /// # Panics
    ///
    /// Panics when `bucket` is zero or the tree already holds points.
    pub fn with_bucket_size(mut self, bucket: usize) -> Self {
        assert!(bucket >= 1, "bucket size must be at least 1");
        assert!(
            self.is_empty(),
            "bucket size must be set before the first insert"
        );
        self.bucket = bucket;
        self
    }

    /// Builds a balanced tree from `(point, payload)` pairs by recursive
    /// median split on the widest axis (`select_nth_unstable` per level,
    /// O(n log n) total).
    ///
    /// Bulk construction guarantees logarithmic depth up front, without
    /// the rebuilds incremental [`KdTree::insert`] triggers on sorted or
    /// clustered inputs — what the PRM / ICP batch workloads want when
    /// all points are known. Construction is deterministic for a given
    /// input order, and queries answer identically to an incrementally
    /// built tree.
    pub fn build_balanced(items: &[([f64; DIM], usize)]) -> Self {
        let mut tree = Self::with_capacity(items.len());
        for (point, payload) in items {
            tree.coords.extend_from_slice(point);
            tree.payloads.push(*payload);
        }
        tree.bucket_build_all();
        tree
    }

    /// How many times incremental inserts have triggered a full
    /// rebuild-on-imbalance of the bucketed index.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// Returns `true` when the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Iterates over `(payload, point)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[f64])> + '_ {
        self.payloads
            .iter()
            .zip(self.coords.chunks_exact(DIM.max(1)))
            .map(|(&payload, point)| (payload, point))
    }

    #[inline]
    fn arena_point(&self, id: u32) -> &[f64] {
        &self.coords[id as usize * DIM..id as usize * DIM + DIM]
    }

    /// Inserts a point with an associated payload.
    ///
    /// Points are stored by value; duplicate points are allowed. An insert
    /// may split a leaf on its widest axis, and an insert that descends
    /// past roughly twice the balanced depth rebuilds the whole index
    /// (O(n log n), amortized O(log² n) per insert — see
    /// [`KdTree::rebuilds`]).
    pub fn insert(&mut self, point: [f64; DIM], payload: usize) {
        let id = self.payloads.len() as u32;
        self.coords.extend_from_slice(&point);
        self.payloads.push(payload);
        self.bucket_insert(id, &point);
    }

    // ------------------------------------------------------------------
    // Index maintenance
    // ------------------------------------------------------------------

    /// Rebuilds the bucketed index over the whole arena.
    fn bucket_build_all(&mut self) {
        self.inners.clear();
        self.leaves.clear();
        if self.payloads.is_empty() {
            self.broot = None;
            return;
        }
        let mut ids: Vec<u32> = (0..self.payloads.len() as u32).collect();
        let root = self.bucket_build_rec(&mut ids);
        self.broot = Some(root);
    }

    fn bucket_build_rec(&mut self, ids: &mut [u32]) -> BucketRef {
        debug_assert!(!ids.is_empty());
        if ids.len() <= self.bucket {
            return self.push_leaf(ids);
        }
        let Some(axis) = self.widest_axis(ids) else {
            // Every axis has zero spread: all points identical. A split
            // could never separate them, so the leaf overflows its bucket.
            return self.push_leaf(ids);
        };
        let mid = ids.len() / 2;
        let coords = &self.coords;
        // Key on (coordinate, id): deterministic, and it preserves the
        // plane invariant — left coords ≤ split, right coords ≥ split —
        // that the pruning bounds rely on.
        ids.select_nth_unstable_by(mid, |&a, &b| {
            coords[a as usize * DIM + axis]
                .total_cmp(&coords[b as usize * DIM + axis])
                .then(a.cmp(&b))
        });
        let split = self.coords[ids[mid] as usize * DIM + axis];
        let (lo, hi) = ids.split_at_mut(mid);
        let left = self.bucket_build_rec(lo);
        let right = self.bucket_build_rec(hi);
        let idx = self.inners.len() as u32;
        self.inners.push(BucketInner {
            axis: axis as u32,
            split,
            children: [left, right],
        });
        BucketRef::Inner(idx)
    }

    /// The axis with the largest coordinate spread over `ids`, or `None`
    /// when every axis has zero spread (all points identical).
    fn widest_axis(&self, ids: &[u32]) -> Option<usize> {
        let mut best: Option<usize> = None;
        let mut best_spread = 0.0f64;
        for axis in 0..DIM {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &id in ids {
                let c = self.coords[id as usize * DIM + axis];
                lo = lo.min(c);
                hi = hi.max(c);
            }
            let spread = hi - lo;
            if spread > best_spread {
                best_spread = spread;
                best = Some(axis);
            }
        }
        best
    }

    /// Appends a new leaf holding `ids`, packing their coordinates.
    fn push_leaf(&mut self, ids: &[u32]) -> BucketRef {
        let mut leaf = BucketLeaf {
            ids: Vec::with_capacity(ids.len().max(self.bucket + 1)),
            pts: Vec::with_capacity(ids.len().max(self.bucket + 1) * DIM),
        };
        for &id in ids {
            leaf.ids.push(id);
            leaf.pts.extend_from_slice(self.arena_point(id));
        }
        let idx = self.leaves.len() as u32;
        self.leaves.push(leaf);
        BucketRef::Leaf(idx)
    }

    fn bucket_insert(&mut self, id: u32, point: &[f64; DIM]) {
        let Some(mut cur) = self.broot else {
            let leaf = self.push_leaf(&[id]);
            self.broot = Some(leaf);
            return;
        };
        let cap = self.bucket;
        let mut depth = 0usize;
        let mut parent: Option<(u32, usize)> = None;
        loop {
            match cur {
                BucketRef::Inner(i) => {
                    let n = &self.inners[i as usize];
                    let side = usize::from(point[n.axis as usize] >= n.split);
                    parent = Some((i, side));
                    cur = n.children[side];
                    depth += 1;
                }
                BucketRef::Leaf(l) => {
                    let leaf = &mut self.leaves[l as usize];
                    leaf.ids.push(id);
                    leaf.pts.extend_from_slice(point);
                    if leaf.ids.len() > cap && self.split_leaf(l, parent) {
                        depth += 1;
                    }
                    break;
                }
            }
        }
        if depth > self.depth_limit() {
            self.rebuilds += 1;
            self.bucket_build_all();
        }
    }

    /// Splits overfull leaf `l` on its widest axis, reusing `l` as the
    /// left child. Returns `false` (leaving the leaf overfull) when every
    /// axis has zero spread.
    fn split_leaf(&mut self, l: u32, parent: Option<(u32, usize)>) -> bool {
        let mut ids = std::mem::take(&mut self.leaves[l as usize].ids);
        let Some(axis) = self.widest_axis(&ids) else {
            self.leaves[l as usize].ids = ids;
            return false;
        };
        let mid = ids.len() / 2;
        let coords = &self.coords;
        ids.select_nth_unstable_by(mid, |&a, &b| {
            coords[a as usize * DIM + axis]
                .total_cmp(&coords[b as usize * DIM + axis])
                .then(a.cmp(&b))
        });
        let split = self.coords[ids[mid] as usize * DIM + axis];
        let right_ids = ids.split_off(mid);
        self.refill_leaf(l, ids);
        let right = self.push_leaf(&right_ids);
        let inner = self.inners.len() as u32;
        self.inners.push(BucketInner {
            axis: axis as u32,
            split,
            children: [BucketRef::Leaf(l), right],
        });
        match parent {
            Some((p, side)) => self.inners[p as usize].children[side] = BucketRef::Inner(inner),
            None => self.broot = Some(BucketRef::Inner(inner)),
        }
        true
    }

    /// Re-packs leaf `l` to hold exactly `ids` (which it previously owned).
    fn refill_leaf(&mut self, l: u32, ids: Vec<u32>) {
        let mut pts = std::mem::take(&mut self.leaves[l as usize].pts);
        pts.clear();
        for &id in &ids {
            pts.extend_from_slice(self.arena_point(id));
        }
        let leaf = &mut self.leaves[l as usize];
        leaf.ids = ids;
        leaf.pts = pts;
    }

    /// Scapegoat-style depth budget: roughly twice the depth of a
    /// perfectly balanced bucket tree, plus constant slack so small trees
    /// never thrash.
    fn depth_limit(&self) -> usize {
        let buckets = self.payloads.len() / self.bucket + 1;
        2 * (usize::BITS - buckets.leading_zeros()) as usize + 8
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Finds the nearest stored point to `query`.
    ///
    /// Returns `(payload, squared_distance)`, or `None` when empty.
    /// Distance ties break toward the smallest payload, so the answer is
    /// canonical: independent of insertion order and tree shape.
    pub fn nearest(&self, query: &[f64; DIM]) -> Option<(usize, f64)> {
        self.nearest_with(query, |_| {})
    }

    /// Like [`KdTree::nearest`], invoking `visit(payload)` on every point
    /// examined during the descent (cache-characterization hook): every
    /// point scanned in a visited leaf, in leaf-storage order.
    pub fn nearest_with(
        &self,
        query: &[f64; DIM],
        mut visit: impl FnMut(usize),
    ) -> Option<(usize, f64)> {
        if self.is_empty() {
            return None;
        }
        let mut best = (usize::MAX, f64::INFINITY);
        self.bucket_nearest_rec(self.broot?, query, &mut best, &mut visit);
        Some(best)
    }

    /// Walks one bucketed leaf, handing `(id, d²)` to `f` in leaf-storage
    /// order. The distances for a block of slots are computed by the lane
    /// kernel up front (into a stack buffer, so `_into` query paths stay
    /// allocation-free); the kernel preserves each point's per-dimension
    /// accumulation order, so every `d²` — and therefore every downstream
    /// selection — is bit-identical to a sequential scan.
    #[inline]
    fn scan_leaf(&self, leaf: &BucketLeaf, query: &[f64; DIM], mut f: impl FnMut(u32, f64)) {
        /// Upper bound on slots distanced per lane-kernel call; leaves
        /// larger than this (custom bucket sizes) are scanned in blocks.
        const SCAN_BLOCK: usize = 64;
        let mut d2s = [0.0f64; SCAN_BLOCK];
        let len = leaf.ids.len();
        let mut base = 0usize;
        while base < len {
            let n = (len - base).min(SCAN_BLOCK);
            rtr_simd::squared_distances::<DIM>(
                &leaf.pts[base * DIM..(base + n) * DIM],
                query,
                &mut d2s[..n],
            );
            for (off, &id) in leaf.ids[base..base + n].iter().enumerate() {
                f(id, d2s[off]);
            }
            base += n;
        }
    }

    fn bucket_nearest_rec(
        &self,
        node: BucketRef,
        query: &[f64; DIM],
        best: &mut (usize, f64),
        visit: &mut impl FnMut(usize),
    ) {
        match node {
            BucketRef::Leaf(l) => {
                let leaf = &self.leaves[l as usize];
                self.scan_leaf(leaf, query, |id, d2| {
                    let payload = self.payloads[id as usize];
                    visit(payload);
                    if closer(payload, d2, best) {
                        *best = (payload, d2);
                    }
                });
            }
            BucketRef::Inner(i) => {
                let n = &self.inners[i as usize];
                let delta = query[n.axis as usize] - n.split;
                let (near, far) = if delta < 0.0 { (0, 1) } else { (1, 0) };
                self.bucket_nearest_rec(n.children[near], query, best, visit);
                if delta * delta <= best.1 {
                    self.bucket_nearest_rec(n.children[far], query, best, visit);
                }
            }
        }
    }

    /// Finds the `k` nearest points: clears `out` and fills it with the `k`
    /// nearest `(payload, squared_distance)` pairs in ascending
    /// `(distance, payload)` order (fewer than `k` when the tree is
    /// smaller), reusing the buffer's capacity.
    ///
    /// During the search `out` doubles as a bounded binary max-heap keyed
    /// on `(distance, payload)`, so each candidate costs O(log k) and no
    /// memory is allocated once the buffer has grown to `k` entries.
    pub fn k_nearest_into(&self, query: &[f64; DIM], k: usize, out: &mut Vec<(usize, f64)>) {
        out.clear();
        if k == 0 || self.is_empty() {
            return;
        }
        if let Some(root) = self.broot {
            self.bucket_k_nearest_rec(root, query, k, out);
        }
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    }

    #[inline]
    fn offer_k(heap: &mut Vec<(usize, f64)>, k: usize, payload: usize, d2: f64) {
        if heap.len() < k {
            heap_push(heap, (payload, d2));
        } else if closer(payload, d2, &heap[0]) {
            heap_replace_root(heap, (payload, d2));
        }
    }

    fn bucket_k_nearest_rec(
        &self,
        node: BucketRef,
        query: &[f64; DIM],
        k: usize,
        heap: &mut Vec<(usize, f64)>,
    ) {
        match node {
            BucketRef::Leaf(l) => {
                let leaf = &self.leaves[l as usize];
                self.scan_leaf(leaf, query, |id, d2| {
                    Self::offer_k(heap, k, self.payloads[id as usize], d2);
                });
            }
            BucketRef::Inner(i) => {
                let n = &self.inners[i as usize];
                let delta = query[n.axis as usize] - n.split;
                let (near, far) = if delta < 0.0 { (0, 1) } else { (1, 0) };
                self.bucket_k_nearest_rec(n.children[near], query, k, heap);
                if heap.len() < k || delta * delta <= heap[0].1 {
                    self.bucket_k_nearest_rec(n.children[far], query, k, heap);
                }
            }
        }
    }

    /// Finds all points within `radius` of `query`: clears `out` and fills
    /// it, reusing the buffer's capacity.
    ///
    /// The boundary is **inclusive**: a point at exactly `radius` away is
    /// returned (membership is `d² <= radius²`, and the subtree pruning
    /// test uses the same `<=` so boundary points are never skipped).
    ///
    /// Results are `(payload, squared_distance)` pairs sorted by ascending
    /// `(payload, distance)` — canonical for the point set. RRT* collects
    /// its rewiring neighborhood (the paper's "yellow circle") with it.
    pub fn within_radius_into(&self, query: &[f64; DIM], radius: f64, out: &mut Vec<(usize, f64)>) {
        out.clear();
        let r2 = radius * radius;
        if let Some(root) = self.broot {
            self.bucket_radius_rec(root, query, r2, out);
        }
        out.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    }

    fn bucket_radius_rec(
        &self,
        node: BucketRef,
        query: &[f64; DIM],
        r2: f64,
        out: &mut Vec<(usize, f64)>,
    ) {
        match node {
            BucketRef::Leaf(l) => {
                let leaf = &self.leaves[l as usize];
                self.scan_leaf(leaf, query, |id, d2| {
                    if d2 <= r2 {
                        out.push((self.payloads[id as usize], d2));
                    }
                });
            }
            BucketRef::Inner(i) => {
                let n = &self.inners[i as usize];
                let delta = query[n.axis as usize] - n.split;
                let (near, far) = if delta < 0.0 { (0, 1) } else { (1, 0) };
                self.bucket_radius_rec(n.children[near], query, r2, out);
                if delta * delta <= r2 {
                    self.bucket_radius_rec(n.children[far], query, r2, out);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Batched queries
    // ------------------------------------------------------------------

    /// Answers one [`KdTree::nearest`] per query, fanning the independent
    /// searches over `pool` with fixed chunking: resizes `out` to
    /// `queries.len()` (reusing its capacity) and fills every slot.
    ///
    /// Each output slot is written by index, so the result is
    /// element-for-element identical to the sequential loop for every
    /// thread count ([`Pool::sequential`] *is* the sequential loop).
    pub fn batch_nearest_into(
        &self,
        queries: &[[f64; DIM]],
        pool: &Pool,
        out: &mut Vec<Option<(usize, f64)>>,
    ) {
        out.clear();
        out.resize(queries.len(), None);
        pool.par_chunks_mut(out, |start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                *slot = self.nearest(&queries[start + off]);
            }
        });
    }

    /// Answers one [`KdTree::k_nearest_into`] per query over `pool`; same
    /// determinism contract as [`KdTree::batch_nearest_into`].
    pub fn batch_k_nearest(
        &self,
        queries: &[[f64; DIM]],
        k: usize,
        pool: &Pool,
    ) -> Vec<Vec<(usize, f64)>> {
        let mut out: Vec<Vec<(usize, f64)>> =
            (0..queries.len()).map(|_| Vec::with_capacity(k)).collect();
        pool.par_chunks_mut(&mut out, |start, chunk| {
            for (off, buf) in chunk.iter_mut().enumerate() {
                self.k_nearest_into(&queries[start + off], k, buf);
            }
        });
        out
    }
}

/// Canonical "candidate beats incumbent" order: smaller squared distance
/// first, smaller payload on exact ties.
#[inline]
fn closer(payload: usize, d2: f64, best: &(usize, f64)) -> bool {
    d2 < best.1 || (d2 == best.1 && payload < best.0)
}

/// `a` orders strictly after `b` under the canonical `(d², payload)` key
/// (max-heap comparison).
#[inline]
fn heap_after(a: (usize, f64), b: (usize, f64)) -> bool {
    a.1 > b.1 || (a.1 == b.1 && a.0 > b.0)
}

/// Pushes onto the `(d², payload)`-keyed max-heap, sifting the new entry up.
fn heap_push(heap: &mut Vec<(usize, f64)>, item: (usize, f64)) {
    heap.push(item);
    let mut child = heap.len() - 1;
    while child > 0 {
        let parent = (child - 1) / 2;
        if !heap_after(heap[child], heap[parent]) {
            break;
        }
        heap.swap(parent, child);
        child = parent;
    }
}

/// Replaces the heap root (current worst) and sifts it down.
fn heap_replace_root(heap: &mut [(usize, f64)], item: (usize, f64)) {
    heap[0] = item;
    let mut parent = 0;
    loop {
        let left = 2 * parent + 1;
        if left >= heap.len() {
            break;
        }
        let right = left + 1;
        let bigger = if right < heap.len() && heap_after(heap[right], heap[left]) {
            right
        } else {
            left
        };
        if !heap_after(heap[bigger], heap[parent]) {
            break;
        }
        heap.swap(parent, bigger);
        parent = bigger;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum()
    }

    /// [`KdTree::k_nearest_into`] into a fresh buffer.
    fn k_nearest<const D: usize>(
        tree: &KdTree<D>,
        query: &[f64; D],
        k: usize,
    ) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        tree.k_nearest_into(query, k, &mut out);
        out
    }

    /// [`KdTree::within_radius_into`] into a fresh buffer.
    fn within_radius<const D: usize>(
        tree: &KdTree<D>,
        query: &[f64; D],
        radius: f64,
    ) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        tree.within_radius_into(query, radius, &mut out);
        out
    }

    fn brute_nearest<const D: usize>(
        points: &[[f64; D]],
        query: &[f64; D],
    ) -> Option<(usize, f64)> {
        points
            .iter()
            .enumerate()
            .map(|(i, p)| (i, squared_distance(p, query)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    #[test]
    fn empty_tree_queries() {
        let tree = KdTree::<3>::new();
        assert!(tree.is_empty());
        assert_eq!(tree.nearest(&[0.0; 3]), None);
        assert!(k_nearest(&tree, &[0.0; 3], 4).is_empty());
        assert!(within_radius(&tree, &[0.0; 3], 1.0).is_empty());
    }

    #[test]
    fn single_point() {
        let mut tree = KdTree::<2>::new();
        tree.insert([1.0, 2.0], 42);
        assert_eq!(tree.nearest(&[0.0, 0.0]), Some((42, 5.0)));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn nearest_matches_brute_force() {
        // Deterministic pseudo-random points via an LCG.
        let mut seed = 12345u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (1u64 << 31) as f64 * 10.0 - 5.0
        };
        let points: Vec<[f64; 5]> = (0..300)
            .map(|_| [next(), next(), next(), next(), next()])
            .collect();
        let queries: Vec<[f64; 5]> = (0..50)
            .map(|_| [next(), next(), next(), next(), next()])
            .collect();
        let mut tree = KdTree::<5>::new();
        for (i, p) in points.iter().enumerate() {
            tree.insert(*p, i);
        }
        for q in &queries {
            let (tp, td) = tree.nearest(q).unwrap();
            let (bp, bd) = brute_nearest(&points, q).unwrap();
            assert_eq!(tp, bp);
            assert!((td - bd).abs() < 1e-12);
        }
    }

    #[test]
    fn k_nearest_sorted_and_complete() {
        let mut tree = KdTree::<1>::new();
        for i in 0..10 {
            tree.insert([i as f64], i);
        }
        let got = k_nearest(&tree, &[3.2], 3);
        assert_eq!(got.len(), 3);
        let ids: Vec<usize> = got.iter().map(|(p, _)| *p).collect();
        assert_eq!(ids, vec![3, 4, 2]);
        // Distances ascend.
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn k_nearest_with_k_larger_than_len() {
        let mut tree = KdTree::<2>::new();
        tree.insert([0.0, 0.0], 0);
        tree.insert([1.0, 0.0], 1);
        assert_eq!(k_nearest(&tree, &[0.0, 0.0], 10).len(), 2);
    }

    #[test]
    fn distance_ties_break_toward_smaller_payload() {
        let mut tree = KdTree::<1>::new();
        // Payloads out of insertion order to make the tie-break visible.
        tree.insert([1.0], 9);
        tree.insert([-1.0], 2);
        tree.insert([3.0], 5);
        // 1.0 and -1.0 are both at distance 1 from the origin.
        assert_eq!(tree.nearest(&[0.0]), Some((2, 1.0)));
        let two = k_nearest(&tree, &[0.0], 2);
        assert_eq!(two, vec![(2, 1.0), (9, 1.0)]);
    }

    #[test]
    fn within_radius_exact_membership() {
        let mut tree = KdTree::<2>::new();
        for i in 0..10 {
            tree.insert([i as f64, 0.0], i);
        }
        let got: Vec<usize> = within_radius(&tree, &[4.5, 0.0], 1.6)
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        // Canonical order: ascending payload, no caller-side sort needed.
        assert_eq!(got, vec![3, 4, 5, 6]);
    }

    #[test]
    fn radius_boundary_is_inclusive() {
        let mut tree = KdTree::<2>::new();
        tree.insert([3.0, 4.0], 7);
        let got = within_radius(&tree, &[0.0, 0.0], 5.0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 7);
    }

    #[test]
    fn within_radius_into_reuses_buffer() {
        let mut tree = KdTree::<2>::new();
        for i in 0..64 {
            tree.insert([(i % 8) as f64, (i / 8) as f64], i);
        }
        let mut buf = Vec::new();
        tree.within_radius_into(&[3.5, 3.5], 2.0, &mut buf);
        assert!(!buf.is_empty());
        let cap = buf.capacity();
        for _ in 0..8 {
            tree.within_radius_into(&[3.5, 3.5], 2.0, &mut buf);
        }
        assert_eq!(buf.capacity(), cap, "buffer must be reused");
    }

    #[test]
    fn duplicate_points_are_kept() {
        let mut tree = KdTree::<2>::new();
        tree.insert([1.0, 1.0], 0);
        tree.insert([1.0, 1.0], 1);
        assert_eq!(within_radius(&tree, &[1.0, 1.0], 0.1).len(), 2);
    }

    #[test]
    fn duplicate_flood_overflows_bucket_gracefully() {
        // All-identical points can never be separated by a splitting
        // plane; the leaf must absorb them without splitting or spinning.
        let mut tree = KdTree::<2>::new();
        for i in 0..100 {
            tree.insert([2.0, 3.0], i);
        }
        assert_eq!(tree.len(), 100);
        assert_eq!(within_radius(&tree, &[2.0, 3.0], 0.5).len(), 100);
        let (payload, d2) = tree.nearest(&[2.0, 3.1]).unwrap();
        assert_eq!(payload, 0, "duplicate tie must break toward payload 0");
        assert!((d2 - 0.01).abs() < 1e-12);
        // A later distinct point still splits the mixed leaf fine.
        tree.insert([5.0, 5.0], 100);
        assert_eq!(tree.nearest(&[5.1, 5.0]).unwrap().0, 100);
    }

    #[test]
    fn visitor_reports_visited_payloads() {
        let mut tree = KdTree::<2>::new();
        for i in 0..50 {
            tree.insert([(i % 7) as f64, (i % 11) as f64], i);
        }
        let mut visits = 0usize;
        tree.nearest_with(&[3.0, 5.0], |_| visits += 1);
        assert!(visits >= 1);
        assert!(visits <= 50);
    }

    fn lcg_points<const D: usize>(n: usize, seed: u64) -> Vec<[f64; D]> {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 * 10.0 - 5.0
        };
        (0..n).map(|_| std::array::from_fn(|_| next())).collect()
    }

    #[test]
    fn balanced_build_matches_incremental_queries() {
        let points = lcg_points::<3>(500, 99);
        let items: Vec<([f64; 3], usize)> =
            points.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let balanced = KdTree::build_balanced(&items);
        let mut incremental = KdTree::<3>::new();
        for (p, i) in &items {
            incremental.insert(*p, *i);
        }
        assert_eq!(balanced.len(), incremental.len());
        for q in lcg_points::<3>(60, 7) {
            // Canonical tie-breaks make the answers exactly equal; no
            // set-comparison slack needed.
            assert_eq!(balanced.nearest(&q), incremental.nearest(&q));
            assert_eq!(k_nearest(&balanced, &q, 8), k_nearest(&incremental, &q, 8));
            assert_eq!(
                within_radius(&balanced, &q, 2.0),
                within_radius(&incremental, &q, 2.0)
            );
        }
    }

    #[test]
    fn balanced_build_is_logarithmically_deep() {
        // Sorted input: the balanced build must come out shallow without
        // any rebuild.
        let items: Vec<([f64; 1], usize)> = (0..1024).map(|i| ([i as f64], i)).collect();
        let tree = KdTree::build_balanced(&items);
        let mut max_visits = 0usize;
        // Probe via the visit hook: nearest() walks one root-to-leaf
        // path plus bounded backtracking, so the visit count bounds the
        // leaf fan-out.
        for q in [[-1.0], [512.3], [2000.0]] {
            let mut visits = 0usize;
            tree.nearest_with(&q, |_| visits += 1);
            max_visits = max_visits.max(visits);
        }
        assert!(
            max_visits <= 64,
            "visited {max_visits} points in a 1024-point balanced tree"
        );
    }

    #[test]
    fn sorted_inserts_trigger_rebuild_and_stay_shallow() {
        // Adversarial input for incremental insertion: ascending 1-D
        // points. The bucketed index must notice the imbalance and
        // rebuild itself back to logarithmic depth.
        let mut tree = KdTree::<1>::new();
        for i in 0..2048 {
            tree.insert([i as f64], i);
        }
        assert!(
            tree.rebuilds() > 0,
            "sorted inserts must trip rebuild-on-imbalance"
        );
        let mut visits = 0usize;
        tree.nearest_with(&[2047.5], |_| visits += 1);
        assert!(
            visits <= 96,
            "visited {visits} points after rebuild of a 2048-point tree"
        );
        // Correctness survives the rebuilds.
        assert_eq!(tree.nearest(&[1000.2]).unwrap().0, 1000);
        assert_eq!(tree.len(), 2048);
    }

    #[test]
    fn custom_bucket_sizes_answer_identically() {
        let points = lcg_points::<2>(300, 5);
        let reference = {
            let mut t = KdTree::<2>::new();
            for (i, p) in points.iter().enumerate() {
                t.insert(*p, i);
            }
            t
        };
        for bucket in [1usize, 2, 4, 8, 32, 128] {
            let mut t = KdTree::<2>::new().with_bucket_size(bucket);
            for (i, p) in points.iter().enumerate() {
                t.insert(*p, i);
            }
            for q in lcg_points::<2>(20, 77) {
                assert_eq!(t.nearest(&q), reference.nearest(&q), "bucket={bucket}");
                assert_eq!(
                    k_nearest(&t, &q, 5),
                    k_nearest(&reference, &q, 5),
                    "bucket={bucket}"
                );
            }
        }
    }

    #[test]
    fn balanced_build_of_empty_and_tiny_inputs() {
        assert!(KdTree::<2>::build_balanced(&[]).is_empty());
        let one = KdTree::build_balanced(&[([1.0, 2.0], 5)]);
        assert_eq!(one.nearest(&[0.0, 0.0]), Some((5, 5.0)));
    }

    #[test]
    fn k_nearest_matches_brute_force_on_random_points() {
        let points = lcg_points::<2>(200, 3);
        let items: Vec<([f64; 2], usize)> =
            points.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let tree = KdTree::build_balanced(&items);
        for q in lcg_points::<2>(25, 11) {
            let got = k_nearest(&tree, &q, 10);
            let mut brute: Vec<(usize, f64)> = points
                .iter()
                .enumerate()
                .map(|(i, p)| (i, squared_distance(p, &q)))
                .collect();
            brute.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            brute.truncate(10);
            assert_eq!(got.len(), brute.len());
            for (g, b) in got.iter().zip(&brute) {
                assert_eq!(g.0, b.0);
                assert_eq!(g.1.to_bits(), b.1.to_bits());
            }
        }
    }

    #[test]
    fn k_nearest_into_reuses_buffer_and_sorts() {
        let items: Vec<([f64; 1], usize)> = (0..32).map(|i| ([i as f64], i)).collect();
        let tree = KdTree::build_balanced(&items);
        let mut buf = Vec::new();
        tree.k_nearest_into(&[10.2], 4, &mut buf);
        assert_eq!(
            buf.iter().map(|p| p.0).collect::<Vec<_>>(),
            vec![10, 11, 9, 12]
        );
        let cap = buf.capacity();
        tree.k_nearest_into(&[3.9], 4, &mut buf);
        assert_eq!(
            buf.capacity(),
            cap,
            "buffer must be reused, not reallocated"
        );
        assert_eq!(
            buf.iter().map(|p| p.0).collect::<Vec<_>>(),
            vec![4, 3, 5, 2]
        );
        tree.k_nearest_into(&[0.0], 0, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn batch_nearest_matches_sequential_for_all_thread_counts() {
        let points = lcg_points::<3>(600, 21);
        let items: Vec<([f64; 3], usize)> =
            points.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let queries = lcg_points::<3>(97, 8);
        let tree = KdTree::build_balanced(&items);
        let reference: Vec<Option<(usize, f64)>> =
            queries.iter().map(|q| tree.nearest(q)).collect();
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            let mut got = Vec::new();
            tree.batch_nearest_into(&queries, &pool, &mut got);
            assert_eq!(got, reference);
            let got_k = tree.batch_k_nearest(&queries, 5, &pool);
            for (q, got) in queries.iter().zip(&got_k) {
                assert_eq!(got, &k_nearest(&tree, q, 5));
            }
        }
    }

    #[test]
    fn batch_into_buffers_plateau() {
        let points = lcg_points::<2>(256, 31);
        let items: Vec<([f64; 2], usize)> =
            points.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let tree = KdTree::build_balanced(&items);
        let queries = lcg_points::<2>(64, 9);
        let pool = Pool::sequential();
        let mut nn = Vec::new();
        tree.batch_nearest_into(&queries, &pool, &mut nn);
        let nn_cap = nn.capacity();
        for _ in 0..4 {
            tree.batch_nearest_into(&queries, &pool, &mut nn);
        }
        assert_eq!(nn.capacity(), nn_cap, "batch_nearest buffer must plateau");
    }

    #[test]
    fn iter_yields_all_points() {
        let mut tree = KdTree::<3>::new();
        tree.insert([1.0, 2.0, 3.0], 9);
        tree.insert([4.0, 5.0, 6.0], 8);
        let all: Vec<(usize, Vec<f64>)> = tree.iter().map(|(p, c)| (p, c.to_vec())).collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], (9, vec![1.0, 2.0, 3.0]));
    }
}
