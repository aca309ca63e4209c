//! Best-first graph search: Dijkstra, A* and Weighted A*.
//!
//! The paper's grid planners (`04.pp2d`, `05.pp3d`, `06.movtar`), the PRM
//! online phase and the symbolic planner all reduce to best-first search.
//! The engine here is shared by all of them; its `*_traced` variants emit
//! every open-list push/pop, bookkeeping probe and node-record read into a
//! [`MemTrace`] sink, reproducing the "irregular traversal ... hard to
//! parallelize" behaviour the paper highlights for graph search. With
//! [`NullTrace`] (the default) the emission compiles to nothing.

use std::cmp::Ordering;
// rtr-lint: allow(nondet-iter) -- maps below are keyed-lookup only, never iterated
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;

use rtr_trace::{MemTrace, NullTrace};

/// Synthetic base address of the open-list entry array (32 B entries).
const OPEN_REGION: u64 = 1 << 40;
/// Synthetic base address of the best/closed bookkeeping table.
const BEST_REGION: u64 = 1 << 41;
/// Bytes per open-list entry: f, g and a node id.
const OPEN_ENTRY_BYTES: u64 = 32;
/// Bytes per bookkeeping bucket: best g plus a parent id.
const BEST_BUCKET_BYTES: u64 = 16;

/// Maps a node's record address onto its bookkeeping bucket (a splitmix64
/// finalizer over a fixed 2^20-bucket table), so best/closed probes scatter
/// the way a hash table's do.
#[inline]
fn probe_addr(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    BEST_REGION + (z & ((1 << 20) - 1)) * BEST_BUCKET_BYTES
}

/// Replays a binary-heap push at slot `len`: the appended entry is written,
/// then the parent chain is read on the way up (sift-up).
#[inline]
fn trace_heap_push<T: MemTrace + ?Sized>(trace: &mut T, len: usize) {
    let mut idx = len as u64;
    trace.write(OPEN_REGION + idx * OPEN_ENTRY_BYTES);
    while idx > 0 {
        idx = (idx - 1) / 2;
        trace.read(OPEN_REGION + idx * OPEN_ENTRY_BYTES);
    }
}

/// Replays a binary-heap pop with `len_after` entries remaining: the root is
/// read, the tail entry moves into its slot, and the child chain is read on
/// the way down (sift-down).
#[inline]
fn trace_heap_pop<T: MemTrace + ?Sized>(trace: &mut T, len_after: usize) {
    trace.read(OPEN_REGION);
    let len = len_after as u64;
    if len == 0 {
        return;
    }
    trace.read(OPEN_REGION + len * OPEN_ENTRY_BYTES);
    trace.write(OPEN_REGION);
    let mut k = 0u64;
    while 2 * k + 1 < len {
        trace.read(OPEN_REGION + (2 * k + 1) * OPEN_ENTRY_BYTES);
        if 2 * k + 2 < len {
            trace.read(OPEN_REGION + (2 * k + 2) * OPEN_ENTRY_BYTES);
        }
        k = 2 * k + 1;
    }
}

/// A search problem over an implicitly defined graph.
///
/// Implementations enumerate successors on demand; the engine never
/// materializes the full graph (the paper's 3D and time-expanded graphs
/// would not fit).
pub trait SearchSpace {
    /// Node identifier. Kept `Copy` so the open/closed bookkeeping stays
    /// allocation-free per expansion.
    type Node: Copy + Eq + Hash;

    /// Appends `(successor, edge_cost)` pairs of `node` to `out`.
    ///
    /// `out` arrives cleared. Edge costs must be non-negative.
    fn successors(&self, node: Self::Node, out: &mut Vec<(Self::Node, f64)>);

    /// Admissible estimate of the remaining cost from `node` to a goal.
    ///
    /// Return `0.0` to degrade A* to Dijkstra.
    fn heuristic(&self, node: Self::Node) -> f64;

    /// Returns `true` when `node` satisfies the goal condition.
    fn is_goal(&self, node: Self::Node) -> bool;
}

/// Outcome of a successful search.
#[derive(Debug, Clone)]
pub struct SearchResult<N> {
    /// Start-to-goal node sequence, inclusive.
    pub path: Vec<N>,
    /// Total path cost.
    pub cost: f64,
    /// Nodes expanded (popped with final g-value).
    pub expanded: u64,
    /// Successor edges generated.
    pub generated: u64,
}

/// Open-list entry ordered by ascending f-value (max-heap inverted).
struct OpenEntry<N> {
    f: f64,
    g: f64,
    node: N,
}

impl<N> PartialEq for OpenEntry<N> {
    fn eq(&self, other: &Self) -> bool {
        self.f == other.f
    }
}
impl<N> Eq for OpenEntry<N> {}
impl<N> PartialOrd for OpenEntry<N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<N> Ord for OpenEntry<N> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; tie-break on larger g (deeper first),
        // which is the standard A* tie-breaking that reduces expansions.
        other
            .f
            .total_cmp(&self.f)
            .then_with(|| self.g.total_cmp(&other.g))
    }
}

/// A* search (`weight = 1`). See [`weighted_astar`].
pub fn astar<S: SearchSpace>(space: &S, start: S::Node) -> Option<SearchResult<S::Node>> {
    weighted_astar(space, start, 1.0)
}

/// A* search emitting its open-list, bookkeeping and node-record accesses
/// into `trace`. See [`weighted_astar_traced`].
pub fn astar_traced<S: SearchSpace, T: MemTrace + ?Sized>(
    space: &S,
    start: S::Node,
    trace: &mut T,
    node_addr: &mut dyn FnMut(&S::Node) -> u64,
) -> Option<SearchResult<S::Node>> {
    weighted_astar_impl(space, start, 1.0, trace, node_addr)
}

/// Dijkstra search (ignores the space's heuristic).
pub fn dijkstra<S: SearchSpace>(space: &S, start: S::Node) -> Option<SearchResult<S::Node>> {
    weighted_astar_impl(space, start, 0.0, &mut NullTrace, &mut |_| 0)
}

/// Weighted A*: node priority is `g + weight·h`.
///
/// `weight = 1` is optimal A*; `weight > 1` inflates the heuristic for
/// speed at the cost of up to `weight`-suboptimal paths — exactly the
/// `06.movtar` trade-off the paper describes ("the final path cost could
/// become ε times higher than the shortest path cost").
///
/// Returns `None` when the goal is unreachable.
///
/// # Panics
///
/// Panics if `weight` is negative or NaN.
///
/// # Example
///
/// ```
/// use rtr_planning::search::{weighted_astar, SearchSpace};
///
/// // A 1D line where the goal is at 5.
/// struct Line;
/// impl SearchSpace for Line {
///     type Node = i64;
///     fn successors(&self, n: i64, out: &mut Vec<(i64, f64)>) {
///         out.push((n + 1, 1.0));
///         out.push((n - 1, 1.0));
///     }
///     fn heuristic(&self, n: i64) -> f64 { (5 - n).abs() as f64 }
///     fn is_goal(&self, n: i64) -> bool { n == 5 }
/// }
/// let result = weighted_astar(&Line, 0, 1.0).unwrap();
/// assert_eq!(result.cost, 5.0);
/// assert_eq!(result.path.len(), 6);
/// ```
pub fn weighted_astar<S: SearchSpace>(
    space: &S,
    start: S::Node,
    weight: f64,
) -> Option<SearchResult<S::Node>> {
    weighted_astar_impl(space, start, weight, &mut NullTrace, &mut |_| 0)
}

/// Like [`weighted_astar`], emitting the search's memory behaviour into a
/// [`MemTrace`] sink: every open-list push/pop (sift chains included),
/// best/closed bookkeeping probe, and a read of each touched node's record
/// at the address `node_addr` assigns it (grid cell, roadmap vertex, …).
///
/// With [`NullTrace`] the emission folds away entirely and the search is
/// the untraced one; results are bit-identical regardless of sink.
pub fn weighted_astar_traced<S: SearchSpace, T: MemTrace + ?Sized>(
    space: &S,
    start: S::Node,
    weight: f64,
    trace: &mut T,
    node_addr: &mut dyn FnMut(&S::Node) -> u64,
) -> Option<SearchResult<S::Node>> {
    weighted_astar_impl(space, start, weight, trace, node_addr)
}

fn weighted_astar_impl<S: SearchSpace, T: MemTrace + ?Sized>(
    space: &S,
    start: S::Node,
    weight: f64,
    trace: &mut T,
    node_addr: &mut dyn FnMut(&S::Node) -> u64,
) -> Option<SearchResult<S::Node>> {
    assert!(weight >= 0.0, "heuristic weight must be non-negative");

    let mut open = BinaryHeap::new();
    // node → (best g, parent). Accessed by key only (get/insert); iteration
    // order never reaches the search result, so hash maps are safe here and
    // keep generic nodes to a Hash + Eq bound.
    // rtr-lint: allow(nondet-iter) -- keyed get/insert only, order never observed
    let mut best: HashMap<S::Node, (f64, Option<S::Node>)> = HashMap::new();
    // rtr-lint: allow(nondet-iter) -- membership test only, order never observed
    let mut closed: HashMap<S::Node, ()> = HashMap::new();
    let mut succ_buf: Vec<(S::Node, f64)> = Vec::new();
    let mut expanded = 0u64;
    let mut generated = 0u64;

    best.insert(start, (0.0, None));
    if trace.enabled() {
        trace.write(probe_addr(node_addr(&start)));
        trace_heap_push(trace, 0);
    }
    open.push(OpenEntry {
        f: weight * space.heuristic(start),
        g: 0.0,
        node: start,
    });

    while let Some(OpenEntry { g, node, .. }) = open.pop() {
        if trace.enabled() {
            trace_heap_pop(trace, open.len());
            trace.read(probe_addr(node_addr(&node)));
        }
        // Skip stale entries (lazy decrease-key).
        match best.get(&node) {
            Some(&(best_g, _)) if g > best_g => continue,
            _ => {}
        }
        if closed.contains_key(&node) {
            continue;
        }
        closed.insert(node, ());
        expanded += 1;
        if trace.enabled() {
            let addr = node_addr(&node);
            trace.write(probe_addr(addr)); // mark closed
            trace.read(addr); // the node's own record (grid cell, vertex, …)
        }

        if space.is_goal(node) {
            // Reconstruct the path.
            let mut path = vec![node];
            let mut cur = node;
            while let Some(&(_, Some(parent))) = best.get(&cur) {
                path.push(parent);
                cur = parent;
            }
            path.reverse();
            return Some(SearchResult {
                path,
                cost: g,
                expanded,
                generated,
            });
        }

        succ_buf.clear();
        space.successors(node, &mut succ_buf);
        for &(next, edge_cost) in &succ_buf {
            debug_assert!(edge_cost >= 0.0, "negative edge cost");
            generated += 1;
            if trace.enabled() {
                trace.read(probe_addr(node_addr(&next))); // closed/best probe
            }
            if closed.contains_key(&next) {
                continue;
            }
            let tentative = g + edge_cost;
            let improved = match best.get(&next) {
                Some(&(existing, _)) => tentative < existing,
                None => true,
            };
            if improved {
                best.insert(next, (tentative, Some(node)));
                if trace.enabled() {
                    trace.write(probe_addr(node_addr(&next)));
                    trace_heap_push(trace, open.len());
                }
                open.push(OpenEntry {
                    f: tentative + weight * space.heuristic(next),
                    g: tentative,
                    node: next,
                });
            }
        }
    }
    None
}

/// Multi-source Dijkstra over an explicit successor function, returning the
/// cost-to-come for every reached node.
///
/// This is the *backward Dijkstra* heuristic precomputation of `06.movtar`:
/// seeded from the goal set, it labels the whole reachable space with exact
/// goal distances in one sweep.
// rtr-lint: allow(nondet-iter) -- callers read the table by key, never by order
pub fn dijkstra_flood<N, F>(sources: &[N], successors: F) -> HashMap<N, f64>
where
    N: Copy + Eq + Hash,
    F: FnMut(N, &mut Vec<(N, f64)>),
{
    dijkstra_flood_traced(sources, successors, &mut NullTrace, &mut |_| 0)
}

/// Like [`dijkstra_flood`], emitting the sweep's open-list operations and
/// distance-table probes into a [`MemTrace`] sink (see
/// [`weighted_astar_traced`] for the emission model).
// rtr-lint: allow(nondet-iter) -- callers read the table by key, never by order
pub fn dijkstra_flood_traced<N, F, T>(
    sources: &[N],
    mut successors: F,
    trace: &mut T,
    node_addr: &mut dyn FnMut(&N) -> u64,
    // rtr-lint: allow(nondet-iter) -- callers read the table by key, never by order
) -> HashMap<N, f64>
where
    N: Copy + Eq + Hash,
    F: FnMut(N, &mut Vec<(N, f64)>),
    T: MemTrace + ?Sized,
{
    // rtr-lint: allow(nondet-iter) -- keyed get/insert only, order never observed
    let mut dist: HashMap<N, f64> = HashMap::new();
    let mut open = BinaryHeap::new();
    for &s in sources {
        dist.insert(s, 0.0);
        if trace.enabled() {
            trace.write(probe_addr(node_addr(&s)));
            trace_heap_push(trace, open.len());
        }
        open.push(OpenEntry {
            f: 0.0,
            g: 0.0,
            node: s,
        });
    }
    let mut buf = Vec::new();
    while let Some(OpenEntry { g, node, .. }) = open.pop() {
        if trace.enabled() {
            trace_heap_pop(trace, open.len());
            trace.read(probe_addr(node_addr(&node)));
        }
        if let Some(&d) = dist.get(&node) {
            if g > d {
                continue;
            }
        }
        buf.clear();
        successors(node, &mut buf);
        for &(next, cost) in &buf {
            let tentative = g + cost;
            let improved = dist.get(&next).is_none_or(|&d| tentative < d);
            if trace.enabled() {
                trace.read(probe_addr(node_addr(&next)));
            }
            if improved {
                dist.insert(next, tentative);
                if trace.enabled() {
                    trace.write(probe_addr(node_addr(&next)));
                    trace_heap_push(trace, open.len());
                }
                open.push(OpenEntry {
                    f: tentative,
                    g: tentative,
                    node: next,
                });
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small weighted digraph fixed in an adjacency list.
    struct Fixture {
        adj: Vec<Vec<(usize, f64)>>,
        goal: usize,
        h: Vec<f64>,
    }

    impl SearchSpace for Fixture {
        type Node = usize;
        fn successors(&self, n: usize, out: &mut Vec<(usize, f64)>) {
            out.extend_from_slice(&self.adj[n]);
        }
        fn heuristic(&self, n: usize) -> f64 {
            self.h[n]
        }
        fn is_goal(&self, n: usize) -> bool {
            n == self.goal
        }
    }

    fn diamond() -> Fixture {
        // 0 → 1 (1), 0 → 2 (4), 1 → 3 (5), 2 → 3 (1): best 0-2-3 = 5.
        Fixture {
            adj: vec![
                vec![(1, 1.0), (2, 4.0)],
                vec![(3, 5.0)],
                vec![(3, 1.0)],
                vec![],
            ],
            goal: 3,
            h: vec![0.0; 4],
        }
    }

    #[test]
    fn dijkstra_finds_cheapest_path() {
        let result = dijkstra(&diamond(), 0).unwrap();
        assert_eq!(result.cost, 5.0);
        assert_eq!(result.path, vec![0, 2, 3]);
    }

    #[test]
    fn astar_with_admissible_heuristic_matches_dijkstra() {
        let mut fx = diamond();
        fx.h = vec![4.0, 5.0, 1.0, 0.0]; // admissible
        let a = astar(&fx, 0).unwrap();
        let d = dijkstra(&fx, 0).unwrap();
        assert_eq!(a.cost, d.cost);
        assert!(a.expanded <= d.expanded);
    }

    #[test]
    fn weighted_astar_bounded_suboptimality() {
        // Build a grid-ish chain with a tempting greedy detour.
        struct Grid;
        impl SearchSpace for Grid {
            type Node = (i64, i64);
            fn successors(&self, (x, y): (i64, i64), out: &mut Vec<((i64, i64), f64)>) {
                for (dx, dy) in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
                    let n = (x + dx, y + dy);
                    if (0..=20).contains(&n.0) && (0..=20).contains(&n.1) {
                        out.push((n, 1.0));
                    }
                }
            }
            fn heuristic(&self, (x, y): (i64, i64)) -> f64 {
                ((20 - x).abs() + (10 - y).abs()) as f64
            }
            fn is_goal(&self, n: (i64, i64)) -> bool {
                n == (20, 10)
            }
        }
        let optimal = astar(&Grid, (0, 0)).unwrap();
        let eps = 3.0;
        let fast = weighted_astar(&Grid, (0, 0), eps).unwrap();
        assert!(fast.cost <= eps * optimal.cost + 1e-9);
        assert!(fast.expanded <= optimal.expanded);
    }

    #[test]
    fn unreachable_goal_returns_none() {
        let fx = Fixture {
            adj: vec![vec![], vec![]],
            goal: 1,
            h: vec![0.0, 0.0],
        };
        assert!(astar(&fx, 0).is_none());
    }

    #[test]
    fn start_is_goal() {
        let fx = Fixture {
            adj: vec![vec![]],
            goal: 0,
            h: vec![0.0],
        };
        let r = astar(&fx, 0).unwrap();
        assert_eq!(r.cost, 0.0);
        assert_eq!(r.path, vec![0]);
        assert_eq!(r.expanded, 1);
    }

    #[test]
    fn traced_search_emits_node_reads_and_open_list_ops() {
        use rtr_trace::RecordingTrace;

        let mut rec = RecordingTrace::default();
        let traced =
            weighted_astar_traced(&diamond(), 0, 1.0, &mut rec, &mut |n| *n as u64 * 64).unwrap();
        // The first node-record read (sub-OPEN_REGION address) is the start.
        let first_record = rec
            .ops
            .iter()
            .find(|op| !op.is_write && op.addr < OPEN_REGION)
            .expect("expansions must read node records");
        assert_eq!(first_record.addr, 0);
        // The goal's record is read too, and the heap sees pushes (writes in
        // the OPEN region) and bookkeeping writes (BEST region).
        assert!(rec.ops.iter().any(|op| !op.is_write && op.addr == 3 * 64));
        assert!(rec
            .ops
            .iter()
            .any(|op| op.is_write && (OPEN_REGION..BEST_REGION).contains(&op.addr)));
        assert!(rec
            .ops
            .iter()
            .any(|op| op.is_write && op.addr >= BEST_REGION));
        // Tracing is an observability knob: identical result either way.
        let plain = weighted_astar(&diamond(), 0, 1.0).unwrap();
        assert_eq!(traced.path, plain.path);
        assert_eq!(traced.cost.to_bits(), plain.cost.to_bits());
        assert_eq!(traced.expanded, plain.expanded);
    }

    #[test]
    fn traced_flood_matches_untraced() {
        use rtr_trace::CountingTrace;

        let succ = |n: i64, out: &mut Vec<(i64, f64)>| {
            for next in [n - 1, n + 1] {
                if (0..=4).contains(&next) {
                    out.push((next, 1.0));
                }
            }
        };
        let plain = dijkstra_flood(&[0i64, 4], succ);
        let mut counts = CountingTrace::default();
        let traced = dijkstra_flood_traced(&[0i64, 4], succ, &mut counts, &mut |n| *n as u64 * 8);
        assert_eq!(plain, traced);
        assert!(counts.reads > 0 && counts.writes > 0);
    }

    #[test]
    fn counts_are_plausible() {
        let r = dijkstra(&diamond(), 0).unwrap();
        assert!(r.expanded >= 3);
        assert!(r.generated >= r.expanded - 1);
    }

    #[test]
    fn dijkstra_flood_multi_source() {
        // Line graph 0-1-2-3-4 with unit edges, sources {0, 4}.
        let dist = dijkstra_flood(&[0i64, 4], |n, out| {
            for next in [n - 1, n + 1] {
                if (0..=4).contains(&next) {
                    out.push((next, 1.0));
                }
            }
        });
        assert_eq!(dist[&0], 0.0);
        assert_eq!(dist[&2], 2.0);
        assert_eq!(dist[&3], 1.0);
        assert_eq!(dist.len(), 5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        let _ = weighted_astar(&diamond(), 0, -1.0);
    }
}
