//! The best-first engine against the two-map engine it replaced.
//!
//! `reference` below is that engine verbatim: a SipHash `best` map of
//! `(g, parent)` beside a SipHash `closed` set, probed in turn on every
//! pop and every generated successor. The engine keeps one Fx-hashed
//! map of `(g, parent, closed)` records instead. Over random grids (4 and
//! 8 moves, heuristic weights 0, 1 and 2.5, unit costs that tie on f
//! everywhere, mixed costs, walled-off goals) both must return the same
//! path, cost bits and counters and emit the same `RecordingTrace`
//! stream; `dijkstra_flood` must return the same table and stream.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rtr_planning::search::{dijkstra_flood, weighted_astar, SearchSpace};
use rtr_trace::RecordingTrace;

#[expect(
    clippy::disallowed_types,
    reason = "the test-side SipHash reference: the engine's former best map and closed set"
)]
mod reference {
    //! The two-map engine, with its trace emission, as it stood before
    //! the bookkeeping became one map.

    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashMap};
    use std::hash::Hash;

    use rtr_planning::search::{SearchResult, SearchSpace};
    use rtr_trace::{Gated, MemTrace};

    const OPEN_REGION: u64 = 1 << 40;
    const BEST_REGION: u64 = 1 << 41;
    const OPEN_ENTRY_BYTES: u64 = 32;
    const BEST_BUCKET_BYTES: u64 = 16;

    fn probe_addr(key: u64) -> u64 {
        let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        BEST_REGION + (z & ((1 << 20) - 1)) * BEST_BUCKET_BYTES
    }

    fn trace_heap_push<T: MemTrace + ?Sized>(trace: &mut T, len: usize, gate: Gated) {
        let mut idx = len as u64;
        trace.write(OPEN_REGION + idx * OPEN_ENTRY_BYTES, gate);
        while idx > 0 {
            idx = (idx - 1) / 2;
            trace.read(OPEN_REGION + idx * OPEN_ENTRY_BYTES, gate);
        }
    }

    fn trace_heap_pop<T: MemTrace + ?Sized>(trace: &mut T, len_after: usize, gate: Gated) {
        trace.read(OPEN_REGION, gate);
        let len = len_after as u64;
        if len == 0 {
            return;
        }
        trace.read(OPEN_REGION + len * OPEN_ENTRY_BYTES, gate);
        trace.write(OPEN_REGION, gate);
        let mut k = 0u64;
        while 2 * k + 1 < len {
            trace.read(OPEN_REGION + (2 * k + 1) * OPEN_ENTRY_BYTES, gate);
            if 2 * k + 2 < len {
                trace.read(OPEN_REGION + (2 * k + 2) * OPEN_ENTRY_BYTES, gate);
            }
            k = 2 * k + 1;
        }
    }

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
            other
                .f
                .total_cmp(&self.f)
                .then_with(|| self.g.total_cmp(&other.g))
        }
    }

    pub fn weighted_astar<S: SearchSpace, T: MemTrace + ?Sized>(
        space: &S,
        start: S::Node,
        weight: f64,
        trace: &mut T,
        node_addr: &mut dyn FnMut(&S::Node) -> u64,
    ) -> Option<SearchResult<S::Node>> {
        let mut open = BinaryHeap::new();
        let mut best: HashMap<S::Node, (f64, Option<S::Node>)> = HashMap::new();
        let mut closed: HashMap<S::Node, ()> = HashMap::new();
        let mut succ_buf: Vec<(S::Node, f64)> = Vec::new();
        let mut expanded = 0u64;
        let mut generated = 0u64;

        best.insert(start, (0.0, None));
        if let Some(gate) = trace.gate() {
            trace.write(probe_addr(node_addr(&start)), gate);
            trace_heap_push(trace, 0, gate);
        }
        open.push(OpenEntry {
            f: weight * space.heuristic(start),
            g: 0.0,
            node: start,
        });

        while let Some(OpenEntry { g, node, .. }) = open.pop() {
            if let Some(gate) = trace.gate() {
                trace_heap_pop(trace, open.len(), gate);
                trace.read(probe_addr(node_addr(&node)), gate);
            }
            match best.get(&node) {
                Some(&(best_g, _)) if g > best_g => continue,
                _ => {}
            }
            if closed.contains_key(&node) {
                continue;
            }
            closed.insert(node, ());
            expanded += 1;
            if let Some(gate) = trace.gate() {
                let addr = node_addr(&node);
                trace.write(probe_addr(addr), gate);
                trace.read(addr, gate);
            }

            if space.is_goal(node) {
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
                generated += 1;
                if let Some(gate) = trace.gate() {
                    trace.read(probe_addr(node_addr(&next)), gate);
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
                    if let Some(gate) = trace.gate() {
                        trace.write(probe_addr(node_addr(&next)), gate);
                        trace_heap_push(trace, open.len(), gate);
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

    pub fn dijkstra_flood<N, F, T>(
        sources: &[N],
        mut successors: F,
        trace: &mut T,
        node_addr: &mut dyn FnMut(&N) -> u64,
    ) -> HashMap<N, f64>
    where
        N: Copy + Eq + Hash,
        F: FnMut(N, &mut Vec<(N, f64)>),
        T: MemTrace + ?Sized,
    {
        let mut dist: HashMap<N, f64> = HashMap::new();
        let mut open = BinaryHeap::new();
        for &s in sources {
            dist.insert(s, 0.0);
            if let Some(gate) = trace.gate() {
                trace.write(probe_addr(node_addr(&s)), gate);
                trace_heap_push(trace, open.len(), gate);
            }
            open.push(OpenEntry {
                f: 0.0,
                g: 0.0,
                node: s,
            });
        }
        let mut buf = Vec::new();
        while let Some(OpenEntry { g, node, .. }) = open.pop() {
            if let Some(gate) = trace.gate() {
                trace_heap_pop(trace, open.len(), gate);
                trace.read(probe_addr(node_addr(&node)), gate);
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
                if let Some(gate) = trace.gate() {
                    trace.read(probe_addr(node_addr(&next)), gate);
                }
                if improved {
                    dist.insert(next, tentative);
                    if let Some(gate) = trace.gate() {
                        trace.write(probe_addr(node_addr(&next)), gate);
                        trace_heap_push(trace, open.len(), gate);
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
}

const SIDE: i64 = 14;
const MOVES_8: [(i64, i64); 8] = [
    (1, 0),
    (-1, 0),
    (0, 1),
    (0, -1),
    (1, 1),
    (1, -1),
    (-1, 1),
    (-1, -1),
];

/// A `SIDE`² grid with per-cell entry costs (0 = blocked).
struct Grid {
    cost: Vec<u8>,
    moves: usize,
    goal: (i64, i64),
}

impl Grid {
    /// Draws the grid from `seed`: about `percent` % blocked, entry costs
    /// all 1 (`mixed` false: f ties everywhere) or 1–3; with `walled` the
    /// goal's neighbours are blocked, so it is unreachable.
    fn random(seed: u64, percent: u64, mixed: bool, walled: bool, moves: usize) -> Self {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let mut cost: Vec<u8> = (0..SIDE * SIDE)
            .map(|_| {
                if next() % 100 < percent {
                    0
                } else if mixed {
                    1 + (next() % 3) as u8
                } else {
                    1
                }
            })
            .collect();
        let goal = (SIDE - 2, SIDE - 3);
        cost[(goal.1 * SIDE + goal.0) as usize] = 1;
        cost[0] = 1;
        if walled {
            for (dx, dy) in MOVES_8 {
                cost[((goal.1 + dy) * SIDE + goal.0 + dx) as usize] = 0;
            }
        }
        Grid { cost, moves, goal }
    }

    fn entry_cost(&self, (x, y): (i64, i64)) -> Option<f64> {
        let inside = (0..SIDE).contains(&x) && (0..SIDE).contains(&y);
        let c = if inside {
            self.cost[(y * SIDE + x) as usize]
        } else {
            0
        };
        (c > 0).then_some(f64::from(c))
    }

    fn neighbours(&self, (x, y): (i64, i64), out: &mut Vec<((i64, i64), f64)>) {
        for &(dx, dy) in &MOVES_8[..self.moves] {
            let n = (x + dx, y + dy);
            if let Some(c) = self.entry_cost(n) {
                let diagonal = dx != 0 && dy != 0;
                out.push((
                    n,
                    if diagonal {
                        c * std::f64::consts::SQRT_2
                    } else {
                        c
                    },
                ));
            }
        }
    }
}

impl SearchSpace for Grid {
    type Node = (i64, i64);

    fn successors(&self, node: (i64, i64), out: &mut Vec<((i64, i64), f64)>) {
        self.neighbours(node, out);
    }

    fn heuristic(&self, (x, y): (i64, i64)) -> f64 {
        let dx = (self.goal.0 - x).abs() as f64;
        let dy = (self.goal.1 - y).abs() as f64;
        if self.moves == 4 {
            dx + dy
        } else {
            dx.max(dy) + (std::f64::consts::SQRT_2 - 1.0) * dx.min(dy)
        }
    }

    fn is_goal(&self, node: (i64, i64)) -> bool {
        node == self.goal
    }
}

/// A flood's table in key order, distances as bits.
fn table_bits<'a>(
    table: impl IntoIterator<Item = (&'a (i64, i64), &'a f64)>,
) -> BTreeMap<(i64, i64), u64> {
    table.into_iter().map(|(&n, d)| (n, d.to_bits())).collect()
}

fn cell_addr(&(x, y): &(i64, i64)) -> u64 {
    ((y.max(0) * SIDE + x.max(0)) as u64) * 8
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn one_map_engine_reproduces_the_two_map_engine(
        seed in 0u64..u64::MAX,
        percent in 0u64..40,
        mixed in prop::bool::ANY,
        walled in prop::bool::weighted(0.15),
        eight in prop::bool::ANY,
        weight_index in 0usize..3,
    ) {
        let grid = Grid::random(seed, percent, mixed, walled, if eight { 8 } else { 4 });
        let weight = [0.0, 1.0, 2.5][weight_index];
        let mut want_trace = RecordingTrace::default();
        let want = reference::weighted_astar(&grid, (0, 0), weight, &mut want_trace, &mut cell_addr);
        let mut got_trace = RecordingTrace::default();
        let got = weighted_astar(&grid, (0, 0), weight, &mut got_trace, &mut cell_addr);
        match (&want, &got) {
            (None, None) => {}
            (Some(w), Some(g)) => {
                prop_assert_eq!(&g.path, &w.path);
                prop_assert_eq!(g.cost.to_bits(), w.cost.to_bits());
                prop_assert_eq!(g.expanded, w.expanded);
                prop_assert_eq!(g.generated, w.generated);
            }
            _ => prop_assert!(false, "reachability differs: {:?} vs {:?}", want.is_some(), got.is_some()),
        }
        prop_assert!(got_trace.ops == want_trace.ops, "trace streams differ");
        if walled {
            prop_assert!(got.is_none());
        }
    }

    #[test]
    fn flood_reproduces_the_two_map_flood(
        seed in 0u64..u64::MAX,
        percent in 0u64..40,
        mixed in prop::bool::ANY,
        eight in prop::bool::ANY,
        second_source in prop::bool::ANY,
    ) {
        let grid = Grid::random(seed, percent, mixed, false, if eight { 8 } else { 4 });
        let sources: &[(i64, i64)] = if second_source { &[(0, 0), (SIDE - 2, SIDE - 3)] } else { &[(0, 0)] };
        let mut want_trace = RecordingTrace::default();
        let want = reference::dijkstra_flood(sources, |n, out| grid.neighbours(n, out), &mut want_trace, &mut cell_addr);
        let mut got_trace = RecordingTrace::default();
        let got = dijkstra_flood(sources, |n, out| grid.neighbours(n, out), &mut got_trace, &mut cell_addr);
        prop_assert_eq!(table_bits(&got), table_bits(&want));
        prop_assert!(got_trace.ops == want_trace.ops, "trace streams differ");
    }
}
