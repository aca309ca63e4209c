//! VLDP exactness.
//!
//! 1. The dense-table [`VldpPrefetcher`] against the `HashMap` prefetcher
//!    it replaced, kept here as a test-side reference: every prediction
//!    list and the final stats must agree.
//! 2. The hierarchy's quiet-repeat rule (batched path only) against the
//!    per-op `read`/`write` path, which always runs the literal prefetch
//!    tail, across degrees 1..=8 and a hierarchy whose one-set L2 makes
//!    a tail evict its own predictions.

use std::collections::{HashMap, VecDeque};

use proptest::prelude::*;
use rtr_archsim::{CacheConfig, HierarchyReport, MemorySim, PrefetchStats, VldpPrefetcher};
use rtr_trace::{MemTrace, TraceOp};

/// History length of the deepest table.
const MAX_HISTORY: usize = 3;

/// Pages the reference tracks before it evicts the oldest.
const HISTORY_CAPACITY: usize = 4096;

/// The replaced prefetcher, verbatim in behaviour: per-page delta
/// histories in a `HashMap`, and three `HashMap` tables keyed by the
/// history right-aligned into an `[i64; 3]`.
struct ReferenceVldp {
    tables: Vec<HashMap<[i64; MAX_HISTORY], i64>>,
    pages: HashMap<u64, ReferencePage>,
    page_order: VecDeque<u64>,
    degree: usize,
    issued: u64,
}

#[derive(Clone, Copy, Default)]
struct ReferencePage {
    last_line: i64,
    deltas: [i64; MAX_HISTORY],
    len: usize,
}

impl ReferencePage {
    fn push(&mut self, delta: i64) {
        if self.len == MAX_HISTORY {
            self.deltas.copy_within(1.., 0);
            self.deltas[MAX_HISTORY - 1] = delta;
        } else {
            self.deltas[self.len] = delta;
            self.len += 1;
        }
    }
}

fn table_key(history: &[i64]) -> [i64; MAX_HISTORY] {
    let mut key = [0i64; MAX_HISTORY];
    key[MAX_HISTORY - history.len()..].copy_from_slice(history);
    key
}

impl ReferenceVldp {
    fn new(degree: usize) -> Self {
        ReferenceVldp {
            tables: vec![HashMap::new(); MAX_HISTORY],
            pages: HashMap::new(),
            page_order: VecDeque::new(),
            degree,
            issued: 0,
        }
    }

    fn observe(&mut self, addr: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let page = addr / 4096;
        let line = ((addr % 4096) / 64) as i64;
        let entry = match self.pages.get_mut(&page) {
            Some(e) => e,
            None => {
                if self.pages.len() >= HISTORY_CAPACITY {
                    if let Some(old) = self.page_order.pop_front() {
                        self.pages.remove(&old);
                    }
                }
                self.page_order.push_back(page);
                self.pages.entry(page).or_insert_with(|| ReferencePage {
                    last_line: line,
                    ..ReferencePage::default()
                })
            }
        };
        let delta = line - entry.last_line;
        if delta != 0 {
            for (len, table) in self.tables.iter_mut().enumerate() {
                let len = len + 1;
                if entry.len >= len {
                    table.insert(table_key(&entry.deltas[entry.len - len..entry.len]), delta);
                }
            }
            entry.push(delta);
            entry.last_line = line;
        }
        let mut history = *entry;
        let mut predicted_line = line;
        for _ in 0..self.degree {
            let mut next_delta = None;
            for len in (1..=history.len).rev() {
                let key = table_key(&history.deltas[history.len - len..history.len]);
                if let Some(&d) = self.tables[len - 1].get(&key) {
                    next_delta = Some(d);
                    break;
                }
            }
            let Some(d) = next_delta else { break };
            predicted_line += d;
            if !(0..64).contains(&predicted_line) {
                break;
            }
            out.push(page * 4096 + predicted_line as u64 * 64);
            self.issued += 1;
            history.push(d);
        }
        out
    }
}

/// SplitMix64: a seedable stream for building access patterns.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Eight pages, spread so they share few sets.
fn pool_page(mix: &mut Mix) -> u64 {
    mix.below(8) * 37 + 3
}

/// Expands generated segments into a demand-address stream:
///
/// - kind 0: a same-line run (1 to 12 accesses to one 64-byte line);
/// - kind 1: a page-local walk cycling a pattern of one to three
///   deltas, each within ±4 lines or anywhere in ±63, with some lines
///   touched twice in a row;
/// - kind 2: scattered accesses over the page pool;
/// - with `churn`, one pass over 4,200 fresh pages halfway through, so
///   the page table evicts past its 4,096 entries before the pool pages
///   come back.
fn stream(segments: &[(u8, u64)], churn: bool) -> Vec<u64> {
    let mut out = Vec::new();
    for (i, &(kind, seed)) in segments.iter().enumerate() {
        if churn && i == segments.len() / 2 {
            out.extend((0..4200u64).map(|p| (10_000 + p) * 4096 + (p % 64) * 64));
        }
        let mut mix = Mix(seed);
        match kind {
            0 => {
                let base = pool_page(&mut mix) * 4096 + mix.below(64) * 64;
                for _ in 0..=mix.below(12) {
                    out.push(base + mix.below(64));
                }
            }
            1 => {
                let page = pool_page(&mut mix);
                let wide = mix.below(4) == 0;
                let pattern: Vec<i64> = (0..=mix.below(3))
                    .map(|_| {
                        let d = if wide {
                            1 + mix.below(63) as i64
                        } else {
                            1 + mix.below(4) as i64
                        };
                        if mix.below(3) == 0 {
                            -d
                        } else {
                            d
                        }
                    })
                    .collect();
                let mut line = mix.below(64) as i64;
                for step in 0..4 + mix.below(40) as usize {
                    let addr = page * 4096 + line as u64 * 64;
                    out.push(addr + mix.below(64));
                    if mix.below(4) == 0 {
                        out.push(addr + mix.below(64));
                    }
                    line = (line + pattern[step % pattern.len()]).rem_euclid(64);
                }
            }
            _ => {
                for _ in 0..=mix.below(6) {
                    out.push(pool_page(&mut mix) * 4096 + mix.below(4096));
                }
            }
        }
    }
    out
}

/// The hierarchies the quiet-repeat proptest sweeps: the paper's shape,
/// a tiny two-level shape, and one whose L2 is a single two-way set, so
/// a tail of three or more predictions evicts its own earlier ones and
/// the next tail on the same line must fill again.
fn hierarchies(degree: usize) -> Vec<MemorySim> {
    let line = |size_bytes, ways| CacheConfig {
        size_bytes,
        ways,
        line_bytes: 64,
    };
    vec![
        MemorySim::i3_8109u().with_vldp(degree),
        MemorySim::new(&[line(256, 2), line(1024, 4)]).with_vldp(degree),
        MemorySim::new(&[line(256, 2), line(128, 2), line(512, 2)]).with_vldp(degree),
    ]
}

/// Replays `ops` one at a time through the per-op path, which always runs
/// the literal prefetch tail.
fn per_op(mut sim: MemorySim, ops: &[TraceOp]) -> HierarchyReport {
    for op in ops {
        if op.is_write {
            sim.write(op.addr);
        } else {
            sim.read(op.addr);
        }
    }
    sim.report()
}

fn segments() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..3, 0u64..u64::MAX), 4..60)
}

proptest! {
    #[test]
    fn dense_tables_match_the_hashmap_reference(
        segments in segments(),
        churn in prop::bool::weighted(0.25),
        degree in 1usize..=8,
    ) {
        let addrs = stream(&segments, churn);
        let mut dense = VldpPrefetcher::new(degree);
        let mut reference = ReferenceVldp::new(degree);
        let mut predictions = Vec::new();
        for (i, &addr) in addrs.iter().enumerate() {
            dense.observe_into(addr, &mut predictions);
            let want = reference.observe(addr);
            prop_assert_eq!(&predictions, &want, "access {} at {:#x}", i, addr);
        }
        let want = PrefetchStats { issued: reference.issued, redundant: 0 };
        prop_assert_eq!(dense.stats(), want);
    }

    #[test]
    fn quiet_repeats_match_the_per_op_path(
        segments in segments(),
        churn in prop::bool::weighted(0.25),
        degree in 1usize..=8,
    ) {
        let ops: Vec<TraceOp> = stream(&segments, churn)
            .into_iter()
            .enumerate()
            .map(|(i, addr)| TraceOp { addr, is_write: ((addr >> 3) ^ i as u64).is_multiple_of(5) })
            .collect();
        for sim in hierarchies(degree) {
            let want = per_op(sim.clone(), &ops);
            let mut batched = sim;
            batched.process_batch(&ops);
            prop_assert_eq!(&batched.report(), &want, "degree {}", degree);
        }
    }
}

#[test]
fn a_filling_tail_is_replayed_on_the_next_same_line_hit() {
    // Train a +1 stream so each access predicts three lines, then hit the
    // same line again. The one-set, two-way L2 keeps only two of the three
    // predictions, so the second tail must fill again: nothing about it is
    // a quiet repeat.
    let ops: Vec<TraceOp> = (0..8u64)
        .chain([7])
        .map(|line| TraceOp {
            addr: line * 64,
            is_write: false,
        })
        .collect();
    let sim = hierarchies(3).pop().expect("one-set L2 hierarchy");
    let want = per_op(sim.clone(), &ops);
    let mut batched = sim;
    batched.process_batch(&ops);
    assert_eq!(batched.report(), want);
    let stats = want.prefetch.expect("prefetcher attached");
    assert!(
        stats.issued - stats.redundant >= 2,
        "tails filled: {stats:?}"
    );
}
