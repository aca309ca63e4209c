//! Property-based tests for the cache-hierarchy simulator.

use std::collections::VecDeque;

use proptest::prelude::*;
use rtr_archsim::{Cache, CacheConfig, MemorySim, VldpPrefetcher};
use rtr_trace::{BufferedTrace, MemTrace, TraceOp};

/// Builds the hierarchy variants the transport-equivalence tests sweep:
/// the paper's i3-8109U shape (with and without VLDP) plus a tiny
/// two-level shape whose sets thrash constantly, maximizing eviction and
/// write-back traffic.
fn hierarchy_variants() -> Vec<MemorySim> {
    let tiny = &[
        CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
        },
        CacheConfig {
            size_bytes: 1024,
            ways: 4,
            line_bytes: 64,
        },
    ];
    vec![
        MemorySim::i3_8109u(),
        MemorySim::i3_8109u().with_vldp(2),
        MemorySim::new(tiny),
        MemorySim::new(tiny).with_vldp(2),
    ]
}

/// Replays `ops` through the legacy per-op dyn path.
fn per_op_reference(mut sim: MemorySim, ops: &[TraceOp]) -> rtr_archsim::HierarchyReport {
    let sink: &mut dyn MemTrace = &mut sim;
    let g = sink.gate().expect("the simulator is enabled");
    for op in ops {
        if op.is_write {
            sink.write(op.addr, g);
        } else {
            sink.read(op.addr, g);
        }
    }
    sim.report()
}

/// A reference fully-software LRU model for one cache set-associative
/// geometry: per set, a queue of tags in recency order.
struct ReferenceLru {
    sets: Vec<VecDeque<u64>>,
    ways: usize,
    line_shift: u32,
    set_mask: u64,
}

impl ReferenceLru {
    fn new(config: CacheConfig) -> Self {
        ReferenceLru {
            sets: vec![VecDeque::new(); config.sets()],
            ways: config.ways,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: config.sets() as u64 - 1,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        let q = &mut self.sets[set];
        if let Some(pos) = q.iter().position(|&t| t == tag) {
            q.remove(pos);
            q.push_back(tag);
            true
        } else {
            if q.len() == self.ways {
                q.pop_front();
            }
            q.push_back(tag);
            false
        }
    }
}

proptest! {
    #[test]
    fn cache_matches_reference_lru(addrs in prop::collection::vec(0u64..16_384, 1..400)) {
        let config = CacheConfig {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
        };
        let mut cache = Cache::new(config);
        let mut reference = ReferenceLru::new(config);
        for &addr in &addrs {
            let got = cache.access(addr);
            let want = reference.access(addr);
            prop_assert_eq!(got, want, "divergence at address {:#x}", addr);
        }
    }

    #[test]
    fn stats_are_consistent(addrs in prop::collection::vec(0u64..65_536, 1..300)) {
        let mut cache = Cache::new(CacheConfig::l1d_default());
        let mut hits = 0u64;
        for &addr in &addrs {
            if cache.access(addr) {
                hits += 1;
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.accesses, addrs.len() as u64);
        prop_assert_eq!(stats.hits(), hits);
        prop_assert!(stats.miss_ratio() >= 0.0 && stats.miss_ratio() <= 1.0);
    }

    #[test]
    fn immediate_rereference_always_hits(addrs in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut cache = Cache::new(CacheConfig::l2_default());
        for &addr in &addrs {
            cache.access(addr);
            prop_assert!(cache.access(addr), "re-reference missed at {:#x}", addr);
            prop_assert!(cache.contains(addr));
        }
    }

    #[test]
    fn hierarchy_miss_counts_are_monotone(addrs in prop::collection::vec(0u64..(1 << 24), 1..300)) {
        // A lower level can never see more accesses than the level above
        // misses, and memory accesses equal the last level's misses.
        let mut sim = MemorySim::i3_8109u();
        for &addr in &addrs {
            sim.read(addr);
        }
        let r = sim.report();
        prop_assert_eq!(r.accesses, addrs.len() as u64);
        prop_assert_eq!(r.levels[0].accesses, r.accesses);
        prop_assert_eq!(r.levels[1].accesses, r.levels[0].misses);
        prop_assert_eq!(r.levels[2].accesses, r.levels[1].misses);
        prop_assert_eq!(r.memory_accesses, r.levels[2].misses);
    }

    #[test]
    fn prefetcher_never_increases_demand_misses(stride in 1u64..8, len in 100usize..2000) {
        let run = |with_pf: bool| {
            let mut sim = MemorySim::i3_8109u();
            if with_pf {
                sim = sim.with_vldp(2);
            }
            for i in 0..len as u64 {
                sim.read(i * stride * 64);
            }
            sim.report()
        };
        let base = run(false);
        let pf = run(true);
        // L1 is untouched by the L2 prefetcher; L2 misses must not grow.
        prop_assert_eq!(base.levels[0].misses, pf.levels[0].misses);
        prop_assert!(pf.levels[1].misses <= base.levels[1].misses);
    }

    #[test]
    fn vldp_predictions_stay_in_page(addrs in prop::collection::vec(0u64..(1 << 20), 1..300)) {
        let mut pf = VldpPrefetcher::new(4);
        for &addr in &addrs {
            for p in pf.observe(addr) {
                prop_assert_eq!(p / 4096, addr / 4096, "prediction crossed a page");
            }
        }
    }

    #[test]
    fn batched_and_buffered_reports_are_byte_identical(
        addrs in prop::collection::vec(0u64..262_144, 1..500)
    ) {
        // Derive the op kind from the address bits so the mix is random
        // but reproducible from one generated vector.
        let ops: Vec<TraceOp> = addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| TraceOp { addr: a, is_write: (a ^ i as u64) & 1 == 1 })
            .collect();
        for reference in hierarchy_variants() {
            let want = per_op_reference(reference.clone(), &ops);
            // One-shot batch through the monomorphic fast path.
            let mut batched = reference.clone();
            batched.process_batch(&ops, batched.gate().expect("the simulator is enabled"));
            prop_assert_eq!(&batched.report(), &want);
            // Buffered transport across flush-boundary-hostile capacities.
            for cap in [1usize, 7, 4096] {
                let mut buffered = BufferedTrace::with_capacity(reference.clone(), cap);
                let g = buffered.gate().expect("the simulator is enabled");
                for op in &ops {
                    if op.is_write {
                        buffered.write(op.addr, g);
                    } else {
                        buffered.read(op.addr, g);
                    }
                }
                prop_assert_eq!(&buffered.into_inner().report(), &want, "capacity {}", cap);
            }
        }
    }

    #[test]
    fn same_line_runs_hit_the_memo_and_stay_identical(
        lines in prop::collection::vec(0u64..2048, 1..200)
    ) {
        // Expand each generated line into a short same-line run (the shape
        // the batched path memoizes) with a mixed read/write pattern.
        let mut ops = Vec::new();
        for (i, &line) in lines.iter().enumerate() {
            for rep in 0..=(line & 3) {
                ops.push(TraceOp {
                    addr: line * 64 + rep * 8,
                    is_write: (line + rep + i as u64) & 1 == 1,
                });
            }
        }
        for reference in hierarchy_variants() {
            let want = per_op_reference(reference.clone(), &ops);
            let mut batched = reference.clone();
            batched.process_batch(&ops, batched.gate().expect("the simulator is enabled"));
            prop_assert_eq!(&batched.report(), &want);
        }
    }
}
