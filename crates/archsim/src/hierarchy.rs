//! The full memory hierarchy: L1D → L2 → LLC with an optional prefetcher.

use crate::prefetch::LINE_BYTES;
use crate::{Cache, CacheConfig, CacheStats, PrefetchStats, VldpPrefetcher};

/// Summary of a traced run through the hierarchy.
///
/// Derives `PartialEq`/`Eq` so equivalence suites can assert that the
/// batched/buffered transport paths reproduce the per-op path's report
/// field-for-field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyReport {
    /// Stats per level, L1 first.
    pub levels: Vec<CacheStats>,
    /// Prefetcher stats, when one is attached.
    pub prefetch: Option<PrefetchStats>,
    /// Total demand accesses issued to the hierarchy.
    pub accesses: u64,
    /// Demand loads issued to the hierarchy.
    pub reads: u64,
    /// Demand stores issued to the hierarchy.
    pub writes: u64,
    /// Accesses that missed every level (went to memory).
    pub memory_accesses: u64,
    /// Dirty evictions that fell out of the last level (DRAM writes).
    pub memory_writebacks: u64,
}

impl HierarchyReport {
    /// Fraction of accesses that reached main memory.
    pub fn memory_access_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.memory_accesses as f64 / self.accesses as f64
        }
    }

    /// Fraction of demand accesses that were stores.
    pub fn write_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.writes as f64 / self.accesses as f64
        }
    }
}

/// A three-level inclusive cache hierarchy driven by address traces.
///
/// Mirrors the processor of the paper's §IV methodology: Intel Core
/// i3-8109U with a 4 MB on-chip cache (here 32 KiB L1D + 256 KiB L2 +
/// 4 MiB LLC, 64-byte lines, LRU). A [`VldpPrefetcher`] can be attached to
/// the L2, matching where the paper's VLDP experiment operates.
///
/// # Example
///
/// ```
/// use rtr_archsim::MemorySim;
///
/// let mut sim = MemorySim::i3_8109u();
/// for i in 0..1000u64 {
///     sim.read(i * 64);
/// }
/// let report = sim.report();
/// assert_eq!(report.accesses, 1000);
/// ```
#[derive(Debug, Clone)]
pub struct MemorySim {
    levels: Vec<Cache>,
    prefetcher: Option<VldpPrefetcher>,
    accesses: u64,
    writes: u64,
    memory_accesses: u64,
    memory_writebacks: u64,
    /// Reused buffer for prefetch predictions; keeps the per-access
    /// prefetch tail allocation-free.
    prediction_scratch: Vec<u64>,
    /// The quiet-repeat memo (see [`MemorySim::hit_tail`]): set when the
    /// last demand access's prefetch tail filled no line, to that
    /// access's prefetcher line and the number of predictions it issued.
    quiet_tail: Option<QuietTail>,
}

/// A prefetch tail that filled nothing: every prediction was already
/// resident in every level below L1.
#[derive(Debug, Clone, Copy)]
struct QuietTail {
    /// The access's line under the prefetcher's 64-byte lines.
    line: u64,
    /// Predictions the tail issued.
    issued: u64,
}

impl MemorySim {
    /// Builds a hierarchy from explicit per-level configs (L1 first).
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn new(configs: &[CacheConfig]) -> Self {
        assert!(!configs.is_empty(), "need at least one cache level");
        MemorySim {
            levels: configs.iter().map(|&c| Cache::new(c)).collect(),
            prefetcher: None,
            accesses: 0,
            writes: 0,
            memory_accesses: 0,
            memory_writebacks: 0,
            prediction_scratch: Vec::new(),
            quiet_tail: None,
        }
    }

    /// The paper's modeled processor: i3-8109U-like L1D/L2/LLC.
    pub fn i3_8109u() -> Self {
        MemorySim::new(&[
            CacheConfig::l1d_default(),
            CacheConfig::l2_default(),
            CacheConfig::llc_default(),
        ])
    }

    /// Attaches a VLDP prefetcher (fills L2 and LLC).
    pub fn with_vldp(mut self, degree: usize) -> Self {
        self.prefetcher = Some(VldpPrefetcher::new(degree));
        self
    }

    /// Stats for level `i` (0 = L1).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn level_stats(&self, i: usize) -> CacheStats {
        self.levels[i].stats()
    }

    /// A demand read of `addr`.
    pub fn read(&mut self, addr: u64) {
        self.access(addr);
    }

    /// A demand write of `addr` (write-allocate, write-back: the L1 line
    /// is marked dirty and its eventual eviction counts a writeback).
    pub fn write(&mut self, addr: u64) {
        self.access_inner(addr, true);
    }

    fn access(&mut self, addr: u64) {
        self.access_inner(addr, false);
    }

    fn access_inner(&mut self, addr: u64, is_write: bool) {
        self.accesses += 1;
        self.writes += is_write as u64;
        self.access_levels(addr, is_write);
    }

    /// The per-level walk plus the prefetch tail; hierarchy-level access
    /// counters are the caller's job (so the batched fast path can count
    /// once and only fall in here on an L1 miss).
    fn access_levels(&mut self, addr: u64, is_write: bool) {
        let mut hit = false;
        for i in 0..self.levels.len() {
            let level_hit = if is_write && i == 0 {
                self.levels[i].access_write(addr)
            } else {
                self.levels[i].access(addr)
            };
            // A miss fills this level; its dirty victim (if any) becomes a
            // write-back that the next level down must absorb.
            if let Some(victim) = self.levels[i].take_writeback() {
                self.writeback_into(i + 1, victim);
            }
            if level_hit {
                hit = true;
                break;
            }
        }
        if !hit {
            self.memory_accesses += 1;
        }
        self.prefetch_tail(addr);
    }

    /// Lets the prefetcher observe one demand access and issues its
    /// predictions into L2 and below. Runs on *every* demand access — L1
    /// hits included — so the delta histories a batched run trains are
    /// identical to an unbatched run's.
    fn prefetch_tail(&mut self, addr: u64) {
        let Some(pf) = &mut self.prefetcher else {
            return;
        };
        // Take the scratch buffer out of `self` so the prefetcher borrow
        // ends before the level walk below needs `&mut self`.
        let mut predictions = std::mem::take(&mut self.prediction_scratch);
        pf.observe_into(addr, &mut predictions);
        let mut redundant = 0;
        for &p in &predictions {
            let mut resident = true;
            for j in 1..self.levels.len() {
                resident &= self.levels[j].prefetch(p);
                if let Some(victim) = self.levels[j].take_writeback() {
                    self.writeback_into(j + 1, victim);
                }
            }
            redundant += resident as u64;
        }
        let issued = predictions.len() as u64;
        if let Some(pf) = &mut self.prefetcher {
            pf.note_redundant(redundant);
        }
        self.quiet_tail = (redundant == issued).then_some(QuietTail {
            line: addr / LINE_BYTES,
            issued,
        });
        self.prediction_scratch = predictions;
    }

    /// The prefetch tail of a batched L1 hit, with the quiet-repeat rule:
    /// when the access before this one was on the same 64-byte line and
    /// its tail filled nothing, this tail reduces to its counter updates.
    ///
    /// Exact, not approximate. The prefetcher sees delta 0, so it trains
    /// nothing, leaves the page entry and tables as they were, and
    /// predicts the same lines as last time. Only L1 has changed since
    /// (this access hit it), so every predicted line is still resident
    /// in every lower level, and each redundant `Cache::prefetch` only
    /// ticks that level's clock. The memo always describes the access
    /// just before this one: every demand access, per-op or batched,
    /// ends in a tail that sets or clears it. The per-op `read`/`write`
    /// path never takes the rule, so the batch-vs-per-op proptests
    /// compare the two.
    fn hit_tail(&mut self, addr: u64) {
        if let (Some(quiet), Some(pf)) = (self.quiet_tail, &mut self.prefetcher) {
            if quiet.line == addr / LINE_BYTES {
                pf.note_quiet_repeat(quiet.issued);
                for level in &mut self.levels[1..] {
                    level.advance_clock(quiet.issued);
                }
                return;
            }
        }
        self.prefetch_tail(addr);
    }

    /// Forwards a dirty-eviction write-back starting at `level`, walking
    /// down until a level absorbs it or it falls out to memory.
    fn writeback_into(&mut self, mut level: usize, addr: u64) {
        while level < self.levels.len() {
            if self.levels[level].absorb_writeback(addr) {
                return;
            }
            level += 1;
        }
        self.memory_writebacks += 1;
    }

    /// Resets every counter, the prefetcher's included, opening a new
    /// counting window. Cache contents, the prefetcher's tables and the
    /// quiet-repeat memo stay warm.
    pub fn reset_stats(&mut self) {
        for level in &mut self.levels {
            level.reset_stats();
        }
        if let Some(prefetcher) = &mut self.prefetcher {
            prefetcher.reset_stats();
        }
        self.accesses = 0;
        self.writes = 0;
        self.memory_accesses = 0;
        self.memory_writebacks = 0;
    }

    /// Produces the run summary.
    pub fn report(&self) -> HierarchyReport {
        HierarchyReport {
            levels: self.levels.iter().map(|l| l.stats()).collect(),
            prefetch: self.prefetcher.as_ref().map(|p| p.stats()),
            accesses: self.accesses,
            reads: self.accesses - self.writes,
            writes: self.writes,
            memory_accesses: self.memory_accesses,
            memory_writebacks: self.memory_writebacks,
        }
    }
}

impl rtr_trace::MemTrace for MemorySim {
    #[inline]
    fn read(&mut self, addr: u64, _: rtr_trace::Gated) {
        MemorySim::read(self, addr);
    }

    #[inline]
    fn write(&mut self, addr: u64, _: rtr_trace::Gated) {
        MemorySim::write(self, addr);
    }

    /// The monomorphic fast path. Observable state after a batch is
    /// identical to replaying each op through `read`/`write` (the
    /// equivalence proptests pin this); only the work per op changes:
    ///
    /// - **L1-hit early-out**: `Cache::try_demand_hit` commits the hit
    ///   bookkeeping and skips the per-level loop and writeback plumbing.
    ///   On a miss it touches nothing, so the ordinary path replays the op
    ///   against unmodified state.
    /// - **Same-line memo**: consecutive ops to one L1 line skip even the
    ///   way scan (`Cache::touch_resident`). Sound because L1 contents
    ///   only change on an L1 demand miss (prefetches fill L2 and below;
    ///   write-backs from above dirty resident lines in place), and the
    ///   memo is dropped on every miss.
    /// - **Quiet repeat**: an L1 hit on the same 64-byte line as the
    ///   access before it, whose prefetch tail filled nothing, repeats
    ///   that tail's counters instead of re-walking the prefetcher
    ///   (`MemorySim::hit_tail`).
    fn process_batch(&mut self, ops: &[rtr_trace::TraceOp], _: rtr_trace::Gated) {
        let mut memo: Option<(u64, usize)> = None;
        // With no prefetcher attached, a run of consecutive ops on the
        // memoized line commits in one step (`touch_resident_run` is
        // state-identical to the per-op replay). With VLDP attached the
        // memo still skips the way scan but every op runs its own
        // prefetch tail, which the quiet-repeat rule (`hit_tail`) cuts to
        // counter updates when nothing can change.
        let collapse_runs = self.prefetcher.is_none();
        let mut i = 0;
        while i < ops.len() {
            let op = ops[i];
            let line_addr = self.levels[0].line_addr(op.addr);
            if let Some((memo_line, memo_idx)) = memo {
                if memo_line == line_addr {
                    if collapse_runs {
                        let mut writes = op.is_write as u64;
                        let mut j = i + 1;
                        while j < ops.len() && self.levels[0].line_addr(ops[j].addr) == memo_line {
                            writes += ops[j].is_write as u64;
                            j += 1;
                        }
                        let count = (j - i) as u64;
                        self.accesses += count;
                        self.writes += writes;
                        self.levels[0].touch_resident_run(memo_idx, count, writes);
                        i = j;
                    } else {
                        self.accesses += 1;
                        self.writes += op.is_write as u64;
                        self.levels[0].touch_resident(memo_idx, op.is_write);
                        self.hit_tail(op.addr);
                        i += 1;
                    }
                    continue;
                }
            }
            self.accesses += 1;
            self.writes += op.is_write as u64;
            if let Some(idx) = self.levels[0].try_demand_hit(op.addr, op.is_write) {
                memo = Some((line_addr, idx));
                self.hit_tail(op.addr);
            } else {
                memo = None;
                self.access_levels(op.addr, op.is_write);
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misses_propagate_down() {
        let mut sim = MemorySim::i3_8109u();
        sim.read(0x1000);
        let r = sim.report();
        assert_eq!(r.levels[0].misses, 1);
        assert_eq!(r.levels[1].misses, 1);
        assert_eq!(r.levels[2].misses, 1);
        assert_eq!(r.memory_accesses, 1);
        // Second read hits L1; lower levels see nothing.
        sim.read(0x1000);
        let r = sim.report();
        assert_eq!(r.levels[0].accesses, 2);
        assert_eq!(r.levels[1].accesses, 1);
    }

    #[test]
    fn l2_catches_l1_capacity_misses() {
        for sim in [MemorySim::i3_8109u(), MemorySim::i3_8109u().with_vldp(2)] {
            let mut sim = sim;
            // 64 KiB working set: 2x L1, fits L2 easily.
            let lines = 1024u64;
            for _ in 0..3 {
                for i in 0..lines {
                    sim.read(i * 64);
                    sim.write(i * 64 + 8);
                }
            }
            sim.reset_stats();
            // A reset zeroes every counter, the prefetcher's included.
            let r = sim.report();
            let zero = CacheStats::default();
            assert_eq!(r.levels, vec![zero; 3]);
            assert_eq!(
                (
                    r.accesses,
                    r.reads,
                    r.writes,
                    r.memory_accesses,
                    r.memory_writebacks
                ),
                (0, 0, 0, 0, 0)
            );
            assert!(r.prefetch.is_none_or(|p| p == PrefetchStats::default()));
            for i in 0..lines {
                sim.read(i * 64);
            }
            let r = sim.report();
            assert!(r.levels[0].miss_ratio() > 0.9, "L1 should thrash");
            assert_eq!(r.levels[1].misses, 0, "L2 should absorb everything");
            assert_eq!(r.memory_accesses, 0);
        }
    }

    #[test]
    fn vldp_reduces_l2_misses_on_streams() {
        let run = |with_pf: bool| {
            let mut sim = MemorySim::i3_8109u();
            if with_pf {
                sim = sim.with_vldp(2);
            }
            // Long streaming read: every line is new.
            for i in 0..100_000u64 {
                sim.read(i * 64);
            }
            sim.report()
        };
        let base = run(false);
        let pf = run(true);
        assert!(
            (pf.levels[1].misses as f64) < base.levels[1].misses as f64 * 0.5,
            "prefetcher should at least halve L2 misses on a stream: {} vs {}",
            pf.levels[1].misses,
            base.levels[1].misses
        );
        assert!(pf.prefetch.unwrap().issued > 0);
    }

    #[test]
    fn random_accesses_defeat_prefetcher() {
        let mut sim = MemorySim::i3_8109u().with_vldp(2);
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sim.read(x % (256 * 1024 * 1024));
        }
        let r = sim.report();
        // Random walk over 256 MB: high L1 miss ratio survives prefetching.
        assert!(r.levels[0].miss_ratio() > 0.8);
    }

    #[test]
    fn report_ratios() {
        let mut sim = MemorySim::new(&[CacheConfig::l1d_default()]);
        sim.read(0);
        sim.read(0);
        let r = sim.report();
        assert_eq!(r.accesses, 2);
        assert_eq!(r.memory_access_ratio(), 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one cache level")]
    fn empty_hierarchy_panics() {
        let _ = MemorySim::new(&[]);
    }

    #[test]
    fn write_allocates_marks_dirty_and_splits_stats() {
        let mut sim = MemorySim::i3_8109u();
        sim.write(0x40); // write miss: allocate in every level, dirty in L1
        assert!(sim.levels[0].contains(0x40));
        sim.read(0x40); // hit
        let r = sim.report();
        assert_eq!(r.levels[0].misses, 1);
        assert_eq!((r.reads, r.writes), (1, 1));
        assert_eq!(r.write_ratio(), 0.5);
        assert_eq!(r.levels[0].writes, 1);
        assert_eq!(r.levels[0].write_misses, 1);
        // Only L1 sees the store; lower levels allocate via plain fills.
        assert_eq!(r.levels[1].writes, 0);
    }

    /// Two tiny levels so eviction scripts are easy to reason about:
    /// L1 = 2 sets x 2 ways, L2 = 4 sets x 4 ways (64 B lines).
    fn tiny_two_level() -> MemorySim {
        MemorySim::new(&[
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
        ])
    }

    #[test]
    fn dirty_eviction_script_counts_writebacks_per_level() {
        let mut sim = tiny_two_level();
        // Dirty one L1 line, then stream three more lines through its set
        // (stride 128 maps to L1 set 0) to force the dirty eviction.
        sim.write(0x000);
        sim.read(0x080);
        sim.read(0x100); // evicts dirty 0x000 from L1
        sim.read(0x180);
        let r = sim.report();
        assert_eq!(r.levels[0].writebacks, 1, "exactly one dirty L1 victim");
        // L2 still holds the line (inclusive fill on the original miss), so
        // it absorbs the write-back without reaching memory.
        assert_eq!(r.levels[1].writebacks, 0);
        assert_eq!(r.memory_writebacks, 0);
        assert!(sim.levels[1].contains(0x000));
    }

    #[test]
    fn writeback_propagates_through_inclusive_hierarchy_to_memory() {
        let mut sim = tiny_two_level();
        sim.write(0x000);
        // Thrash both levels: 32 distinct lines in L1 set 0 / L2 set 0
        // (stride 256 maps to set 0 of both levels).
        for i in 1..=32u64 {
            sim.read(i * 256);
        }
        let r = sim.report();
        // The dirty line was first evicted from L1 (absorbed by L2 while
        // still resident), then from L2, whose dirty eviction reaches DRAM.
        assert!(r.levels[0].writebacks >= 1);
        assert_eq!(r.levels[1].writebacks, 1);
        assert_eq!(r.memory_writebacks, 1);
        assert!(!sim.levels[1].contains(0x000));
    }

    #[test]
    fn clean_workload_never_writes_back_to_memory() {
        let mut sim = tiny_two_level();
        for i in 0..1000u64 {
            sim.read(i * 64);
        }
        let r = sim.report();
        assert_eq!(r.writes, 0);
        assert_eq!(r.memory_writebacks, 0);
        assert!(r.levels.iter().all(|l| l.writebacks == 0));
    }

    #[test]
    fn memory_sim_implements_mem_trace() {
        use rtr_trace::MemTrace;

        fn emit<T: MemTrace + ?Sized>(trace: &mut T) {
            let g = trace.gate().expect("the simulator is enabled");
            trace.read(0x40, g);
            trace.write(0x40, g);
        }

        let mut sim = MemorySim::i3_8109u();
        emit(&mut sim);
        let dynamic: &mut dyn MemTrace = &mut sim;
        emit(dynamic);
        let r = sim.report();
        assert_eq!(r.accesses, 4);
        assert_eq!((r.reads, r.writes), (2, 2));
    }
}
