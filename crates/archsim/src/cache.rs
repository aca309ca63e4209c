//! A single set-associative cache level.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Cache-line size in bytes (must be a power of two).
    pub line_bytes: usize,
}

impl CacheConfig {
    /// A 32 KiB, 8-way L1 data cache with 64-byte lines (i3-8109U).
    pub fn l1d_default() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
        }
    }

    /// A 256 KiB, 4-way private L2 with 64-byte lines (i3-8109U).
    pub fn l2_default() -> Self {
        CacheConfig {
            size_bytes: 256 * 1024,
            ways: 4,
            line_bytes: 64,
        }
    }

    /// A 4 MiB, 16-way shared LLC with 64-byte lines — the paper's "4 MB
    /// on-chip cache".
    pub fn llc_default() -> Self {
        CacheConfig {
            size_bytes: 4 * 1024 * 1024,
            ways: 16,
            line_bytes: 64,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses (excludes prefetch fills).
    pub accesses: u64,
    /// Demand misses.
    pub misses: u64,
    /// Demand write accesses (stores); reads are `accesses - writes`.
    pub writes: u64,
    /// Demand write misses; read misses are `misses - write_misses`.
    pub write_misses: u64,
    /// Demand hits on lines brought in by the prefetcher.
    pub prefetch_hits: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Demand hits.
    pub fn hits(&self) -> u64 {
        self.accesses - self.misses
    }

    /// Demand read accesses (loads).
    pub fn reads(&self) -> u64 {
        self.accesses - self.writes
    }

    /// Demand read misses.
    pub fn read_misses(&self) -> u64 {
        self.misses - self.write_misses
    }

    /// Miss ratio in `[0, 1]`; `0.0` when no accesses occurred.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Misses per kilo-access (a stand-in for MPKI when instruction counts
    /// are unavailable; the traced kernels report accesses, not
    /// instructions).
    pub fn mpka(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    /// Logical timestamp of the last touch (LRU).
    last_use: u64,
    /// Set when the line was filled by the prefetcher and not yet
    /// demand-hit.
    prefetched: bool,
    /// Set when the line has been written since it was filled
    /// (write-back policy: evicting it costs a writeback).
    dirty: bool,
}

/// One set-associative, write-allocate, LRU cache level.
///
/// # Example
///
/// ```
/// use rtr_archsim::{Cache, CacheConfig};
///
/// let mut l1 = Cache::new(CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64 });
/// assert!(!l1.access(0x0));  // cold miss
/// assert!(l1.access(0x8));   // same line: hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// All lines in one flat allocation, set-major: set `s` occupies
    /// `lines[s * ways .. (s + 1) * ways]`. Keeps a whole set on one or
    /// two cache lines of the *host* machine during the way scan.
    lines: Vec<Line>,
    clock: u64,
    stats: CacheStats,
    line_shift: u32,
    set_mask: u64,
    set_bits: u32,
    /// Line address of the dirty victim evicted by the most recent fill,
    /// consumed by the hierarchy to propagate the write-back downward.
    pending_writeback: Option<u64>,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics unless the geometry is consistent: positive ways, power-of-two
    /// line size, and a whole number of power-of-two sets.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.ways > 0, "cache needs at least one way");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = config.sets();
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a positive power of two (got {sets})"
        );
        assert_eq!(
            sets * config.ways * config.line_bytes,
            config.size_bytes,
            "size must equal sets * ways * line"
        );
        Cache {
            config,
            lines: vec![Line::default(); sets * config.ways],
            clock: 0,
            stats: CacheStats::default(),
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
            pending_writeback: None,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Demand statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics (contents are kept — useful for warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.line_shift;
        (
            (line_addr & self.set_mask) as usize,
            line_addr >> self.set_bits,
        )
    }

    /// The line address of `addr` under this level's geometry; the key the
    /// hierarchy's batched fast path memoizes same-line runs on.
    #[inline]
    pub(crate) fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// A demand read. Returns `true` on hit; on miss the line is filled
    /// (evicting the LRU way).
    pub fn access(&mut self, addr: u64) -> bool {
        self.demand(addr, false)
    }

    /// A demand write (write-allocate, write-back: the line is marked
    /// dirty and costs a writeback when later evicted). Returns `true` on
    /// hit.
    pub fn access_write(&mut self, addr: u64) -> bool {
        self.demand(addr, true)
    }

    fn demand(&mut self, addr: u64, is_write: bool) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        self.stats.writes += is_write as u64;
        self.pending_writeback = None;
        let (set_idx, tag) = self.locate(addr);
        let base = set_idx * self.config.ways;
        let set = &mut self.lines[base..base + self.config.ways];
        // Single pass: find the hit and the LRU victim together. Strict
        // `<` keeps the first minimum, matching `min_by_key` tie-breaking
        // (invalid ways key as 0 and so win over any valid way).
        let mut victim = 0usize;
        let mut victim_key = u64::MAX;
        for (way, line) in set.iter_mut().enumerate() {
            if line.valid && line.tag == tag {
                line.last_use = self.clock;
                line.dirty |= is_write;
                if line.prefetched {
                    line.prefetched = false;
                    self.stats.prefetch_hits += 1;
                }
                return true;
            }
            let key = if line.valid { line.last_use + 1 } else { 0 };
            if key < victim_key {
                victim_key = key;
                victim = way;
            }
        }
        self.stats.misses += 1;
        self.stats.write_misses += is_write as u64;
        let evicted = Self::fill(&mut set[victim], tag, self.clock, false, is_write);
        self.note_victim(evicted, set_idx);
        false
    }

    /// Attempts a demand hit, committing the full hit bookkeeping (clock,
    /// access/write counters, LRU touch, dirty and prefetched bits) and
    /// returning the flat index of the hit line. On a miss **nothing
    /// changes** — the caller replays the op through the ordinary
    /// [`access`](Cache::access) path, which then observes exactly the
    /// state an unbatched run would have. The hierarchy's batched fast
    /// path uses this to skip the multi-level loop on L1 hits.
    #[inline]
    pub(crate) fn try_demand_hit(&mut self, addr: u64, is_write: bool) -> Option<usize> {
        let line_addr = addr >> self.line_shift;
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_bits;
        let base = set_idx * self.config.ways;
        let clock = self.clock + 1;
        let mut hit = None;
        for idx in base..base + self.config.ways {
            let line = &mut self.lines[idx];
            if line.valid && line.tag == tag {
                line.last_use = clock;
                line.dirty |= is_write;
                let was_prefetched = line.prefetched;
                line.prefetched = false;
                hit = Some((idx, was_prefetched));
                break;
            }
        }
        let (idx, was_prefetched) = hit?;
        self.clock = clock;
        self.stats.accesses += 1;
        self.stats.writes += is_write as u64;
        self.stats.prefetch_hits += was_prefetched as u64;
        Some(idx)
    }

    /// Re-touches a line whose flat index came from a prior
    /// [`try_demand_hit`](Cache::try_demand_hit) with no intervening fill
    /// in this cache: the way scan is skipped entirely. The caller owns
    /// the validity argument (in the hierarchy's batched loop the memo is
    /// dropped on any L1 miss, and nothing else fills L1).
    #[inline]
    pub(crate) fn touch_resident(&mut self, idx: usize, is_write: bool) {
        self.clock += 1;
        self.stats.accesses += 1;
        self.stats.writes += is_write as u64;
        let clock = self.clock;
        let line = &mut self.lines[idx];
        line.last_use = clock;
        line.dirty |= is_write;
    }

    /// Commits a whole run of `count` consecutive hits (of which `writes`
    /// are stores) on one resident line in a single step. State-identical
    /// to `count` [`touch_resident`](Cache::touch_resident) calls: the
    /// clock and counters advance by the run totals and the line ends at
    /// the run's final `last_use`, dirty if any op in the run wrote.
    #[inline]
    pub(crate) fn touch_resident_run(&mut self, idx: usize, count: u64, writes: u64) {
        self.clock += count;
        self.stats.accesses += count;
        self.stats.writes += writes;
        let clock = self.clock;
        let line = &mut self.lines[idx];
        line.last_use = clock;
        line.dirty |= writes > 0;
    }

    /// Advances the LRU clock by `ticks` with no other effect: the state a
    /// run of `ticks` [`prefetch`](Cache::prefetch) calls leaves behind
    /// when every one of them finds its line resident and no write-back
    /// is pending.
    #[inline]
    pub(crate) fn advance_clock(&mut self, ticks: u64) {
        self.clock += ticks;
    }

    /// A prefetch fill: inserts the line without counting a demand access.
    /// Returns `true` when the line was already present.
    pub fn prefetch(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.pending_writeback = None;
        let (set_idx, tag) = self.locate(addr);
        let base = set_idx * self.config.ways;
        let set = &mut self.lines[base..base + self.config.ways];
        let mut victim = 0usize;
        let mut victim_key = u64::MAX;
        for (way, line) in set.iter().enumerate() {
            if line.valid && line.tag == tag {
                return true;
            }
            let key = if line.valid { line.last_use + 1 } else { 0 };
            if key < victim_key {
                victim_key = key;
                victim = way;
            }
        }
        let evicted = Self::fill(&mut set[victim], tag, self.clock, true, false);
        self.note_victim(evicted, set_idx);
        false
    }

    /// Absorbs a write-back arriving from the level above: when the line is
    /// resident it is marked dirty in place (no demand access is counted)
    /// and `true` is returned; when it is absent the write-back must travel
    /// further down and `false` is returned.
    pub fn absorb_writeback(&mut self, addr: u64) -> bool {
        let (set_idx, tag) = self.locate(addr);
        let base = set_idx * self.config.ways;
        for line in self.lines[base..base + self.config.ways].iter_mut() {
            if line.valid && line.tag == tag {
                line.dirty = true;
                return true;
            }
        }
        false
    }

    /// The line address of the dirty victim evicted by the most recent
    /// `access`/`access_write`/`prefetch` call, if any. Consuming it clears
    /// the slot; the hierarchy uses this to forward the write-back to the
    /// next level down.
    pub fn take_writeback(&mut self) -> Option<u64> {
        self.pending_writeback.take()
    }

    /// Returns `true` when the line containing `addr` is resident.
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.locate(addr);
        let base = set_idx * self.config.ways;
        self.lines[base..base + self.config.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    fn note_victim(&mut self, victim_tag: Option<u64>, set_idx: usize) {
        if let Some(tag) = victim_tag {
            self.stats.writebacks += 1;
            let line_addr = (tag << self.set_bits) | set_idx as u64;
            self.pending_writeback = Some(line_addr << self.line_shift);
        }
    }

    /// Replaces the chosen victim line, returning its tag when it was
    /// valid and dirty (a write-back).
    fn fill(victim: &mut Line, tag: u64, clock: u64, prefetched: bool, dirty: bool) -> Option<u64> {
        let wrote_back = (victim.valid && victim.dirty).then_some(victim.tag);
        *victim = Line {
            tag,
            valid: true,
            last_use: clock,
            prefetched,
            dirty,
        };
        wrote_back
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64 B = 256 B.
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x40));
        assert!(c.access(0x40));
        assert!(c.access(0x7f)); // same 64-byte line
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn set_mapping_separates_lines() {
        let mut c = tiny();
        // 0x00 → set 0; 0x40 → set 1 for 64 B lines and 2 sets.
        assert!(!c.access(0x00));
        assert!(!c.access(0x40));
        assert!(c.access(0x00));
        assert!(c.access(0x40));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // All map to set 0 (stride = line * sets = 128).
        c.access(0x000);
        c.access(0x080);
        c.access(0x000); // touch A again; B is now LRU
        c.access(0x100); // evicts B
        assert!(c.access(0x000), "A must still be resident");
        assert!(!c.access(0x080), "B must have been evicted");
    }

    #[test]
    fn capacity_misses_on_large_working_set() {
        let mut c = Cache::new(CacheConfig::l1d_default());
        let lines = 4096u64; // 256 KiB of distinct lines through a 32 KiB L1
        for rep in 0..4 {
            for i in 0..lines {
                c.access(i * 64);
            }
            if rep == 0 {
                c.reset_stats();
            }
        }
        // Working set 8x the cache: essentially everything misses.
        assert!(c.stats().miss_ratio() > 0.95);
    }

    #[test]
    fn small_working_set_hits_after_warmup() {
        let mut c = Cache::new(CacheConfig::l1d_default());
        let lines = 128u64; // 8 KiB, fits easily
        for i in 0..lines {
            c.access(i * 64);
        }
        c.reset_stats();
        for _ in 0..10 {
            for i in 0..lines {
                c.access(i * 64);
            }
        }
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn prefetch_fills_avoid_demand_miss() {
        let mut c = tiny();
        assert!(!c.prefetch(0x40));
        assert!(c.access(0x40));
        assert_eq!(c.stats().misses, 0);
        assert_eq!(c.stats().prefetch_hits, 1);
        // Second touch is a regular hit, not another prefetch hit.
        assert!(c.access(0x40));
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    #[test]
    fn prefetch_existing_line_reports_present() {
        let mut c = tiny();
        c.access(0x40);
        assert!(c.prefetch(0x40));
    }

    #[test]
    fn default_configs_are_consistent() {
        for config in [
            CacheConfig::l1d_default(),
            CacheConfig::l2_default(),
            CacheConfig::llc_default(),
        ] {
            let c = Cache::new(config);
            assert_eq!(c.config(), config);
            assert!(config.sets().is_power_of_two());
        }
        assert_eq!(CacheConfig::llc_default().size_bytes, 4 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 300,
            ways: 2,
            line_bytes: 50,
        });
    }

    #[test]
    fn writebacks_count_dirty_evictions() {
        let mut c = tiny();
        // Dirty two lines in set 0 (stride 128 maps to the same set).
        c.access_write(0x000);
        c.access_write(0x080);
        assert_eq!(c.stats().writebacks, 0);
        // Two more fills to the same set evict both dirty lines.
        c.access(0x100);
        c.access(0x180);
        assert_eq!(c.stats().writebacks, 2);
        // Clean evictions cost nothing.
        c.access(0x200);
        assert_eq!(c.stats().writebacks, 2);
    }

    #[test]
    fn reads_never_write_back() {
        let mut c = Cache::new(CacheConfig::l1d_default());
        for i in 0..10_000u64 {
            c.access(i * 64);
        }
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn write_stats_are_split_from_reads() {
        let mut c = tiny();
        c.access(0x000); // read miss
        c.access_write(0x000); // write hit
        c.access_write(0x400); // write miss (set 0, new line)
        let s = c.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.writes, 2);
        assert_eq!(s.reads(), 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.write_misses, 1);
        assert_eq!(s.read_misses(), 1);
    }

    #[test]
    fn take_writeback_reconstructs_victim_address() {
        let mut c = tiny();
        // Dirty line at 0x080 (set 0), then fill set 0 twice more so the
        // LRU dirty victim is evicted.
        c.access_write(0x080);
        c.access(0x000);
        assert_eq!(c.take_writeback(), None, "clean fill evicts nothing");
        c.access(0x100); // evicts 0x080 (LRU, dirty)
        assert_eq!(c.take_writeback(), Some(0x080));
        assert_eq!(c.take_writeback(), None, "consumed");
    }

    #[test]
    fn absorb_writeback_marks_resident_line_dirty() {
        let mut c = tiny();
        c.access(0x040); // clean resident line
        assert!(c.absorb_writeback(0x040));
        assert!(!c.absorb_writeback(0x200), "absent line is not absorbed");
        // The absorbed line is now dirty: evicting it costs a writeback.
        c.access(0x0c0);
        c.access(0x140); // set 1 full; next fill evicts
        c.access(0x1c0);
        assert!(c.stats().writebacks >= 1);
        // Absorbing is not a demand access.
        assert_eq!(c.stats().accesses, 4);
    }

    #[test]
    fn stats_ratios() {
        let mut c = tiny();
        c.access(0x0);
        c.access(0x0);
        let s = c.stats();
        assert_eq!(s.hits(), 1);
        assert_eq!(s.miss_ratio(), 0.5);
        assert_eq!(s.mpka(), 500.0);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }
}
