//! VLDP-style variable-length delta prefetcher.
//!
//! The paper evaluates "an over-approximated implementation of VLDP
//! \[Shevgoor et al., MICRO 2015\]" on `05.pp3d` and reports that it
//! eliminates around one-third of the data misses. This module implements
//! the same idea at the same level of approximation: per-page delta
//! histories feed delta-prediction tables of increasing history length;
//! on each access the longest matching history predicts the next line
//! delta(s) and the predicted lines are prefetched.

use std::collections::HashMap;

/// Counters describing prefetcher behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Prefetch requests issued.
    pub issued: u64,
    /// Requests that found the line already resident (wasted).
    pub redundant: u64,
}

/// Number of pages tracked simultaneously. VLDP's delta history buffer
/// is small; 4096 pages (16 MiB of address space) over-approximates it,
/// consistent with the paper's "over-approximated" evaluation.
const HISTORY_CAPACITY: usize = 4096;

/// History length used by the deepest delta-prediction table.
const MAX_HISTORY: usize = 3;

/// Bytes per prefetched line.
pub(crate) const LINE_BYTES: u64 = 64;

/// Bytes per page; predictions never cross a page.
const PAGE_BYTES: u64 = 4096;

/// Lines per page. A delta is a difference of two line offsets within
/// one page, so every recorded or predicted delta lies in
/// `-(LINES_PER_PAGE - 1)..=LINES_PER_PAGE - 1`, and it is never 0.
const LINES_PER_PAGE: i8 = (PAGE_BYTES / LINE_BYTES) as i8;

/// Distinct deltas a table key position can hold (127, with the unused
/// zero slot in the middle).
const DELTA_SPAN: usize = 2 * LINES_PER_PAGE as usize - 1;

/// The dense index of one delta: `-63..=63` maps onto `0..=126`.
#[inline]
fn slot(delta: i8) -> usize {
    (delta as isize + LINES_PER_PAGE as isize - 1) as usize
}

/// The dense index of a two-delta history, oldest first.
#[inline]
fn pair(older: i8, newer: i8) -> usize {
    slot(older) * DELTA_SPAN + slot(newer)
}

/// A zeroed table of every two-delta history (16 129 bytes).
fn pair_table() -> Box<[i8]> {
    vec![0; DELTA_SPAN * DELTA_SPAN].into_boxed_slice()
}

/// The three delta-prediction tables, dense. The length-`L` table is a
/// total function from the `DELTA_SPAN^L` possible histories to the
/// next delta, with 0 meaning "no entry" (a learned delta is never 0).
#[derive(Debug, Clone)]
struct DeltaTables {
    /// Length-1 histories, at `slot(d)`.
    one: Box<[i8]>,
    /// Length-2 histories, at `pair(d0, d1)`.
    two: Box<[i8]>,
    /// Length-3 histories: one pair table per oldest delta, at
    /// `three[slot(d0)][pair(d1, d2)]`. A block is allocated when a
    /// history with that oldest delta first trains, so a prefetcher
    /// allocates at most `DELTA_SPAN` blocks in its life. A flat table
    /// of all 2 048 383 histories replayed as fast, but zeroing it added
    /// about 140 µs to building every VLDP hierarchy (2-vCPU x86-64
    /// host), which already takes about 95 µs.
    three: Vec<Option<Box<[i8]>>>,
}

impl DeltaTables {
    fn new() -> Self {
        DeltaTables {
            one: vec![0; DELTA_SPAN].into_boxed_slice(),
            two: pair_table(),
            three: vec![None; DELTA_SPAN],
        }
    }

    /// The learned successor of `history` (1 to 3 deltas, oldest first),
    /// 0 when there is none.
    #[inline]
    fn successor(&self, history: &[i8]) -> i8 {
        match *history {
            [d] => self.one[slot(d)],
            [d0, d1] => self.two[pair(d0, d1)],
            [d0, d1, d2] => self.three[slot(d0)]
                .as_ref()
                .map_or(0, |block| block[pair(d1, d2)]),
            _ => unreachable!("histories hold 1 to {MAX_HISTORY} deltas"),
        }
    }

    /// The successor slot of `history`, for training.
    #[inline]
    fn successor_mut(&mut self, history: &[i8]) -> &mut i8 {
        match *history {
            [d] => &mut self.one[slot(d)],
            [d0, d1] => &mut self.two[pair(d0, d1)],
            [d0, d1, d2] => &mut self.three[slot(d0)].get_or_insert_with(pair_table)[pair(d1, d2)],
            _ => unreachable!("histories hold 1 to {MAX_HISTORY} deltas"),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PageEntry {
    /// Last accessed line offset within the page.
    last_line: i8,
    /// Most recent line-deltas, newest last; only `len` slots are live.
    /// Fixed-size because deltas beyond [`MAX_HISTORY`] never train or
    /// predict.
    deltas: [i8; MAX_HISTORY],
    len: usize,
}

impl PageEntry {
    /// Appends a delta, dropping the oldest once `MAX_HISTORY` are live.
    fn push(&mut self, delta: i8) {
        if self.len == MAX_HISTORY {
            self.deltas.copy_within(1.., 0);
            self.deltas[MAX_HISTORY - 1] = delta;
        } else {
            self.deltas[self.len] = delta;
            self.len += 1;
        }
    }

    /// The newest `len` deltas, oldest first.
    fn suffix(&self, len: usize) -> &[i8] {
        &self.deltas[self.len - len..self.len]
    }
}

/// A multi-table delta prefetcher in the spirit of VLDP.
///
/// Tracks, per 4 KiB page, the sequence of line-address deltas, and learns
/// `history → next delta` mappings for history lengths 1 to 3. On each
/// access it predicts with the longest history that has a learned
/// successor and returns up to `degree` prefetch candidates.
///
/// # Example
///
/// ```
/// use rtr_archsim::VldpPrefetcher;
///
/// let mut pf = VldpPrefetcher::new(2);
/// // Train on a +1-line stream.
/// for i in 0..8u64 {
///     pf.observe(i * 64);
/// }
/// let predictions = pf.observe(8 * 64);
/// assert!(predictions.contains(&(9 * 64)));
/// ```
#[derive(Debug, Clone)]
pub struct VldpPrefetcher {
    tables: DeltaTables,
    /// Tracked pages and their histories. Slots fill in order; once all
    /// [`HISTORY_CAPACITY`] are taken, each new page replaces the oldest,
    /// which is always the one at `oldest` (first in, first out).
    pages: Vec<(u64, PageEntry)>,
    /// Page number → slot in `pages`.
    page_slots: HashMap<u64, usize>,
    oldest: usize,
    /// Slot of the page observed last: consecutive accesses to one page
    /// skip the hash lookup.
    last_slot: usize,
    degree: usize,
    stats: PrefetchStats,
}

impl VldpPrefetcher {
    /// Creates a prefetcher issuing up to `degree` prefetches per access.
    ///
    /// # Panics
    ///
    /// Panics if `degree == 0`.
    pub fn new(degree: usize) -> Self {
        assert!(degree > 0, "prefetch degree must be positive");
        VldpPrefetcher {
            tables: DeltaTables::new(),
            pages: Vec::new(),
            page_slots: HashMap::new(),
            oldest: 0,
            last_slot: 0,
            degree,
            stats: PrefetchStats::default(),
        }
    }

    /// The slot tracking `page`, taking one (and evicting the oldest page
    /// when all are taken) for a page seen for the first time at `line`.
    fn page_slot(&mut self, page: u64, line: i8) -> usize {
        if self
            .pages
            .get(self.last_slot)
            .is_some_and(|&(p, _)| p == page)
        {
            return self.last_slot;
        }
        let slot = match self.page_slots.get(&page) {
            Some(&slot) => slot,
            None => {
                let fresh = (
                    page,
                    PageEntry {
                        last_line: line,
                        ..PageEntry::default()
                    },
                );
                let slot = if self.pages.len() < HISTORY_CAPACITY {
                    self.pages.push(fresh);
                    self.pages.len() - 1
                } else {
                    let slot = self.oldest;
                    self.page_slots.remove(&self.pages[slot].0);
                    self.pages[slot] = fresh;
                    self.oldest = (slot + 1) % HISTORY_CAPACITY;
                    slot
                };
                self.page_slots.insert(page, slot);
                slot
            }
        };
        self.last_slot = slot;
        slot
    }

    /// Statistics so far.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }

    /// Zeroes the statistics; the delta tables and tracked pages stay.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = PrefetchStats::default();
    }

    /// Notes `count` redundant prefetches (the hierarchy reports back).
    pub(crate) fn note_redundant(&mut self, count: u64) {
        self.stats.redundant += count;
    }

    /// Counts a repeat of the previous observation without replaying it:
    /// `count` predictions issued again, all found resident. The
    /// hierarchy's quiet-repeat rule calls this when the observation
    /// would change no state (see `MemorySim::hit_tail`).
    pub(crate) fn note_quiet_repeat(&mut self, count: u64) {
        self.stats.issued += count;
        self.stats.redundant += count;
    }

    /// Observes a demand access and returns predicted prefetch addresses.
    pub fn observe(&mut self, addr: u64) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.degree);
        self.observe_into(addr, &mut out);
        out
    }

    /// Like [`observe`](VldpPrefetcher::observe) but appends predictions
    /// into a caller-owned buffer (cleared first), so a simulation loop
    /// observing millions of accesses allocates nothing per access.
    pub fn observe_into(&mut self, addr: u64, out: &mut Vec<u64>) {
        out.clear();
        let page = addr / PAGE_BYTES;
        let line = ((addr % PAGE_BYTES) / LINE_BYTES) as i8;

        let slot = self.page_slot(page, line);
        let entry = &mut self.pages[slot].1;

        let delta = line - entry.last_line;
        if delta != 0 {
            // Train each table with the history that preceded this delta.
            for len in 1..=entry.len {
                *self.tables.successor_mut(entry.suffix(len)) = delta;
            }
            entry.push(delta);
            entry.last_line = line;
        }

        // Predict: walk forward `degree` steps using the longest history.
        // PageEntry is all-inline (`Copy`), so this is a register copy.
        let mut history = *entry;
        let mut predicted_line = line;
        for _ in 0..self.degree {
            let next = (1..=history.len)
                .rev()
                .map(|len| self.tables.successor(history.suffix(len)))
                .find(|&d| d != 0);
            let Some(d) = next else { break };
            // Both terms lie within ±63, so the sum cannot overflow.
            predicted_line += d;
            if !(0..LINES_PER_PAGE).contains(&predicted_line) {
                break; // VLDP does not cross page boundaries
            }
            out.push(page * PAGE_BYTES + predicted_line as u64 * LINE_BYTES);
            self.stats.issued += 1;
            history.push(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_unit_stride() {
        let mut pf = VldpPrefetcher::new(1);
        for i in 0..4u64 {
            pf.observe(i * 64);
        }
        let preds = pf.observe(4 * 64);
        assert_eq!(preds, vec![5 * 64]);
    }

    #[test]
    fn learns_large_stride() {
        let mut pf = VldpPrefetcher::new(1);
        for i in 0..5u64 {
            pf.observe(i * 256); // delta of 4 lines
        }
        let preds = pf.observe(5 * 256);
        assert_eq!(preds, vec![6 * 256]);
    }

    #[test]
    fn degree_two_predicts_two_lines() {
        let mut pf = VldpPrefetcher::new(2);
        for i in 0..6u64 {
            pf.observe(i * 64);
        }
        let preds = pf.observe(6 * 64);
        assert_eq!(preds, vec![7 * 64, 8 * 64]);
    }

    #[test]
    fn learns_alternating_pattern_with_depth() {
        // Deltas +1, +3, +1, +3… require history length ≥ 1 keyed on the
        // previous delta; VLDP's multi-table design captures it.
        let mut pf = VldpPrefetcher::new(1);
        let mut line = 0u64;
        let mut addrs = vec![0u64];
        for i in 0..10 {
            line += if i % 2 == 0 { 1 } else { 3 };
            addrs.push(line * 64);
        }
        let mut last_preds = Vec::new();
        for &a in &addrs {
            last_preds = pf.observe(a);
        }
        // After ...+1,+3 the next delta is +1.
        let expected = (line + 1) * 64;
        assert_eq!(last_preds, vec![expected]);
    }

    #[test]
    fn does_not_cross_page_boundary() {
        let mut pf = VldpPrefetcher::new(4);
        // Train +1 stride near the end of a page.
        let base = 4096 - 4 * 64;
        for i in 0..4u64 {
            pf.observe(base + i * 64);
        }
        let preds = pf.observe(4096 - 64);
        assert!(preds.is_empty(), "predicted across a page: {preds:?}");
    }

    #[test]
    fn no_prediction_without_history() {
        let mut pf = VldpPrefetcher::new(2);
        assert!(pf.observe(0).is_empty());
        assert!(pf.observe(4096 * 7).is_empty()); // new page
    }

    #[test]
    fn repeated_same_line_predicts_nothing_new() {
        let mut pf = VldpPrefetcher::new(1);
        pf.observe(64);
        pf.observe(64);
        let preds = pf.observe(64);
        assert!(preds.is_empty());
    }

    #[test]
    fn page_eviction_bounds_memory() {
        let mut pf = VldpPrefetcher::new(1);
        for p in 0..(HISTORY_CAPACITY as u64 + 100) {
            pf.observe(p * 4096);
        }
        assert!(pf.pages.len() <= HISTORY_CAPACITY);
    }
}
