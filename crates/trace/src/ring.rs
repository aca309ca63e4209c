//! A cache-line-padded SPSC ring buffer: the lock-free telemetry
//! transport's wire.
//!
//! One producer (the kernel's hot thread) streams fixed-size records to
//! one consumer (the collector thread) through a power-of-two array of
//! atomic words. There are no locks and no CAS loops: the producer owns
//! the tail cursor, the consumer owns the head cursor, and each side
//! publishes its cursor with a release store that the other side reads
//! with an acquire load — the classic single-producer/single-consumer
//! protocol. Unlike upstream SPSC queues the slots themselves are plain
//! relaxed [`AtomicU64`] words rather than `UnsafeCell`s, which keeps
//! the whole module safe code, as the workspace's `unsafe_code = "forbid"`
//! requires: the release/acquire edge on the cursors is what orders the
//! relaxed slot accesses, and on x86-64 a relaxed atomic store compiles
//! to the same `mov` a plain store would.
//!
//! **Overflow contract.** The ring never blocks the producer: when the
//! consumer falls behind, [`RingProducer::push_batch`] (and
//! [`push`](RingProducer::push)) drop the records that do not fit and
//! count them in the [`dropped`](RingProducer::dropped) counter —
//! telemetry may be lossy, the hot loop may not stall. The *lossless*
//! stream (the [`RingTrace`] cache-trace transport, whose consumer
//! replays every op through the simulator) instead waits for free space
//! and yields between attempts: explicit backpressure at the transport
//! layer, chosen per stream, never silently inside the ring.
//!
//! SPSC is enforced by move semantics: [`ring`] returns one non-`Clone`
//! [`RingProducer`] and one non-`Clone` [`RingReader`]; whichever thread
//! owns a side is that side.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::sync::CachePadded;
use crate::{MemTrace, TraceOp};

/// Upper bound on [`RingItem::WORDS`]; lets the encode/decode scratch be
/// a fixed stack array instead of a per-call allocation.
pub const MAX_ITEM_WORDS: usize = 4;

/// A record the ring can carry: a fixed number of `u64` words.
///
/// Items are encoded into relaxed atomic words rather than stored as
/// `T`, which is what lets the ring stay safe code. Implementations must
/// round-trip exactly: `decode(encode(x)) == x`.
pub trait RingItem: Copy + Send + 'static {
    /// Words one item occupies (at most [`MAX_ITEM_WORDS`]).
    const WORDS: usize;

    /// Writes the item into `words` (`words.len() == Self::WORDS`).
    fn encode(self, words: &mut [u64]);

    /// Reads an item back from `words`.
    fn decode(words: &[u64]) -> Self;
}

/// Packed into a single word: the address in bits 1.. and the
/// read/write flag in bit 0. Addresses are therefore limited to 63 bits
/// — far beyond both the simulator's synthetic offsets and real
/// user-space pointers — and halving the slot traffic roughly halves
/// the hot-loop cost of the ring transport.
impl RingItem for TraceOp {
    const WORDS: usize = 1;

    #[inline]
    fn encode(self, words: &mut [u64]) {
        debug_assert!(self.addr < 1 << 63, "trace addresses are 63-bit");
        words[0] = (self.addr << 1) | u64::from(self.is_write);
    }

    #[inline]
    fn decode(words: &[u64]) -> Self {
        TraceOp {
            addr: words[0] >> 1,
            is_write: words[0] & 1 != 0,
        }
    }
}

/// The cursors both sides share. Cursors are monotonically increasing
/// and wrap through the power-of-two mask; padding keeps the producer's
/// tail, the consumer's head and the drop counter on separate lines.
///
/// The slot array itself is *not* in here: each side holds its own
/// `Arc<[AtomicU64]>` clone of it, a fat pointer whose data pointer and
/// length live inline in the producer/consumer struct. The hot push path
/// then reaches its slot through one indirection instead of chasing
/// `Arc -> Shared -> Box -> words`, which is measurable at
/// one-nanosecond-per-op scale.
struct Shared {
    /// Next unread slot; written only by the consumer (release), read by
    /// the producer (acquire) to learn how much space has been freed.
    head: CachePadded<AtomicUsize>,
    /// Next free slot; written only by the producer (release), read by
    /// the consumer (acquire) to learn how much data is available.
    tail: CachePadded<AtomicUsize>,
    /// Records rejected by the count-and-drop producer entry points.
    dropped: CachePadded<AtomicU64>,
}

/// Creates an SPSC ring carrying `T` with room for `capacity` items.
///
/// # Panics
///
/// Panics when `capacity` is not a power of two (the cursor arithmetic
/// relies on the mask) or when `T::WORDS` exceeds [`MAX_ITEM_WORDS`].
pub fn ring<T: RingItem>(capacity: usize) -> (RingProducer<T>, RingReader<T>) {
    assert!(
        capacity.is_power_of_two() && capacity > 0,
        "ring capacity must be a non-zero power of two, got {capacity}"
    );
    assert!(
        T::WORDS > 0 && T::WORDS <= MAX_ITEM_WORDS,
        "RingItem::WORDS must be in 1..={MAX_ITEM_WORDS}"
    );
    let words: Arc<[AtomicU64]> = (0..capacity * T::WORDS)
        .map(|_| AtomicU64::new(0))
        .collect();
    let shared = Arc::new(Shared {
        head: CachePadded::new(AtomicUsize::new(0)),
        tail: CachePadded::new(AtomicUsize::new(0)),
        dropped: CachePadded::new(AtomicU64::new(0)),
    });
    (
        RingProducer {
            shared: Arc::clone(&shared),
            words: Arc::clone(&words),
            mask: capacity - 1,
            capacity,
            cached_head: 0,
            tail: 0,
            published: 0,
            _items: PhantomData,
        },
        RingReader {
            shared,
            words,
            mask: capacity - 1,
            capacity,
            cached_tail: 0,
            head: 0,
            _items: PhantomData,
        },
    )
}

/// The producer side: owned by exactly one thread (not `Clone`).
///
/// Keeps a private mirror of its own tail (it is the only writer) and a
/// cached copy of the consumer's head, so the steady-state push touches
/// no shared line except the slots and one release store of the tail;
/// the head is re-read (acquire) only when the cached view looks full.
///
/// The batch entry points ([`try_push_batch`](Self::try_push_batch) and
/// everything built on it) publish on every call. [`RingTrace`] instead
/// writes single items unpublished and makes them visible at the next
/// [`publish`](Self::publish) — the batched-producer-writes contract
/// without staging items through a local buffer first — and publishes
/// before every wait on the consumer, so deferral never starves the
/// reader.
pub struct RingProducer<T: RingItem> {
    shared: Arc<Shared>,
    /// Fat-pointer clone of the slot array (see [`Shared`]).
    words: Arc<[AtomicU64]>,
    mask: usize,
    capacity: usize,
    cached_head: usize,
    tail: usize,
    /// Tail value last release-stored to [`Shared::tail`]; slots in
    /// `published..tail` are written but not yet visible.
    published: usize,
    _items: PhantomData<fn(T)>,
}

impl<T: RingItem> std::fmt::Debug for RingProducer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingProducer")
            .field("capacity", &self.capacity)
            .field("tail", &self.tail)
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl<T: RingItem> RingProducer<T> {
    /// Ring capacity in items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records dropped so far by the count-and-drop entry points.
    pub fn dropped(&self) -> u64 {
        // ORDERING: Relaxed — the drop counter is a monotonic statistic;
        // no other memory is published through it.
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Items written to their slots but not yet made visible by a
    /// [`publish`](Self::publish).
    pub fn unpublished(&self) -> usize {
        self.tail.wrapping_sub(self.published)
    }

    /// Release-stores the tail, making every pushed item visible to the
    /// consumer. No-op when nothing is pending; the batch entry points
    /// call it automatically.
    #[inline]
    pub fn publish(&mut self) {
        if self.published != self.tail {
            // ORDERING: Release — pairs with the consumer's Acquire load
            // of tail in pop_batch/is_empty; it orders the Relaxed slot
            // stores before the tail becomes visible, which is the only
            // thing handing slot contents to the other thread.
            self.shared.tail.store(self.tail, Ordering::Release);
            self.published = self.tail;
        }
    }

    /// Writes one item to its slot and advances the private tail,
    /// skipping the free-space check entirely. Logically (not memory-)
    /// hazardous: the caller must have established room via
    /// [`refresh_free`](Self::refresh_free), or the item silently
    /// overwrites an unread slot. Kept `pub(crate)`
    /// so only this crate's transports ([`RingTrace`]) can amortize the
    /// check across a whole refill window.
    #[inline]
    pub(crate) fn push_unpublished(&mut self, item: T) {
        debug_assert!(
            self.tail.wrapping_sub(self.cached_head) < self.capacity,
            "push_unpublished requires established free space"
        );
        // ORDERING: Relaxed slot stores throughout — the Release store
        // of tail in `publish` is the sole synchronization point handing
        // these words to the consumer; ordering individual slot writes
        // against each other buys nothing in an SPSC ring.
        let mut scratch = [0u64; MAX_ITEM_WORDS];
        item.encode(&mut scratch[..T::WORDS]);
        if T::WORDS == 1 {
            // One-word items (every trace record today): the slot array
            // length IS the power-of-two capacity, so masking with
            // `len - 1` both replaces the `mask` field load and lets the
            // compiler prove the index in bounds — the hot store
            // compiles to a bare `mov`. The branch is const-folded per
            // monomorphization. `checked_sub` instead of an assert: the
            // array is never empty (`ring()` rejects capacity 0), and a
            // plain early return keeps the panic machinery — and with
            // it the fast path's register-save prologue — out of this
            // function entirely.
            let words = &*self.words;
            let Some(mask) = words.len().checked_sub(1) else {
                return;
            };
            words[self.tail & mask].store(scratch[0], Ordering::Relaxed);
        } else {
            let base = (self.tail & self.mask) * T::WORDS;
            for (k, word) in scratch[..T::WORDS].iter().enumerate() {
                // Relaxed is enough: the release store in `publish` is
                // what hands these words to the consumer.
                self.words[base + k].store(*word, Ordering::Relaxed);
            }
        }
        self.tail = self.tail.wrapping_add(1);
    }

    /// The producer's private tail cursor (monotonic, unwrapped).
    #[inline]
    pub(crate) fn tail_cursor(&self) -> usize {
        self.tail
    }

    /// Re-reads the consumer's head (acquire) and returns how many free
    /// slots the producer may now write without another check.
    #[inline]
    pub(crate) fn refresh_free(&mut self) -> usize {
        // ORDERING: Acquire — pairs with the consumer's Release store of
        // head; freed slots may only be rewritten after the consumer's
        // reads of them have completed.
        self.cached_head = self.shared.head.load(Ordering::Acquire);
        self.capacity - self.tail.wrapping_sub(self.cached_head)
    }

    /// Pushes a prefix of `items` — as many as currently fit — and
    /// returns how many were accepted, publishing everything written so
    /// far. Never waits, never drops: the caller decides whether the
    /// rejected suffix is retried (lossless backpressure) or abandoned.
    #[inline]
    pub fn try_push_batch(&mut self, items: &[T]) -> usize {
        let cap = self.capacity;
        let mut free = cap - self.tail.wrapping_sub(self.cached_head);
        if free < items.len() {
            // Publish before (possibly) reporting the ring full, so a
            // retrying caller's consumer always has work to drain.
            // ORDERING: the Acquire head load pairs with the consumer's
            // Release store in pop_batch (slot reuse); the Relaxed slot
            // stores below are handed over by the Release tail store at
            // the end of this fn.
            self.publish();
            self.cached_head = self.shared.head.load(Ordering::Acquire);
            free = cap - self.tail.wrapping_sub(self.cached_head);
        }
        let n = free.min(items.len());
        if n == 0 {
            return 0;
        }
        // Copy in contiguous runs: at most two slices per call (the
        // wrap), with the slot iteration bounds-check-free.
        let mask = self.mask;
        let mut written = 0;
        while written < n {
            let start = self.tail.wrapping_add(written) & mask;
            let run = (cap - start).min(n - written);
            let slots = &self.words[start * T::WORDS..(start + run) * T::WORDS];
            let batch = &items[written..written + run];
            for (slot, item) in slots.chunks_exact(T::WORDS).zip(batch.iter()) {
                let mut scratch = [0u64; MAX_ITEM_WORDS];
                item.encode(&mut scratch[..T::WORDS]);
                for (word, value) in slot.iter().zip(scratch[..T::WORDS].iter()) {
                    // Relaxed: the release store below publishes them.
                    word.store(*value, Ordering::Relaxed);
                }
            }
            written += run;
        }
        self.tail = self.tail.wrapping_add(n);
        self.shared.tail.store(self.tail, Ordering::Release);
        self.published = self.tail;
        n
    }

    /// Pushes `items` under the ring's overflow contract: whatever does
    /// not fit is dropped and counted. Returns how many were accepted.
    #[inline]
    pub fn push_batch(&mut self, items: &[T]) -> usize {
        let n = self.try_push_batch(items);
        let rejected = items.len() - n;
        if rejected > 0 {
            // ORDERING: Relaxed — the drop counter is a statistic; no
            // memory is published through it.
            self.shared
                .dropped
                .fetch_add(rejected as u64, Ordering::Relaxed);
        }
        n
    }

    /// Pushes one item under the count-and-drop contract; `false` means
    /// it was dropped (and counted).
    #[inline]
    pub fn push(&mut self, item: T) -> bool {
        self.push_batch(std::slice::from_ref(&item)) == 1
    }
}

/// The consumer side: owned by exactly one thread (not `Clone`).
pub struct RingReader<T: RingItem> {
    shared: Arc<Shared>,
    /// Fat-pointer clone of the slot array (see [`Shared`]).
    words: Arc<[AtomicU64]>,
    mask: usize,
    capacity: usize,
    cached_tail: usize,
    head: usize,
    _items: PhantomData<fn() -> T>,
}

impl<T: RingItem> std::fmt::Debug for RingReader<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingReader")
            .field("capacity", &self.capacity)
            .field("head", &self.head)
            .finish()
    }
}

impl<T: RingItem> RingReader<T> {
    /// Ring capacity in items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records dropped so far on the producer side.
    pub fn dropped(&self) -> u64 {
        // ORDERING: Relaxed — monotonic statistic, publishes no memory.
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Pops up to `max` items in production order, appending them to
    /// `out`; returns how many were popped (`0` = ring currently empty).
    ///
    /// `out` is the caller's reusable scratch — the collector allocates
    /// it once and clears it between drains, so the steady-state drain
    /// path performs no heap allocation.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        // ORDERING: the Acquire tail load pairs with the producer's
        // Release tail store (publish): it makes the Relaxed slot stores
        // behind it visible before we read them below.
        let mut available = self.cached_tail.wrapping_sub(self.head);
        if available == 0 {
            self.cached_tail = self.shared.tail.load(Ordering::Acquire);
            available = self.cached_tail.wrapping_sub(self.head);
            if available == 0 {
                return 0;
            }
        }
        let n = available.min(max);
        let cap = self.capacity;
        let mask = self.mask;
        let mut popped = 0;
        while popped < n {
            let start = self.head.wrapping_add(popped) & mask;
            let run = (cap - start).min(n - popped);
            let slots = &self.words[start * T::WORDS..(start + run) * T::WORDS];
            for slot in slots.chunks_exact(T::WORDS) {
                let mut scratch = [0u64; MAX_ITEM_WORDS];
                for (value, word) in scratch[..T::WORDS].iter_mut().zip(slot.iter()) {
                    *value = word.load(Ordering::Relaxed);
                }
                out.push(T::decode(&scratch[..T::WORDS]));
            }
            popped += run;
        }
        self.head = self.head.wrapping_add(n);
        // ORDERING: Release — the producer's Acquire load of head must
        // also see our slot reads as completed before it overwrites
        // them.
        self.shared.head.store(self.head, Ordering::Release);
        n
    }

    /// `true` when the ring has no unread items at this instant.
    pub fn is_empty(&mut self) -> bool {
        if self.cached_tail.wrapping_sub(self.head) > 0 {
            return false;
        }
        // ORDERING: Acquire — pairs with the producer's Release tail
        // store, same contract as the refresh in pop_batch.
        self.cached_tail = self.shared.tail.load(Ordering::Acquire);
        self.cached_tail == self.head
    }
}

/// The collector-side contract: consumes batches drained from a ring.
///
/// The collector thread owns the expensive sinks (the cache simulator,
/// the metric map, report writers) and calls `consume_batch` with each
/// drained slice, in production order. Consumer callbacks must not read
/// the wall clock (`rtr-lint`'s `wall-clock` rule scans `consume_batch`
/// bodies in every crate, including the measurement crates): timing
/// happens on the producer side, the collector only aggregates.
pub trait RingConsumer<T>: Send {
    /// Consumes one drained batch, in production order.
    fn consume_batch(&mut self, batch: &[T]);
}

/// The lossless ring transport for kernel memory-access streams: a
/// [`MemTrace`] sink that writes each op straight into its ring slot
/// and release-stores the tail once per batch — the PR 6 batching
/// contract without staging ops through a local buffer first (the
/// double copy was the transport's dominant cost).
///
/// Unlike the metric path, a cache-trace stream cannot tolerate drops —
/// the consumer replays it through the simulator, and a dropped op would
/// change the report. The sink therefore applies *backpressure* instead
/// of the ring's count-and-drop contract: when the ring is full it
/// publishes what it has and yields the CPU until the collector frees
/// space. The hot loop can stall (bounded by how far the consumer is
/// behind) but the op stream arrives intact and in order, which is what
/// makes the ring-transported `CacheReport` byte-identical to the
/// inline path's.
///
/// Call [`flush`](RingTrace::flush) (or drop the session that owns the
/// sink) before shutting down the collector, otherwise the tail of the
/// stream is written but not yet published.
#[derive(Debug)]
pub struct RingTrace {
    producer: RingProducer<TraceOp>,
    batch: usize,
    /// Absolute tail cursor at which the per-op fast path must stop and
    /// run the slow path again: `limit - tail` slots are known-free (a
    /// past head refresh proved it) and within the current publication
    /// batch. The steady-state push therefore checks one equality
    /// instead of re-deriving free space and batch fill every op.
    limit: usize,
}

impl RingTrace {
    /// Ops per tail publication; matches
    /// [`BufferedTrace::DEFAULT_CAPACITY`](crate::BufferedTrace::DEFAULT_CAPACITY)
    /// so the ring path amortizes its release store exactly as the
    /// inline path amortizes its virtual dispatch. Publication is lazy:
    /// a filled batch becomes visible on the next push past the window
    /// boundary or at the next [`flush`](RingTrace::flush), whichever
    /// comes first.
    pub const DEFAULT_BATCH: usize = 4096;

    /// Wraps `producer` with the default publication batch size.
    pub fn new(producer: RingProducer<TraceOp>) -> Self {
        Self::with_batch(producer, Self::DEFAULT_BATCH)
    }

    /// Wraps `producer` with an explicit publication batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn with_batch(mut producer: RingProducer<TraceOp>, batch: usize) -> Self {
        assert!(batch > 0, "RingTrace batch size must be non-zero");
        let free = producer.refresh_free();
        let limit = producer.tail_cursor().wrapping_add(free.min(batch));
        RingTrace {
            producer,
            batch,
            limit,
        }
    }

    /// Ops written to their slots but not yet published to the consumer.
    pub fn pending(&self) -> usize {
        self.producer.unpublished()
    }

    /// Publishes the batched tail, making every emitted op visible.
    pub fn flush(&mut self) {
        self.producer.publish();
    }

    /// Flushes the tail and returns the producer handle.
    pub fn into_producer(mut self) -> RingProducer<TraceOp> {
        self.flush();
        self.producer
    }

    /// The push slow path, once per refill window: publish everything
    /// pending (so the waiting loop always leaves the consumer work to
    /// drain), wait for free space, size the next window, then land the
    /// op. Taking `op` here (rather than returning to the fast path)
    /// lets the hot `push` compile without a register-save prologue —
    /// the slow branch is a bare tail call.
    #[cold]
    #[inline(never)]
    fn push_slow(&mut self, op: TraceOp) {
        self.producer.publish();
        loop {
            let free = self.producer.refresh_free();
            if free > 0 {
                self.limit = self
                    .producer
                    .tail_cursor()
                    .wrapping_add(free.min(self.batch));
                break;
            }
            std::thread::yield_now();
        }
        self.producer.push_unpublished(op);
    }

    #[inline]
    fn push(&mut self, op: TraceOp) {
        // `tail < limit` slots are known-free, so the steady-state op is
        // one equality check plus the raw slot write. Publication is
        // lazy: the batch becomes visible when the *next* push crosses
        // the window boundary (or at the next `flush`), keeping the
        // boundary check itself off the per-op path.
        if self.producer.tail_cursor() != self.limit {
            self.producer.push_unpublished(op);
        } else {
            self.push_slow(op);
        }
    }
}

impl MemTrace for RingTrace {
    #[inline]
    fn read(&mut self, addr: u64) {
        self.push(TraceOp {
            addr,
            is_write: false,
        });
    }

    #[inline]
    fn write(&mut self, addr: u64) {
        self.push(TraceOp {
            addr,
            is_write: true,
        });
    }

    #[inline]
    fn process_batch(&mut self, ops: &[TraceOp]) {
        // Slot writes happen in call order, so the caller's batch lands
        // after any per-op pushes; try_push_batch publishes as it goes.
        let mut sent = 0;
        while sent < ops.len() {
            sent += self.producer.try_push_batch(&ops[sent..]);
            if sent < ops.len() {
                std::thread::yield_now();
            }
        }
        // The batch moved the tail without consuming the per-op fast
        // path's window: force the next push through the slow path.
        self.limit = self.producer.tail_cursor();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(addr: u64, is_write: bool) -> TraceOp {
        TraceOp { addr, is_write }
    }

    #[test]
    fn items_round_trip_in_order_across_wrap() {
        let (mut tx, mut rx) = ring::<TraceOp>(8);
        let mut popped = Vec::new();
        // 5 rounds of 6 through a capacity-8 ring crosses the wrap
        // boundary repeatedly.
        for round in 0..5u64 {
            let batch: Vec<TraceOp> = (0..6).map(|i| op(round * 6 + i, i % 2 == 0)).collect();
            assert_eq!(tx.push_batch(&batch), 6);
            assert_eq!(rx.pop_batch(&mut popped, 16), 6);
        }
        let expected: Vec<TraceOp> = (0..30).map(|i| op(i, i % 2 == 0)).collect();
        assert_eq!(popped, expected);
        assert_eq!(tx.dropped(), 0);
    }

    #[test]
    fn capacity_one_ring_alternates() {
        let (mut tx, mut rx) = ring::<TraceOp>(1);
        let mut out = Vec::new();
        for i in 0..4u64 {
            assert!(tx.push(op(i, false)));
            assert!(!tx.push(op(99, true)), "second push must be rejected");
            assert_eq!(rx.pop_batch(&mut out, 8), 1);
        }
        assert_eq!(out.len(), 4);
        assert_eq!(tx.dropped(), 4, "one counted drop per round");
        assert_eq!(rx.dropped(), 4);
    }

    #[test]
    fn push_batch_accepts_a_prefix_and_counts_the_rest() {
        let (mut tx, mut rx) = ring::<TraceOp>(4);
        let batch: Vec<TraceOp> = (0..7).map(|i| op(i, false)).collect();
        assert_eq!(tx.push_batch(&batch), 4);
        assert_eq!(tx.dropped(), 3);
        let mut out = Vec::new();
        rx.pop_batch(&mut out, 16);
        assert_eq!(out, batch[..4].to_vec(), "accepted ops are the prefix");
    }

    #[test]
    fn try_push_batch_never_counts_drops() {
        let (mut tx, _rx) = ring::<TraceOp>(2);
        assert_eq!(tx.try_push_batch(&[op(0, false); 5]), 2);
        assert_eq!(tx.try_push_batch(&[op(1, false)]), 0);
        assert_eq!(tx.dropped(), 0);
    }

    #[test]
    fn pop_respects_max_and_reports_empty() {
        let (mut tx, mut rx) = ring::<TraceOp>(8);
        assert!(rx.is_empty());
        tx.push_batch(&(0..6).map(|i| op(i, false)).collect::<Vec<_>>());
        assert!(!rx.is_empty());
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 4), 4);
        assert_eq!(rx.pop_batch(&mut out, 4), 2);
        assert_eq!(rx.pop_batch(&mut out, 4), 0);
        assert!(rx.is_empty());
        assert_eq!(out.len(), 6);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_is_rejected() {
        let _ = ring::<TraceOp>(6);
    }

    #[test]
    fn ring_trace_flushes_batches_losslessly() {
        let (tx, mut rx) = ring::<TraceOp>(8);
        let mut trace = RingTrace::with_batch(tx, 3);
        trace.read(0);
        trace.write(64);
        assert_eq!(trace.pending(), 2);
        trace.read(128); // batch full; publication is lazy
        assert_eq!(trace.pending(), 3);
        trace.write(192); // crossing the window boundary auto-publishes
        assert_eq!(trace.pending(), 1);
        trace.flush();
        let mut out = Vec::new();
        rx.pop_batch(&mut out, 16);
        assert_eq!(
            out,
            vec![op(0, false), op(64, true), op(128, false), op(192, true)]
        );
        assert_eq!(rx.dropped(), 0);
    }

    #[test]
    fn ring_trace_process_batch_drains_pending_first() {
        let (tx, mut rx) = ring::<TraceOp>(16);
        let mut trace = RingTrace::with_batch(tx, 8);
        trace.read(0);
        trace.process_batch(&[op(64, true), op(128, false)]);
        assert_eq!(trace.pending(), 0);
        let mut out = Vec::new();
        rx.pop_batch(&mut out, 16);
        assert_eq!(out, vec![op(0, false), op(64, true), op(128, false)]);
    }

    #[test]
    fn trace_op_encoding_round_trips() {
        for case in [op(0, false), op((1 << 63) - 1, true), op(12345, true)] {
            let mut words = [0u64; TraceOp::WORDS];
            case.encode(&mut words);
            assert_eq!(TraceOp::decode(&words), case);
        }
    }
}
