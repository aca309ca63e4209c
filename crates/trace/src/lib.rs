//! The suite's memory-trace sink contract.
//!
//! Kernels *emit* a stream of synthetic memory accesses into a [`MemTrace`]
//! sink; backends (the cache simulator in `rtr-archsim`, the counting and
//! recording sinks here) *consume* the stream. The dependency points from
//! the backend to this contract, never from a kernel to a backend: kernel
//! crates depend only on `rtr-trace`, and `rtr-archsim::MemorySim`
//! implements [`MemTrace`] to plug itself underneath them.
//!
//! Emission is gated by type: [`MemTrace::read`], [`write`](MemTrace::write)
//! and [`process_batch`](MemTrace::process_batch) take a [`Gated`] token,
//! and outside this crate only [`MemTrace::gate`] hands one out, `Some`
//! exactly when the sink is [`enabled`](MemTrace::enabled). A kernel
//! therefore cannot emit without asking first. The default sink is
//! [`NullTrace`], whose `gate` is a constant `None`: a kernel generic
//! over `T: MemTrace + ?Sized` monomorphizes the untraced path to
//! exactly the code it had before tracing existed — no allocation, no
//! branch, no call.
//!
//! # Example
//!
//! ```
//! use rtr_trace::{CountingTrace, MemTrace, NullTrace};
//!
//! fn kernel<T: MemTrace + ?Sized>(trace: &mut T) {
//!     if let Some(g) = trace.gate() {
//!         for i in 0..4u64 {
//!             trace.read(i * 64, g);
//!         }
//!         trace.write(0, g);
//!     }
//! }
//!
//! kernel(&mut NullTrace); // compiles to nothing
//! let mut counts = CountingTrace::default();
//! kernel(&mut counts);
//! assert_eq!((counts.reads, counts.writes), (4, 1));
//! ```

pub mod channel;
pub mod metric;

pub use channel::{
    trace_channel, BatchConsumer, BatchReader, BatchSender, PackedOp, Stopper, TraceSender,
};
pub use metric::{metric_channel, Histogram, Metric, MetricMap, MetricPublisher, MetricRecord};

/// The token every emission takes: proof that the code emitting asked
/// a sink's [`MemTrace::gate`] and was told yes.
///
/// Zero-sized and [`Copy`], so passing it costs nothing. Its only field
/// is private: outside this crate, [`MemTrace::gate`] is the one way to
/// get one, and this crate mints one only where it drains ops that were
/// emitted with a token (the [`BufferedTrace`] flush and the collector's
/// [`BatchConsumer`] replay). The type rules out a forgotten gate, not a
/// deliberate bypass: a token from one enabled sink opens any other.
///
/// Minting one outside this crate does not compile:
///
/// ```compile_fail,E0423
/// use rtr_trace::{CountingTrace, Gated, MemTrace};
///
/// let _token: Gated = Gated(());
/// ```
///
/// while the same snippet with the token from `gate()` does, so the one
/// above fails for the minting line and not for its imports:
///
/// ```
/// use rtr_trace::{CountingTrace, Gated, MemTrace};
///
/// let _token: Gated = CountingTrace::default().gate().unwrap();
/// ```
///
/// Nor does emitting without one:
///
/// ```compile_fail,E0061
/// use rtr_trace::{CountingTrace, MemTrace};
///
/// let mut t = CountingTrace::default();
/// if let Some(g) = t.gate() {
///     t.read(64);
/// }
/// ```
///
/// while passing the token compiles:
///
/// ```
/// use rtr_trace::{CountingTrace, MemTrace};
///
/// let mut t = CountingTrace::default();
/// if let Some(g) = t.gate() {
///     t.read(64, g);
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Gated(());

/// A sink for a kernel's synthetic memory-access stream.
///
/// Addresses are byte addresses in a flat synthetic space; each kernel
/// documents its own region layout (e.g. RRT reads `payload * 40` for a
/// five-`f64` arm configuration). The trait is dyn-safe so harness code
/// can hold a `&mut dyn MemTrace` chosen at runtime, while kernels stay
/// generic (`T: MemTrace + ?Sized`) so the [`NullTrace`] path folds away.
pub trait MemTrace {
    /// Records a load of the line containing `addr`.
    fn read(&mut self, addr: u64, g: Gated);

    /// Records a store to the line containing `addr`.
    fn write(&mut self, addr: u64, g: Gated);

    /// `false` only for sinks that discard the stream ([`NullTrace`]).
    /// Sinks override this, never [`gate`](MemTrace::gate).
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// The token emission takes: `Some` exactly when
    /// [`enabled`](MemTrace::enabled). Kernels gate each emission block on
    /// it (`if let Some(g) = trace.gate() { trace.read(addr, g) }`); on a
    /// `&mut dyn MemTrace` that is one virtual call per block, for a
    /// generic [`NullTrace`] caller it folds away. Kernels with a parallel
    /// untraced hot loop also use it to select the sequential emission
    /// path when a real sink is attached; outputs are bit-identical either
    /// way (the suite's determinism contract).
    #[inline]
    fn gate(&self) -> Option<Gated> {
        self.enabled().then_some(Gated(()))
    }

    /// Consumes an ordered batch of recorded ops.
    ///
    /// The contract is strict equivalence: a sink's observable state after
    /// `process_batch(ops, g)` must be identical to replaying each op
    /// through [`read`](MemTrace::read)/[`write`](MemTrace::write) in order
    /// — the default body does exactly that. Sinks with a cheaper bulk path
    /// (bulk counters, a monomorphic simulation loop) override it; callers
    /// like [`BufferedTrace`] use it to amortize virtual dispatch on a
    /// `&mut dyn MemTrace` into one call per buffer.
    #[inline]
    fn process_batch(&mut self, ops: &[TraceOp], g: Gated) {
        for op in ops {
            if op.is_write {
                self.write(op.addr, g);
            } else {
                self.read(op.addr, g);
            }
        }
    }
}

impl<T: MemTrace + ?Sized> MemTrace for &mut T {
    #[inline]
    fn read(&mut self, addr: u64, g: Gated) {
        (**self).read(addr, g);
    }

    #[inline]
    fn write(&mut self, addr: u64, g: Gated) {
        (**self).write(addr, g);
    }

    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn process_batch(&mut self, ops: &[TraceOp], g: Gated) {
        (**self).process_batch(ops, g);
    }
}

/// The do-nothing sink: the default for untraced runs.
///
/// Every method is an empty `#[inline]` body and [`MemTrace::enabled`]
/// returns `false`, so [`MemTrace::gate`] is `None` and monomorphized
/// emission blocks vanish entirely in release builds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullTrace;

impl MemTrace for NullTrace {
    #[inline]
    fn read(&mut self, _addr: u64, _: Gated) {}

    #[inline]
    fn write(&mut self, _addr: u64, _: Gated) {}

    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn process_batch(&mut self, _ops: &[TraceOp], _: Gated) {}
}

/// A sink that counts reads and writes; for tests and overhead probes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingTrace {
    /// Number of `read` calls observed.
    pub reads: u64,
    /// Number of `write` calls observed.
    pub writes: u64,
}

impl CountingTrace {
    /// Total accesses observed.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

impl MemTrace for CountingTrace {
    #[inline]
    fn read(&mut self, _addr: u64, _: Gated) {
        self.reads += 1;
    }

    #[inline]
    fn write(&mut self, _addr: u64, _: Gated) {
        self.writes += 1;
    }

    #[inline]
    fn process_batch(&mut self, ops: &[TraceOp], _: Gated) {
        let writes = ops.iter().filter(|op| op.is_write).count() as u64;
        self.writes += writes;
        self.reads += ops.len() as u64 - writes;
    }
}

/// A [`Copy`] handle onto a sink parked in a [`RefCell`], for kernels
/// whose emission sites sit behind `&self` (interior mutability).
///
/// Symbolic planning is the motivating case: the search space interns
/// states from `successors(&self, ..)` while the search engine holds its
/// own `&mut` sink. Both sides get a `SharedTrace` copy over the same
/// cell; each op takes a short non-reentrant borrow.
///
/// [`RefCell`]: core::cell::RefCell
pub struct SharedTrace<'a, 'b, T: MemTrace + ?Sized> {
    inner: &'a core::cell::RefCell<&'b mut T>,
}

impl<'a, 'b, T: MemTrace + ?Sized> SharedTrace<'a, 'b, T> {
    /// Wraps a cell holding the real sink.
    pub fn new(inner: &'a core::cell::RefCell<&'b mut T>) -> Self {
        SharedTrace { inner }
    }
}

impl<T: MemTrace + ?Sized> Clone for SharedTrace<'_, '_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: MemTrace + ?Sized> Copy for SharedTrace<'_, '_, T> {}

impl<T: MemTrace + ?Sized> MemTrace for SharedTrace<'_, '_, T> {
    #[inline]
    fn read(&mut self, addr: u64, g: Gated) {
        self.inner.borrow_mut().read(addr, g);
    }

    #[inline]
    fn write(&mut self, addr: u64, g: Gated) {
        self.inner.borrow_mut().write(addr, g);
    }

    #[inline]
    fn enabled(&self) -> bool {
        self.inner.borrow().enabled()
    }

    #[inline]
    fn process_batch(&mut self, ops: &[TraceOp], g: Gated) {
        self.inner.borrow_mut().process_batch(ops, g);
    }
}

/// One recorded access: the address and whether it was a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Byte address in the kernel's synthetic address space.
    pub addr: u64,
    /// `true` for a store, `false` for a load.
    pub is_write: bool,
}

/// A sink that records the full ordered access stream; for bit-identity
/// and emission-shape tests (not for hot loops — it allocates).
///
/// Load/store tallies are kept as running counters so the per-assertion
/// [`reads`](RecordingTrace::reads)/[`writes`](RecordingTrace::writes)
/// calls in the kernel emission tests stay O(1) instead of re-scanning
/// the stream. `ops` stays public for shape assertions; push through the
/// [`MemTrace`] methods so the counters stay in sync.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecordingTrace {
    /// The ordered access stream as emitted by the kernel.
    pub ops: Vec<TraceOp>,
    read_count: u64,
    write_count: u64,
}

impl RecordingTrace {
    /// Number of recorded loads.
    pub fn reads(&self) -> u64 {
        self.read_count
    }

    /// Number of recorded stores.
    pub fn writes(&self) -> u64 {
        self.write_count
    }
}

impl MemTrace for RecordingTrace {
    fn read(&mut self, addr: u64, _: Gated) {
        self.read_count += 1;
        self.ops.push(TraceOp {
            addr,
            is_write: false,
        });
    }

    fn write(&mut self, addr: u64, _: Gated) {
        self.write_count += 1;
        self.ops.push(TraceOp {
            addr,
            is_write: true,
        });
    }

    fn process_batch(&mut self, ops: &[TraceOp], _: Gated) {
        let writes = ops.iter().filter(|op| op.is_write).count() as u64;
        self.write_count += writes;
        self.read_count += ops.len() as u64 - writes;
        self.ops.extend_from_slice(ops);
    }
}

/// A fixed-capacity buffering adapter that turns per-op `read`/`write`
/// calls into one [`MemTrace::process_batch`] call per full buffer.
///
/// Harness code holds sinks as `&mut dyn MemTrace`, so every access pays
/// a virtual dispatch; wrapping the sink in a `BufferedTrace` amortizes
/// that to one dispatch per `capacity` ops. The buffer is allocated once
/// at construction and never grows — the steady-state path is a bounds
/// check, a push into reserved storage, and a branch.
///
/// Ops flow through strictly in emission order (the buffer is flushed,
/// never reordered), so any sink sees the exact stream it would have
/// seen unbuffered — only the call granularity changes. Call
/// [`into_inner`](BufferedTrace::into_inner) (or `flush`) before reading
/// results out of the wrapped sink, otherwise the tail of the stream is
/// still pending.
///
/// # Example
///
/// ```
/// use rtr_trace::{BufferedTrace, CountingTrace, MemTrace};
///
/// let mut buffered = BufferedTrace::with_capacity(CountingTrace::default(), 2);
/// let g = buffered.gate().expect("a counting sink is enabled");
/// buffered.read(0, g);
/// buffered.read(64, g); // buffer full: flushes one batch of 2
/// buffered.write(128, g); // still pending
/// let counts = buffered.into_inner(); // flushes the tail
/// assert_eq!((counts.reads, counts.writes), (2, 1));
/// ```
#[derive(Debug, Clone)]
pub struct BufferedTrace<S: MemTrace> {
    inner: S,
    buf: Vec<TraceOp>,
    capacity: usize,
}

impl<S: MemTrace> BufferedTrace<S> {
    /// Default buffer capacity in ops; large enough to amortize dispatch,
    /// small enough to stay resident in L1D (4096 × 16 B = 64 KiB... of
    /// which only the live prefix is touched between flushes).
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Wraps `inner` with the default buffer capacity.
    pub fn new(inner: S) -> Self {
        Self::with_capacity(inner, Self::DEFAULT_CAPACITY)
    }

    /// Wraps `inner` with an explicit buffer capacity (ops per flush).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(inner: S, capacity: usize) -> Self {
        assert!(capacity > 0, "BufferedTrace capacity must be non-zero");
        BufferedTrace {
            inner,
            buf: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Delivers all buffered ops to the inner sink as one batch. Every
    /// buffered op was emitted with a token, so the drain mints its own.
    pub fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.inner.process_batch(&self.buf, Gated(()));
            self.buf.clear();
        }
    }

    /// Flushes the tail and returns the inner sink.
    pub fn into_inner(mut self) -> S {
        self.flush();
        self.inner
    }

    #[inline]
    fn push(&mut self, op: TraceOp) {
        self.buf.push(op);
        if self.buf.len() == self.capacity {
            self.flush();
        }
    }
}

impl<S: MemTrace> MemTrace for BufferedTrace<S> {
    #[inline]
    fn read(&mut self, addr: u64, _: Gated) {
        self.push(TraceOp {
            addr,
            is_write: false,
        });
    }

    #[inline]
    fn write(&mut self, addr: u64, _: Gated) {
        self.push(TraceOp {
            addr,
            is_write: true,
        });
    }

    /// Delegates to the inner sink: buffering is a transport detail and
    /// must not flip a kernel onto its traced emission path by itself.
    #[inline]
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    #[inline]
    fn process_batch(&mut self, ops: &[TraceOp], g: Gated) {
        // Preserve stream order: drain what's pending, then hand the
        // caller's batch through without copying it into the buffer.
        self.flush();
        self.inner.process_batch(ops, g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit<T: MemTrace + ?Sized>(trace: &mut T) {
        if let Some(g) = trace.gate() {
            trace.read(0, g);
            trace.read(64, g);
            trace.write(128, g);
        }
    }

    /// Tests mint tokens directly, as only this crate can.
    const G: Gated = Gated(());

    #[test]
    fn null_trace_is_disabled() {
        assert!(!NullTrace.enabled());
        assert!(NullTrace.gate().is_none());
        emit(&mut NullTrace); // must compile and do nothing
    }

    #[test]
    fn counting_trace_counts_reads_and_writes() {
        let mut t = CountingTrace::default();
        emit(&mut t);
        assert_eq!(t.reads, 2);
        assert_eq!(t.writes, 1);
        assert_eq!(t.total(), 3);
        assert!(t.gate().is_some());
    }

    #[test]
    fn recording_trace_preserves_order_and_kind() {
        let mut t = RecordingTrace::default();
        emit(&mut t);
        assert_eq!(
            t.ops,
            vec![
                TraceOp {
                    addr: 0,
                    is_write: false
                },
                TraceOp {
                    addr: 64,
                    is_write: false
                },
                TraceOp {
                    addr: 128,
                    is_write: true
                },
            ]
        );
        assert_eq!(t.reads(), 2);
        assert_eq!(t.writes(), 1);
    }

    #[test]
    fn shared_trace_funnels_both_sides_into_one_sink() {
        let mut counts = CountingTrace::default();
        {
            let cell = core::cell::RefCell::new(&mut counts);
            let mut side_a = SharedTrace::new(&cell);
            let mut side_b = side_a; // Copy
            let g = side_a.gate().expect("a counting sink is enabled");
            side_a.read(0, g);
            side_b.write(64, g);
        }
        assert_eq!((counts.reads, counts.writes), (1, 1));
    }

    #[test]
    fn process_batch_default_matches_per_op_replay() {
        let ops = vec![
            TraceOp {
                addr: 0,
                is_write: false,
            },
            TraceOp {
                addr: 64,
                is_write: true,
            },
            TraceOp {
                addr: 0,
                is_write: false,
            },
        ];
        let mut batched = RecordingTrace::default();
        batched.process_batch(&ops, G);
        let mut per_op = RecordingTrace::default();
        for op in &ops {
            if op.is_write {
                per_op.write(op.addr, G);
            } else {
                per_op.read(op.addr, G);
            }
        }
        assert_eq!(batched, per_op);
        assert_eq!((batched.reads(), batched.writes()), (2, 1));

        let mut counts = CountingTrace::default();
        counts.process_batch(&ops, G);
        assert_eq!((counts.reads, counts.writes), (2, 1));
    }

    #[test]
    fn buffered_trace_preserves_order_across_flush_boundaries() {
        // Capacity 2 forces a flush mid-stream; the recorded stream must
        // be indistinguishable from the unbuffered one.
        let mut buffered = BufferedTrace::with_capacity(RecordingTrace::default(), 2);
        emit(&mut buffered);
        assert_eq!(buffered.buf.len(), 1); // 3 ops, one flush of 2
        let recorded = buffered.into_inner();
        let mut direct = RecordingTrace::default();
        emit(&mut direct);
        assert_eq!(recorded, direct);
    }

    #[test]
    fn buffered_trace_flush_is_idempotent_and_batch_drains_first() {
        let mut buffered = BufferedTrace::with_capacity(RecordingTrace::default(), 8);
        buffered.read(0, G);
        buffered.flush();
        buffered.flush(); // empty flush must not emit a batch
        buffered.process_batch(
            &[TraceOp {
                addr: 64,
                is_write: true,
            }],
            G,
        );
        assert!(buffered.buf.is_empty());
        let recorded = buffered.into_inner();
        assert_eq!(
            recorded.ops,
            vec![
                TraceOp {
                    addr: 0,
                    is_write: false
                },
                TraceOp {
                    addr: 64,
                    is_write: true
                },
            ]
        );
    }

    #[test]
    fn buffered_trace_enabled_delegates_to_inner() {
        assert!(BufferedTrace::new(NullTrace).gate().is_none());
        assert!(BufferedTrace::new(CountingTrace::default())
            .gate()
            .is_some());
    }

    #[test]
    fn dyn_sink_and_reborrow_both_work() {
        let mut counts = CountingTrace::default();
        {
            let dynamic: &mut dyn MemTrace = &mut counts;
            emit(dynamic);
        }
        let mut borrowed = &mut counts;
        emit(&mut borrowed);
        assert_eq!(counts.total(), 6);
    }
}
