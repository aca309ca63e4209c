//! The off-thread telemetry transport: a fixed pool of batch buffers
//! that circulates between one producer and one collector thread over
//! two [`std::sync::mpsc::sync_channel`]s.
//!
//! The producer fills a buffer on the hot thread and sends it down the
//! *full* channel; the collector (`rtr_harness::Collector`) hands it to
//! its [`BatchConsumer`], clears it and sends it back up the *empty*
//! channel. Every buffer is allocated, and its pages touched, when the
//! channel is built, so the producer never allocates afterwards: it only
//! swaps a full buffer for an emptied one. Both channels have room for
//! the whole pool, so no send on them ever waits; only taking an emptied
//! buffer can. The two streams differ in what happens then:
//!
//! - **Lossless** ([`TraceSender`], the cache-trace stream): the
//!   producer waits. The collector replays every op through the
//!   simulator, and a dropped op would change the report.
//! - **Count-and-drop** ([`MetricPublisher`](crate::MetricPublisher)):
//!   the record is counted and discarded. A measurement stream tolerates
//!   loss; the hot loop does not tolerate stalls.
//!
//! A producer delivers its partial batch when it is dropped. The
//! collector's loop ends at an explicit stop message ([`Stopper`]),
//! which queues behind every batch delivered before it, whether or not a
//! producer is still alive.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use crate::{Gated, MemTrace, TraceOp};

/// What travels down the full channel.
enum Delivery<T> {
    Batch(Vec<T>),
    Stop,
}

/// The collector-side contract: absorbs delivered batches, in production
/// order, on the collector thread.
///
/// Callbacks must not read the wall clock: the producer times, the
/// collector only aggregates. Both implementations live in this crate,
/// whose `clippy.toml` disallows `Instant::now` and `SystemTime::now`.
pub trait BatchConsumer: Send {
    /// The record type the consumer absorbs.
    type Item;

    /// Consumes one delivered batch.
    fn consume_batch(&mut self, batch: &[Self::Item]);
}

/// The producer end of a channel: the buffer being filled and both ends
/// of the pool's circulation.
pub struct BatchSender<T> {
    batch: Vec<T>,
    full: SyncSender<Delivery<T>>,
    empty: Receiver<Vec<T>>,
}

impl<T> std::fmt::Debug for BatchSender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchSender")
            .field("pending", &self.batch.len())
            .field("batch", &self.batch.capacity())
            .finish()
    }
}

impl<T> BatchSender<T> {
    /// Appends one record, first waiting for an emptied buffer when the
    /// batch is full: the lossless stream.
    #[inline]
    pub(crate) fn push(&mut self, item: T) {
        if self.batch.len() == self.batch.capacity() {
            self.swap();
        }
        self.batch.push(item);
    }

    /// Appends one record unless the batch is full and no emptied buffer
    /// is ready; never waits: the count-and-drop stream.
    #[inline]
    pub(crate) fn try_push(&mut self, item: T) -> bool {
        if self.batch.len() == self.batch.capacity() && !self.try_swap() {
            return false;
        }
        self.batch.push(item);
        true
    }

    /// Delivers the full batch for an emptied buffer, waiting for one.
    /// When the collector is gone the batch is cleared instead, so the
    /// producer neither blocks nor allocates.
    #[cold]
    #[inline(never)]
    fn swap(&mut self) {
        match self.empty.recv() {
            Ok(next) => self.deliver(next),
            Err(_) => self.batch.clear(),
        }
    }

    /// [`swap`](Self::swap) without the wait: `false` when no emptied
    /// buffer is ready.
    fn try_swap(&mut self) -> bool {
        match self.empty.try_recv() {
            Ok(next) => {
                self.deliver(next);
                true
            }
            Err(_) => false,
        }
    }

    fn deliver(&mut self, next: Vec<T>) {
        let full = std::mem::replace(&mut self.batch, next);
        // Never waits (the channel has room for the whole pool); a
        // collector that is gone no longer wants the batch.
        let _ = self.full.send(Delivery::Batch(full));
    }
}

impl<T> Drop for BatchSender<T> {
    /// Delivers the partial batch.
    fn drop(&mut self) {
        if !self.batch.is_empty() {
            let partial = std::mem::take(&mut self.batch);
            let _ = self.full.send(Delivery::Batch(partial));
        }
    }
}

/// The collector's end of a channel: receives delivered batches and
/// returns their buffers to the producer's pool.
#[derive(Debug)]
pub struct BatchReader<T> {
    full: Receiver<Delivery<T>>,
    empty: SyncSender<Vec<T>>,
    stop: SyncSender<Delivery<T>>,
}

impl<T> BatchReader<T> {
    /// Waits for the next delivered batch; `None` at the stop message.
    pub fn recv(&self) -> Option<Vec<T>> {
        match self.full.recv() {
            Ok(Delivery::Batch(batch)) => Some(batch),
            Ok(Delivery::Stop) | Err(_) => None,
        }
    }

    /// Clears an absorbed batch and returns its buffer to the pool.
    pub fn recycle(&self, mut batch: Vec<T>) {
        batch.clear();
        // Never waits; a producer that is gone no longer needs it.
        let _ = self.empty.send(batch);
    }

    /// A handle that ends [`recv`](Self::recv) from another thread.
    pub fn stopper(&self) -> Stopper<T> {
        Stopper(self.stop.clone())
    }
}

/// Ends a [`BatchReader`]'s loop after every batch delivered before
/// [`stop`](Stopper::stop) is called.
#[derive(Debug)]
pub struct Stopper<T>(SyncSender<Delivery<T>>);

impl<T> Stopper<T> {
    /// Sends the stop message.
    pub fn stop(self) {
        // A reader that is gone has already stopped.
        let _ = self.0.send(Delivery::Stop);
    }
}

/// Builds a pool of `buffers` buffers of `batch` records each, and the
/// two channels they circulate over.
///
/// # Panics
///
/// Panics when `batch` is zero or `buffers` is below two (one filling,
/// one draining).
pub(crate) fn channel<T: Copy + Default>(
    batch: usize,
    buffers: usize,
) -> (BatchSender<T>, BatchReader<T>) {
    assert!(batch > 0, "batch size must be non-zero");
    assert!(buffers >= 2, "the pool needs at least two buffers");
    let buffer = || {
        let mut buf = Vec::with_capacity(batch);
        // Touch every page now, so the hot loop takes no first-touch
        // page faults.
        buf.resize(batch, T::default());
        buf.clear();
        buf
    };
    // Room for every buffer, plus the stop message.
    let (full, full_rx) = sync_channel(buffers + 1);
    let (empty_tx, empty) = sync_channel(buffers);
    for _ in 1..buffers {
        let _ = empty_tx.send(buffer());
    }
    let reader = BatchReader {
        full: full_rx,
        empty: empty_tx,
        stop: full.clone(),
    };
    let sender = BatchSender {
        batch: buffer(),
        full,
        empty,
    };
    (sender, reader)
}

/// One trace op in one word: the address in bits 1.. and the store flag
/// in bit 0, so addresses are limited to 63 bits, far beyond the
/// kernels' synthetic offsets. Half the bytes of a [`TraceOp`], which
/// keeps the producer's per-op cost within CI's ring-attached floor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackedOp(u64);

impl PackedOp {
    /// Packs `op`.
    #[inline]
    pub(crate) fn pack(op: TraceOp) -> Self {
        debug_assert!(op.addr < 1 << 63, "trace addresses are 63-bit");
        PackedOp((op.addr << 1) | u64::from(op.is_write))
    }

    /// The op this word carries.
    #[inline]
    pub fn unpack(self) -> TraceOp {
        TraceOp {
            addr: self.0 >> 1,
            is_write: self.0 & 1 != 0,
        }
    }
}

/// Ops unpacked per [`MemTrace::process_batch`] call on the collector.
const UNPACK_CHUNK: usize = 1024;

/// Any trace sink can sit behind a collector: a delivered batch is
/// unpacked in chunks and replayed through `process_batch`, the
/// simulator's monomorphic fast path. `process_batch` is batch-size
/// invariant (the simulator's equivalence tests pin it), so where the
/// batch boundaries fall cannot change what the sink computes. Every
/// delivered op was emitted with a token, so the replay mints its own.
impl<S: MemTrace + Send> BatchConsumer for S {
    type Item = PackedOp;

    fn consume_batch(&mut self, batch: &[PackedOp]) {
        let mut ops = [TraceOp {
            addr: 0,
            is_write: false,
        }; UNPACK_CHUNK];
        for chunk in batch.chunks(UNPACK_CHUNK) {
            for (op, packed) in ops.iter_mut().zip(chunk) {
                *op = packed.unpack();
            }
            self.process_batch(&ops[..chunk.len()], Gated(()));
        }
    }
}

/// The lossless cache-trace producer, a [`MemTrace`] sink: each op is
/// packed into the current batch, and a full batch waits for an emptied
/// buffer. The stream reaches the collector intact and in order, which
/// is what makes the off-thread cache report byte-identical to the
/// inline one. Drop the sender (`TraceSession::finish` does) before
/// stopping the collector, so its partial batch is delivered first.
pub type TraceSender = BatchSender<PackedOp>;

impl MemTrace for TraceSender {
    #[inline]
    fn read(&mut self, addr: u64, _: Gated) {
        self.push(PackedOp::pack(TraceOp {
            addr,
            is_write: false,
        }));
    }

    #[inline]
    fn write(&mut self, addr: u64, _: Gated) {
        self.push(PackedOp::pack(TraceOp {
            addr,
            is_write: true,
        }));
    }
}

/// Builds the lossless cache-trace channel: a pool of `buffers` buffers
/// of `batch` ops each.
///
/// # Panics
///
/// Panics when `batch` is zero or `buffers` is below two.
pub fn trace_channel(batch: usize, buffers: usize) -> (TraceSender, BatchReader<PackedOp>) {
    channel(batch, buffers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecordingTrace;

    fn op(addr: u64, is_write: bool) -> TraceOp {
        TraceOp { addr, is_write }
    }

    #[test]
    fn packed_ops_round_trip() {
        for case in [op(0, false), op((1 << 63) - 1, true), op(12345, true)] {
            assert_eq!(PackedOp::pack(case).unpack(), case);
        }
    }

    #[test]
    fn unpacking_consumer_matches_the_stream_across_chunks() {
        let ops: Vec<TraceOp> = (0..3 * UNPACK_CHUNK as u64 + 7)
            .map(|i| op(i * 8, i.is_multiple_of(5)))
            .collect();
        let packed: Vec<PackedOp> = ops.iter().map(|&o| PackedOp::pack(o)).collect();
        let mut sink = RecordingTrace::default();
        sink.consume_batch(&packed);
        assert_eq!(sink.ops, ops);
    }

    #[test]
    fn producer_outlives_its_collector_without_blocking() {
        let (mut tx, rx) = trace_channel(2, 2);
        drop(rx);
        for i in 0..16u64 {
            tx.read(i * 64, Gated(()));
        }
    }

    #[test]
    #[should_panic(expected = "at least two buffers")]
    fn a_pool_of_one_is_rejected() {
        let _ = trace_channel(8, 1);
    }
}
