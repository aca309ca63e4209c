//! End-to-end telemetry transport: records sent through a batch channel
//! to an off-thread `Collector`, on both streams. The trace stream must
//! arrive intact and in order under any backpressure; the metric stream
//! must account for every record as delivered or dropped.

use std::collections::BTreeSet;
use std::sync::mpsc;
use std::time::Duration;

use proptest::prelude::*;
use rtr_harness::Collector;
use rtr_trace::{
    metric_channel, trace_channel, BatchConsumer, MemTrace, MetricMap, PackedOp, RecordingTrace,
    TraceOp,
};

/// The op at position `i` of a synthetic stream.
fn op(i: u64) -> TraceOp {
    TraceOp {
        addr: i.wrapping_mul(0x9e37_79b9) >> 4,
        is_write: i.is_multiple_of(3),
    }
}

/// Emits ops `0..len` through a sink, one call per op.
fn emit(sink: &mut dyn MemTrace, len: u64) {
    let g = sink.gate().expect("a trace sender is enabled");
    for i in 0..len {
        let op = op(i);
        if op.is_write {
            sink.write(op.addr, g);
        } else {
            sink.read(op.addr, g);
        }
    }
}

/// Records which buffers the collector saw, by address.
#[derive(Default)]
struct BufferLog {
    buffers: BTreeSet<usize>,
    ops: usize,
}

impl BatchConsumer for BufferLog {
    type Item = PackedOp;

    fn consume_batch(&mut self, batch: &[PackedOp]) {
        self.buffers.insert(batch.as_ptr() as usize);
        self.ops += batch.len();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Forced backpressure: tiny batches in a pool of two make the
    /// producer wait on the collector for nearly every batch, and the
    /// stream still arrives whole and in order.
    #[test]
    fn trace_stream_survives_backpressure_intact_and_in_order(
        len in 0u64..20_000,
        batch in 1usize..9,
    ) {
        let (mut trace, reader) = trace_channel(batch, 2);
        let collector = Collector::spawn(reader, RecordingTrace::default());
        emit(&mut trace, len);
        drop(trace);
        let recorded = collector.finish();
        let expected: Vec<TraceOp> = (0..len).map(op).collect();
        prop_assert_eq!(recorded.ops, expected);
    }

    /// Count-and-drop accounting on the metric path: every published
    /// record is either delivered to the map or counted as dropped.
    #[test]
    fn metric_records_are_delivered_or_counted_as_dropped(
        records in 0u64..5_000,
        capacity in 2usize..16,
    ) {
        let (mut publisher, reader) = metric_channel(capacity);
        let collector = Collector::spawn(reader, MetricMap::new());
        let id = publisher.metric_id("m");
        let mut accepted = 0u64;
        for v in 0..records {
            accepted += u64::from(publisher.publish(id, v));
        }
        let dropped = publisher.dropped();
        prop_assert_eq!(accepted + dropped, records);
        drop(publisher);
        let metrics = collector.finish();
        let delivered = metrics.get(id).map_or(0, |m| m.hist.count());
        prop_assert_eq!(delivered + dropped, records);
    }
}

#[test]
fn finish_returns_while_the_producer_lives_and_absorbs_delivered_batches() {
    let (mut trace, reader) = trace_channel(4, 4);
    let collector = Collector::spawn(reader, RecordingTrace::default());
    // Ten ops in batches of four: two batches are delivered, the last
    // two ops wait in the producer's buffer.
    emit(&mut trace, 10);
    let (done_tx, done_rx) = mpsc::channel();
    let finisher = std::thread::spawn(move || {
        let _ = done_tx.send(collector.finish());
    });
    let recorded = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("finish must not wait for the live producer");
    finisher.join().expect("finishing thread");
    let expected: Vec<TraceOp> = (0..8).map(op).collect();
    assert_eq!(recorded.ops, expected);
    drop(trace);
}

#[test]
fn the_same_pool_buffers_serve_a_long_stream() {
    let (batch, buffers) = (64, 3);
    let (mut trace, reader) = trace_channel(batch, buffers);
    let collector = Collector::spawn(reader, BufferLog::default());
    emit(&mut trace, 200_000);
    drop(trace);
    let log = collector.finish();
    assert_eq!(log.ops, 200_000);
    assert!(
        log.buffers.len() <= buffers,
        "{} distinct buffers for a pool of {buffers}",
        log.buffers.len()
    );
}

#[test]
fn published_measurements_stream_into_an_off_thread_metric_map() {
    let (mut publisher, reader) = metric_channel(1 << 12);
    let collector = Collector::spawn(reader, MetricMap::new());

    // A synthetic latency population: mostly ~1 µs, a 1-in-100 tail at
    // ~100 µs.
    let solve_id = publisher.metric_id("solve");
    let setup_id = publisher.metric_id("setup");
    for i in 0..2000u64 {
        let nanos = if i % 100 == 99 {
            100_000
        } else {
            1_000 + i % 32
        };
        assert!(publisher.publish(solve_id, nanos));
    }
    assert!(publisher.publish(setup_id, 500));

    assert_eq!(publisher.names(), ["solve", "setup"]);
    assert_eq!(publisher.dropped(), 0, "channel sized for the stream");
    drop(publisher);

    let metrics = collector.finish();
    assert_eq!(metrics.len(), 2);

    let solve = metrics.get(solve_id).expect("solve metric collected");
    assert_eq!(solve.hist.count(), 2000);
    // p50 sits in the ~1 µs bulk, p99.9 in the 100 µs tail; the HDR
    // buckets bound each estimate within 1/32 relative error.
    let p50 = solve.hist.p50();
    assert!((1_000..1_100).contains(&p50), "p50 = {p50}");
    let p999 = solve.hist.p999();
    assert!((100_000..104_000).contains(&p999), "p999 = {p999}");
    assert!(solve.hist.p99() <= p999);

    assert_eq!(metrics.get(setup_id).unwrap().hist.count(), 1);
}
