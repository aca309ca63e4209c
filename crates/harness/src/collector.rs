//! The telemetry collector: the consumer thread of an `rtr-trace`
//! batch channel ([`rtr_trace::channel`], which describes the protocol).
//! Everything costly — the cache-hierarchy walk in `MemorySim`, histogram
//! bucketing in [`MetricMap`](rtr_trace::MetricMap) — runs in a
//! [`BatchConsumer`] the collector thread owns, off the hot thread.
//!
//! [`Collector::finish`] stops the loop with a message that queues behind
//! every batch delivered before the call, even while a producer is still
//! alive. A producer delivers its partial batch when it is dropped, so
//! drop it (or call
//! [`MetricPublisher::into_names`](rtr_trace::MetricPublisher::into_names))
//! before `finish`.

use std::thread::JoinHandle;

use rtr_trace::{BatchConsumer, BatchReader, Stopper};

/// A collector thread feeding one channel's batches into one
/// [`BatchConsumer`].
///
/// # Example
///
/// ```
/// use rtr_harness::Collector;
/// use rtr_trace::{metric_channel, MetricMap};
///
/// let (mut publisher, reader) = metric_channel(1 << 10);
/// let collector = Collector::spawn(reader, MetricMap::new());
/// let id = publisher.metric_id("solve.latency_ns");
/// for v in [120u64, 340, 90] {
///     publisher.publish(id, v);
/// }
/// drop(publisher); // delivers the partial batch
/// let metrics = collector.finish();
/// assert_eq!(metrics.get(id).unwrap().hist.count(), 3);
/// ```
#[derive(Debug)]
pub struct Collector<C: BatchConsumer> {
    stop: Stopper<C::Item>,
    handle: JoinHandle<C>,
}

impl<C> Collector<C>
where
    C: BatchConsumer + 'static,
    C::Item: Send + 'static,
{
    /// Spawns the loop over `reader`, feeding `consumer`.
    pub fn spawn(reader: BatchReader<C::Item>, mut consumer: C) -> Self {
        let stop = reader.stopper();
        let handle = std::thread::Builder::new()
            .name("rtr-collector".into())
            .spawn(move || {
                while let Some(batch) = reader.recv() {
                    consumer.consume_batch(&batch);
                    reader.recycle(batch);
                }
                consumer
            })
            .expect("spawn rtr-collector thread");
        Collector { stop, handle }
    }

    /// Stops the loop, joins the thread, and returns the consumer with
    /// every batch delivered before this call absorbed.
    ///
    /// # Panics
    ///
    /// Panics if the collector thread itself panicked (a consumer bug).
    pub fn finish(self) -> C {
        self.stop.stop();
        self.handle.join().expect("rtr-collector thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_trace::{trace_channel, RecordingTrace};

    #[test]
    fn collector_finish_on_empty_channel_returns_immediately() {
        let (_tx, rx) = trace_channel(4, 2);
        let collector = Collector::spawn(rx, RecordingTrace::default());
        assert!(collector.finish().ops.is_empty());
    }
}
