//! Metric layer for the ring transport: HDR-style fixed-bucket latency
//! histograms.
//!
//! The producer side publishes [`MetricRecord`]s (a `u32` metric id and
//! a `u64` value, typically nanoseconds) through the SPSC ring under the
//! count-and-drop contract — a measurement stream tolerates loss, a hot
//! loop does not tolerate stalls. The collector side aggregates into a
//! [`MetricMap`]: per metric id, a [`Histogram`] with bounded relative
//! error for p50/p99/p99.9 queries. Nothing here reads the wall clock:
//! values are timed by the producer, the collector only counts.
//!
//! The histogram follows the HDR scheme (exact unit buckets for small
//! values, then 32 logarithmic sub-buckets per power of two), which
//! keeps the footprint fixed at 1920 buckets for the full `u64` range
//! while bounding quantile error at one part in 32 (~3.1%).

use std::collections::BTreeMap;

use crate::ring::{ring, RingConsumer, RingItem, RingProducer, RingReader};

/// One telemetry sample: a metric id and a value (usually nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricRecord {
    /// Which metric this sample belongs to; ids are interned by the
    /// producer-side [`MetricPublisher`].
    pub id: u32,
    /// The sampled value.
    pub value: u64,
}

impl RingItem for MetricRecord {
    const WORDS: usize = 2;

    #[inline]
    fn encode(self, words: &mut [u64]) {
        words[0] = u64::from(self.id);
        words[1] = self.value;
    }

    #[inline]
    fn decode(words: &[u64]) -> Self {
        MetricRecord {
            id: words[0] as u32,
            value: words[1],
        }
    }
}

/// Exact unit buckets for values below this threshold.
const LINEAR_BUCKETS: u64 = 64;
/// Logarithmic sub-buckets per power of two above the linear range.
const SUB_BUCKETS: u64 = 32;
/// Total bucket count covering the full `u64` range:
/// 64 linear + 58 exponent ranges × 32 sub-buckets.
const BUCKETS: usize = (LINEAR_BUCKETS + 58 * SUB_BUCKETS) as usize;

/// Fixed-bucket latency histogram with ≤ 1/32 relative quantile error.
///
/// Values `< 64` land in exact unit buckets; a value with bit length
/// `b > 6` lands in one of 32 sub-buckets of its power-of-two range,
/// indexed by its top six bits. Recording is two shifts, a subtraction
/// and an increment — cheap enough for the collector to absorb millions
/// of samples — and the memory footprint is a fixed 15 KiB regardless
/// of how many samples arrive.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0u64; BUCKETS].into_boxed_slice(),
            total: 0,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value < LINEAR_BUCKETS {
            return value as usize;
        }
        // bit length is ≥ 7 here; `exp` is how far the top six bits sit
        // above the units position.
        let bitlen = 64 - value.leading_zeros() as u64;
        let exp = bitlen - 6;
        let sub = (value >> exp) - SUB_BUCKETS;
        (LINEAR_BUCKETS + (exp - 1) * SUB_BUCKETS + sub) as usize
    }

    /// Largest value that maps into bucket `idx` (inclusive upper edge).
    fn bucket_upper(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < LINEAR_BUCKETS {
            return idx;
        }
        let exp = (idx - LINEAR_BUCKETS) / SUB_BUCKETS + 1;
        let sub = (idx - LINEAR_BUCKETS) % SUB_BUCKETS;
        // The bucket holds values whose top six bits equal sub+32; its
        // upper edge is the next sub-bucket's floor minus one.
        ((sub + SUB_BUCKETS + 1) << exp).wrapping_sub(1)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.total += 1;
        self.max = self.max.max(value);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest sample recorded so far (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q ∈ [0, 1]`, as the upper edge of the bucket
    /// containing that rank (clamped to the observed maximum). Returns 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

/// Per-metric aggregate: the full distribution for quantile queries.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Full distribution for quantile queries.
    pub hist: Histogram,
}

/// Collector-side aggregation of [`MetricRecord`] streams: one
/// [`Metric`] per id, created on first sight.
///
/// Implements [`RingConsumer`], so a `Collector` can drain a metric ring
/// straight into it. Iteration order is by id (via `BTreeMap`), which
/// keeps report output deterministic.
#[derive(Debug, Clone, Default)]
pub struct MetricMap {
    metrics: BTreeMap<u32, Metric>,
}

impl MetricMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample under `id`.
    pub fn record(&mut self, id: u32, value: u64) {
        self.metrics
            .entry(id)
            .or_insert_with(|| Metric {
                hist: Histogram::new(),
            })
            .hist
            .record(value);
    }

    /// The aggregate for `id`, if any samples have arrived.
    pub fn get(&self, id: u32) -> Option<&Metric> {
        self.metrics.get(&id)
    }

    /// Number of distinct metric ids seen.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// `true` when no samples have arrived.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Metric ids seen so far, ascending.
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.metrics.keys().copied()
    }
}

impl RingConsumer<MetricRecord> for MetricMap {
    fn consume_batch(&mut self, batch: &[MetricRecord]) {
        for record in batch {
            self.record(record.id, record.value);
        }
    }
}

/// Producer-side handle for publishing metrics: interns metric names to
/// ids and pushes records under the ring's count-and-drop contract.
///
/// Interning ([`metric_id`](MetricPublisher::metric_id)) allocates on
/// first sight of a name and is meant for setup or amortized first-use;
/// [`publish`](MetricPublisher::publish) is the hot-path entry point and
/// is allocation-free (pinned by `rtr-lint`'s `hot-alloc` rule).
#[derive(Debug)]
pub struct MetricPublisher {
    producer: RingProducer<MetricRecord>,
    names: Vec<String>,
}

impl MetricPublisher {
    /// Wraps a ring producer.
    pub fn new(producer: RingProducer<MetricRecord>) -> Self {
        MetricPublisher {
            producer,
            names: Vec::new(),
        }
    }

    /// Returns the id for `name`, interning it on first sight.
    pub fn metric_id(&mut self, name: &str) -> u32 {
        if let Some(idx) = self.names.iter().position(|n| n == name) {
            return idx as u32;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as u32
    }

    /// Publishes one sample under the count-and-drop contract; `false`
    /// means the ring was full and the sample was dropped (and counted).
    #[inline]
    pub fn publish(&mut self, id: u32, value: u64) -> bool {
        self.producer.push(MetricRecord { id, value })
    }

    /// Samples dropped so far because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.producer.dropped()
    }

    /// Interned names, indexed by metric id.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Releases the handle, returning the interned name table so the
    /// caller can label ids in the collected [`MetricMap`].
    pub fn into_names(self) -> Vec<String> {
        self.names
    }
}

/// Builds a metric channel: a publisher for the hot thread and a reader
/// for the collector.
///
/// # Panics
///
/// Panics when `capacity` is not a power of two.
pub fn metric_channel(capacity: usize) -> (MetricPublisher, RingReader<MetricRecord>) {
    let (tx, rx) = ring::<MetricRecord>(capacity);
    (MetricPublisher::new(tx), rx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_record_encoding_round_trips() {
        for case in [
            MetricRecord { id: 0, value: 0 },
            MetricRecord {
                id: u32::MAX,
                value: u64::MAX,
            },
            MetricRecord { id: 7, value: 1234 },
        ] {
            let mut words = [0u64; MetricRecord::WORDS];
            case.encode(&mut words);
            assert_eq!(MetricRecord::decode(&words), case);
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.quantile(0.5), 31);
        assert_eq!(h.quantile(1.0), 63);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn bucket_index_and_upper_are_consistent() {
        // Every probe value must satisfy: value ≤ upper edge of its own
        // bucket, and the upper edge of the previous bucket < value's
        // bucket lower bound (monotone, non-overlapping buckets).
        let probes = [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            255,
            1000,
            4096,
            123_456_789,
            u64::MAX / 2,
            u64::MAX,
        ];
        for &v in &probes {
            let idx = Histogram::bucket_index(v);
            assert!(idx < BUCKETS, "index {idx} out of range for {v}");
            assert!(
                v <= Histogram::bucket_upper(idx),
                "{v} above its bucket's upper edge {}",
                Histogram::bucket_upper(idx)
            );
            if idx > 0 {
                assert!(
                    Histogram::bucket_upper(idx - 1) < v,
                    "{v} not above previous bucket's edge"
                );
            }
        }
    }

    #[test]
    fn quantile_error_is_bounded() {
        // Geometric-ish spread: quantile estimates must stay within the
        // 1/32 sub-bucket relative error of the true order statistic.
        let mut h = Histogram::new();
        let mut values: Vec<u64> = (0..2000u64).map(|i| 100 + i * i * 37).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for &(q, _) in &[(0.5, "p50"), (0.99, "p99"), (0.999, "p999")] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let truth = values[rank - 1] as f64;
            let est = h.quantile(q) as f64;
            assert!(
                est >= truth && est <= truth * (1.0 + 2.0 / 32.0),
                "q={q}: estimate {est} vs truth {truth}"
            );
        }
        assert_eq!(h.max(), *values.last().unwrap());
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let h = Histogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn metric_map_aggregates_per_id() {
        let mut map = MetricMap::new();
        map.consume_batch(&[
            MetricRecord { id: 1, value: 10 },
            MetricRecord { id: 2, value: 99 },
            MetricRecord { id: 1, value: 30 },
        ]);
        assert_eq!(map.len(), 2);
        assert_eq!(map.ids().collect::<Vec<_>>(), vec![1, 2]);
        let m1 = map.get(1).unwrap();
        assert_eq!(m1.hist.count(), 2);
        assert_eq!(m1.hist.max(), 30);
        assert!(map.get(3).is_none());
    }

    #[test]
    fn publisher_interns_names_and_publishes() {
        let (mut publisher, mut rx) = metric_channel(8);
        let a = publisher.metric_id("kernel.step");
        let b = publisher.metric_id("kernel.plan");
        assert_eq!(publisher.metric_id("kernel.step"), a);
        assert_ne!(a, b);
        assert!(publisher.publish(a, 100));
        assert!(publisher.publish(b, 200));
        assert_eq!(publisher.dropped(), 0);
        let mut out = Vec::new();
        rx.pop_batch(&mut out, 8);
        assert_eq!(
            out,
            vec![
                MetricRecord { id: a, value: 100 },
                MetricRecord { id: b, value: 200 }
            ]
        );
        assert_eq!(publisher.names(), ["kernel.step", "kernel.plan"]);
    }

    #[test]
    fn publisher_counts_drops_when_full() {
        let (mut publisher, mut rx) = metric_channel(2);
        let id = publisher.metric_id("m");
        assert!(publisher.publish(id, 1));
        assert!(publisher.publish(id, 2));
        assert!(!publisher.publish(id, 3), "full ring drops");
        assert_eq!(publisher.dropped(), 1);
        let mut out = Vec::new();
        rx.pop_batch(&mut out, 8);
        assert_eq!(out.len(), 2, "accepted records survive");
    }
}
