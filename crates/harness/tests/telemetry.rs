//! End-to-end telemetry transport: measurements published through the
//! SPSC ring to an off-thread `Collector` aggregating a `MetricMap`,
//! with quantile sanity on the result.

use rtr_harness::Collector;
use rtr_trace::{metric_channel, MetricMap};

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
    assert_eq!(publisher.dropped(), 0, "ring sized for the stream");
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
