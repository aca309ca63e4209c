//! Criterion medians for CI's three ratio floors: batched trace transport
//! ≥ 5× the per-op path (`archsim_throughput`), the ring-attached sink
//! ≤ 2× the null sink (`ring_transport`), and lane kernels ≥ 1.3× their
//! scalar references on 2 of 3 hot loops (`simd_fastpaths`). Every other
//! suite timing (kernels, scenario loops, pool threads, characterization)
//! comes from the `rtr-perf` benchmark and its committed ledger.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use rtr_trace::NullTrace;

/// Trace-transport throughput into the cache model: the op-at-a-time
/// `&mut dyn MemTrace` path (what `TraceSession` shipped before the
/// batched transport) against `process_batch`, on the same streaming
/// workload. Both variants simulate the same access count per iteration,
/// so the `median_ns` ratio in `BENCH_kernels.json` reads directly as an
/// accesses/sec ratio; CI guards the batched speedup.
fn bench_archsim_throughput(c: &mut Criterion) {
    use rtr_archsim::MemorySim;
    use rtr_trace::{MemTrace, TraceOp};

    let mut group = c.benchmark_group("archsim_throughput");
    group.sample_size(10);

    // A streaming scan: two byte-granular passes over a 256 KiB buffer
    // (the shape of a parse/copy loop over an L2-resident point cloud).
    // Each line is a 64-op same-line run — the batched path's memo
    // collapses it — and the buffer exceeds L1, so every line's first
    // touch still exercises the fill and writeback plumbing.
    let lines = 4096u64; // 256 KiB at 64 B lines
    let mut ops = Vec::new();
    for pass in 0..2u64 {
        for line in 0..lines {
            for off in 0..64u64 {
                ops.push(TraceOp {
                    addr: line * 64 + off,
                    is_write: off % 16 == 8 && pass == 0,
                });
            }
        }
    }

    group.bench_function("per-op-dyn", |b| {
        b.iter_batched_ref(
            MemorySim::i3_8109u,
            |sim| {
                let sink: &mut dyn MemTrace = sim;
                let g = sink.gate().expect("the simulator is enabled");
                for op in &ops {
                    if op.is_write {
                        sink.write(op.addr, g);
                    } else {
                        sink.read(op.addr, g);
                    }
                }
                black_box(sim.report())
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("batched", |b| {
        b.iter_batched_ref(
            MemorySim::i3_8109u,
            |sim| {
                let g = sim.gate().expect("the simulator is enabled");
                sim.process_batch(&ops, g);
                black_box(sim.report())
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// Per-access cost of the off-thread trace transport, on the same
/// 256 KiB byte-scan stream as `archsim_throughput`.
///
/// - `null-dyn`: per-op dynamic dispatch into a do-nothing sink — the
///   floor's denominator.
/// - `ring-attached`: per-op dispatch into a `TraceSender` with a
///   collector attached — the *producer-side* transport cost (pack the
///   op, push it into the batch buffer), which is exactly what the
///   "never block the hot loop" claim is about. The batch is sized to
///   the stream, so no batch is delivered inside the timed window: on a
///   host with few CPUs the collector's wake-up and drain cannot be
///   scheduler-interleaved into the producer's time. Delivery, drain
///   and join run in the un-timed teardown (`iter_batched` drops
///   routine outputs outside the measurement). CI guards ring-attached
///   ≤ 2× null-dyn; the entry keeps the name CI's floor step reads.
///
/// Both emit every op through `&mut dyn MemTrace` with one token. A
/// `NullTrace` never hands one out (its `gate` is `None`), so the token
/// comes from an enabled sink: the floor prices per-op dispatch, not a
/// gate the null sink would close.
fn bench_ring_transport(c: &mut Criterion) {
    use rtr_harness::Collector;
    use rtr_trace::{trace_channel, CountingTrace, Gated, MemTrace, TraceSender};

    let mut group = c.benchmark_group("ring_transport");
    group.sample_size(10);

    // The traced kernel is the archsim byte-scan: two byte-granular
    // passes over a 256 KiB buffer, one store per 16 bytes on the first
    // pass (524288 accesses per iteration). Unlike replaying a
    // pre-materialized op vector into an empty dispatch loop, the scan
    // does the kernel's real per-access work (byte load + accumulate),
    // so the null baseline measures what tracing actually rides on.
    let buf: Vec<u8> = (0..256 * 1024).map(|i| (i % 251) as u8).collect();

    fn scan(sink: &mut dyn MemTrace, buf: &[u8], acc: &mut u64, g: Gated) {
        for pass in 0..2u64 {
            for (i, byte) in buf.iter().enumerate() {
                *acc = acc.wrapping_add(u64::from(*byte));
                let addr = i as u64;
                if addr % 16 == 8 && pass == 0 {
                    sink.write(addr, g);
                } else {
                    sink.read(addr, g);
                }
            }
        }
    }

    /// Launders the concrete sink type so LLVM cannot devirtualize the
    /// dispatch inside `scan` — without this, a `NullTrace` sink folds
    /// to nothing and the whole scan vectorizes (~0.4 ns/op), deflating
    /// the baseline below any functional sink's reach.
    fn opaque(sink: &mut dyn MemTrace) -> &mut dyn MemTrace {
        black_box(sink)
    }

    // Matches the scan's access count: 2 passes x 256 Ki bytes.
    let stream_len = 2 * buf.len();
    let g = CountingTrace::default()
        .gate()
        .expect("a counting sink is enabled");

    group.bench_function("null-dyn", |b| {
        b.iter(|| {
            let mut null = NullTrace;
            let mut acc = 0u64;
            scan(opaque(&mut null), &buf, &mut acc, g);
            black_box(acc)
        })
    });
    /// Un-timed teardown: delivers the batch and joins the collector
    /// (a `NullTrace` consumer, so only the transport is timed) when
    /// `iter_batched` drops the routine's output after stopping the
    /// clock.
    struct Teardown {
        trace: Option<TraceSender>,
        collector: Option<Collector<NullTrace>>,
    }
    impl Drop for Teardown {
        fn drop(&mut self) {
            drop(self.trace.take());
            if let Some(collector) = self.collector.take() {
                collector.finish();
            }
        }
    }

    group.bench_function("ring-attached", |b| {
        b.iter_batched(
            || {
                let (trace, reader) = trace_channel(stream_len, 2);
                (trace, Collector::spawn(reader, NullTrace))
            },
            |(mut trace, collector)| {
                let mut acc = 0u64;
                scan(opaque(&mut trace), &buf, &mut acc, g);
                black_box(acc);
                black_box(Teardown {
                    trace: Some(trace),
                    collector: Some(collector),
                })
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// The sequential leaf scan as the lane kernel's retired scalar arm ran
/// it: out of line, over a run-time point dimension. Specialized for
/// 3-D points the same loop runs several times faster, so it would be a
/// different baseline from the one CI's floor was set on.
#[inline(never)]
fn scalar_squared_distances(pts: &[f64], dim: usize, query: &[f64], out: &mut [f64]) {
    assert!(dim > 0, "point dimension must be positive");
    assert_eq!(pts.len() % dim, 0, "packed point slice must be len × dim");
    assert_eq!(query.len(), dim, "query dimension mismatch");
    let n = pts.len() / dim;
    assert!(out.len() >= n, "output buffer too short");
    for (i, p) in pts.chunks_exact(dim).enumerate() {
        let mut acc = 0.0;
        for d in 0..dim {
            let diff = p[d] - query[d];
            acc += diff * diff;
        }
        out[i] = acc;
    }
}

/// Lane kernels vs their scalar references on the three SoA hot loops:
/// the bucketed k-d leaf distance scan (`squared_distances`), the matvec
/// row dot (`dot`), and the PFL weight loop (`sum`). The `…/scalar`
/// entries time the sequential loops written out here; they are the
/// test-side references of `crates/bench/tests/simd.rs`, not a
/// production path. CI holds the measured speedup floor over these
/// medians: lanes must stay ≥1.3× scalar on at least two of the three.
fn bench_simd_fastpaths(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd_fastpaths");

    // k-d leaf scan: the 64-slot leaf blocks, back to back.
    let pts: Vec<f64> = (0..16_384 * 3)
        .map(|i| (i as f64 * 0.13).sin() * 8.0)
        .collect();
    let query = [0.3, -0.8, 1.7];
    let mut d2s = vec![0.0f64; 16_384];
    group.bench_function("leaf_scan/scalar", |bch| {
        bch.iter(|| {
            scalar_squared_distances(&pts, black_box(3), &query, &mut d2s);
            black_box(d2s[0])
        })
    });
    group.bench_function("leaf_scan/lanes", |bch| {
        bch.iter(|| {
            rtr_simd::squared_distances::<3>(&pts, &query, &mut d2s);
            black_box(d2s[0])
        })
    });

    // Matvec microkernel: one dense row dot per output element.
    let xs: Vec<f64> = (0..16_384).map(|i| (i as f64 * 0.7).sin()).collect();
    let ys: Vec<f64> = (0..16_384).map(|i| (i as f64 * 0.3).cos()).collect();
    group.bench_function("matvec_dot/scalar", |bch| {
        bch.iter(|| {
            let mut total = 0.0;
            for (&x, &y) in xs.iter().zip(&ys) {
                total += x * y;
            }
            black_box(total)
        })
    });
    group.bench_function("matvec_dot/lanes", |bch| {
        bch.iter(|| black_box(rtr_simd::dot(&xs, &ys)))
    });

    // PFL weight loop: normalization totals over the particle weights.
    let weights: Vec<f64> = (0..65_536)
        .map(|i| 0.5 + (i as f64 * 0.11).sin().abs())
        .collect();
    group.bench_function("weight_sum/scalar", |bch| {
        bch.iter(|| {
            let mut total = 0.0;
            for &w in &weights {
                total += w;
            }
            black_box(total)
        })
    });
    group.bench_function("weight_sum/lanes", |bch| {
        bch.iter(|| black_box(rtr_simd::sum(&weights)))
    });
    group.finish();
}

criterion_group!(
    kernels,
    bench_archsim_throughput,
    bench_ring_transport,
    bench_simd_fastpaths
);
criterion_main!(kernels);
