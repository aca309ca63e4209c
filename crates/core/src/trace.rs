//! Registry-level `--trace` plumbing: the one place the harness side of
//! the suite touches the cache simulator.
//!
//! Kernel adapters (and the kernel crates underneath them) only ever see
//! the [`MemTrace`] contract from `rtr-trace`; this module owns the
//! backend choice. Every runnable binary (`rtr` and the `exp_*` bench
//! binaries) gets identical wiring by building a [`TraceSession`] from
//! the shared `--trace`/`--vldp` options and handing its sink to the
//! kernel. The transport is a library choice, not a kernel option:
//! [`TraceSession::enabled_with`] picks it, and
//! `exp_characterization --telemetry` exposes it.
//!
//! Core's `clippy.toml` keeps the simulator's types out of the kernel
//! layer; each item here that names one expects that lint.

use rtr_harness::{Args, Collector, OptionSpec};
use rtr_trace::{trace_channel, BufferedTrace, MemTrace, NullTrace, TraceSender};

use crate::KernelError;

/// The cache report type surfaced on [`crate::KernelReport`].
#[expect(
    clippy::disallowed_types,
    reason = "this module wires the simulator behind --trace"
)]
pub type CacheReport = rtr_archsim::HierarchyReport;

/// The shared `--trace` CLI option.
pub fn trace_option() -> OptionSpec {
    OptionSpec {
        name: "trace",
        help: "Feed the kernel's memory-access stream to the cache simulator (flag)",
    }
}

/// The shared `--vldp` CLI option.
pub fn vldp_option() -> OptionSpec {
    OptionSpec {
        name: "vldp",
        help: "Attach a VLDP prefetcher of this degree to the traced hierarchy (0 = off)",
    }
}

/// Largest prefetch degree `--vldp` accepts: 16x the degree every
/// experiment and benchmark uses (4). A page holds 64 lines, so a deeper
/// walk only revisits lines it already predicted. Without a cap,
/// `--trace --vldp 1000000000000` walked an oscillating history for as
/// long as it lasted and grew the per-access prediction buffer until
/// allocation failed.
pub const MAX_VLDP_DEGREE: usize = 64;

/// Parses `--vldp` (0 = no prefetcher) and rejects a degree above
/// [`MAX_VLDP_DEGREE`].
///
/// # Errors
///
/// Returns [`KernelError::Cli`] naming `vldp` when the value is malformed
/// or above the cap.
pub fn vldp_arg(args: &Args, default: usize) -> Result<usize, KernelError> {
    Ok(args.get_count(
        "vldp",
        default,
        MAX_VLDP_DEGREE,
        "a prefetch degree of at most 64",
    )?)
}

/// Which transport carries the traced op stream to the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Telemetry {
    /// Simulate in place on the kernel thread ([`BufferedTrace`] over
    /// `MemorySim`) — the default.
    #[default]
    Inline,
    /// Send op batches over a channel to a collector thread that owns
    /// the simulator ([`TraceSender`] + [`Collector`]). The op stream is
    /// unchanged, so the final report is byte-identical; the kernel
    /// thread only pays the producer cost.
    Ring,
}

impl Telemetry {
    /// Parses a `--telemetry` option (default `inline`), as
    /// `exp_characterization` declares it.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Cli`] for values other than
    /// `inline`/`ring`.
    pub fn from_args(args: &Args) -> Result<Self, KernelError> {
        match args.get_str("telemetry", "inline").as_str() {
            "inline" => Ok(Telemetry::Inline),
            "ring" => Ok(Telemetry::Ring),
            other => Err(KernelError::Cli(rtr_harness::CliError::BadValue {
                option: "telemetry".into(),
                value: other.into(),
                expected: "'inline' or 'ring'",
            })),
        }
    }
}

/// Ops per batch on the off-thread transport. A batch that finds the
/// other side parked costs it a thread wake-up, so batches are large
/// next to one: with 4096-op batches the `--full` sweep ran a median
/// 5-10 % slower than with 32 Ki (EXPERIMENTS.md "Telemetry transport
/// cost").
const TRACE_BATCH: usize = 1 << 15;

/// Batch buffers in the off-thread transport's pool: the kernel fills
/// one while the collector simulates the other (2 × 32 Ki ops × 8 B =
/// 512 KiB in flight).
const TRACE_BUFFERS: usize = 2;

/// The attached transport: the sink the kernel writes plus whatever owns
/// the simulator.
#[derive(Debug)]
enum Transport {
    /// Simulator wrapped in the batching adapter, on the kernel thread
    /// (boxed: the simulator's inline state dwarfs the other variant).
    #[expect(
        clippy::disallowed_types,
        reason = "this module wires the simulator behind --trace"
    )]
    Inline(Box<BufferedTrace<rtr_archsim::MemorySim>>),
    /// Producer sink on the kernel thread; the simulator lives in the
    /// collector thread and is recovered (with its report) at `finish`.
    Ring {
        trace: TraceSender,
        #[expect(
            clippy::disallowed_types,
            reason = "this module wires the simulator behind --trace"
        )]
        collector: Collector<rtr_archsim::MemorySim>,
    },
}

/// One kernel run's tracing state: either a configured cache simulator
/// (`--trace`) or the zero-cost [`NullTrace`].
///
/// Two transports carry the stream to the simulator, selected by the
/// [`Telemetry`] passed to [`TraceSession::enabled_with`]:
///
/// - **inline** (default): the simulator is held behind a
///   [`BufferedTrace`] so the `&mut dyn MemTrace` the kernel emits into
///   pays one virtual dispatch per buffer (4096 ops) instead of one per
///   access; the flush lands in `MemorySim::process_batch`, the
///   monomorphic fast path.
/// - **ring**: the kernel thread writes a [`TraceSender`] (one word per
///   op, each full batch of 32 Ki ops sent over a channel) and a
///   [`Collector`] thread runs the simulation concurrently. The
///   transport is lossless and order-preserving and `process_batch` is
///   batch-size invariant, so the report is byte-identical to the inline
///   path's — only where the simulation time is spent changes.
///
/// [`finish`](TraceSession::finish) drains the transport tail (and
/// joins the collector), so reports are identical to an unbuffered
/// run's.
///
/// # Example
///
/// ```
/// use rtr_core::TraceSession;
/// use rtr_harness::Args;
///
/// let args = Args::parse_tokens(&["--trace"]).unwrap();
/// let mut session = TraceSession::from_args(&args).unwrap();
/// let sink = session.sink();
/// if let Some(g) = sink.gate() {
///     sink.read(0x40, g);
/// }
/// let report = session.finish().expect("--trace attaches the simulator");
/// assert_eq!(report.accesses, 1);
/// ```
#[derive(Debug)]
pub struct TraceSession {
    transport: Option<Transport>,
    null: NullTrace,
}

impl TraceSession {
    /// Builds the session from the shared `--trace`/`--vldp` options,
    /// on the inline transport.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Cli`] when `--vldp` is malformed or above
    /// [`MAX_VLDP_DEGREE`], with or without `--trace`.
    pub fn from_args(args: &Args) -> Result<Self, KernelError> {
        let degree = vldp_arg(args, 0)?;
        Ok(if args.get_flag("trace") {
            Self::enabled(degree)
        } else {
            Self::disabled()
        })
    }

    /// An untraced session (no simulator), for callers without CLI args.
    pub fn disabled() -> Self {
        TraceSession {
            transport: None,
            null: NullTrace,
        }
    }

    /// A traced session with the paper's i3-8109U hierarchy, optionally
    /// with a VLDP prefetcher attached (degree 0 = off), on the inline
    /// transport.
    pub fn enabled(vldp_degree: usize) -> Self {
        Self::enabled_with(Telemetry::Inline, vldp_degree)
    }

    /// A traced session on an explicit transport.
    pub fn enabled_with(telemetry: Telemetry, vldp_degree: usize) -> Self {
        #[expect(
            clippy::disallowed_types,
            reason = "this module wires the simulator behind --trace"
        )]
        let sim = rtr_archsim::MemorySim::i3_8109u();
        let sim = if vldp_degree > 0 {
            sim.with_vldp(vldp_degree)
        } else {
            sim
        };
        let transport = match telemetry {
            Telemetry::Inline => Transport::Inline(Box::new(BufferedTrace::new(sim))),
            Telemetry::Ring => {
                let (trace, reader) = trace_channel(TRACE_BATCH, TRACE_BUFFERS);
                Transport::Ring {
                    trace,
                    collector: Collector::spawn(reader, sim),
                }
            }
        };
        TraceSession {
            transport: Some(transport),
            null: NullTrace,
        }
    }

    /// The sink to hand to the kernel: the transport when tracing, the
    /// do-nothing sink otherwise.
    pub fn sink(&mut self) -> &mut dyn MemTrace {
        match &mut self.transport {
            Some(Transport::Inline(sim)) => &mut **sim,
            Some(Transport::Ring { trace, .. }) => trace,
            None => &mut self.null,
        }
    }

    /// Consumes the session into the cache report (`None` when
    /// untraced), flushing any ops still buffered in the transport and,
    /// on the off-thread transport, joining the collector thread.
    pub fn finish(self) -> Option<CacheReport> {
        match self.transport? {
            Transport::Inline(buffered) => Some((*buffered).into_inner().report()),
            Transport::Ring { trace, collector } => {
                // Dropping the sender delivers its partial batch ahead of
                // the collector's stop message.
                drop(trace);
                Some(collector.finish().report())
            }
        }
    }
}

/// Renders a traced run's cache statistics into metric rows — the shared
/// tail of every kernel's report table.
pub fn push_cache_metrics(metrics: &mut Vec<(String, String)>, report: &CacheReport) {
    metrics.push(("traced accesses".into(), report.accesses.to_string()));
    metrics.push((
        "traced write ratio".into(),
        format!("{:.1}%", report.write_ratio() * 100.0),
    ));
    for (name, level) in ["L1D", "L2", "LLC"].iter().zip(report.levels.iter()) {
        metrics.push((
            format!("{name} miss ratio"),
            format!("{:.1}%", level.miss_ratio() * 100.0),
        ));
    }
    metrics.push((
        "memory access ratio".into(),
        format!("{:.2}%", report.memory_access_ratio() * 100.0),
    ));
    metrics.push((
        "memory writebacks".into(),
        report.memory_writebacks.to_string(),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        Args::parse_tokens(argv).unwrap()
    }

    #[test]
    fn untraced_session_uses_null_sink_and_yields_no_report() {
        let mut session = TraceSession::from_args(&args(&[])).unwrap();
        assert!(session.sink().gate().is_none());
        assert!(session.finish().is_none());
    }

    #[test]
    fn traced_session_counts_accesses() {
        let mut session = TraceSession::from_args(&args(&["--trace"])).unwrap();
        let g = session.sink().gate().expect("--trace enables the sink");
        session.sink().read(0, g);
        session.sink().write(64, g);
        let report = session.finish().unwrap();
        assert_eq!(report.accesses, 2);
        assert_eq!(report.writes, 1);
        assert!(report.prefetch.is_none());
    }

    #[test]
    fn vldp_flag_attaches_prefetcher() {
        let mut session = TraceSession::from_args(&args(&["--trace", "--vldp", "2"])).unwrap();
        let g = session.sink().gate().expect("--trace enables the sink");
        for i in 0..64u64 {
            session.sink().read(i * 64, g);
        }
        let report = session.finish().unwrap();
        assert!(report.prefetch.is_some());
    }

    #[test]
    fn vldp_degree_is_capped() {
        let at_cap = TraceSession::from_args(&args(&["--trace", "--vldp", "64"])).unwrap();
        assert!(at_cap.finish().is_some());
        for argv in [
            ["--trace", "--vldp", "65"].as_slice(),
            &["--trace", "--vldp", "1000000000000"],
            &["--vldp", "1000000000000"],
        ] {
            match TraceSession::from_args(&args(argv)) {
                Err(KernelError::Cli(rtr_harness::CliError::BadValue { option, .. })) => {
                    assert_eq!(option, "vldp", "{argv:?}");
                }
                Err(e) => panic!("{argv:?}: unexpected error {e}"),
                Ok(_) => panic!("{argv:?} must be rejected"),
            }
        }
    }

    #[test]
    fn vldp_without_trace_is_untraced() {
        let session = TraceSession::from_args(&args(&["--vldp", "2"])).unwrap();
        assert!(session.finish().is_none());
    }

    #[test]
    fn telemetry_option_parses_and_rejects() {
        assert_eq!(Telemetry::from_args(&args(&[])).unwrap(), Telemetry::Inline);
        assert_eq!(
            Telemetry::from_args(&args(&["--telemetry", "inline"])).unwrap(),
            Telemetry::Inline
        );
        assert_eq!(
            Telemetry::from_args(&args(&["--telemetry", "ring"])).unwrap(),
            Telemetry::Ring
        );
        assert!(Telemetry::from_args(&args(&["--telemetry", "bogus"])).is_err());
    }

    #[test]
    fn ring_transport_report_matches_inline() {
        let emit = |session: &mut TraceSession| {
            let sink = session.sink();
            let g = sink.gate().expect("both transports enable the sink");
            // A stream with hits, misses and writes across several lines.
            for pass in 0..3u64 {
                for i in 0..512u64 {
                    sink.read(i * 64, g);
                    if (i + pass) % 7 == 0 {
                        sink.write(i * 64 + 8, g);
                    }
                }
            }
        };
        let mut inline = TraceSession::from_args(&args(&["--trace"])).unwrap();
        emit(&mut inline);
        let mut ring = TraceSession::enabled_with(Telemetry::Ring, 0);
        emit(&mut ring);
        assert_eq!(inline.finish().unwrap(), ring.finish().unwrap());
    }

    #[test]
    fn cache_metric_rows_cover_all_levels() {
        let mut session = TraceSession::enabled(0);
        let g = session.sink().gate().expect("an enabled session");
        session.sink().read(0, g);
        let report = session.finish().unwrap();
        let mut metrics = Vec::new();
        push_cache_metrics(&mut metrics, &report);
        let labels: Vec<&str> = metrics.iter().map(|(l, _)| l.as_str()).collect();
        for expected in [
            "traced accesses",
            "traced write ratio",
            "L1D miss ratio",
            "L2 miss ratio",
            "LLC miss ratio",
            "memory access ratio",
            "memory writebacks",
        ] {
            assert!(labels.contains(&expected), "missing row {expected}");
        }
    }
}
