//! The sixteen kernel adapters.

pub mod control;
pub mod perception;
pub mod planning;

use crate::{Kernel, KernelError, KernelInstance, KernelReport, Stage, StepStatus, TraceSession};
use rtr_harness::{CliError, OptionSpec, Profiler};
use rtr_trace::MemTrace;

/// The typed error for a `--option` value that parses but is out of the
/// kernel's domain.
pub(crate) fn bad_value(option: &str, value: impl ToString, expected: &'static str) -> KernelError {
    KernelError::Cli(CliError::BadValue {
        option: option.to_owned(),
        value: value.to_string(),
        expected,
    })
}

/// The shared `--threads` CLI option for kernels with a deterministic
/// parallel hot loop (`01.pfl`, `03.srec`, `07.prm`, `15.cem`).
pub(crate) fn threads_option() -> OptionSpec {
    OptionSpec {
        name: "threads",
        help: "Worker threads (0 = all hardware threads, 1 = sequential)",
    }
}

/// Returns all sixteen kernels in paper order (`01.pfl` … `16.bo`).
pub fn registry() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(perception::PflKernel),
        Box::new(perception::EkfSlamKernel),
        Box::new(perception::SrecKernel),
        Box::new(planning::Pp2dKernel),
        Box::new(planning::Pp3dKernel),
        Box::new(planning::MovtarKernel),
        Box::new(planning::PrmKernel),
        Box::new(planning::RrtKernel),
        Box::new(planning::RrtStarKernel),
        Box::new(planning::RrtPpKernel),
        Box::new(planning::SymBlkwKernel),
        Box::new(planning::SymFextKernel),
        Box::new(control::DmpKernel),
        Box::new(control::MpcKernel),
        Box::new(control::CemKernel),
        Box::new(control::BoKernel),
    ]
}

/// Looks a kernel up by `selector`: either the full paper id
/// (`09.rrtstar`) or the bare suffix (`rrtstar`). On a miss the error
/// carries a did-you-mean suggestion when some registered name is a
/// plausible typo (edit distance ≤ 2 against the id or its suffix).
///
/// Every binary that takes a kernel name on its command line routes
/// through this, so the matching rules and the error text stay uniform.
///
/// # Errors
///
/// Returns [`KernelError::UnknownKernel`] when no registered kernel
/// matches `selector`.
pub fn registry_lookup(selector: &str) -> Result<Box<dyn Kernel>, KernelError> {
    let kernels = registry();
    if let Some(at) = kernels
        .iter()
        .position(|k| selector_matches(k.name(), selector))
    {
        return Ok(kernels.into_iter().nth(at).expect("position in range"));
    }
    let suggestion = kernels
        .iter()
        .map(|k| {
            let full = edit_distance(selector, k.name());
            let bare = k
                .name()
                .split_once('.')
                .map_or(usize::MAX, |(_, n)| edit_distance(selector, n));
            (full.min(bare), k.name())
        })
        .min()
        .filter(|&(d, _)| d <= 2)
        .map(|(_, name)| name);
    Err(KernelError::UnknownKernel {
        name: selector.to_string(),
        suggestion,
    })
}

/// `04.pp2d` matches both `04.pp2d` and `pp2d`.
fn selector_matches(name: &str, selector: &str) -> bool {
    name == selector || name.split_once('.').map(|(_, n)| n) == Some(selector)
}

/// Levenshtein distance, O(a·b) with two rolling rows — the registry has
/// sixteen short names, so simplicity beats cleverness here.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The shared `--trace`/`--vldp` CLI options every kernel accepts (the
/// registry-level trace path lives in [`crate::trace`]).
pub(crate) fn trace_options() -> [OptionSpec; 2] {
    [crate::trace::trace_option(), crate::trace::vldp_option()]
}

/// Builds a [`KernelReport`] from a finished profiler, metric list and
/// trace session; a traced session's cache statistics become both metric
/// rows and the structured `cache` field.
pub(crate) fn report(
    name: &'static str,
    stage: Stage,
    mut profiler: Profiler,
    roi_seconds: f64,
    mut metrics: Vec<(String, String)>,
    session: crate::TraceSession,
) -> KernelReport {
    profiler.freeze_total();
    let cache = session.finish();
    if let Some(cache_report) = &cache {
        crate::trace::push_cache_metrics(&mut metrics, cache_report);
    }
    KernelReport {
        name,
        stage,
        roi_seconds,
        regions: profiler.report(),
        metrics,
        cache,
    }
}

/// The solve closure a [`OneShotInstance`] runs in its single step:
/// everything the one-shot path put inside the region of interest,
/// returning the metric rows.
type SolveBody =
    Box<dyn FnOnce(&mut Profiler, &mut dyn MemTrace) -> Result<Vec<(String, String)>, KernelError>>;

/// Stepped adapter for kernels whose algorithm has no natural resumable
/// increment (the graph/symbolic planners, CEM, BO): the entire solve
/// runs in the first [`step`](KernelInstance::step) call — inside the
/// region of interest, exactly where the one-shot path put it — and
/// `finish` assembles the report. Inputs and any offline phase are
/// captured by the closure at instantiation time, outside the ROI.
pub(crate) struct OneShotInstance {
    name: &'static str,
    stage: Stage,
    profiler: Profiler,
    body: Option<SolveBody>,
    metrics: Option<Vec<(String, String)>>,
}

impl OneShotInstance {
    /// Wraps `body` as a single-step instance.
    pub(crate) fn boxed(
        name: &'static str,
        stage: Stage,
        profiler: Profiler,
        body: impl FnOnce(&mut Profiler, &mut dyn MemTrace) -> Result<Vec<(String, String)>, KernelError>
            + 'static,
    ) -> Box<Self> {
        Box::new(OneShotInstance {
            name,
            stage,
            profiler,
            body: Some(Box::new(body)),
            metrics: None,
        })
    }
}

impl KernelInstance for OneShotInstance {
    fn step(&mut self, trace: &mut dyn MemTrace) -> Result<StepStatus, KernelError> {
        // A step after `Done` does nothing and reports `Done` again.
        let Some(body) = self.body.take() else {
            return Ok(StepStatus::Done);
        };
        self.metrics = Some(body(&mut self.profiler, trace)?);
        Ok(StepStatus::Done)
    }

    fn finish(
        self: Box<Self>,
        roi_seconds: f64,
        session: TraceSession,
    ) -> Result<KernelReport, KernelError> {
        let metrics = self.metrics.ok_or(KernelError::NotDone(self.name))?;
        Ok(report(
            self.name,
            self.stage,
            self.profiler,
            roi_seconds,
            metrics,
            session,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_harness::Args;

    #[test]
    fn registry_names_match_paper_order() {
        let names: Vec<&str> = registry().iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "01.pfl",
                "02.ekfslam",
                "03.srec",
                "04.pp2d",
                "05.pp3d",
                "06.movtar",
                "07.prm",
                "08.rrt",
                "09.rrtstar",
                "10.rrtpp",
                "11.sym-blkw",
                "12.sym-fext",
                "13.dmp",
                "14.mpc",
                "15.cem",
                "16.bo",
            ]
        );
    }

    #[test]
    fn stages_match_table1() {
        let kernels = registry();
        let stage_of = |name: &str| {
            kernels
                .iter()
                .find(|k| k.name() == name)
                .map(|k| k.stage())
                .unwrap()
        };
        assert_eq!(stage_of("01.pfl"), Stage::Perception);
        assert_eq!(stage_of("03.srec"), Stage::Perception);
        assert_eq!(stage_of("04.pp2d"), Stage::Planning);
        assert_eq!(stage_of("12.sym-fext"), Stage::Planning);
        assert_eq!(stage_of("13.dmp"), Stage::Control);
        assert_eq!(stage_of("16.bo"), Stage::Control);
    }

    #[test]
    fn registry_lookup_accepts_full_ids_and_bare_suffixes() {
        assert_eq!(registry_lookup("09.rrtstar").unwrap().name(), "09.rrtstar");
        assert_eq!(registry_lookup("rrtstar").unwrap().name(), "09.rrtstar");
        assert_eq!(registry_lookup("pfl").unwrap().name(), "01.pfl");
        assert_eq!(registry_lookup("sym-blkw").unwrap().name(), "11.sym-blkw");
    }

    #[test]
    fn registry_lookup_suggests_near_misses() {
        match registry_lookup("rttstar") {
            Err(KernelError::UnknownKernel { name, suggestion }) => {
                assert_eq!(name, "rttstar");
                assert_eq!(suggestion, Some("09.rrtstar"));
            }
            other => panic!("expected UnknownKernel, got {other:?}"),
        }
        match registry_lookup("mpx") {
            Err(KernelError::UnknownKernel { suggestion, .. }) => {
                assert_eq!(suggestion, Some("14.mpc"));
            }
            other => panic!("expected UnknownKernel, got {other:?}"),
        }
        // Nothing within distance 2: no suggestion at all.
        match registry_lookup("quicksort") {
            Err(KernelError::UnknownKernel { suggestion, .. }) => {
                assert_eq!(suggestion, None);
            }
            other => panic!("expected UnknownKernel, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_counts_are_typed_errors_naming_the_option() {
        let rows: &[(&str, &[&str], &str)] = &[
            ("pfl", &["--particles", "0"], "particles"),
            ("cem", &["--samples", "3"], "samples"),
            ("cem", &["--samples", "0"], "samples"),
            ("srec", &["--points", "0"], "points"),
            ("srec", &["--points", "1"], "points"),
            ("movtar", &["--horizon", "0"], "horizon"),
            ("pp2d", &["--weight", "-1"], "weight"),
            ("pp2d", &["--weight", "nan"], "weight"),
            ("pp3d", &["--weight", "-1"], "weight"),
            ("sym-blkw", &["--weight", "-1"], "weight"),
            ("sym-fext", &["--weight", "-1"], "weight"),
            ("dmp", &["--dt", "0"], "dt"),
            ("dmp", &["--dt", "-0.001"], "dt"),
            ("dmp", &["--dt", "nan"], "dt"),
            ("dmp", &["--dt", "inf"], "dt"),
            ("dmp", &["--dt", "1e-300"], "dt"),
            ("dmp", &["--duration", "inf"], "duration"),
            ("dmp", &["--duration", "-1"], "duration"),
            ("rrt", &["--epsilon", "0"], "epsilon"),
            ("rrt", &["--epsilon", "-1"], "epsilon"),
            ("rrt", &["--epsilon", "nan"], "epsilon"),
            ("rrtstar", &["--epsilon", "0"], "epsilon"),
            ("rrtstar", &["--epsilon", "-1"], "epsilon"),
            ("rrtstar", &["--epsilon", "nan"], "epsilon"),
            ("rrtpp", &["--epsilon", "0"], "epsilon"),
            ("rrtpp", &["--epsilon", "-1"], "epsilon"),
            ("rrtpp", &["--epsilon", "nan"], "epsilon"),
            ("mpc", &["--length", "1000000000000"], "length"),
            ("mpc", &["--horizon", "1000000000000"], "horizon"),
            ("rrt", &["--map", "bogus"], "map"),
            ("rrtstar", &["--map", "bogus"], "map"),
            ("rrtpp", &["--map", "bogus"], "map"),
            ("prm", &["--map", "bogus"], "map"),
            ("pfl", &["--particles", "1000000000000"], "particles"),
            ("ekfslam", &["--steps", "1000000000000"], "steps"),
            ("ekfslam", &["--landmarks", "1000000000000"], "landmarks"),
            ("srec", &["--points", "1000000000000"], "points"),
            ("pp2d", &["--size", "1000000000000"], "size"),
            ("pp3d", &["--size", "1000000000000"], "size"),
            ("pp3d", &["--height", "1000000000000"], "height"),
            ("movtar", &["--size", "1000000000000"], "size"),
            ("movtar", &["--horizon", "1000000000000"], "horizon"),
            ("prm", &["--roadmap", "1000000000000"], "roadmap"),
            ("prm", &["--neighbors", "1000000000000"], "neighbors"),
            ("sym-blkw", &["--blocks", "1000000000000"], "blocks"),
            ("dmp", &["--basis", "1000000000000"], "basis"),
            ("cem", &["--samples", "1000000000000"], "samples"),
            ("bo", &["--candidates", "1000000000000"], "candidates"),
            ("bo", &["--iterations", "1000000000000"], "iterations"),
            ("cem", &["--iterations", "1000000000000"], "iterations"),
            ("rrtpp", &["--passes", "1000000000000"], "passes"),
            ("rrtpp", &["--passes", "4294967296"], "passes"),
            ("dmp", &["--trace", "--vldp", "1000000000000"], "vldp"),
            ("pfl", &["--threads", "257"], "threads"),
            ("srec", &["--threads", "257"], "threads"),
            ("prm", &["--threads", "257"], "threads"),
            ("cem", &["--threads", "1000000000000"], "threads"),
            ("pfl", &["--region", "5"], "region"),
            ("movtar", &["--epsilon", "0.5"], "epsilon"),
            ("movtar", &["--epsilon", "nan"], "epsilon"),
            ("cem", &["--goal", "nan"], "goal"),
            ("cem", &["--goal", "0.05"], "goal"),
            ("cem", &["--goal", "inf"], "goal"),
            ("bo", &["--goal", "nan"], "goal"),
            ("bo", &["--goal", "0.05"], "goal"),
        ];
        for &(kernel, argv, option) in rows {
            let args = Args::parse_tokens(argv).unwrap();
            let kernel_impl = registry_lookup(kernel).unwrap();
            // `Kernel::run` builds the trace session before it instantiates.
            match TraceSession::from_args(&args).and_then(|_| kernel_impl.instantiate(&args)) {
                Err(KernelError::Cli(CliError::BadValue { option: o, .. })) => {
                    assert_eq!(o, option, "{kernel} {argv:?}");
                }
                Err(e) => panic!("{kernel} {argv:?}: unexpected error {e}"),
                Ok(_) => panic!("{kernel} {argv:?} must be rejected"),
            }
        }
    }

    #[test]
    fn a_numeric_option_without_a_value_is_an_error() {
        let args = Args::parse_tokens(&["--particles"]).unwrap();
        match registry_lookup("pfl").unwrap().instantiate(&args) {
            Err(KernelError::Cli(CliError::MissingValue(o))) => assert_eq!(o, "particles"),
            Err(e) => panic!("pfl --particles: unexpected error {e}"),
            Ok(_) => panic!("pfl --particles must be rejected"),
        }
    }

    #[test]
    fn edit_distance_is_levenshtein() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("pfl", "pfl"), 0);
    }

    #[test]
    fn every_kernel_documents_options_and_bottleneck() {
        for kernel in registry() {
            assert!(
                !kernel.cli_options().is_empty(),
                "{} has no CLI options",
                kernel.name()
            );
            assert!(!kernel.table1_bottleneck().is_empty());
        }
    }
}
