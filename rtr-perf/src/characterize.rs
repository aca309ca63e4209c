//! The `char-small` workload: the reduced-inputset cache
//! characterization table, every kernel replayed through the cache
//! simulator with the VLDP prefetcher off and at degree 4.
//!
//! It runs the same kernel code as `kernels` with emission on, so its
//! host time is kernel time plus trace transport plus `rtr-archsim`. A
//! change to the emission gate shows on `kernels` and must not cost this
//! workload; a change to the simulator shows only here. Cells run
//! one after another on the inline transport, one worker thread each,
//! through the decomposed lifecycle, and every pass's table must equal
//! the one `rtr_bench::characterization` collects. The inputs are fixed,
//! so `--seed` is ignored.

use std::time::Instant;

use rtr_bench::characterization::{collect_kernels_with, small_args, CharReport, CharRow};
use rtr_core::{registry, Kernel, KernelReport, Telemetry};

use crate::host::NoiseProbe;
use crate::kernels::{attribute, drive, kernel_args};
use crate::report::{Outcome, PassSamples};
use crate::stats::{median, ratio, Budget, Digest};
use crate::Scope;

/// Prefetcher degree of the VLDP-on column.
const VLDP: usize = 4;

/// Per-cell samples over a run.
#[derive(Default)]
struct Cell {
    seconds: Vec<f64>,
    last: Option<KernelReport>,
}

/// Runs the `char-small` workload.
pub fn run(name: &'static str, scope: &Scope, traced: bool) -> Outcome {
    let mut outcome = Outcome::new(name, traced);
    let kernels: Vec<Box<dyn Kernel>> = registry()
        .into_iter()
        .filter(|k| scope.kernels.contains(&k.name()))
        .collect();
    let names: Vec<String> = kernels.iter().map(|k| k.name().to_string()).collect();
    let args: Vec<_> = kernels
        .iter()
        .map(|k| kernel_args(small_args(k.name())))
        .collect();

    // The library's own collection is the reference table (and warms up).
    let reference = collect_kernels_with(&names, false, VLDP, 1, Telemetry::Inline);
    let reference_json = reference.to_json();

    let degrees = [0, VLDP];
    let mut cells: Vec<Cell> = (0..kernels.len() * degrees.len())
        .map(|_| Cell::default())
        .collect();
    let mut untraced: Vec<Vec<f64>> = vec![Vec::new(); kernels.len()];
    let mut passes = PassSamples::new(cells.len());
    let mut cell_total = 0.0;
    let mut finish_total = 0.0;
    let mut probe = NoiseProbe::default();
    let mut budget = Budget::new(scope.seconds);
    while budget.next_pass() {
        probe.sample();
        let (mut setup, mut rows) = (0.0, Vec::new());
        for (k, kernel) in kernels.iter().enumerate() {
            let mut pair = Vec::with_capacity(degrees.len());
            for (d, &degree) in degrees.iter().enumerate() {
                let c = k * degrees.len() + d;
                let cell = &mut cells[c];
                let result =
                    drive(kernel.as_ref(), &args[k], Some(degree), false).and_then(|run| {
                        let seconds = (run.roi + run.finish).as_secs_f64();
                        cell.seconds.push(seconds);
                        passes.item(c, seconds * 1e6, seconds * 1e6);
                        cell_total += seconds;
                        setup += run.setup.as_secs_f64();
                        finish_total += run.finish.as_secs_f64();
                        let cache = run.report.cache.clone();
                        cell.last = Some(run.report);
                        cache.ok_or_else(|| format!("{}: ignored the trace session", kernel.name()))
                    });
                outcome.op(result.as_ref().map(|_| ()).map_err(Clone::clone));
                pair.push(result);
            }
            let (on, off) = (pair.pop().expect("on cell"), pair.pop().expect("off cell"));
            if let (Ok(a), Ok(b)) = (&off, &on) {
                if a.accesses != b.accesses {
                    outcome.op(Err(format!(
                        "{}: VLDP changed the demand accesses",
                        kernel.name()
                    )));
                }
            }
            rows.push(CharRow {
                kernel: kernel.name().to_string(),
                off,
                on,
            });
            if traced {
                // The same kernel untraced: the simulator's share of a cell.
                match drive(kernel.as_ref(), &args[k], None, false) {
                    Ok(run) => untraced[k].push(run.roi.as_secs_f64()),
                    Err(e) => outcome.op(Err(e)),
                }
            }
        }
        let table = CharReport {
            rows,
            ..reference.clone()
        };
        outcome.op(if table.to_json() == reference_json {
            Ok(())
        } else {
            Err("the table differs from the library's characterization".into())
        });
        passes.end_pass(setup);
    }

    let mut digest = Digest::default();
    digest.feed(reference_json.as_bytes());
    outcome.note("output_digest", format!("{:016x}", digest.value()));
    let accesses: u64 = reference
        .rows
        .iter()
        .flat_map(|row| [&row.off, &row.on])
        .filter_map(|r| r.as_ref().ok())
        .map(|r| r.accesses)
        .sum();
    outcome.note("demand_accesses", accesses);
    crate::host::note(&mut outcome, &probe);

    let medians: Vec<f64> = cells.iter_mut().map(|c| median(&mut c.seconds)).collect();
    passes.record(&mut outcome);
    if !traced {
        return outcome;
    }

    let total: f64 = medians.iter().sum();
    let per_kernel: Vec<f64> = medians
        .chunks(degrees.len())
        .map(|c| c.iter().sum())
        .collect();
    let last: Vec<Option<&KernelReport>> = cells
        .iter()
        .step_by(degrees.len())
        .map(|c| c.last.as_ref())
        .collect();
    attribute(&mut outcome, &kernels, &per_kernel, &last);
    let untraced_total: f64 =
        untraced.iter_mut().map(|u| median(u)).sum::<f64>() * degrees.len() as f64;
    outcome.set("archsim.demand_accesses", accesses as f64);
    outcome.set(
        "archsim.accesses_per_s",
        ratio(accesses as f64, total - untraced_total),
    );
    outcome.set("trace.finish_share", ratio(finish_total, cell_total));

    // The library sweep on each transport, warm, back to back.
    let sweep = |telemetry| {
        let start = Instant::now();
        let table = collect_kernels_with(&names, false, VLDP, 1, telemetry);
        (
            start.elapsed().as_secs_f64(),
            table.to_json() == reference_json,
        )
    };
    let (inline_seconds, _) = sweep(Telemetry::Inline);
    let (ring_seconds, matches) = sweep(Telemetry::Ring);
    if matches {
        outcome.set(
            "trace.ring_over_inline",
            ratio(ring_seconds, inline_seconds),
        );
    }
    outcome.op(if matches {
        Ok(())
    } else {
        Err("the ring transport's table differs from the inline one".into())
    });
    outcome
}
