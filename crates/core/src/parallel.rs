//! Deterministic parallel fan-out of simulation jobs.
//!
//! The paper's headline figures each need the full (workload × balancing
//! configuration × architecture style × re-mapping period) matrix — dozens
//! of completely independent simulations. This module fans such matrices
//! across an [`nvpim_exec::JobPool`] while keeping three guarantees:
//!
//! 1. **Bit-identical results.** Every job owns its simulation state (the
//!    `CombinedMap` RNG streams are derived from the job's own seed), and
//!    results return in submission order, so a run with `N` workers equals
//!    the serial loop exactly — asserted by the determinism tests.
//! 2. **Exact observability.** When a process-wide [`Observer`] is
//!    installed, each worker records into a private collecting observer
//!    that is absorbed into the global one in submission order after the
//!    join ([`Observer::absorb`]); counters and phase timings aggregate to
//!    exactly the serial totals.
//! 3. **One coherent trace.** When the global observer carries a
//!    [`TraceRecorder`](nvpim_obs::TraceRecorder) with an ambient context
//!    (CLI drivers set one around the whole run), every job runs inside an
//!    `exec.job` child span recorded straight into the shared recorder —
//!    span timing is wall-clock truth, so it bypasses the collect-then-
//!    absorb path and a parallel matrix run exports as a single trace with
//!    per-worker thread lanes.

use nvpim_array::ArchStyle;
use nvpim_balance::{BalanceConfig, RemapSchedule};
use nvpim_exec::JobPool;
use nvpim_obs::{observer, NullSink, Observer};
use nvpim_workloads::Workload;

use crate::{AnalyticWearEngine, SimConfig, SimResult};

/// Fans independent jobs across `workers` threads (`0` = auto), returning
/// outputs in submission order.
///
/// The closure receives `Some(observer)` — a private per-worker observer —
/// when a process-wide observer is installed, and `None` otherwise (run
/// against [`NullSink`] for the zero-cost disabled path). Worker observers
/// are merged into the global one in submission order after all jobs join.
///
/// Jobs never clone shared read-only state: the closure borrows its
/// environment (workloads, configs) by reference across threads.
///
/// When the run would execute inline anyway (one worker, one job, or a
/// single-core machine — see [`JobPool::effective_threads`]), the
/// jobs record straight into the global observer: with a single executor
/// the submission order *is* the completion order, so the
/// collect-then-absorb indirection would buy nothing and cost a private
/// observer per job.
pub fn fan_out<I, O, F>(jobs: Vec<I>, workers: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I, Option<&Observer>) -> O + Sync,
{
    let pool = JobPool::new(workers);
    match observer::current() {
        Some(global) => {
            // Capture the trace context once, before any job starts: jobs
            // must not race on a driver mutating the ambient mid-run.
            let tracer = global.tracer().cloned();
            let ambient = tracer.as_ref().and_then(|t| t.ambient());
            let traced = |i: usize, observer: &Observer, job: I| {
                let mut span = match (&tracer, ambient) {
                    (Some(t), Some(ctx)) => Some(t.span(ctx, "exec.job")),
                    _ => None,
                };
                if let Some(span) = span.as_mut() {
                    span.attr_u64("job", i as u64);
                }
                f(job, Some(observer))
            };
            if pool.effective_threads(jobs.len()) <= 1 {
                return jobs
                    .into_iter()
                    .enumerate()
                    .map(|(i, job)| traced(i, &global, job))
                    .collect();
            }
            let outputs = pool.map(jobs.into_iter().enumerate().collect(), |(i, job)| {
                let local = Observer::collecting();
                let out = traced(i, &local, job);
                (out, local)
            });
            outputs
                .into_iter()
                .map(|(out, local)| {
                    global.absorb(&local);
                    out
                })
                .collect()
        }
        None => pool.map(jobs, |job| f(job, None)),
    }
}

/// One cell of an experiment matrix: which workload (by index into the
/// caller's list), balancing configuration, gate semantics, and software
/// re-mapping period (`None` = never re-map) it simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixPoint {
    /// Index into the workload list handed to [`run_matrix`].
    pub workload: usize,
    /// Balancing configuration simulated.
    pub config: BalanceConfig,
    /// Gate execution semantics.
    pub arch: ArchStyle,
    /// Software re-mapping period (`None` = never).
    pub period: Option<u64>,
}

/// Answers the full cartesian matrix `workloads × configs × archs ×
/// periods` through the analytic engine across `jobs` worker threads,
/// returning one `(point, result)` pair per cell in row-major submission
/// order (workload-major, then config, then arch, then period) — the same
/// order four nested serial loops would produce, with bit-identical
/// results.
///
/// `base` supplies everything the matrix axes don't (iterations, seed,
/// read tracking); each cell overrides its architecture and schedule.
///
/// # Panics
///
/// Panics if any axis is empty.
#[must_use]
pub fn run_matrix(
    workloads: &[Workload],
    configs: &[BalanceConfig],
    archs: &[ArchStyle],
    periods: &[Option<u64>],
    base: SimConfig,
    jobs: usize,
) -> Vec<(MatrixPoint, SimResult)> {
    assert!(
        !workloads.is_empty() && !configs.is_empty() && !archs.is_empty() && !periods.is_empty(),
        "matrix axes must be nonempty"
    );
    let points: Vec<MatrixPoint> = workloads
        .iter()
        .enumerate()
        .flat_map(|(workload, _)| {
            configs.iter().flat_map(move |&config| {
                archs.iter().flat_map(move |&arch| {
                    periods.iter().map(move |&period| MatrixPoint {
                        workload,
                        config,
                        arch,
                        period,
                    })
                })
            })
        })
        .collect();

    fan_out(points, jobs, |point, sink| {
        let schedule = match point.period {
            Some(p) => RemapSchedule::every(p),
            None => RemapSchedule::never(),
        };
        let cfg = base.with_arch(point.arch).with_schedule(schedule);
        let engine = AnalyticWearEngine::new(&workloads[point.workload], point.config, cfg);
        let result = match sink {
            Some(observer) => engine.into_result_at_with(cfg.iterations, observer),
            None => engine.into_result_at_with(cfg.iterations, &NullSink),
        };
        (point, result)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpim_array::ArrayDims;
    use nvpim_workloads::parallel_mul::ParallelMul;

    fn small() -> Workload {
        ParallelMul::new(ArrayDims::new(128, 8), 8).build()
    }

    #[test]
    fn fan_out_preserves_submission_order() {
        let out = fan_out((0..20u64).collect(), 4, |i, _| i * 3);
        assert_eq!(out, (0..20u64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn matrix_covers_every_cell_in_row_major_order() {
        let workloads = [small()];
        let configs: Vec<BalanceConfig> =
            ["StxSt", "RaxSt"].iter().map(|s| s.parse().unwrap()).collect();
        let archs = [ArchStyle::SenseAmp, ArchStyle::PresetOutput];
        let periods = [Some(5), None];
        let base = SimConfig::default().with_iterations(10);
        let cells = run_matrix(&workloads, &configs, &archs, &periods, base, 2);
        assert_eq!(cells.len(), 8); // 1 workload × 2 configs × 2 archs × 2 periods
                                    // Row-major: config-major over (arch, period) for workload 0.
        assert_eq!(
            cells[0].0,
            MatrixPoint {
                workload: 0,
                config: configs[0],
                arch: ArchStyle::SenseAmp,
                period: Some(5),
            }
        );
        assert_eq!(cells[1].0.period, None);
        assert_eq!(cells[2].0.arch, ArchStyle::PresetOutput);
        assert_eq!(cells[4].0.config, configs[1]);
        // Each result reflects its own cell's axes.
        for (point, result) in &cells {
            assert_eq!(result.config, point.config);
            assert_eq!(result.arch, point.arch);
            assert_eq!(result.iterations, 10);
        }
    }

    #[test]
    fn matrix_is_thread_count_invariant() {
        let workloads = [small()];
        let configs: Vec<BalanceConfig> =
            ["RaxRa", "StxSt+Hw"].iter().map(|s| s.parse().unwrap()).collect();
        let base = SimConfig::default().with_iterations(6);
        let serial = run_matrix(&workloads, &configs, &[base.arch], &[Some(3)], base, 1);
        let parallel = run_matrix(&workloads, &configs, &[base.arch], &[Some(3)], base, 4);
        for ((ps, rs), (pp, rp)) in serial.iter().zip(&parallel) {
            assert_eq!(ps, pp);
            assert_eq!(rs.wear.max_writes(), rp.wear.max_writes());
            for row in 0..128 {
                for lane in 0..8 {
                    assert_eq!(rs.wear.writes_at(row, lane), rp.wear.writes_at(row, lane));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_axis_rejected() {
        let _ = run_matrix(
            &[],
            &[BalanceConfig::baseline()],
            &[ArchStyle::SenseAmp],
            &[None],
            SimConfig::default(),
            1,
        );
    }
}
