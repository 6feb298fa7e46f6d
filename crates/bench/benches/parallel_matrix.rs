//! Serial vs parallel answers for the 18-configuration balancing matrix
//! through the production analytic engine — the speedup claim behind
//! `repro --jobs N`.
//!
//! On a multi-core runner the `jobs_*` entries should scale with the core
//! count (the jobs are embarrassingly parallel); on a single core they cost
//! a few percent of queue overhead at most. `scripts/bench.sh` records the
//! numbers into `BENCH_sim.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use nvpim_array::ArrayDims;
use nvpim_balance::BalanceConfig;
use nvpim_core::{run_configs_analytic, AnalyticWearEngine, SimConfig};
use nvpim_workloads::parallel_mul::ParallelMul;
use std::hint::black_box;

fn bench_matrix(c: &mut Criterion) {
    let workload = ParallelMul::new(ArrayDims::new(256, 16), 8).build();
    let cfg = SimConfig::default().with_iterations(60);
    let configs = BalanceConfig::all();
    let mut group = c.benchmark_group("parallel_matrix");
    // The serial-vs-jobs deltas are small relative to shared-machine
    // jitter; more samples keep the recorded medians meaningful.
    group.sample_size(40);
    group.bench_function("serial_18_configs", |b| {
        // The serial loop collects all 18 results just like the parallel
        // one, so the two arms differ only in execution strategy, not in
        // result-buffer lifetime.
        b.iter(|| {
            let results: Vec<_> = configs
                .iter()
                .map(|&config| {
                    AnalyticWearEngine::new(&workload, config, cfg).result_at(cfg.iterations)
                })
                .collect();
            black_box(results.iter().map(|r| r.wear.max_writes()).sum::<u64>())
        });
    });
    for jobs in [1usize, 2, 4] {
        group.bench_function(format!("jobs_{jobs}"), |b| {
            b.iter(|| {
                let total: u64 = run_configs_analytic(&workload, &configs, cfg, jobs)
                    .iter()
                    .map(|r| r.wear.max_writes())
                    .sum();
                black_box(total)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matrix);
criterion_main!(benches);
