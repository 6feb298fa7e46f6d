//! Design-choice ablations called out in DESIGN.md: epoch-factorized vs
//! naive accumulation in the reference simulator, the analytic engine's
//! queries against step replay, sense-amp vs preset-output semantics, and
//! workspace allocation policies.

use criterion::{criterion_group, criterion_main, Criterion};
use nvpim_array::{ArchStyle, ArrayDims};
use nvpim_balance::BalanceConfig;
use nvpim_bench::Scale;
use nvpim_core::{sim, AnalyticWearEngine, EnduranceSimulator, SimConfig};
use nvpim_workloads::parallel_mul::ParallelMul;
use nvpim_workloads::AllocPolicy;
use std::hint::black_box;

fn bench_fast_vs_naive(c: &mut Criterion) {
    let workload = ParallelMul::new(ArrayDims::new(128, 16), 8).build();
    let cfg = SimConfig::paper().with_iterations(100);
    let mut group = c.benchmark_group("accumulation");
    group.sample_size(10);
    group.bench_function("epoch_factorized", |b| {
        let sim = EnduranceSimulator::new(cfg);
        b.iter(|| black_box(sim.run(&workload, "RaxRa".parse().unwrap()).wear.max_writes()));
    });
    group.bench_function("naive_cell_by_cell", |b| {
        b.iter(|| {
            black_box(sim::simulate_naive(&workload, "RaxRa".parse().unwrap(), cfg).max_writes())
        });
    });
    group.finish();
}

fn bench_arch_styles(c: &mut Criterion) {
    let scale = Scale::tiny();
    let workload = scale.mul_workload();
    let mut group = c.benchmark_group("arch_style");
    group.sample_size(10);
    for (name, arch) in
        [("sense_amp", ArchStyle::SenseAmp), ("preset_output", ArchStyle::PresetOutput)]
    {
        group.bench_function(name, |b| {
            let cfg = scale.sim_config().with_arch(arch);
            let config: BalanceConfig = "StxSt+Hw".parse().unwrap();
            b.iter(|| {
                let mut engine = AnalyticWearEngine::new(&workload, config, cfg);
                black_box(engine.wear_at(cfg.iterations).max_writes())
            });
        });
    }
    group.finish();
}

fn bench_analytic_query(c: &mut Criterion) {
    // The replay-free engine ablation: a closed-form query costs the same
    // at any iteration count (row-vector prefix sums over the table
    // cycle), while step replay walks the trace every iteration (O(N)).
    // Construction —
    // the symbolic trace walk the closed form starts from — is timed
    // separately (`build/*`): a lifetime solve pays it once and then
    // issues dozens of point queries, so `analytic/*` times the query on
    // a built engine, the shape the solve's bisection loop sees.
    let workload = ParallelMul::new(ArrayDims::new(512, 32), 16).build();
    let base = SimConfig::paper().with_schedule(nvpim_balance::RemapSchedule::every(100));
    let mut group = c.benchmark_group("analytic_query");
    group.sample_size(10);
    let closed_form = ["StxSt", "BsxBs", "StxSt+Hw", "BsxBs+Hw"];
    for name in closed_form {
        let config: BalanceConfig = name.parse().unwrap();
        group.bench_function(format!("build/{name}"), |b| {
            let cfg = base.with_iterations(100_000);
            b.iter(|| black_box(AnalyticWearEngine::new(&workload, config, cfg).path()));
        });
        for iters in [1_000u64, 10_000, 100_000] {
            group.bench_function(format!("analytic/{name}/{iters}"), |b| {
                let cfg = base.with_iterations(iters);
                let mut engine = AnalyticWearEngine::new(&workload, config, cfg);
                b.iter(|| black_box(engine.wear_at(iters).max_writes()));
            });
        }
    }
    // Step replay only at the smallest count — it is the O(N) baseline.
    for name in ["StxSt+Hw", "BsxBs+Hw"] {
        let config: BalanceConfig = name.parse().unwrap();
        group.bench_function(format!("step_replay/{name}/1000"), |b| {
            let sim = EnduranceSimulator::new(base.with_iterations(1_000));
            b.iter(|| black_box(sim.run(&workload, config).wear.max_writes()));
        });
    }
    // The lazy rung: Ra draws force epoch enumeration, but with zero trace
    // walks.
    let raxra: BalanceConfig = "RaxRa".parse().unwrap();
    group.bench_function("analytic/RaxRa/10000", |b| {
        let cfg = base.with_iterations(10_000);
        b.iter(|| {
            let mut engine = AnalyticWearEngine::new(&workload, raxra, cfg);
            black_box(engine.wear_at(10_000).max_writes())
        });
    });
    // The fallback rung: Ra rows under +Hw compile one kernel per epoch
    // and fold it like the lazy rung.
    let fallback: BalanceConfig = "RaxRa+Hw".parse().unwrap();
    group.bench_function("fallback/RaxRa+Hw/1000", |b| {
        let cfg = base.with_iterations(1_000);
        b.iter(|| {
            let mut engine = AnalyticWearEngine::new(&workload, fallback, cfg);
            black_box(engine.wear_at(1_000).max_writes())
        });
    });
    group.finish();
}

fn bench_alloc_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("alloc_policy_layout");
    group.sample_size(20);
    for (name, policy) in [
        ("windowed", AllocPolicy::Windowed),
        ("full_lane", AllocPolicy::FullLane),
        ("lowest_first", AllocPolicy::LowestFirst),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let wl =
                    ParallelMul::new(ArrayDims::new(1024, 8), 32).with_alloc_policy(policy).build();
                black_box(wl.trace().rows_used())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fast_vs_naive,
    bench_arch_styles,
    bench_analytic_query,
    bench_alloc_policies
);
criterion_main!(benches);
