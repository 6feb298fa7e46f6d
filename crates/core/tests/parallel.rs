//! End-to-end determinism of the parallel analytic engine.
//!
//! The contract under test: fanning the 18-configuration balancing matrix
//! (or a frequency sweep) across any number of worker threads produces
//! results bit-identical to the serial step-replay loop — every cell of
//! every `WearMap`, and the derived lifetimes, exactly equal.

use nvpim_array::ArrayDims;
use nvpim_balance::{BalanceConfig, RemapSchedule};
use nvpim_core::sweep::remap_frequency_sweep_analytic;
use nvpim_core::{run_configs_analytic, EnduranceSimulator, LifetimeModel, SimConfig, SimResult};
use nvpim_workloads::parallel_mul::ParallelMul;
use nvpim_workloads::Workload;

fn workload() -> Workload {
    ParallelMul::new(ArrayDims::new(256, 16), 8).build()
}

fn config() -> SimConfig {
    SimConfig::default()
        .with_iterations(40)
        .with_schedule(RemapSchedule::every(7))
        .with_seed(0x5eed_cafe)
}

fn assert_bit_identical(serial: &[SimResult], parallel: &[SimResult], jobs: usize) {
    assert_eq!(serial.len(), parallel.len());
    let model = LifetimeModel::mtj();
    for (s, p) in serial.iter().zip(parallel) {
        assert_eq!(s.config, p.config, "{jobs} jobs: config order changed");
        assert_eq!(s.iterations, p.iterations);
        for row in 0..256 {
            for lane in 0..16 {
                assert_eq!(
                    s.wear.writes_at(row, lane),
                    p.wear.writes_at(row, lane),
                    "{jobs} jobs: {} writes diverge at ({row},{lane})",
                    s.config
                );
            }
        }
        // Lifetime is derived from the wear map, so equality here is the
        // user-visible statement of determinism (Eq. 4 end to end).
        let ls = model.lifetime(s).iterations;
        let lp = model.lifetime(p).iterations;
        assert!(ls == lp, "{jobs} jobs: {} lifetime diverged ({ls} vs {lp})", s.config);
    }
}

#[test]
fn full_matrix_is_identical_across_thread_counts() {
    let wl = workload();
    let sim = EnduranceSimulator::new(config());
    let configs = BalanceConfig::all();
    assert_eq!(configs.len(), 18);
    let serial: Vec<SimResult> = configs.iter().map(|&b| sim.run(&wl, b)).collect();
    for jobs in [1usize, 2, 8] {
        let parallel = run_configs_analytic(&wl, &configs, config(), jobs);
        assert_bit_identical(&serial, &parallel, jobs);
    }
}

#[test]
fn parallel_sweep_matches_serial_exactly() {
    let wl = workload();
    let balance: BalanceConfig = "RaxSt+Hw".parse().unwrap();
    let periods = [50u64, 10, 5];
    let sweep = |jobs| {
        remap_frequency_sweep_analytic(&wl, balance, config(), LifetimeModel::mtj(), &periods, jobs)
    };
    let serial = sweep(1);
    for jobs in [2usize, 4] {
        assert_eq!(serial, sweep(jobs), "{jobs}-job sweep diverged");
    }
}

#[test]
fn nvpim_threads_env_falls_back_to_single_worker() {
    // `jobs = 0` defers to the environment; NVPIM_THREADS=1 must select the
    // inline serial path and still produce the exact serial results. This
    // test owns the variable (no other test in this binary reads it).
    std::env::set_var(nvpim_exec::pool::THREADS_ENV, "1");
    assert_eq!(nvpim_exec::available_threads(), 1);
    assert_eq!(nvpim_exec::JobPool::new(0).threads(), 1);

    let wl = workload();
    let sim = EnduranceSimulator::new(config());
    let configs: Vec<BalanceConfig> =
        ["StxSt", "RaxRa", "BsxSt+Hw"].iter().map(|s| s.parse().unwrap()).collect();
    let serial: Vec<SimResult> = configs.iter().map(|&b| sim.run(&wl, b)).collect();
    let env_driven = run_configs_analytic(&wl, &configs, config(), 0);
    assert_bit_identical(&serial, &env_driven, 0);

    // Garbage values are ignored in favor of the hardware default.
    std::env::set_var(nvpim_exec::pool::THREADS_ENV, "not-a-number");
    assert!(nvpim_exec::available_threads() >= 1);
    std::env::remove_var(nvpim_exec::pool::THREADS_ENV);
}

#[test]
fn worker_panic_reaches_the_caller() {
    // A panicking simulation job must not be swallowed by the pool.
    let result = std::panic::catch_unwind(|| {
        nvpim_core::fan_out(vec![0u32, 1, 2, 3], 2, |job, _| {
            assert!(job != 2, "boom on job {job}");
            job
        })
    });
    assert!(result.is_err(), "panic must propagate through fan_out");
}
