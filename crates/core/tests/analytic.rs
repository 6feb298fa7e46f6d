//! Bit-identity of the replay-free analytic wear engine.
//!
//! The analytic engine answers `wear_at(N)` through closed-form prefix
//! panels, lazy epoch enumeration, or per-epoch kernel compiles (the
//! fallback rung) depending on the configuration. These tests pin every
//! path against the reference oracle, the simulator's per-iteration step
//! replay — cell by cell, writes and reads, across all 18 balancing
//! configurations, never() schedules, randomized iteration counts with
//! mid-epoch partial spans, monotone and backwards lazy queries, epoch
//! series, and the exact lifetime solve. `scripts/ci.sh` runs them in
//! release mode.

use nvpim_array::ArrayDims;
use nvpim_balance::{BalanceConfig, RemapSchedule};
use nvpim_core::analytic::{classify, AnalyticPath, AnalyticWearEngine};
use nvpim_core::{
    lifetime, map_configs_analytic, run_configs_analytic, EnduranceSimulator, LifetimeModel,
    SimConfig,
};
use nvpim_obs::Observer;
use nvpim_workloads::convolution::Convolution;
use nvpim_workloads::dot_product::DotProduct;
use nvpim_workloads::parallel_mul::ParallelMul;
use nvpim_workloads::Workload;

/// Asserts the analytic engine equals step replay cell by cell.
fn assert_analytic_bit_identical(
    wl: &Workload,
    cfg: SimConfig,
    balance: BalanceConfig,
    label: &str,
) {
    let mut engine = AnalyticWearEngine::new(wl, balance, cfg);
    let analytic = engine.wear_at(cfg.iterations);
    let replayed = EnduranceSimulator::new(cfg).run(wl, balance);
    let dims = wl.trace().dims();
    let path = engine.path();
    for row in 0..dims.rows() {
        for lane in 0..dims.lanes() {
            assert_eq!(
                (analytic.writes_at(row, lane), analytic.reads_at(row, lane)),
                (replayed.wear.writes_at(row, lane), replayed.wear.reads_at(row, lane)),
                "{label} {balance} [{path}]: wear diverges from step replay at ({row},{lane})"
            );
        }
    }
}

#[test]
fn analytic_matches_step_replay_for_every_config() {
    // 23 iterations over a period of 7: three full epochs plus a partial
    // final epoch of 2, exercising whole-epoch and partial-span algebra.
    let cfg = SimConfig::default()
        .with_iterations(23)
        .with_schedule(RemapSchedule::every(7))
        .with_read_tracking(true);
    let workloads = [
        ("mul-128x8", ParallelMul::new(ArrayDims::new(128, 8), 8).build()),
        ("dot-256x16", DotProduct::new(ArrayDims::new(256, 16), 16, 8).build()),
    ];
    for (label, wl) in &workloads {
        for balance in BalanceConfig::all() {
            assert_analytic_bit_identical(wl, cfg, balance, label);
        }
    }
}

#[test]
fn never_schedule_is_closed_form_for_every_config() {
    // With no re-mapping there is a single endless epoch, so even `Ra`
    // configurations (whose RNG never draws) reduce to closed form.
    let cfg = SimConfig::default()
        .with_iterations(200)
        .with_schedule(RemapSchedule::never())
        .with_read_tracking(true);
    let wl = ParallelMul::new(ArrayDims::new(96, 8), 8).build();
    for balance in BalanceConfig::all() {
        let engine = AnalyticWearEngine::new(&wl, balance, cfg);
        assert_eq!(
            engine.path(),
            AnalyticPath::ClosedForm,
            "{balance} must be closed-form under never()"
        );
        assert_analytic_bit_identical(&wl, cfg, balance, "never-96x8");
    }
}

#[test]
fn classification_predicts_engine_path_for_every_config() {
    let cfg = SimConfig::default().with_iterations(10).with_schedule(RemapSchedule::every(5));
    let wl = DotProduct::new(ArrayDims::new(128, 8), 8, 8).build();
    for balance in BalanceConfig::all() {
        let predicted = classify(balance, cfg.schedule);
        let engine = AnalyticWearEngine::new(&wl, balance, cfg);
        assert_eq!(predicted, engine.path(), "classify disagrees with the engine for {balance}");
        let expected = if balance.hw && balance.row == nvpim_balance::Strategy::Random {
            AnalyticPath::Fallback
        } else if balance.row == nvpim_balance::Strategy::Random
            || balance.col == nvpim_balance::Strategy::Random
        {
            AnalyticPath::Lazy
        } else {
            AnalyticPath::ClosedForm
        };
        assert_eq!(engine.path(), expected, "unexpected ladder rung for {balance}");
    }
}

#[test]
fn randomized_iteration_counts_cover_mid_epoch_partials() {
    // xorshift64* fuzz over geometry, period, and iteration count; the
    // iteration counts are drawn relative to the period so partial final
    // epochs, exact epoch boundaries, and multi-super-cycle spans all
    // occur.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545F4914F6CDD1D)
    };
    for case in 0..12 {
        let rows = [96, 128, 160][(next() % 3) as usize];
        let lanes = [4, 8, 16][(next() % 3) as usize];
        let period = 3 + next() % 9;
        let iterations = match case % 3 {
            0 => period * (1 + next() % 40) + 1 + next() % (period - 1), // mid-epoch
            1 => period * (1 + next() % 40),                             // exact boundary
            _ => 1 + next() % (3 * period),                              // short span
        };
        let wl = ParallelMul::new(ArrayDims::new(rows, lanes), lanes.min(8)).build();
        let cfg = SimConfig::default()
            .with_iterations(iterations)
            .with_schedule(RemapSchedule::every(period))
            .with_seed(next())
            .with_read_tracking(case % 2 == 0);
        let label = format!("fuzz-{case}-{rows}x{lanes}-p{period}-n{iterations}");
        for balance in BalanceConfig::all() {
            assert_analytic_bit_identical(&wl, cfg, balance, &label);
        }
    }
}

#[test]
fn lazy_engines_answer_monotone_and_backwards_queries() {
    let cfg = SimConfig::default()
        .with_iterations(0)
        .with_schedule(RemapSchedule::every(7))
        .with_read_tracking(true);
    let wl = DotProduct::new(ArrayDims::new(128, 8), 8, 8).build();
    // RaxSt exercises the software lazy path, StxRa+Hw the hardware one.
    for name in ["RaxSt", "StxRa", "RaxRa", "StxRa+Hw", "BsxRa+Hw"] {
        let balance: BalanceConfig = name.parse().unwrap();
        let mut engine = AnalyticWearEngine::new(&wl, balance, cfg);
        assert_eq!(engine.path(), AnalyticPath::Lazy, "{balance}");
        for n in [10u64, 25, 7, 40] {
            // 10 → 25 → 7 → 40: monotone continuation, a backwards
            // restart, then continuation again — all must equal a fresh
            // simulator run of exactly n iterations.
            let analytic = engine.wear_at(n);
            let sim = EnduranceSimulator::new(cfg.with_iterations(n)).run(&wl, balance);
            assert_eq!(
                analytic.total_writes(),
                sim.wear.total_writes(),
                "{balance} at n={n}: total writes"
            );
            let dims = wl.trace().dims();
            for row in 0..dims.rows() {
                for lane in 0..dims.lanes() {
                    assert_eq!(
                        analytic.writes_at(row, lane),
                        sim.wear.writes_at(row, lane),
                        "{balance} at n={n}: writes diverge at ({row},{lane})"
                    );
                    assert_eq!(
                        analytic.reads_at(row, lane),
                        sim.wear.reads_at(row, lane),
                        "{balance} at n={n}: reads diverge at ({row},{lane})"
                    );
                }
            }
        }
    }
}

#[test]
fn solve_locates_the_exact_failure_iteration() {
    let cfg = SimConfig::default().with_iterations(0).with_schedule(RemapSchedule::every(7));
    let wl = ParallelMul::new(ArrayDims::new(128, 8), 8).build();
    // Endurance small enough that the horizon stays test-sized but large
    // enough to span many epochs and several super-cycles.
    let model = LifetimeModel::new(50_000, 3.0);
    for name in ["StxSt", "BsxBs", "StxBs", "StxSt+Hw", "BsxBs+Hw"] {
        let balance: BalanceConfig = name.parse().unwrap();
        let mut engine = AnalyticWearEngine::new(&wl, balance, cfg);
        let outcome = lifetime::solve(&mut engine, model, 1_000);
        assert!(outcome.exact, "{balance} should solve exactly");
        assert_eq!(outcome.path, AnalyticPath::ClosedForm);
        let survived = outcome.lifetime.iterations as u64;
        assert_eq!(outcome.failure_iteration, survived + 1, "{balance}");
        // The bracket must hold against the *simulator*, not just the
        // engine's own arithmetic.
        let at_lo = EnduranceSimulator::new(cfg.with_iterations(survived)).run(&wl, balance);
        let at_hi = EnduranceSimulator::new(cfg.with_iterations(outcome.failure_iteration))
            .run(&wl, balance);
        assert!(
            at_lo.wear.max_writes() <= model.endurance(),
            "{balance}: survived iteration already exceeds endurance"
        );
        assert!(
            at_hi.wear.max_writes() > model.endurance(),
            "{balance}: failure iteration does not exceed endurance"
        );
    }
    // The fallback rung still answers, flagged as an extrapolation.
    let mut fallback = AnalyticWearEngine::new(&wl, "RaxSt+Hw".parse().unwrap(), cfg);
    let outcome = lifetime::solve(&mut fallback, model, 1_000);
    assert!(!outcome.exact);
    assert_eq!(outcome.path, AnalyticPath::Fallback);
    assert!(outcome.lifetime.iterations > 0.0);
}

#[test]
fn parallel_analytic_matrix_is_bit_identical_to_the_simulator_matrix() {
    let cfg = SimConfig::default().with_iterations(40).with_schedule(RemapSchedule::every(9));
    let wl = DotProduct::new(ArrayDims::new(128, 8), 8, 8).build();
    let configs = BalanceConfig::all();
    let analytic = run_configs_analytic(&wl, &configs, cfg, 4);
    let sim = EnduranceSimulator::new(cfg);
    let simulated: Vec<_> = configs.iter().map(|&config| sim.run(&wl, config)).collect();
    assert_eq!(analytic.len(), simulated.len());
    let dims = wl.trace().dims();
    for (a, s) in analytic.iter().zip(&simulated) {
        assert_eq!(a.config, s.config);
        assert_eq!(a.iterations, s.iterations);
        assert_eq!(a.steps_per_iteration, s.steps_per_iteration);
        for row in 0..dims.rows() {
            for lane in 0..dims.lanes() {
                assert_eq!(
                    a.wear.writes_at(row, lane),
                    s.wear.writes_at(row, lane),
                    "{}: matrix writes diverge at ({row},{lane})",
                    a.config
                );
            }
        }
    }
}

#[test]
fn map_configs_analytic_reduces_in_job_and_returns_results_in_submission_order() {
    let cfg = SimConfig::default().with_iterations(33).with_schedule(RemapSchedule::every(7));
    let wl = Convolution::new(ArrayDims::new(128, 16), 2, 2, 4).build();
    let mut configs = BalanceConfig::all();
    configs.reverse();

    let full = run_configs_analytic(&wl, &configs, cfg, 3);
    let order: Vec<_> = full.iter().map(|r| r.config).collect();
    assert_eq!(order, configs, "run_configs_analytic results out of submission order");
    let mapped = map_configs_analytic(&wl, &configs, cfg, 3, |r| r);
    let order: Vec<_> = mapped.iter().map(|r| r.config).collect();
    assert_eq!(order, configs, "map_configs_analytic results out of submission order");
    let dims = wl.trace().dims();
    for (a, b) in full.iter().zip(&mapped) {
        assert_eq!((a.config, a.iterations), (b.config, b.iterations));
        assert_eq!(a.steps_per_iteration, b.steps_per_iteration);
        assert_eq!(a.wear.total_reads(), b.wear.total_reads(), "{}", a.config);
        for row in 0..dims.rows() {
            assert_eq!(a.wear.row_writes(row), b.wear.row_writes(row), "{} row {row}", a.config);
        }
    }

    let reduced = map_configs_analytic(&wl, &configs, cfg, 3, |r| (r.config, r.wear.max_writes()));
    let expected: Vec<_> = full.iter().map(|r| (r.config, r.wear.max_writes())).collect();
    assert_eq!(reduced, expected);
}

/// Asserts the analytic engine equals per-iteration step replay cell by
/// cell at each of `ns`, querying one engine in ascending order.
fn assert_matches_step_replay(wl: &Workload, cfg: SimConfig, balance: BalanceConfig, ns: &[u64]) {
    let mut engine = AnalyticWearEngine::new(wl, balance, cfg);
    let path = engine.path();
    let label = wl.name();
    for &n in ns {
        let analytic = engine.wear_at(n);
        let replayed = EnduranceSimulator::new(cfg.with_iterations(n)).run(wl, balance);
        let dims = wl.trace().dims();
        for row in 0..dims.rows() {
            for lane in 0..dims.lanes() {
                assert_eq!(
                    (analytic.writes_at(row, lane), analytic.reads_at(row, lane)),
                    (replayed.wear.writes_at(row, lane), replayed.wear.reads_at(row, lane)),
                    "{label} {balance} [{path}] n={n}: wear diverges at ({row},{lane})"
                );
            }
        }
    }
}

/// Byte-shifting over 1024 addresses (1023 beside the `Hw` spare row) has
/// period ⌈1024/8⌉ = 128, the longest table cycle of the paper's geometry.
/// With a remap period of 2, 201 iterations end mid-epoch before any
/// super-cycle completes (q = 0), 600 end on an epoch boundary after two
/// 128-epoch super-cycles (q > 0), and 1601 end mid-epoch after several
/// super-cycles of every configuration here (q > 0 with a partial epoch).
const BS128_COUNTS: [u64; 3] = [201, 600, 1601];

#[test]
fn byte_shift_rows_at_period_128_match_step_replay() {
    let cfg = SimConfig::default().with_schedule(RemapSchedule::every(2)).with_read_tracking(true);
    let workloads = [
        ParallelMul::new(ArrayDims::new(1024, 8), 8).build(),
        DotProduct::new(ArrayDims::new(1024, 8), 8, 4).build(),
    ];
    for wl in &workloads {
        for name in ["BsxSt", "BsxBs", "BsxSt+Hw", "BsxBs+Hw", "RaxBs", "BsxRa"] {
            let balance: BalanceConfig = name.parse().unwrap();
            assert_matches_step_replay(wl, cfg, balance, &BS128_COUNTS);
        }
    }
}

#[test]
fn byte_shift_lanes_at_period_128_match_step_replay() {
    let cfg = SimConfig::default().with_schedule(RemapSchedule::every(2)).with_read_tracking(true);
    let workloads = [
        ParallelMul::new(ArrayDims::new(24, 1024), 2).build(),
        DotProduct::new(ArrayDims::new(64, 1024), 16, 2).build(),
    ];
    for wl in &workloads {
        for name in ["StxBs", "BsxBs", "StxBs+Hw", "BsxBs+Hw", "RaxBs", "BsxRa"] {
            let balance: BalanceConfig = name.parse().unwrap();
            assert_matches_step_replay(wl, cfg, balance, &BS128_COUNTS);
        }
    }
}

#[test]
fn multi_class_lazy_grouping_matches_step_replay() {
    // Several lane classes per workload, so epochs grouped by lane set
    // (RaxSt, RaxBs) and by row phase (StxRa, BsxRa) each merge many
    // distinct keys, including repeat visits to a key across epochs.
    let cfg = SimConfig::default().with_schedule(RemapSchedule::every(3)).with_read_tracking(true);
    let workloads = [
        DotProduct::new(ArrayDims::new(256, 16), 16, 4).build(),
        Convolution::new(ArrayDims::new(128, 64), 4, 3, 4).build(),
    ];
    for wl in &workloads {
        for name in ["RaxSt", "StxRa", "RaxBs", "BsxRa", "RaxRa"] {
            let balance: BalanceConfig = name.parse().unwrap();
            assert_matches_step_replay(wl, cfg, balance, &[8, 61, 200]);
        }
    }
}

#[test]
fn epoch_series_matches_step_replay_for_every_config() {
    // Every rung samples the wear series at each epoch boundary; each
    // sample (float fields included) must equal the step-replay oracle's.
    // The narrow multi-class arrays keep most samples between threshold
    // flushes of the lazy rungs' pending row vectors; the schedules cover
    // exact boundaries, a partial final epoch, period 1, and never().
    let workloads = [
        ("mul-128x8", ParallelMul::new(ArrayDims::new(128, 8), 8).build()),
        ("dot-64x8", DotProduct::new(ArrayDims::new(64, 8), 8, 4).build()),
        ("conv-128x16", Convolution::new(ArrayDims::new(128, 16), 4, 2, 3).build()),
    ];
    let cases = [
        (20, RemapSchedule::every(4), 5),
        (40, RemapSchedule::every(3), 14),
        (9, RemapSchedule::every(1), 9),
        (17, RemapSchedule::never(), 1),
    ];
    for (label, wl) in &workloads {
        for (iterations, schedule, samples) in cases {
            let cfg = SimConfig::default()
                .with_iterations(iterations)
                .with_schedule(schedule)
                .with_read_tracking(true)
                .with_epoch_series(true);
            for balance in BalanceConfig::all() {
                let mut engine = AnalyticWearEngine::new(wl, balance, cfg);
                let path = engine.path();
                let analytic = engine.result_at(iterations);
                let replayed = EnduranceSimulator::new(cfg).run(wl, balance);
                let what = format!("{label} {balance} [{path}] n={iterations}");
                assert_eq!(replayed.series.len(), samples, "{what}");
                assert_eq!(analytic.series, replayed.series, "{what}: trajectories diverge");
                for row in 0..wl.trace().dims().rows() {
                    assert_eq!(
                        analytic.wear.row_writes(row),
                        replayed.wear.row_writes(row),
                        "{what}: row {row}"
                    );
                }
                assert_eq!(analytic.wear.total_reads(), replayed.wear.total_reads(), "{what}");
            }
        }
    }
}

#[test]
fn paper_matrix_classifies_24_closed_21_lazy_9_fallback() {
    let schedule = RemapSchedule::every(100);
    let cfg = SimConfig::paper().with_schedule(schedule);
    let workloads =
        [ParallelMul::paper().build(), Convolution::paper().build(), DotProduct::paper().build()];
    let mut counts = std::collections::BTreeMap::new();
    for wl in &workloads {
        assert_eq!(wl.trace().dims(), ArrayDims::new(1024, 1024));
        for balance in BalanceConfig::all() {
            let path = classify(balance, schedule);
            assert_eq!(path, AnalyticWearEngine::new(wl, balance, cfg).path(), "{balance}");
            *counts.entry(path.label()).or_insert(0) += 1;
        }
    }
    let counts: Vec<_> = counts.into_iter().collect();
    assert_eq!(counts, [("closed_form", 24), ("fallback", 9), ("lazy", 21)]);
}

#[test]
fn hw_closed_form_compiles_only_the_kernels_a_query_reaches() {
    // Byte-shifted rows beside the spare row cycle through 128 tables. A
    // 20-epoch query compiles the 20 kernels it uses; one spanning whole
    // super-cycles needs all 128, and no more. The closed form (`Bs`
    // lanes) and the lazy rung (`Ra` lanes) both memoize per row phase.
    let wl = ParallelMul::new(ArrayDims::new(1024, 8), 8).build();
    let cfg = SimConfig::default().with_schedule(RemapSchedule::every(100));
    for (name, path) in [("BsxBs+Hw", AnalyticPath::ClosedForm), ("BsxRa+Hw", AnalyticPath::Lazy)] {
        let balance: BalanceConfig = name.parse().unwrap();
        let mut engine = AnalyticWearEngine::new(&wl, balance, cfg);
        assert_eq!(engine.path(), path, "{balance}");
        let observer = Observer::collecting();
        let compiles = || observer.snapshot().counter("sim.kernel_compiles");
        let _ = engine.result_at_with(2_000, &observer);
        assert_eq!(compiles(), Some(20), "{balance}");
        let _ = engine.result_at_with(30_000, &observer);
        assert_eq!(compiles(), Some(128), "{balance}");
    }
}

/// Deterministic LCG over shapes, schedules, read tracking, seeds, and
/// configurations: every sampled cell's analytic wear map must equal the
/// simulator's.
#[test]
fn fuzzed_cells_match_the_simulator() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let configs = BalanceConfig::all();
    for trial in 0..12 {
        let rows = 128 << (next() % 2); // 128, 256
        let lanes = 4 << (next() % 3); // 4, 8, 16
        let width = 4 + (next() % 5) as usize; // 4..=8-bit operands
        let iterations = 1 + next() % 40;
        let period = 1 + next() % 12;
        let balance = configs[(next() % configs.len() as u64) as usize];
        // An unused draw, so the trials keep sampling the same cells.
        let _ = next();
        let dims = ArrayDims::new(rows as usize, lanes as usize);
        let wl: Workload = if next() % 2 == 0 {
            ParallelMul::new(dims, width).build()
        } else {
            // DotProduct needs a power-of-two element count ≤ lane count.
            let elements = if lanes >= 8 && next() % 2 == 1 { 8 } else { 4 };
            DotProduct::new(dims, elements, 8).build()
        };
        let cfg = SimConfig::paper()
            .with_iterations(iterations)
            .with_schedule(RemapSchedule::every(period))
            .with_read_tracking(next() % 2 == 0)
            .with_seed(next());
        let label = format!("trial {trial}: {balance} {rows}x{lanes} i={iterations} p={period}");

        let mut engine = AnalyticWearEngine::new(&wl, balance, cfg);
        let analytic = engine.wear_at(cfg.iterations);
        let simulated = EnduranceSimulator::new(cfg).run(&wl, balance).wear;
        for row in 0..dims.rows() {
            for lane in 0..dims.lanes() {
                assert_eq!(
                    (analytic.writes_at(row, lane), analytic.reads_at(row, lane)),
                    (simulated.writes_at(row, lane), simulated.reads_at(row, lane)),
                    "{label} [{}]: wear diverges at ({row},{lane})",
                    engine.path()
                );
            }
        }
    }
}
