//! Bit-identity of the analytic engine's compiled wear-kernel paths.
//!
//! On `+Hw` configurations the engine compiles one symbolic trace walk per
//! software row table and folds whole epochs over the resulting slot
//! permutation. These tests pin it against the reference oracle — the
//! simulator's per-iteration step replay — cell by cell, writes and reads,
//! across every balancing configuration, multiple geometries, partial
//! final epochs, long never-remap spans (the `q > 0` cycle-power fold),
//! period-1 recompiles, and randomized redirect-storm parameters. Narrow
//! multi-class arrays drive the row-vector flush rule (keys overflowing the
//! lane count mid-run) through monotone and backwards queries.
//! `scripts/ci.sh` runs them in release mode.

use nvpim_array::{ArrayDims, WearMap};
use nvpim_balance::{BalanceConfig, RemapSchedule};
use nvpim_core::analytic::AnalyticWearEngine;
use nvpim_core::{EnduranceSimulator, SimConfig};
use nvpim_workloads::convolution::Convolution;
use nvpim_workloads::dot_product::DotProduct;
use nvpim_workloads::parallel_mul::ParallelMul;
use nvpim_workloads::Workload;

/// Asserts the analytic engine's answer equals the step-replay run cell by
/// cell.
fn assert_bit_identical(wl: &Workload, cfg: SimConfig, balance: BalanceConfig, label: &str) {
    let compiled = AnalyticWearEngine::new(wl, balance, cfg).result_at(cfg.iterations);
    let replayed = EnduranceSimulator::new(cfg).run(wl, balance);
    let dims = wl.trace().dims();
    for row in 0..dims.rows() {
        for lane in 0..dims.lanes() {
            assert_eq!(
                compiled.wear.writes_at(row, lane),
                replayed.wear.writes_at(row, lane),
                "{label} {balance}: writes diverge at ({row},{lane})"
            );
            assert_eq!(
                compiled.wear.reads_at(row, lane),
                replayed.wear.reads_at(row, lane),
                "{label} {balance}: reads diverge at ({row},{lane})"
            );
        }
    }
}

#[test]
fn compiled_paths_match_step_replay_for_every_config_at_two_geometries() {
    // 23 iterations over a period of 7: three full epochs plus a partial
    // final epoch of 2, so span handling is exercised at both lengths.
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
            assert_bit_identical(wl, cfg, balance, label);
        }
    }
}

#[test]
fn long_never_remap_span_exercises_the_cycle_power_fold() {
    // One epoch of 200 iterations: the fold's whole-cycle quotient (q > 0)
    // dominates and the arrangement is advanced by a span far longer than
    // any cycle of the end permutation.
    let cfg = SimConfig::default()
        .with_iterations(200)
        .with_schedule(RemapSchedule::never())
        .with_read_tracking(true);
    let wl = ParallelMul::new(ArrayDims::new(128, 8), 8).build();
    for config in ["StxSt+Hw", "RaxSt+Hw", "StxBs+Hw"] {
        assert_bit_identical(&wl, cfg, config.parse().unwrap(), "never-remap");
    }
}

#[test]
fn per_iteration_remapping_recompiles_without_divergence() {
    // period 1 under Ra rows: a fresh software table — and thus a kernel
    // recompile — every single iteration. The fallback rung degenerates to
    // one trace walk per iteration and must still match exactly.
    let cfg = SimConfig::default()
        .with_iterations(9)
        .with_schedule(RemapSchedule::every(1))
        .with_read_tracking(true);
    let wl = ParallelMul::new(ArrayDims::new(128, 8), 8).build();
    for config in ["RaxRa+Hw", "BsxBs+Hw"] {
        assert_bit_identical(&wl, cfg, config.parse().unwrap(), "period-1");
    }
}

#[test]
fn randomized_redirect_storms_stay_bit_identical() {
    // Parameter fuzz across geometry, workload width, schedule, seed, and
    // every Hw configuration. Each case replays enough iterations that the
    // renaming arrangement churns through many redirect storms.
    let hw_configs = [
        "StxSt+Hw", "StxRa+Hw", "StxBs+Hw", "RaxSt+Hw", "RaxRa+Hw", "RaxBs+Hw", "BsxSt+Hw",
        "BsxRa+Hw", "BsxBs+Hw",
    ];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for case in 0..20u64 {
        let rows = [96usize, 128, 160, 257][(rand() % 4) as usize];
        let lanes = [4usize, 8, 16][(rand() % 3) as usize];
        // A 16-bit multiply needs more workspace rows than the small arrays
        // provide; keep the width within each geometry's budget.
        let width = if rows >= 256 && rand() % 2 == 0 { 16 } else { 8 };
        let wl = ParallelMul::new(ArrayDims::new(rows, lanes), width).without_readout().build();
        let schedule = match rand() % 5 {
            0 => RemapSchedule::never(),
            n => RemapSchedule::every(n),
        };
        let cfg = SimConfig::default()
            .with_iterations(10 + rand() % 30)
            .with_schedule(schedule)
            .with_seed(rand())
            .with_read_tracking(rand() % 2 == 0);
        let balance = hw_configs[(rand() % hw_configs.len() as u64) as usize];
        assert_bit_identical(
            &wl,
            cfg,
            balance.parse().unwrap(),
            &format!("fuzz case {case} ({rows}x{lanes} w{width})"),
        );
    }
}

/// Narrow arrays with at least four lane classes: under `Ra` lanes every
/// epoch interns fresh partial-width lane sets, so the pending keys reach
/// the lane count within a few epochs and flush mid-run.
fn narrow_multi_class() -> [(&'static str, Workload); 2] {
    let workloads = [
        ("dot-64x8", DotProduct::new(ArrayDims::new(64, 8), 8, 4).build()),
        ("conv-128x16", Convolution::new(ArrayDims::new(128, 16), 4, 2, 3).build()),
    ];
    for (label, wl) in &workloads {
        assert!(wl.trace().classes().len() >= 4, "{label}: too few lane classes");
    }
    workloads
}

fn assert_same_wear(a: &WearMap, b: &WearMap, what: &str) {
    let dims = a.dims();
    for row in 0..dims.rows() {
        for lane in 0..dims.lanes() {
            assert_eq!(
                (a.writes_at(row, lane), a.reads_at(row, lane)),
                (b.writes_at(row, lane), b.reads_at(row, lane)),
                "{what}: wear diverges at ({row},{lane})"
            );
        }
    }
}

#[test]
fn row_vector_flushes_match_analytic_and_step_replay_on_narrow_arrays() {
    // Queries at 0, mid-epoch, two monotone follow-ups (the second long
    // enough to overflow the keys many times), then a backwards restart.
    let cfg = SimConfig::default().with_schedule(RemapSchedule::every(3)).with_read_tracking(true);
    for (label, wl) in &narrow_multi_class() {
        for name in ["RaxRa+Hw", "StxRa+Hw", "BsxRa+Hw", "RaxBs+Hw", "RaxRa"] {
            let balance: BalanceConfig = name.parse().unwrap();
            let mut engine = AnalyticWearEngine::new(wl, balance, cfg);
            for n in [0, 31, 32, 121, 17] {
                let what = format!("{label} {balance} n={n}");
                let analytic = engine.wear_at(n);
                let replayed = EnduranceSimulator::new(cfg.with_iterations(n)).run(wl, balance);
                assert_same_wear(&analytic, &replayed.wear, &what);
            }
        }
    }
}
