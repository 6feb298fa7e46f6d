//! Build your own PIM kernel with `WorkloadBuilder` and characterize its
//! endurance — the workflow a downstream user follows for a workload the
//! paper didn't study.
//!
//! The kernel here is a fused multiply-accumulate with saturation check,
//! `flag = (a*b + c >= threshold)`, split over pairs of lanes: even lanes
//! multiply, odd lanes receive the product, add their own `c`, and compare.
//!
//! Run with: `cargo run --release --example custom_workload`

use nvpim::array::IdentityMap;
use nvpim::logic::circuits;
use nvpim::prelude::*;

const WIDTH: usize = 8;
const THRESHOLD: u64 = 17_000;

fn build_kernel(dims: ArrayDims) -> Workload {
    let lanes = dims.lanes();
    let mut wb = WorkloadBuilder::new(dims);
    let all = wb.add_class(LaneSet::full(lanes));
    let evens = wb.add_class(LaneSet::from_pred(lanes, |l| l % 2 == 0));
    let odds = wb.add_class(LaneSet::from_pred(lanes, |l| l % 2 == 1));

    // Every lane loads its operands; even lanes hold (a, b), odd lanes c.
    let a = wb.load_word(WIDTH, all);
    let b = wb.load_word(WIDTH, all);

    // Multiply in the even lanes only.
    let product = wb.compute(evens, |cb| circuits::multiply(cb, &a, &b));

    // Ship the 16-bit product to the neighbouring odd lanes.
    let received = wb.receive_word(&product, evens, odds);

    // Odd lanes add their own c (= their `a` word, zero-extended) and
    // threshold the result.
    let zero = wb.load_constant(false, odds);
    let c_wide = WorkloadBuilder::zero_extended(&a, received.len(), zero);
    let sum = wb.compute(odds, |cb| circuits::ripple_carry_add(cb, &received, &c_wide));
    let threshold = wb.load_const_word(THRESHOLD, sum.len(), odds);
    let flag = wb.compute(odds, |cb| circuits::greater_equal(cb, &sum, &threshold));

    wb.pin_results(&[flag], odds);
    wb.readout(&[flag], odds);
    wb.finish("fused-mac-threshold")
}

fn main() {
    let dims = ArrayDims::new(512, 64);
    let workload = build_kernel(dims);
    println!(
        "kernel `{}`: {} sequential steps/iteration, {:.1}% lane utilization, {} rows used",
        workload.name(),
        workload.steps_per_iteration(ArchStyle::PresetOutput),
        100.0 * workload.lane_utilization(ArchStyle::PresetOutput),
        workload.trace().rows_used(),
    );

    // 1. Check it actually computes what we meant, on real (simulated) cells.
    let mut array = PimArray::new(dims);
    let mut map = IdentityMap;
    // even lane 2k: a = 100 + k, b = 150; odd lane 2k+1: c = 3k.
    array.execute(workload.trace(), &mut map, &mut |lane, slot| {
        let value = if lane % 2 == 0 {
            let k = (lane / 2) as u64;
            if slot < WIDTH {
                100 + k
            } else {
                150
            }
        } else {
            let k = (lane / 2) as u64;
            if slot < WIDTH {
                3 * k
            } else {
                0
            }
        };
        (value >> (slot % WIDTH)) & 1 == 1
    });
    let mut flips = 0;
    for k in 0..dims.lanes() / 2 {
        let expect = (100 + k as u64) * 150 + 3 * k as u64 >= THRESHOLD;
        let got = array.bit(workload.result_rows()[0], 2 * k + 1, &map);
        assert_eq!(got, expect, "pair {k}");
        if k > 0 {
            let prev = (100 + k as u64 - 1) * 150 + 3 * (k as u64 - 1) >= THRESHOLD;
            flips += usize::from(prev != expect);
        }
    }
    println!("functional check passed (threshold crossover observed {flips} time(s))");

    // 2. Characterize its endurance like the paper would.
    let cfg = SimConfig::default().with_iterations(nvpim::example_iterations(1_000));
    let run = |config| AnalyticWearEngine::new(&workload, config, cfg).result_at(cfg.iterations);
    let model = LifetimeModel::mtj();
    let baseline = run(BalanceConfig::baseline());
    println!(
        "\nStxSt lifetime: {:.2e} iterations ({:.1} days)",
        model.lifetime(&baseline).iterations,
        model.lifetime(&baseline).days()
    );
    for config in ["RaxSt", "StxRa", "RaxRa", "RaxRa+Hw"] {
        let result = run(config.parse().unwrap());
        println!("{config:>9}: {:.2}x", model.improvement(&result, &baseline));
    }
    println!(
        "\n(odd lanes do the reduction work here, so — unlike the paper's\n\
              multiplication — this kernel benefits from column balancing too)"
    );
}
