//! Quickstart: estimate how long a nonvolatile PIM array survives a
//! workload, and how much load balancing buys.
//!
//! Run with: `cargo run --release --example quickstart`

use nvpim::prelude::*;

fn main() {
    // A PIM array performing one 32-bit multiplication per lane, repeatedly.
    // (256 lanes instead of the paper's 1024 so the example finishes in a
    // couple of seconds; pass the paper's dims for the full-scale run.)
    let dims = ArrayDims::new(1024, 256);
    let workload = ParallelMul::new(dims, 32).build();
    println!(
        "workload: {} ({} rows of each lane in use)",
        workload.name(),
        workload.trace().rows_used()
    );

    // Wear after 2 000 iterations under the paper's default settings
    // (preset-output gates, re-compilation every 100 iterations), answered
    // by the replay-free analytic engine — bit-identical to replaying them.
    let cfg = SimConfig::default().with_iterations(nvpim::example_iterations(2_000));
    let run = |config| AnalyticWearEngine::new(&workload, config, cfg).result_at(cfg.iterations);
    let model = LifetimeModel::mtj(); // 10^12-write MTJs, 3 ns/op

    let baseline = run(BalanceConfig::baseline());
    let lt = model.lifetime(&baseline);
    println!("\nStxSt (no balancing):");
    println!("  hottest cell        : {:.1} writes/iteration", baseline.max_writes_per_iteration());
    println!("  expected lifetime   : {:.3e} iterations = {:.1} days", lt.iterations, lt.days());

    // Try every strategy combination and report the best.
    let mut best: Option<(BalanceConfig, f64)> = None;
    for config in BalanceConfig::all() {
        let result = run(config);
        let improvement = model.improvement(&result, &baseline);
        if best.map_or(true, |(_, b)| improvement > b) {
            best = Some((config, improvement));
        }
    }
    let (config, improvement) = best.expect("configs nonempty");
    println!("\nbest strategy: {config} -> {improvement:.2}x lifetime improvement");
    println!("(the paper's Fig. 17a/Table 3 report ~1.6x for this workload at full scale)");
}
