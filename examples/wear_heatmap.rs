//! Visualize where writes land in a PIM array under different balancing
//! strategies — the ASCII version of the paper's Figs. 14–16 heatmaps.
//!
//! Run with: `cargo run --release --example wear_heatmap [config] [workload]`
//! where `config` is e.g. `StxSt`, `RaxBs`, `StxSt+Hw` and `workload` is
//! `mul`, `dot`, or `conv`.

use nvpim::core::report;
use nvpim::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let config: BalanceConfig = args
        .get(1)
        .map(|s| s.parse().expect("invalid config; try StxSt, RaxBs, RaxRa+Hw ..."))
        .unwrap_or_else(BalanceConfig::baseline);
    let which = args.get(2).map(String::as_str).unwrap_or("dot");

    // A 256×256 array keeps the example under a few seconds.
    let dims = ArrayDims::new(256, 256);
    let workload = match which {
        "mul" => ParallelMul::new(dims, 32).build(),
        "dot" => DotProduct::new(dims, 256, 16).build(),
        "conv" => Convolution::new(dims, 4, 3, 8).build(),
        other => panic!("unknown workload `{other}` (expected mul, dot, conv)"),
    };

    let cfg = SimConfig::default().with_iterations(nvpim::example_iterations(1_000));
    let result = AnalyticWearEngine::new(&workload, config, cfg).result_at(cfg.iterations);

    println!(
        "{} under {config}: total {} writes, hottest cell {} ({}x the mean), gini {:.3}",
        workload.name(),
        result.wear.total_writes(),
        result.wear.max_writes(),
        report::fmt_value(result.wear.imbalance()),
        result.wear.gini(),
    );
    println!("rows ↓ (cells within a lane), lanes → (columns):\n");
    println!("{}", report::ascii_heatmap(&result.wear, 48, 96));
    println!("\ntry other configs, e.g.:");
    println!("  cargo run --release --example wear_heatmap RaxRa dot");
    println!("  cargo run --release --example wear_heatmap StxSt+Hw mul");
}
