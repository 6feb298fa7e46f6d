//! Sweep memory technologies × balancing strategies and print a lifetime
//! matrix — the §3.1/§5 analysis as an interactive table.
//!
//! Run with: `cargo run --release --example lifetime_explorer`

use nvpim::core::{limits, report};
use nvpim::prelude::*;

fn main() {
    // Closed-form §3.1 bounds first (Eq. 1 and Eq. 2).
    println!("closed-form upper bounds, 1024x1024 array, perfect balancing:");
    for bound in limits::technology_bounds() {
        println!(
            "  {:<9} endurance {:>6.0e}: {:>10} 32-bit multiplies, total failure after {}",
            bound.technology.to_string(),
            bound.endurance as f64,
            report::fmt_value(bound.max_multiplications),
            human_time(bound.seconds_to_failure),
        );
    }

    // Simulated first-cell-failure lifetimes (Eq. 4) per strategy.
    let dims = ArrayDims::new(512, 128);
    let workload = DotProduct::new(dims, 128, 16).build();
    let cfg = SimConfig::default().with_iterations(nvpim::example_iterations(2_000));
    let run = |config| AnalyticWearEngine::new(&workload, config, cfg).result_at(cfg.iterations);
    let baseline = run(BalanceConfig::baseline());

    println!("\nsimulated lifetime of `{}` (first cell failure):", workload.name());
    let mut rows = Vec::new();
    for config in BalanceConfig::all() {
        let result = run(config);
        let mut row = vec![config.to_string()];
        for tech in [Technology::Mram, Technology::Rram, Technology::Pcm] {
            let model = LifetimeModel::for_technology(tech);
            row.push(human_time(model.lifetime(&result).seconds));
        }
        let model = LifetimeModel::mtj();
        row.push(format!("{:.2}x", model.improvement(&result, &baseline)));
        rows.push(row);
    }
    println!("{}", report::text_table(&["config", "MRAM", "RRAM", "PCM", "vs StxSt"], &rows));
}

fn human_time(seconds: f64) -> String {
    if seconds < 60.0 {
        format!("{seconds:.1}s")
    } else if seconds < 3_600.0 {
        format!("{:.1}min", seconds / 60.0)
    } else if seconds < 86_400.0 {
        format!("{:.1}h", seconds / 3_600.0)
    } else if seconds < 86_400.0 * 365.25 {
        format!("{:.1}d", seconds / 86_400.0)
    } else {
        format!("{:.1}y", seconds / (86_400.0 * 365.25))
    }
}
