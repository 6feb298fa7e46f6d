//! Observability walkthrough: answer one configuration through the
//! analytic engine into an aggregating observer, then dump the aggregated
//! metrics, per-phase timings, and a diffable `RunManifest` artifact.
//!
//! Run with: `cargo run --release --example observed_run`

use nvpim::obs::Json;
use nvpim::prelude::*;

fn main() {
    // An Observer aggregates the counters, phase timings and series the
    // engine books. Passing `NullSink` instead would compile the whole
    // instrumentation path away.
    let observer = Observer::collecting();

    let dims = ArrayDims::new(1024, 256);
    let workload = ParallelMul::new(dims, 32).build();
    let cfg = SimConfig::default().with_iterations(nvpim::example_iterations(2_000));
    let balance: BalanceConfig = "RaxSt+Hw".parse().expect("valid config");
    let mut engine = AnalyticWearEngine::new(&workload, balance, cfg);
    let result = engine.result_at_with(cfg.iterations, &observer);

    // Everything the run reported is now queryable.
    let snapshot = observer.snapshot();
    println!("\naggregated metrics:");
    for name in ["sim.iterations", "sim.kernel_compiles", "balance.remap_events"] {
        println!("  {name:<24} {}", snapshot.counter(name).unwrap_or(0));
    }
    println!("\nphase timings:");
    for (phase, stat) in observer.spans().report() {
        println!("  {phase:<24} {:>8.2} ms over {} spans", stat.total_ns as f64 / 1e6, stat.count);
    }

    // The RunManifest bundles config, environment, timings, and metrics
    // into one deterministic JSON document. `render_stable()` zeroes the
    // timing fields, so two equal-config equal-seed runs diff clean.
    let manifest = RunManifest::new(workload.name())
        .with_config(
            Json::object()
                .with("config", balance.to_string())
                .with("iterations", cfg.iterations)
                .with("rows", dims.rows())
                .with("lanes", dims.lanes())
                .with("seed", cfg.seed),
        )
        .with_lifetime(
            Json::object()
                .with("total_writes", result.total_writes())
                .with("max_writes_per_iteration", result.max_writes_per_iteration()),
        )
        .with_observer(&observer);

    let path = std::env::temp_dir().join("nvpim-observed-run.json");
    std::fs::write(&path, manifest.render()).expect("write manifest");
    println!("\nmanifest written to {}", path.display());
    println!("stable (diffable) form:\n{}", manifest.render_stable());
}
