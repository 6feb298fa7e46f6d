//! # nvpim — endurance of processing in (nonvolatile) memory
//!
//! A from-scratch Rust reproduction of *"On Endurance of Processing in
//! (Nonvolatile) Memory"* (Resch et al., ISCA 2023): an instruction-level
//! endurance simulator for digital processing-in-memory (PIM) arrays built
//! on nonvolatile memories, together with the paper's workloads,
//! load-balancing strategies, and lifetime analyses.
//!
//! The workspace is layered; this facade re-exports every layer:
//!
//! * [`nvm`] — device technologies (MRAM, RRAM, PCM): endurance, timing,
//!   energy;
//! * [`logic`] — gate-level synthesis of arithmetic (NAND adders, the
//!   paper's DADDA-count multiplier, comparators);
//! * [`array`](mod@array) — the PIM array model: lanes, wear maps, execution semantics;
//! * [`balance`] — load-balancing strategies (`St`/`Ra`/`Bs` × rows/columns,
//!   hardware re-mapping, access-aware shuffling);
//! * [`workloads`] — parallel multiplication, dot-product, convolution;
//! * [`core`] — the endurance simulator, lifetime model (Eq. 4),
//!   closed-form limits (Eqs. 1–2), and failed-cell analysis;
//! * [`obs`] — zero-dependency observability: metrics, span timers, event
//!   sinks, and diffable run manifests (see the `observed_run` example).
//!
//! # Quickstart
//!
//! ```
//! use nvpim::prelude::*;
//!
//! // A small array so the example runs fast; the paper uses 1024×1024.
//! let workload = ParallelMul::new(ArrayDims::new(256, 32), 8).build();
//! let cfg = SimConfig::default();
//! let run = |config| AnalyticWearEngine::new(&workload, config, cfg).result_at(500);
//!
//! let baseline = run(BalanceConfig::baseline());
//! let balanced = run("RaxSt+Hw".parse()?);
//!
//! let model = LifetimeModel::mtj();
//! println!(
//!     "lifetime {:.2e} iterations, {:.2}x over StxSt",
//!     model.lifetime(&balanced).iterations,
//!     model.improvement(&balanced, &baseline),
//! );
//! # Ok::<(), nvpim::balance::ParseConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nvpim_array as array;
pub use nvpim_balance as balance;
pub use nvpim_check as check;
pub use nvpim_core as core;
pub use nvpim_exec as exec;
pub use nvpim_logic as logic;
pub use nvpim_nvm as nvm;
pub use nvpim_obs as obs;
pub use nvpim_serve as serve;
pub use nvpim_workloads as workloads;

/// Iteration count for examples: the `NVPIM_EXAMPLE_ITERS` environment
/// variable overrides `default` when set to a positive integer, so CI can
/// smoke-run every example at a tiny scale without touching the sources.
#[must_use]
pub fn example_iterations(default: u64) -> u64 {
    std::env::var("NVPIM_EXAMPLE_ITERS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use nvpim_array::{ArchStyle, ArrayDims, LaneSet, PimArray, WearMap};
    pub use nvpim_balance::{BalanceConfig, RemapSchedule, Strategy};
    pub use nvpim_core::{
        AnalyticWearEngine, EnduranceSimulator, Lifetime, LifetimeModel, SimConfig, SimResult,
    };
    pub use nvpim_logic::{circuits, words, CircuitBuilder, GateKind};
    pub use nvpim_nvm::{DeviceParams, EnduranceModel, Technology};
    pub use nvpim_obs::{EventSink, Observer, RunManifest};
    pub use nvpim_workloads::convolution::Convolution;
    pub use nvpim_workloads::dot_product::DotProduct;
    pub use nvpim_workloads::parallel_mul::ParallelMul;
    pub use nvpim_workloads::{Workload, WorkloadBuilder};
}
