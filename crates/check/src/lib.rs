//! # nvpim-check — static verification for the nvpim stack
//!
//! The simulator's headline claim — every write to every memory cell is
//! counted — rests on invariants nothing used to *prove*: SSA discipline
//! in gate netlists, bijectivity of every remap permutation, and exact
//! conservation between issued writes and wear-map totals. This crate
//! checks those properties statically (no functional evaluation on the
//! netlist side, bounded exhaustive sweeps on the mapping side) and ships
//! them as a library, so tests, the `repro check` mode, and the
//! `nvpim-lint` binary all run the same passes.
//!
//! Four pass families:
//!
//! - [`netlist`] — per-circuit SSA/liveness verification plus closed-form
//!   cost-formula cross-checks (§3.2 of the paper);
//! - [`equiv`] — formal combinational equivalence: every library circuit
//!   is run through the wear-minimizing optimizer
//!   (`nvpim_logic::opt`) with the checker as the mandatory gate between
//!   passes, proved equivalent end-to-end, re-verified dead-gate-free, and
//!   cross-checked against the §3.1/§3.2 cost formulas ([`wearcost`]);
//! - [`mapping`] — bijectivity of every [`nvpim_balance`] translation
//!   layer at every epoch boundary, including the cached `row_table` fast
//!   path and the aliasing-prone `LaneSet::permuted_into` scatter;
//! - [`conservation`] — wear-map totals tied to the trace's static counts
//!   through both simulator arms.
//!
//! [`driver::run_all`] orchestrates everything and aggregates a
//! [`Report`]; a non-empty [`Report::findings`] means the tree is broken.
//!
//! ```
//! use nvpim_check::driver::{run_all, CheckOptions};
//!
//! let opts = CheckOptions { widths: vec![4], conservation_iters: 2, ..Default::default() };
//! let report = run_all(&opts);
//! assert!(report.is_clean(), "{}", report.render_summary());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conservation;
pub mod driver;
pub mod equiv;
pub mod finding;
pub mod mapping;
pub mod netlist;
pub mod wearcost;

pub use driver::{run_all, CheckOptions};
pub use finding::{Finding, Report};

/// A named verification pass over some subject universe.
///
/// The four built-in families ([`netlist`], [`equiv`], [`mapping`],
/// [`conservation`]) are exposed as free functions for precise targeting;
/// this trait is the uniform surface the driver and external tooling can
/// iterate over.
pub trait Pass {
    /// Short stable name (`netlist`, `equiv`, `mapping`, `conservation`).
    fn name(&self) -> &'static str;

    /// One-line description of what the pass proves.
    fn description(&self) -> &'static str;

    /// Runs the pass with `opts`, appending findings/notes to `report`.
    fn run(&self, opts: &CheckOptions, report: &mut Report);
}

/// The netlist pass as a [`Pass`] object.
pub struct NetlistPass;

/// The equivalence/optimization pass as a [`Pass`] object.
pub struct EquivPass;

/// The mapping pass as a [`Pass`] object.
pub struct MappingPass;

/// The conservation pass as a [`Pass`] object.
pub struct ConservationPass;

impl Pass for NetlistPass {
    fn name(&self) -> &'static str {
        "netlist"
    }

    fn description(&self) -> &'static str {
        "SSA/liveness discipline and cost-formula consistency of every library circuit"
    }

    fn run(&self, opts: &CheckOptions, report: &mut Report) {
        driver::run_netlist_pass(opts, report);
    }
}

impl Pass for EquivPass {
    fn name(&self) -> &'static str {
        "equiv"
    }

    fn description(&self) -> &'static str {
        "formal equivalence of optimized circuits, with zero-allowance netlists and cost cross-checks"
    }

    fn run(&self, opts: &CheckOptions, report: &mut Report) {
        let _ = driver::run_equiv_pass(opts, report);
    }
}

impl Pass for MappingPass {
    fn name(&self) -> &'static str {
        "mapping"
    }

    fn description(&self) -> &'static str {
        "bijectivity of every translation layer at every epoch boundary"
    }

    fn run(&self, opts: &CheckOptions, report: &mut Report) {
        driver::run_mapping_pass(opts, report);
    }
}

impl Pass for ConservationPass {
    fn name(&self) -> &'static str {
        "conservation"
    }

    fn description(&self) -> &'static str {
        "wear-map totals conserved against trace counts through both simulator arms"
    }

    fn run(&self, opts: &CheckOptions, report: &mut Report) {
        driver::run_conservation_pass(opts, report);
    }
}

/// All built-in passes, in execution order.
#[must_use]
pub fn all_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(NetlistPass),
        Box::new(EquivPass),
        Box::new(MappingPass),
        Box::new(ConservationPass),
    ]
}
