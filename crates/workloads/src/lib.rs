//! Representative PIM workloads and their lane-level data layout.
//!
//! §4 of the paper picks three case studies spanning the extremes of what a
//! single PIM array computes:
//!
//! * [`parallel_mul`] — embarrassingly parallel 32-bit multiplication (the
//!   ideal case: every lane independent, full utilization);
//! * [`dot_product`] — 1024-element dot-product (the non-ideal case: a
//!   logarithmic reduction forces inter-lane transfers and concentrates work
//!   in low-address lanes);
//! * [`convolution`] — 2-D convolution with a 4×3 filter over 16×16 neurons
//!   at 8-bit precision with a comparison non-linearity (the middle ground);
//! * [`bnn_layer`] — an extension: the fully binarized XNOR-popcount layer
//!   of the Pimball-style accelerators the paper cites;
//! * [`matvec`] — an extension: chained dot-products forming the
//!   matrix–vector offload §4 names for embedded ML.
//!
//! Workloads are assembled with [`WorkloadBuilder`], which interleaves
//! synthesized circuits ([`nvpim_logic`]) with input loads, inter-lane
//! transfers, and per-step lane activity, then performs the paper's
//! logical-bit-to-cell layout: input/output bits get dedicated cells (Fig. 4)
//! while intermediate bits are recycled through a lowest-address-first
//! workspace — exactly the allocation that makes workspace cells the
//! endurance hot spot (Fig. 5).
//!
//! # Examples
//!
//! ```
//! use nvpim_array::ArrayDims;
//! use nvpim_workloads::parallel_mul::ParallelMul;
//! use nvpim_workloads::Workload;
//!
//! let wl = ParallelMul::new(ArrayDims::new(256, 64), 8).build();
//! assert_eq!(wl.name(), "mul8");
//! assert!(wl.trace().rows_used() <= 256);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bnn_layer;
pub mod builder;
pub mod convolution;
pub mod dot_product;
pub mod matvec;
pub mod parallel_mul;
pub mod workload;

pub use builder::{AllocPolicy, LayoutError, WorkloadBuilder};
pub use workload::Workload;
