//! # nvpim-exec — deterministic parallel execution for the nvpim stack
//!
//! The paper's headline figures each require simulating a workload under
//! every balancing configuration, architecture style, and re-mapping period
//! — an embarrassingly parallel matrix of completely independent jobs. This
//! crate provides the scale-out machinery, built on nothing but `std`:
//!
//! - [`JobPool`]: a scoped-thread worker pool (`std::thread::scope` plus a
//!   shared work queue) whose width honors
//!   [`std::thread::available_parallelism`] with an `NVPIM_THREADS`
//!   environment override. [`JobPool::map`] fans a job list out across the
//!   workers and returns the results **in submission order**, so a parallel
//!   run is bit-identical to the serial loop it replaces regardless of
//!   worker scheduling;
//! - [`TaskQueue`]: the service-shaped complement — persistent workers over
//!   a *bounded* submission queue with fail-fast overflow (backpressure)
//!   and a graceful drain, used by the `nvpim-serve` HTTP front end.
//!
//! Determinism is the design constraint: every job owns its inputs, no job
//! observes another's timing, and results land in pre-assigned slots. A
//! panicking job propagates to the caller when the scope joins, exactly like
//! a panic in the serial loop.
//!
//! ## Example
//!
//! ```
//! use nvpim_exec::JobPool;
//!
//! let pool = JobPool::new(4);
//! let squares = pool.map((0u64..8).collect(), |x| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod queue;

pub use pool::{
    available_threads, invalid_env_rejections, machine_parallelism, validate_threads, JobPool,
};
pub use queue::{SubmitError, TaskQueue};
