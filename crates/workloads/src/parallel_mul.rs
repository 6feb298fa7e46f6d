//! Embarrassingly parallel multiplication — the paper's ideal workload.
//!
//! One b-bit multiplication per lane, every lane active, no inter-lane
//! communication (§4): the only endurance imbalance is the within-lane
//! workspace reuse of Fig. 5.

use nvpim_array::{ArrayDims, LaneSet};
use nvpim_logic::circuits;

use crate::{AllocPolicy, LayoutError, Workload, WorkloadBuilder};

/// Builder for the parallel-multiplication workload.
///
/// # Examples
///
/// ```
/// use nvpim_array::ArrayDims;
/// use nvpim_workloads::parallel_mul::ParallelMul;
///
/// let wl = ParallelMul::paper().build(); // 32-bit, 1024×1024 array
/// assert_eq!(wl.name(), "mul32");
/// assert_eq!(wl.result_rows().len(), 64);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ParallelMul {
    dims: ArrayDims,
    width: usize,
    readout: bool,
    policy: AllocPolicy,
}

impl ParallelMul {
    /// A parallel multiply of `width`-bit operands on the given array.
    ///
    /// # Panics
    ///
    /// Panics if `width < 2` (see [`circuits::multiply`]).
    #[must_use]
    pub fn new(dims: ArrayDims, width: usize) -> Self {
        assert!(width >= 2, "multiplication width must be at least 2");
        ParallelMul { dims, width, readout: true, policy: AllocPolicy::default() }
    }

    /// The paper's configuration: 32-bit operands on a 1024 × 1024 array.
    #[must_use]
    pub fn paper() -> Self {
        ParallelMul::new(ArrayDims::paper(), 32)
    }

    /// Disables reading the product back out (keeps the trace purely
    /// computational).
    #[must_use]
    pub fn without_readout(mut self) -> Self {
        self.readout = false;
        self
    }

    /// Selects the workspace allocation policy.
    #[must_use]
    pub fn with_alloc_policy(mut self, policy: AllocPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Operand width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Builds the workload: load A and B in every lane, multiply, read the
    /// 2b-bit product.
    ///
    /// # Panics
    ///
    /// Panics if the layout needs more cells than a lane provides.
    #[must_use]
    pub fn build(self) -> Workload {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ParallelMul::build`], with a layout that does not fit the array's rows
    /// reported as an error instead of a panic.
    ///
    /// # Errors
    ///
    /// Fails if the layout needs more cells than a lane provides.
    pub fn try_build(self) -> Result<Workload, LayoutError> {
        let mut wb = WorkloadBuilder::new(self.dims).with_alloc_policy(self.policy);
        let all = wb.add_class(LaneSet::full(self.dims.lanes()));
        let a = wb.load_word(self.width, all);
        let b = wb.load_word(self.width, all);
        let product = wb.compute(all, |cb| circuits::multiply(cb, &a, &b));
        wb.pin_results(&product, all);
        if self.readout {
            wb.readout(&product, all);
        }
        wb.try_finish(&format!("mul{}", self.width))
    }

    /// An input closure for functional execution: lane `l` multiplies
    /// `a[l] × b[l]`.
    ///
    /// # Panics
    ///
    /// The closure panics if executed on a lane outside `a`/`b`.
    pub fn inputs<'a>(&self, a: &'a [u64], b: &'a [u64]) -> impl FnMut(usize, usize) -> bool + 'a {
        let width = self.width;
        move |lane, slot| {
            if slot < width {
                (a[lane] >> slot) & 1 == 1
            } else {
                (b[lane] >> (slot - width)) & 1 == 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpim_array::{ArchStyle, IdentityMap, PimArray};

    #[test]
    fn paper_scale_counts() {
        let wl = ParallelMul::paper().without_readout().build();
        let counts = wl.trace().counts(ArchStyle::SenseAmp);
        // 9 824 gates + 64 input-row writes, each in all 1024 lanes.
        assert_eq!(counts.gate_ops, 9_824);
        assert_eq!(counts.cell_writes, (9_824 + 64) * 1024);
        assert_eq!(counts.cell_reads, 19_616 * 1024);
        assert!((wl.lane_utilization(ArchStyle::PresetOutput) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn functional_correctness_per_lane() {
        let pm = ParallelMul::new(ArrayDims::new(128, 8), 8);
        let wl = pm.build();
        let a: Vec<u64> = (0..8).map(|l| 31 * l + 7).collect();
        let b: Vec<u64> = (0..8).map(|l| 17 * l + 3).collect();
        let mut array = PimArray::new(wl.trace().dims());
        let mut map = IdentityMap;
        array.execute(wl.trace(), &mut map, &mut pm.inputs(&a, &b));
        for lane in 0..8 {
            assert_eq!(array.word(wl.result_rows(), lane, &map), a[lane] * b[lane]);
        }
    }

    #[test]
    fn workspace_fits_paper_lane() {
        let wl = ParallelMul::paper().build();
        assert!(wl.trace().rows_used() <= 1024);
        // Inputs (64) + outputs (64) + live workspace.
        assert!(wl.trace().rows_used() >= 128);
    }

    #[test]
    fn readout_toggle_changes_step_count() {
        let with = ParallelMul::new(ArrayDims::new(256, 4), 8).build();
        let without = ParallelMul::new(ArrayDims::new(256, 4), 8).without_readout().build();
        let d = with.trace().counts(ArchStyle::SenseAmp).sequential_steps
            - without.trace().counts(ArchStyle::SenseAmp).sequential_steps;
        assert_eq!(d, 16); // 16 product-row reads
    }
}
