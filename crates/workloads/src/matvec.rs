//! Matrix–vector multiplication: the kernel the paper names as *the*
//! offload of embedded ML ("an embedded device which performs machine
//! learning will likely only offload dot-products (used for matrix-vector
//! multiplication) or convolution operations to the PIM array", §4).
//!
//! One iteration computes `y = A·x` for an `m × n` matrix: the vector is
//! loaded once, then each matrix row is loaded, multiplied element-wise,
//! and reduced — `m` chained dot-products sharing one workspace. The
//! reduction lanes get hammered `m` times per iteration, making this the
//! most column-imbalanced workload in the suite.

use nvpim_array::{ArrayDims, LaneSet};
use nvpim_logic::circuits;

use crate::{AllocPolicy, LayoutError, Workload, WorkloadBuilder};

/// Builder for the matrix–vector workload.
///
/// # Examples
///
/// ```
/// use nvpim_array::ArrayDims;
/// use nvpim_workloads::matvec::MatVec;
///
/// let wl = MatVec::new(ArrayDims::new(512, 16), 4, 16, 6).build();
/// assert_eq!(wl.name(), "matvec4x16w6");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MatVec {
    dims: ArrayDims,
    rows: usize,
    elements: usize,
    width: usize,
    policy: AllocPolicy,
}

impl MatVec {
    /// An `rows × elements` matrix times an `elements`-vector at
    /// `width`-bit precision, one vector element per lane.
    ///
    /// # Panics
    ///
    /// Panics if `elements` is not a power of two ≥ 2, exceeds the lane
    /// count, `rows == 0`, or `width < 2`.
    #[must_use]
    pub fn new(dims: ArrayDims, rows: usize, elements: usize, width: usize) -> Self {
        assert!(rows > 0, "matrix needs rows");
        assert!(
            elements.is_power_of_two() && elements >= 2,
            "element count must be a power of two ≥ 2"
        );
        assert!(elements <= dims.lanes(), "more elements than lanes");
        assert!(width >= 2, "width must be at least 2");
        MatVec { dims, rows, elements, width, policy: AllocPolicy::default() }
    }

    /// Selects the workspace allocation policy.
    #[must_use]
    pub fn with_alloc_policy(mut self, policy: AllocPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Matrix rows per iteration.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Vector length.
    #[must_use]
    pub fn elements(&self) -> usize {
        self.elements
    }

    /// Width of each output element: `2·width + log2(elements)`.
    #[must_use]
    pub fn out_width(&self) -> usize {
        2 * self.width + self.elements.trailing_zeros() as usize
    }

    /// Builds the workload.
    ///
    /// # Panics
    ///
    /// Panics if the layout needs more cells than a lane provides.
    #[must_use]
    pub fn build(self) -> Workload {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`MatVec::build`], with a layout that does not fit the array's rows
    /// reported as an error instead of a panic.
    ///
    /// # Errors
    ///
    /// Fails if the layout needs more cells than a lane provides.
    pub fn try_build(self) -> Result<Workload, LayoutError> {
        let lanes = self.dims.lanes();
        let mut wb = WorkloadBuilder::new(self.dims).with_alloc_policy(self.policy);
        let active = wb.add_class(LaneSet::range(lanes, 0, self.elements));
        let lane0 = wb.add_class(LaneSet::range(lanes, 0, 1));

        // The vector lives in the lanes for the whole iteration.
        let x = wb.load_word(self.width, active);
        let mut results = Vec::new();
        for _ in 0..self.rows {
            // Load this matrix row and run one dot-product.
            let a = wb.load_word(self.width, active);
            let mut sum = wb.compute(active, |cb| circuits::multiply(cb, &a, &x));
            let mut span = self.elements;
            while span > 1 {
                let half = span / 2;
                let senders = wb.add_class(LaneSet::range(lanes, half, span));
                let adders = wb.add_class(LaneSet::range(lanes, 0, half));
                let received = wb.receive_word(&sum, senders, adders);
                sum = wb.compute(adders, |cb| circuits::ripple_carry_add(cb, &sum, &received));
                span = half;
            }
            debug_assert_eq!(sum.len(), self.out_width());
            results.push(sum);
        }
        let flat: Vec<_> = results.into_iter().flatten().collect();
        wb.pin_results(&flat, lane0);
        wb.readout(&flat, lane0);
        wb.try_finish(&format!("matvec{}x{}w{}", self.rows, self.elements, self.width))
    }

    /// Input closure: the vector `x[lane]` plus per-row matrix values
    /// `a[row][lane]`.
    pub fn inputs<'a>(
        &self,
        x: &'a [u64],
        a: &'a [Vec<u64>],
    ) -> impl FnMut(usize, usize) -> bool + 'a {
        let width = self.width;
        move |lane, slot| {
            let word = slot / width;
            let bit = slot % width;
            let value = if word == 0 { x[lane] } else { a[word - 1][lane] };
            (value >> bit) & 1 == 1
        }
    }

    /// Rows (within lane 0) of output element `row`.
    #[must_use]
    pub fn result_rows_of(&self, workload: &Workload, row: usize) -> Vec<usize> {
        let w = self.out_width();
        workload.result_rows()[row * w..(row + 1) * w].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpim_array::{ArchStyle, IdentityMap, PimArray, Step};

    #[test]
    fn functional_correctness() {
        let mv = MatVec::new(ArrayDims::new(512, 8), 3, 8, 5);
        let wl = mv.build();
        let x: Vec<u64> = vec![1, 3, 7, 15, 31, 2, 8, 20];
        let a: Vec<Vec<u64>> = vec![
            vec![1, 1, 1, 1, 1, 1, 1, 1],
            vec![31, 0, 31, 0, 31, 0, 31, 0],
            vec![5, 10, 15, 20, 25, 30, 3, 9],
        ];
        let mut array = PimArray::new(wl.trace().dims());
        let mut map = IdentityMap;
        array.execute(wl.trace(), &mut map, &mut mv.inputs(&x, &a));
        for (row, a_row) in a.iter().enumerate() {
            let expect: u64 = a_row.iter().zip(&x).map(|(p, q)| p * q).sum();
            let rows = mv.result_rows_of(&wl, row);
            assert_eq!(array.word(&rows, 0, &map), expect, "row {row}");
        }
    }

    #[test]
    fn reduction_lanes_dominate_wear() {
        let wl = MatVec::new(ArrayDims::new(512, 16), 4, 16, 4).build();
        let trace = wl.trace();
        let mut per_lane = vec![0u64; 16];
        for step in trace.steps() {
            let class = match *step {
                Step::Write { class, .. } | Step::Gate { class, .. } => Some(class),
                Step::Transfer { dst_class, .. } => Some(dst_class),
                Step::Read { .. } => None,
            };
            if let Some(c) = class {
                for lane in trace.classes()[c].iter() {
                    per_lane[lane] += 1;
                }
            }
        }
        assert!(per_lane[0] > 2 * per_lane[15], "lane 0 must dominate: {per_lane:?}");
    }

    #[test]
    fn utilization_below_dot_product() {
        // m chained reductions per iteration push utilization below a
        // single dot-product's.
        let dims = ArrayDims::new(512, 32);
        let mv = MatVec::new(dims, 6, 32, 6).build();
        let dp = crate::dot_product::DotProduct::new(dims, 32, 6).build();
        let u_mv = mv.lane_utilization(ArchStyle::PresetOutput);
        let u_dp = dp.lane_utilization(ArchStyle::PresetOutput);
        assert!(u_mv < u_dp, "matvec {u_mv} vs dot {u_dp}");
    }

    #[test]
    fn output_slicing() {
        let mv = MatVec::new(ArrayDims::new(512, 4), 2, 4, 4);
        let wl = mv.build();
        assert_eq!(wl.result_rows().len(), 2 * mv.out_width());
        assert_eq!(mv.result_rows_of(&wl, 0).len(), mv.out_width());
    }

    #[test]
    #[should_panic(expected = "needs rows")]
    fn zero_rows_rejected() {
        let _ = MatVec::new(ArrayDims::new(64, 4), 0, 4, 4);
    }
}
