//! Vector dot-product — the paper's non-ideal workload.
//!
//! §4: each lane multiplies one element pair; the products are then summed
//! by a logarithmic reduction in which the upper half of the active lanes
//! ships its partial sums to the lower half (1 read + 1 write per bit),
//! which adds them. Work therefore concentrates in low-address lanes —
//! the column imbalance visible in Fig. 16.

use nvpim_array::{ArrayDims, LaneSet};
use nvpim_logic::circuits;

use crate::{AllocPolicy, LayoutError, Workload, WorkloadBuilder};

/// Builder for the dot-product workload.
///
/// # Examples
///
/// ```
/// use nvpim_array::ArrayDims;
/// use nvpim_workloads::dot_product::DotProduct;
///
/// let wl = DotProduct::new(ArrayDims::new(256, 8), 8, 8).build();
/// assert_eq!(wl.name(), "dot8x8");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DotProduct {
    dims: ArrayDims,
    elements: usize,
    width: usize,
    policy: AllocPolicy,
}

impl DotProduct {
    /// A dot-product of two `elements`-long vectors of `width`-bit values,
    /// one element pair per lane.
    ///
    /// # Panics
    ///
    /// Panics if `elements` is not a power of two, exceeds the lane count,
    /// or is < 2; or if `width < 2`.
    #[must_use]
    pub fn new(dims: ArrayDims, elements: usize, width: usize) -> Self {
        assert!(
            elements.is_power_of_two() && elements >= 2,
            "element count must be a power of two ≥ 2"
        );
        assert!(elements <= dims.lanes(), "more elements than lanes");
        assert!(width >= 2, "width must be at least 2");
        DotProduct { dims, elements, width, policy: AllocPolicy::default() }
    }

    /// The paper's configuration: 1024-element vectors of 32-bit operands on
    /// a 1024 × 1024 array.
    #[must_use]
    pub fn paper() -> Self {
        DotProduct::new(ArrayDims::paper(), 1024, 32)
    }

    /// Selects the workspace allocation policy.
    #[must_use]
    pub fn with_alloc_policy(mut self, policy: AllocPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Element count.
    #[must_use]
    pub fn elements(&self) -> usize {
        self.elements
    }

    /// Operand width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Width of the final sum: `2·width + log2(elements)` bits.
    #[must_use]
    pub fn sum_width(&self) -> usize {
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

    /// [`DotProduct::build`], with a layout that does not fit the array's rows
    /// reported as an error instead of a panic.
    ///
    /// # Errors
    ///
    /// Fails if the layout needs more cells than a lane provides.
    pub fn try_build(self) -> Result<Workload, LayoutError> {
        let lanes = self.dims.lanes();
        let mut wb = WorkloadBuilder::new(self.dims).with_alloc_policy(self.policy);
        let active = wb.add_class(LaneSet::range(lanes, 0, self.elements));

        // Element-wise multiply in all active lanes.
        let a = wb.load_word(self.width, active);
        let b = wb.load_word(self.width, active);
        let mut sum = wb.compute(active, |cb| circuits::multiply(cb, &a, &b));

        // Logarithmic reduction: upper half sends, lower half adds. Each
        // round widens the sum by one bit, ending at exactly sum_width().
        let mut span = self.elements;
        while span > 1 {
            let half = span / 2;
            let senders = wb.add_class(LaneSet::range(lanes, half, span));
            let adders = wb.add_class(LaneSet::range(lanes, 0, half));
            let received = wb.receive_word(&sum, senders, adders);
            sum = wb.compute(adders, |cb| circuits::ripple_carry_add(cb, &sum, &received));
            span = half;
        }
        debug_assert_eq!(sum.len(), self.sum_width());

        let lane0 = wb.add_class(LaneSet::range(lanes, 0, 1));
        wb.pin_results(&sum, lane0);
        wb.readout(&sum, lane0);
        wb.try_finish(&format!("dot{}x{}", self.elements, self.width))
    }

    /// Input closure for functional execution: lane `l` holds `a[l]`,
    /// `b[l]`.
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
    fn functional_correctness_small() {
        let dp = DotProduct::new(ArrayDims::new(256, 8), 8, 6);
        let wl = dp.build();
        let a: Vec<u64> = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let b: Vec<u64> = vec![8, 7, 6, 5, 4, 3, 2, 1];
        let expect: u64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let mut array = PimArray::new(wl.trace().dims());
        let mut map = IdentityMap;
        array.execute(wl.trace(), &mut map, &mut dp.inputs(&a, &b));
        assert_eq!(array.word(wl.result_rows(), 0, &map), expect);
    }

    #[test]
    fn functional_correctness_max_values() {
        let dp = DotProduct::new(ArrayDims::new(256, 4), 4, 6);
        let wl = dp.build();
        let a = vec![63u64; 4];
        let b = vec![63u64; 4];
        let mut array = PimArray::new(wl.trace().dims());
        let mut map = IdentityMap;
        array.execute(wl.trace(), &mut map, &mut dp.inputs(&a, &b));
        assert_eq!(array.word(wl.result_rows(), 0, &map), 4 * 63 * 63);
    }

    #[test]
    fn utilization_is_below_full() {
        // Table 3: dot-product averages ~65% lane utilization.
        let wl = DotProduct::new(ArrayDims::new(512, 64), 64, 16).build();
        let u = wl.lane_utilization(ArchStyle::PresetOutput);
        assert!(u > 0.4 && u < 0.95, "utilization {u}");
    }

    #[test]
    fn lane_marginals_favor_low_lanes() {
        use nvpim_array::Step;
        // Count writes per lane directly from the trace.
        let wl = DotProduct::new(ArrayDims::new(256, 16), 16, 4).build();
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
        assert!(per_lane[0] > per_lane[8], "lane 0 should be hottest: {per_lane:?}");
        assert!(per_lane[0] > per_lane[15]);
    }

    #[test]
    fn paper_configuration_fits_lane() {
        let wl = DotProduct::paper().build();
        assert!(wl.trace().rows_used() <= 1024, "rows {}", wl.trace().rows_used());
        assert_eq!(wl.result_rows().len(), 74);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = DotProduct::new(ArrayDims::new(64, 8), 6, 4);
    }
}
