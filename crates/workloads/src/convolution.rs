//! 2-D convolution with a comparison non-linearity — the paper's middle
//! ground between ideal parallelism and heavy reduction.
//!
//! Following §4: a `K×L` filter slides over a 2-D neuron map; each filter
//! position occupies a group of `K` adjacent lanes, with each lane
//! multiplying the `L` neuron/weight pairs of one filter row sequentially
//! and accumulating them into a partial sum. The partial sums of lanes
//! 1..K are then moved into lane 0 of the group, summed, and thresholded
//! with a comparison (the binary-neural-network output). Filter positions
//! are packed cyclically so that every group computes — the sum phase then
//! keeps only every K-th lane busy, which over-utilizes those columns
//! (Fig. 15).

use nvpim_array::{ArrayDims, LaneSet};
use nvpim_logic::circuits;

use crate::{AllocPolicy, LayoutError, Workload, WorkloadBuilder};

/// Per-lane neuron/weight pairs, one entry per filter column.
pub type LanePairs = Vec<Vec<(u64, u64)>>;

/// Builder for the convolution workload.
///
/// # Examples
///
/// ```
/// use nvpim_array::ArrayDims;
/// use nvpim_workloads::convolution::Convolution;
///
/// let wl = Convolution::new(ArrayDims::new(512, 16), 4, 3, 8).build();
/// assert_eq!(wl.name(), "conv4x3w8");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Convolution {
    dims: ArrayDims,
    filter_rows: usize,
    filter_cols: usize,
    width: usize,
    threshold: u64,
    policy: AllocPolicy,
}

impl Convolution {
    /// A convolution with a `filter_rows × filter_cols` filter at
    /// `width`-bit precision. Each group of `filter_rows` lanes computes one
    /// filter position.
    ///
    /// # Panics
    ///
    /// Panics if `filter_rows < 2`, `filter_cols < 1`, `width < 2`, or the
    /// lane count is not a multiple of `filter_rows`.
    #[must_use]
    pub fn new(dims: ArrayDims, filter_rows: usize, filter_cols: usize, width: usize) -> Self {
        assert!(filter_rows >= 2, "need at least 2 lanes per group");
        assert!(filter_cols >= 1, "filter must have columns");
        assert!(width >= 2, "width must be at least 2");
        assert_eq!(dims.lanes() % filter_rows, 0, "lanes must divide into groups");
        let threshold = Convolution::default_threshold(filter_rows, filter_cols, width);
        Convolution {
            dims,
            filter_rows,
            filter_cols,
            width,
            threshold,
            policy: AllocPolicy::default(),
        }
    }

    /// The paper's configuration: 4×3 filter, 8-bit precision, 1024 × 1024
    /// array (16×16 neuron maps are packed cyclically onto the 256 groups).
    #[must_use]
    pub fn paper() -> Self {
        Convolution::new(ArrayDims::paper(), 4, 3, 8)
    }

    /// Half of the maximum possible accumulated sum — the default BNN
    /// threshold, saturating at `u64::MAX` for sums wider than 64 bits.
    #[must_use]
    pub fn default_threshold(filter_rows: usize, filter_cols: usize, width: usize) -> u64 {
        let shift = u32::try_from(64 - width.min(64)).expect("at most 64");
        let max_val = u128::from(u64::MAX.checked_shr(shift).unwrap_or(0));
        let taps = filter_rows as u128 * filter_cols as u128;
        u64::try_from(taps.saturating_mul(max_val * max_val) / 2).unwrap_or(u64::MAX)
    }

    /// Overrides the comparison threshold.
    #[must_use]
    pub fn with_threshold(mut self, threshold: u64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Selects the workspace allocation policy.
    #[must_use]
    pub fn with_alloc_policy(mut self, policy: AllocPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Lanes per group (= filter rows).
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.filter_rows
    }

    /// Sequential multiplications per lane (= filter columns).
    #[must_use]
    pub fn products_per_lane(&self) -> usize {
        self.filter_cols
    }

    /// Width of the per-lane partial sum: `2·width + (filter_cols − 1)`.
    #[must_use]
    pub fn partial_width(&self) -> usize {
        2 * self.width + (self.filter_cols - 1)
    }

    /// Width of the accumulated group sum.
    #[must_use]
    pub fn sum_width(&self) -> usize {
        self.partial_width() + (self.filter_rows - 1)
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

    /// [`Convolution::build`], with a layout that does not fit the array's rows
    /// reported as an error instead of a panic.
    ///
    /// # Errors
    ///
    /// Fails if the layout needs more cells than a lane provides.
    pub fn try_build(self) -> Result<Workload, LayoutError> {
        let lanes = self.dims.lanes();
        let group = self.filter_rows;
        let mut wb = WorkloadBuilder::new(self.dims).with_alloc_policy(self.policy);
        let all = wb.add_class(LaneSet::full(lanes));
        let sum_class = wb.add_class(LaneSet::from_pred(lanes, |l| l % group == 0));

        // Per lane: filter_cols sequential neuron × weight products,
        // accumulated into a partial sum.
        let zero = wb.load_constant(false, all);
        let mut partial: Option<Vec<_>> = None;
        for _ in 0..self.filter_cols {
            let neuron = wb.load_word(self.width, all);
            let weight = wb.load_word(self.width, all);
            let product = wb.compute(all, |cb| circuits::multiply(cb, &neuron, &weight));
            partial = Some(match partial {
                None => product,
                Some(acc) => {
                    let widened = WorkloadBuilder::zero_extended(&product, acc.len(), zero);
                    wb.compute(all, |cb| circuits::ripple_carry_add(cb, &acc, &widened))
                }
            });
        }
        let partial = partial.expect("filter_cols >= 1");
        debug_assert_eq!(partial.len(), self.partial_width());

        // Move partial sums from lanes 1..group into lane 0 of each group
        // and accumulate.
        let mut total = partial.clone();
        for k in 1..group {
            let senders = wb.add_class(LaneSet::from_pred(lanes, move |l| l % group == k));
            let received = wb.receive_word(&partial, senders, sum_class);
            let widened = WorkloadBuilder::zero_extended(&received, total.len(), zero);
            total = wb.compute(sum_class, |cb| circuits::ripple_carry_add(cb, &total, &widened));
        }
        debug_assert_eq!(total.len(), self.sum_width());

        // BNN non-linearity: one comparison against the threshold (§4).
        let threshold = wb.load_const_word(self.threshold, total.len(), sum_class);
        let out = wb.compute(sum_class, |cb| circuits::greater_equal(cb, &total, &threshold));
        wb.pin_results(&[out], sum_class);
        wb.readout(&[out], sum_class);
        wb.try_finish(&format!("conv{}x{}w{}", self.filter_rows, self.filter_cols, self.width))
    }

    /// Input closure for functional execution: lane `l` receives the
    /// neuron/weight pairs `pairs[l] = [(n0, w0), (n1, w1), ...]`.
    pub fn inputs<'a>(
        &self,
        pairs: &'a [Vec<(u64, u64)>],
    ) -> impl FnMut(usize, usize) -> bool + 'a {
        let width = self.width;
        move |lane, slot| {
            // Slot layout per filter column c: neuron bits, then weight bits.
            let per_col = 2 * width;
            let col = slot / per_col;
            let within = slot % per_col;
            let (neuron, weight) = pairs[lane][col];
            if within < width {
                (neuron >> within) & 1 == 1
            } else {
                (weight >> (within - width)) & 1 == 1
            }
        }
    }

    /// Packs a 2-D `neurons` map and `filter` into per-lane neuron/weight
    /// pairs: filter position `p` (row-major over the valid positions) is
    /// assigned to group `p % n_groups`, and lane `k` of a group handles
    /// filter row `k`. Returns `(pairs, expected_bnn_outputs)` where
    /// `expected_bnn_outputs[g]` is the reference output of the position
    /// assigned to group `g` (positions beyond the first wrap are ignored
    /// for expectations).
    ///
    /// # Panics
    ///
    /// Panics if the filter does not fit the neuron map or value widths are
    /// exceeded.
    #[must_use]
    pub fn pack_image(
        &self,
        neurons: &[Vec<u64>],
        filter: &[Vec<u64>],
    ) -> (LanePairs, Vec<Option<bool>>) {
        assert_eq!(filter.len(), self.filter_rows);
        assert!(filter.iter().all(|r| r.len() == self.filter_cols));
        let in_rows = neurons.len();
        let in_cols = neurons[0].len();
        assert!(in_rows >= self.filter_rows && in_cols >= self.filter_cols, "filter too large");
        let out_rows = in_rows - self.filter_rows + 1;
        let out_cols = in_cols - self.filter_cols + 1;
        let n_groups = self.dims.lanes() / self.filter_rows;

        let mut pairs = vec![vec![(0u64, 0u64); self.filter_cols]; self.dims.lanes()];
        let mut expected: Vec<Option<bool>> = vec![None; n_groups];
        for p in 0..out_rows * out_cols {
            let (py, px) = (p / out_cols, p % out_cols);
            let g = p % n_groups;
            let first_assignment = p < n_groups;
            let mut sum = 0u64;
            for k in 0..self.filter_rows {
                let lane = g * self.filter_rows + k;
                for c in 0..self.filter_cols {
                    let n = neurons[py + k][px + c];
                    let w = filter[k][c];
                    sum += n * w;
                    if first_assignment {
                        pairs[lane][c] = (n, w);
                    }
                }
            }
            if first_assignment {
                expected[g] = Some(sum >= self.threshold);
            }
        }
        (pairs, expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpim_array::{ArchStyle, IdentityMap, PimArray};

    #[test]
    fn functional_correctness_small() {
        // 2×2 filter, 4-bit values, 8 lanes = 4 groups.
        let conv = Convolution::new(ArrayDims::new(256, 8), 2, 2, 4).with_threshold(100);
        let wl = conv.build();
        // Group 0: lane 0 row [(3,2),(4,1)], lane 1 row [(5,5),(1,9)].
        // Sum = 6 + 4 + 25 + 9 = 44 < 100 → false.
        // Group 1: all (15,15): sum = 4·225 = 900 ≥ 100 → true.
        let mut pairs = vec![vec![(0u64, 0u64); 2]; 8];
        pairs[0] = vec![(3, 2), (4, 1)];
        pairs[1] = vec![(5, 5), (1, 9)];
        pairs[2] = vec![(15, 15), (15, 15)];
        pairs[3] = vec![(15, 15), (15, 15)];
        let mut array = PimArray::new(wl.trace().dims());
        let mut map = IdentityMap;
        array.execute(wl.trace(), &mut map, &mut conv.inputs(&pairs));
        assert!(!array.bit(wl.result_rows()[0], 0, &map), "group 0 under threshold");
        assert!(array.bit(wl.result_rows()[0], 2, &map), "group 1 over threshold");
    }

    #[test]
    fn image_packing_matches_reference() {
        let conv = Convolution::new(ArrayDims::new(512, 12), 3, 2, 4).with_threshold(60);
        let wl = conv.build();
        // 5×4 neuron map, 3×2 filter → 3×3 = 9 positions, 4 groups.
        let neurons: Vec<Vec<u64>> =
            (0..5).map(|y| (0..4).map(|x| ((3 * y + x) % 16) as u64).collect()).collect();
        let filter: Vec<Vec<u64>> = vec![vec![1, 2], vec![3, 4], vec![5, 6]];
        let (pairs, expected) = conv.pack_image(&neurons, &filter);
        let mut array = PimArray::new(wl.trace().dims());
        let mut map = IdentityMap;
        array.execute(wl.trace(), &mut map, &mut conv.inputs(&pairs));
        for (g, expect) in expected.iter().enumerate() {
            if let Some(e) = expect {
                let got = array.bit(wl.result_rows()[0], g * 3, &map);
                assert_eq!(got, *e, "group {g}");
            }
        }
    }

    #[test]
    fn paper_configuration_fits_lane() {
        let wl = Convolution::paper().build();
        assert!(wl.trace().rows_used() <= 1024, "rows {}", wl.trace().rows_used());
        assert_eq!(wl.name(), "conv4x3w8");
    }

    #[test]
    fn utilization_between_mult_and_dot() {
        // Table 3 places convolution (~85%) between multiplication (100%)
        // and dot-product (~65%).
        let wl = Convolution::paper().build();
        let u = wl.lane_utilization(ArchStyle::PresetOutput);
        assert!(u > 0.7 && u < 1.0, "utilization {u}");
    }

    #[test]
    fn sum_width_accounting() {
        let conv = Convolution::new(ArrayDims::new(512, 8), 4, 3, 8);
        assert_eq!(conv.partial_width(), 18);
        assert_eq!(conv.sum_width(), 21);
        assert_eq!(Convolution::default_threshold(4, 3, 8), 4 * 3 * 255 * 255 / 2);
    }

    #[test]
    #[should_panic(expected = "divide into groups")]
    fn indivisible_lanes_rejected() {
        let _ = Convolution::new(ArrayDims::new(64, 10), 4, 3, 4);
    }
}
