//! A binarized-neural-network layer: XNOR → popcount → threshold.
//!
//! The paper's convolution benchmark already uses a comparison as its BNN
//! non-linearity (§4, citing Courbariaux et al. \[9\] and the
//! Pimball-style mapping \[31\]); this workload is the fully binarized
//! variant those accelerators actually run: activations and weights are
//! single bits, the "multiply" is an XNOR, and the accumulation is a
//! population count. It is embarrassingly parallel like the
//! multiplication benchmark but with a far higher compute-to-input ratio,
//! making it a useful fourth point in the endurance space.

use nvpim_array::{ArrayDims, LaneSet};
use nvpim_logic::circuits;

use crate::{AllocPolicy, LayoutError, Workload, WorkloadBuilder};

/// Builder for the BNN-layer workload: each lane computes one output
/// neuron over `fan_in` binary activations and weights.
///
/// # Examples
///
/// ```
/// use nvpim_array::ArrayDims;
/// use nvpim_workloads::bnn_layer::BnnLayer;
///
/// let wl = BnnLayer::new(ArrayDims::new(512, 64), 64).build();
/// assert_eq!(wl.name(), "bnn64");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BnnLayer {
    dims: ArrayDims,
    fan_in: usize,
    threshold: u64,
    policy: AllocPolicy,
}

impl BnnLayer {
    /// A layer with `fan_in` binary inputs per output neuron. The default
    /// threshold is `fan_in / 2` matches (the sign-activation midpoint).
    ///
    /// # Panics
    ///
    /// Panics if `fan_in < 2`.
    #[must_use]
    pub fn new(dims: ArrayDims, fan_in: usize) -> Self {
        assert!(fan_in >= 2, "a neuron needs at least 2 inputs");
        BnnLayer { dims, fan_in, threshold: fan_in as u64 / 2, policy: AllocPolicy::default() }
    }

    /// A 1024-input neuron per lane on the paper's 1024 × 1024 array.
    #[must_use]
    pub fn paper_scale() -> Self {
        BnnLayer::new(ArrayDims::paper(), 128)
    }

    /// Overrides the activation threshold (minimum matching bits).
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

    /// Inputs per neuron.
    #[must_use]
    pub fn fan_in(&self) -> usize {
        self.fan_in
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

    /// [`BnnLayer::build`], with a layout that does not fit the array's rows
    /// reported as an error instead of a panic.
    ///
    /// # Errors
    ///
    /// Fails if the layout needs more cells than a lane provides.
    pub fn try_build(self) -> Result<Workload, LayoutError> {
        let lanes = self.dims.lanes();
        let mut wb = WorkloadBuilder::new(self.dims).with_alloc_policy(self.policy);
        let all = wb.add_class(LaneSet::full(lanes));
        let activations = wb.load_word(self.fan_in, all);
        let weights = wb.load_word(self.fan_in, all);
        let matches = wb.compute(all, |cb| circuits::xnor_word(cb, &activations, &weights));
        let count = wb.compute(all, |cb| circuits::popcount(cb, &matches));
        let threshold = wb.load_const_word(self.threshold, count.len(), all);
        let fire = wb.compute(all, |cb| circuits::greater_equal(cb, &count, &threshold));
        wb.pin_results(&[fire], all);
        wb.readout(&[fire], all);
        wb.try_finish(&format!("bnn{}", self.fan_in))
    }

    /// Input closure: lane `l` gets activation bits `activations[l]` and
    /// weight bits `weights[l]` (LSB-first, `fan_in` bits each).
    pub fn inputs<'a>(
        &self,
        activations: &'a [u64],
        weights: &'a [u64],
    ) -> impl FnMut(usize, usize) -> bool + 'a {
        let fan_in = self.fan_in;
        move |lane, slot| {
            if slot < fan_in {
                (activations[lane] >> slot) & 1 == 1
            } else {
                (weights[lane] >> (slot - fan_in)) & 1 == 1
            }
        }
    }

    /// Reference output for one lane.
    #[must_use]
    pub fn reference(&self, activation: u64, weight: u64) -> bool {
        let mask = if self.fan_in == 64 { u64::MAX } else { (1u64 << self.fan_in) - 1 };
        u64::from((!(activation ^ weight) & mask).count_ones()) >= self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpim_array::{ArchStyle, IdentityMap, PimArray};

    #[test]
    fn functional_correctness() {
        let layer = BnnLayer::new(ArrayDims::new(256, 8), 16);
        let wl = layer.build();
        let activations: Vec<u64> = (0..8).map(|l| (0x1234 * (l as u64 + 1)) & 0xFFFF).collect();
        let weights: Vec<u64> = (0..8).map(|l| 0x9E37 >> l & 0xFFFF).collect();
        let mut array = PimArray::new(wl.trace().dims());
        let mut map = IdentityMap;
        array.execute(wl.trace(), &mut map, &mut layer.inputs(&activations, &weights));
        for lane in 0..8 {
            assert_eq!(
                array.bit(wl.result_rows()[0], lane, &map),
                layer.reference(activations[lane], weights[lane]),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn threshold_boundaries() {
        // All bits match → fires at any threshold ≤ fan_in; none match →
        // only fires at threshold 0.
        let layer = BnnLayer::new(ArrayDims::new(256, 2), 8).with_threshold(8);
        let wl = layer.build();
        let mut array = PimArray::new(wl.trace().dims());
        let mut map = IdentityMap;
        array.execute(wl.trace(), &mut map, &mut layer.inputs(&[0xFF, 0xFF], &[0xFF, 0x00]));
        assert!(array.bit(wl.result_rows()[0], 0, &map), "perfect match fires");
        assert!(!array.bit(wl.result_rows()[0], 1, &map), "zero matches stays quiet");
    }

    #[test]
    fn full_utilization_like_multiplication() {
        let wl = BnnLayer::new(ArrayDims::new(512, 16), 32).build();
        assert!((wl.lane_utilization(ArchStyle::PresetOutput) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn far_cheaper_than_integer_multiply() {
        // The BNN "product" of 32 binary inputs costs a small fraction of a
        // 32-bit integer multiply — the whole premise of binarized PIM
        // accelerators.
        let bnn = BnnLayer::new(ArrayDims::new(512, 16), 32).build();
        let mul = crate::parallel_mul::ParallelMul::new(ArrayDims::new(512, 16), 32).build();
        let b = bnn.trace().counts(ArchStyle::PresetOutput).gate_ops;
        let m = mul.trace().counts(ArchStyle::PresetOutput).gate_ops;
        assert!(b * 10 < m, "bnn {b} gates vs mul {m}");
    }

    #[test]
    fn paper_scale_fits() {
        let wl = BnnLayer::paper_scale().build();
        assert!(wl.trace().rows_used() <= 1024);
    }
}
