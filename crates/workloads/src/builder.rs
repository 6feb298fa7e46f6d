//! Assembly of lane programs: circuits + memory traffic + lane activity,
//! then the logical-bit-to-cell layout.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use nvpim_array::{ArrayDims, ClassId, LaneSet, Step, Trace, WriteSource};
use nvpim_logic::{BitId, CircuitBuilder, GateKind};

use crate::Workload;

/// One interleaved program event, in logical-bit space.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Standard memory write of a bit (input load or constant preload).
    Write { bit: BitId, class: ClassId, source: WriteSource },
    /// Standard memory read of a bit (result readout).
    Read { bit: BitId, class: ClassId },
    /// The `index`-th gate of the underlying circuit.
    Gate { index: usize, class: ClassId },
    /// Inter-lane move: `src` (read in `src_class` lanes) rewritten as `dst`
    /// (in the paired `dst_class` lanes).
    Transfer { src: BitId, dst: BitId, src_class: ClassId, dst_class: ClassId },
}

/// A layout that does not fit the array: the workload needs more cells in
/// a lane than the array has rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutError {
    /// The workload's name.
    pub workload: String,
    /// Cells per lane (the array's row count).
    pub rows: usize,
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "workload {} needs cells outside its {}-cell lanes", self.workload, self.rows)
    }
}

impl std::error::Error for LayoutError {}

/// How workspace cells are assigned to intermediate logical bits.
///
/// §4 of the paper allocates "1 new bit of logical memory" per gate and
/// frees bits at their last use; logical bits are then "mapped to physical
/// bits". The two policies below are the two natural realizations:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocPolicy {
    /// Advance a wrapping cursor through a bounded workspace *window*
    /// (twice the peak number of simultaneously-live intermediates),
    /// skipping still-live cells. The static layout then occupies a
    /// visible band of the lane — heavily-used workspace rows against
    /// once-written input rows, as in the paper's Fig. 14a — while leaving
    /// the rest of the lane as the headroom that row re-mapping strategies
    /// exploit (Fig. 17). Default.
    #[default]
    Windowed,
    /// Advance a wrapping cursor through the *entire* remaining lane. The
    /// static layout is already almost perfectly flat, so within-lane
    /// balancing has nothing left to win — an upper-bound ablation.
    FullLane,
    /// Reuse the lowest-addressed dead cell first. Minimizes the lane
    /// footprint but concentrates wear into a few workspace hot spots —
    /// the lower-bound ablation of how much the allocator itself
    /// load-balances.
    LowestFirst,
}

/// Builds a [`Workload`]: emits circuits through an embedded
/// [`CircuitBuilder`], records which lanes execute each region, inserts
/// memory traffic, and finally lays logical bits out onto lane cells.
///
/// Layout follows the paper (§2.2 Fig. 4, §4): bits written from outside
/// (inputs, constants) and bits marked as results get *dedicated* cells in
/// definition order; every other bit is workspace, allocated per the
/// chosen [`AllocPolicy`] and recycled as soon as its last use has
/// executed. The lane's last row is left unused so that hardware
/// re-mapping always has its spare row available.
///
/// # Examples
///
/// ```
/// use nvpim_array::{ArrayDims, LaneSet};
/// use nvpim_logic::circuits;
/// use nvpim_workloads::WorkloadBuilder;
///
/// let dims = ArrayDims::new(64, 4);
/// let mut wb = WorkloadBuilder::new(dims);
/// let all = wb.add_class(LaneSet::full(4));
/// let a = wb.load_word(4, all);
/// let b = wb.load_word(4, all);
/// let sum = wb.compute(all, |cb| circuits::ripple_carry_add(cb, &a, &b));
/// wb.pin_results(&sum, all);
/// let wl = wb.finish("add4");
/// assert_eq!(wl.result_rows().len(), 5);
/// ```
#[derive(Debug)]
pub struct WorkloadBuilder {
    dims: ArrayDims,
    cb: CircuitBuilder,
    events: Vec<Event>,
    classes: Vec<LaneSet>,
    next_input_slot: usize,
    gate_cursor: usize,
    result_bits: Vec<BitId>,
    result_class: Option<ClassId>,
    policy: AllocPolicy,
}

impl WorkloadBuilder {
    /// Starts a workload targeting an array of the given dimensions.
    #[must_use]
    pub fn new(dims: ArrayDims) -> Self {
        WorkloadBuilder {
            dims,
            cb: CircuitBuilder::new(),
            events: Vec::new(),
            classes: Vec::new(),
            next_input_slot: 0,
            gate_cursor: 0,
            result_bits: Vec::new(),
            result_class: None,
            policy: AllocPolicy::default(),
        }
    }

    /// Selects the workspace allocation policy.
    #[must_use]
    pub fn with_alloc_policy(mut self, policy: AllocPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Target array dimensions.
    #[must_use]
    pub fn dims(&self) -> ArrayDims {
        self.dims
    }

    /// Registers a lane activity class.
    ///
    /// # Panics
    ///
    /// Panics if the set's universe does not match the array's lane count.
    pub fn add_class(&mut self, lanes: LaneSet) -> ClassId {
        assert_eq!(lanes.lanes(), self.dims.lanes(), "class universe mismatch");
        self.classes.push(lanes);
        self.classes.len() - 1
    }

    /// Loads one fresh per-iteration input bit into the lanes of `class`,
    /// assigning it the next input slot.
    pub fn load_input(&mut self, class: ClassId) -> BitId {
        let bit = self.cb.input();
        let slot = self.next_input_slot;
        self.next_input_slot += 1;
        self.events.push(Event::Write { bit, class, source: WriteSource::Input(slot) });
        bit
    }

    /// Loads an LSB-first word of fresh input bits.
    pub fn load_word(&mut self, width: usize, class: ClassId) -> Vec<BitId> {
        (0..width).map(|_| self.load_input(class)).collect()
    }

    /// Loads a constant bit (written once per iteration, same value in every
    /// lane of `class`).
    pub fn load_constant(&mut self, value: bool, class: ClassId) -> BitId {
        let bit = self.cb.constant(value);
        self.events.push(Event::Write { bit, class, source: WriteSource::Const(value) });
        bit
    }

    /// Loads an LSB-first constant word; bits past the 64th are zero.
    pub fn load_const_word(&mut self, value: u64, width: usize, class: ClassId) -> Vec<BitId> {
        (0..width)
            .map(|i| {
                let bit = u32::try_from(i).ok().and_then(|i| value.checked_shr(i)).unwrap_or(0);
                self.load_constant(bit & 1 == 1, class)
            })
            .collect()
    }

    /// Runs `f` against the embedded circuit builder and attributes every
    /// gate it emits to `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is unregistered.
    pub fn compute<R>(&mut self, class: ClassId, f: impl FnOnce(&mut CircuitBuilder) -> R) -> R {
        assert!(class < self.classes.len(), "unregistered class {class}");
        let const_cursor = self.cb.declared_constants().len();
        let result = f(&mut self.cb);
        // Constants a circuit declares internally (e.g. a comparator's
        // carry-in) must be written into the lanes before the gates that
        // read them.
        for i in const_cursor..self.cb.declared_constants().len() {
            let (bit, value) = self.cb.declared_constants()[i];
            self.events.push(Event::Write { bit, class, source: WriteSource::Const(value) });
        }
        for index in self.gate_cursor..self.cb.len() {
            self.events.push(Event::Gate { index, class });
        }
        self.gate_cursor = self.cb.len();
        result
    }

    /// Moves a word from the lanes of `src_class` into the paired lanes of
    /// `dst_class` (i-th source lane → i-th destination lane), returning the
    /// received bits. Each bit costs one read plus one write (2 sequential
    /// steps, §4).
    pub fn receive_word(
        &mut self,
        src_bits: &[BitId],
        src_class: ClassId,
        dst_class: ClassId,
    ) -> Vec<BitId> {
        src_bits
            .iter()
            .map(|&src| {
                let dst = self.cb.input();
                self.events.push(Event::Transfer { src, dst, src_class, dst_class });
                dst
            })
            .collect()
    }

    /// Reads a word out of the array (e.g. the final result).
    pub fn readout(&mut self, bits: &[BitId], class: ClassId) {
        for &bit in bits {
            self.events.push(Event::Read { bit, class });
        }
    }

    /// Marks `bits` as the workload's result: they get dedicated cells and
    /// are recorded as [`Workload::result_rows`].
    pub fn pin_results(&mut self, bits: &[BitId], class: ClassId) {
        self.cb.mark_outputs(bits);
        self.result_bits.extend_from_slice(bits);
        self.result_class = Some(class);
    }

    /// Widens `word` to `width` bits by appending the given constant-zero
    /// bit (a single shared cell may pad any number of words).
    #[must_use]
    pub fn zero_extended(word: &[BitId], width: usize, zero: BitId) -> Vec<BitId> {
        assert!(width >= word.len(), "cannot shrink a word");
        let mut out = word.to_vec();
        out.resize(width, zero);
        out
    }

    /// Performs layout and produces the workload.
    ///
    /// # Panics
    ///
    /// Panics if the layout needs more cells than a lane provides, or if no
    /// result was pinned.
    #[must_use]
    pub fn finish(self, name: &str) -> Workload {
        self.try_finish(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`WorkloadBuilder::finish`], with a layout that does not fit the
    /// array's rows reported as a [`LayoutError`] instead of a panic.
    ///
    /// # Errors
    ///
    /// Fails if the layout needs more cells than a lane provides.
    ///
    /// # Panics
    ///
    /// Panics if no result was pinned.
    pub fn try_finish(self, name: &str) -> Result<Workload, LayoutError> {
        let overflow = || LayoutError { workload: name.to_owned(), rows: self.dims.rows() };
        let result_class = self.result_class.expect("workload must pin a result");
        let circuit = self.cb.build();
        let n_bits = circuit.num_bits() as usize;

        // Liveness over the event stream: last event index at which each bit
        // is read.
        let mut last_use: Vec<Option<usize>> = vec![None; n_bits];
        for (pos, event) in self.events.iter().enumerate() {
            match *event {
                Event::Write { .. } => {}
                Event::Read { bit, .. } => last_use[bit.idx()] = Some(pos),
                Event::Gate { index, .. } => {
                    let gate = &circuit.gates()[index];
                    for &input in gate.inputs() {
                        last_use[input.idx()] = Some(pos);
                    }
                }
                Event::Transfer { src, .. } => last_use[src.idx()] = Some(pos),
            }
        }

        // Pinned bits: externally written (inputs/constants) in event order,
        // then results. They keep their dedicated cell forever.
        let mut slot: Vec<Option<usize>> = vec![None; n_bits];
        let mut pinned = vec![false; n_bits];
        let mut next = 0usize;
        for event in &self.events {
            if let Event::Write { bit, .. } = *event {
                if slot[bit.idx()].is_none() {
                    slot[bit.idx()] = Some(next);
                    pinned[bit.idx()] = true;
                    next += 1;
                }
            }
        }
        for &bit in circuit.output_bits() {
            if slot[bit.idx()].is_none() {
                slot[bit.idx()] = Some(next);
                pinned[bit.idx()] = true;
                next += 1;
            }
        }

        if next > self.dims.rows() {
            return Err(overflow());
        }

        // Peak number of simultaneously-live workspace (non-pinned) bits —
        // the footprint that sizes the Windowed policy's band.
        let peak_live = {
            let mut defined = vec![false; n_bits];
            let mut live = 0usize;
            let mut peak = 0usize;
            for (pos, event) in self.events.iter().enumerate() {
                let defined_bit = match *event {
                    Event::Gate { index, .. } => Some(circuit.gates()[index].output()),
                    Event::Transfer { dst, .. } => Some(dst),
                    Event::Write { .. } | Event::Read { .. } => None,
                };
                if let Some(bit) = defined_bit {
                    if !pinned[bit.idx()] && !defined[bit.idx()] {
                        defined[bit.idx()] = true;
                        live += 1;
                        peak = peak.max(live);
                    }
                }
                // Deaths after this event.
                let mut kill = |bit: BitId| {
                    if defined[bit.idx()]
                        && !pinned[bit.idx()]
                        && last_use[bit.idx()].map_or(true, |lu| lu <= pos)
                    {
                        defined[bit.idx()] = false;
                        live -= 1;
                    }
                };
                match *event {
                    Event::Gate { index, .. } => {
                        let gate = &circuit.gates()[index];
                        for &input in gate.inputs() {
                            kill(input);
                        }
                        kill(gate.output());
                    }
                    Event::Transfer { src, dst, .. } => {
                        kill(src);
                        kill(dst);
                    }
                    Event::Write { .. } | Event::Read { .. } => {}
                }
            }
            peak
        };

        // Workspace region: everything after the pinned cells, minus the
        // spare row reserved for hardware re-mapping; the Windowed policy
        // further bounds it to twice the peak live footprint.
        let lane_end = self.dims.rows().saturating_sub(1).max(next);
        let region_end = match self.policy {
            // The band spans at least half the remaining lane (the original
            // simulator's logical bit space wanders across a large fraction
            // of it — see Fig. 14a's static distribution) and always at
            // least twice the live footprint.
            AllocPolicy::Windowed => {
                let available = lane_end - next;
                lane_end.min(next + (2 * peak_live).max(available / 2).max(32))
            }
            AllocPolicy::FullLane | AllocPolicy::LowestFirst => lane_end,
        };
        let mut alloc = SlotAllocator::new(self.policy, next, region_end);

        let mut trace = Trace::new(self.dims);
        for lanes in &self.classes {
            trace.add_class(lanes.clone());
        }
        for (pos, event) in self.events.iter().enumerate() {
            // Define this event's output bit (workspace bits only; pinned
            // bits were assigned above).
            match *event {
                Event::Gate { index, .. } => {
                    let out = circuit.gates()[index].output();
                    if !pinned[out.idx()] {
                        alloc.define(&mut slot, out).ok_or_else(overflow)?;
                    }
                }
                Event::Transfer { dst, .. } => {
                    if !pinned[dst.idx()] {
                        alloc.define(&mut slot, dst).ok_or_else(overflow)?;
                    }
                }
                Event::Write { .. } | Event::Read { .. } => {}
            }

            // Emit the physical step.
            let row_of = |bit: BitId| slot[bit.idx()].expect("bit used before definition");
            match *event {
                Event::Write { bit, class, source } => {
                    trace.push(Step::Write { row: row_of(bit), class, source });
                }
                Event::Read { bit, class } => {
                    trace.push(Step::Read { row: row_of(bit), class });
                }
                Event::Gate { index, class } => {
                    let gate = &circuit.gates()[index];
                    let a = row_of(gate.input_a());
                    let b = gate.input_b().map_or(a, row_of);
                    trace.push(Step::Gate {
                        kind: gate.kind(),
                        ins: [a, b],
                        out: row_of(gate.output()),
                        class,
                    });
                }
                Event::Transfer { src, dst, src_class, dst_class } => {
                    trace.push(Step::Transfer {
                        src_row: row_of(src),
                        dst_row: row_of(dst),
                        src_class,
                        dst_class,
                    });
                }
            }

            // Release cells whose bits died at this event.
            match *event {
                Event::Gate { index, .. } => {
                    let gate = &circuit.gates()[index];
                    for &input in gate.inputs() {
                        if !pinned[input.idx()] && last_use[input.idx()] == Some(pos) {
                            alloc.release_bit(&slot, input);
                        }
                    }
                    // A result that is never read afterwards is still pinned;
                    // a workspace bit that is never read dies immediately.
                    let out = gate.output();
                    if !pinned[out.idx()] && last_use[out.idx()].map_or(true, |lu| lu <= pos) {
                        alloc.release_bit(&slot, out);
                    }
                }
                Event::Transfer { src, dst, .. } => {
                    if !pinned[src.idx()] && last_use[src.idx()] == Some(pos) {
                        alloc.release_bit(&slot, src);
                    }
                    if !pinned[dst.idx()] && last_use[dst.idx()].map_or(true, |lu| lu <= pos) {
                        alloc.release_bit(&slot, dst);
                    }
                }
                Event::Write { .. } | Event::Read { .. } => {}
            }
        }

        if trace.rows_used() > self.dims.rows() {
            return Err(overflow());
        }

        let result_rows =
            self.result_bits.iter().map(|&b| slot[b.idx()].expect("result bit unplaced")).collect();
        Ok(Workload::new(name.to_owned(), trace, result_rows, result_class))
    }
}

/// Policy-driven workspace cell allocator.
#[derive(Debug)]
struct SlotAllocator {
    policy: AllocPolicy,
    region_start: usize,
    region_end: usize,
    // LowestFirst state.
    free: BinaryHeap<Reverse<usize>>,
    next_fresh: usize,
    // RoundRobin state.
    live: Vec<bool>,
    cursor: usize,
}

impl SlotAllocator {
    fn new(policy: AllocPolicy, region_start: usize, region_end: usize) -> Self {
        SlotAllocator {
            policy,
            region_start,
            region_end,
            free: BinaryHeap::new(),
            next_fresh: region_start,
            live: vec![false; region_end.saturating_sub(region_start)],
            cursor: 0,
        }
    }

    /// A free workspace cell, or `None` when the lane has none left.
    fn alloc(&mut self) -> Option<usize> {
        match self.policy {
            AllocPolicy::LowestFirst => match self.free.pop() {
                Some(Reverse(s)) => Some(s),
                None if self.next_fresh < self.region_end => {
                    let s = self.next_fresh;
                    self.next_fresh += 1;
                    Some(s)
                }
                None => None,
            },
            AllocPolicy::Windowed | AllocPolicy::FullLane => {
                let len = self.live.len();
                for _ in 0..len {
                    let idx = self.cursor;
                    self.cursor = (self.cursor + 1) % len;
                    if !self.live[idx] {
                        self.live[idx] = true;
                        return Some(self.region_start + idx);
                    }
                }
                None
            }
        }
    }

    /// Assigns a fresh cell to `bit` if it does not have one yet; `None`
    /// when the lane has no free cell left.
    fn define(&mut self, slot: &mut [Option<usize>], bit: BitId) -> Option<()> {
        if slot[bit.idx()].is_none() {
            slot[bit.idx()] = Some(self.alloc()?);
        }
        Some(())
    }

    /// Returns `bit`'s cell to the pool.
    fn release_bit(&mut self, slot: &[Option<usize>], bit: BitId) {
        if let Some(s) = slot[bit.idx()] {
            match self.policy {
                AllocPolicy::LowestFirst => self.free.push(Reverse(s)),
                AllocPolicy::Windowed | AllocPolicy::FullLane => {
                    self.live[s - self.region_start] = false;
                }
            }
        }
    }
}

/// Emits a `COPY` chain moving `word` one bit at a time inside the same
/// lane class (utility for ablations; costs one gate per bit).
pub fn copy_within(wb: &mut WorkloadBuilder, word: &[BitId], class: ClassId) -> Vec<BitId> {
    wb.compute(class, |cb| word.iter().map(|&b| cb.gate1(GateKind::Copy, b)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpim_array::{ArchStyle, IdentityMap, PimArray};
    use nvpim_logic::{circuits, words};

    fn add_workload_with(width: usize, lanes: usize, policy: AllocPolicy) -> Workload {
        let dims = ArrayDims::new(64, lanes);
        let mut wb = WorkloadBuilder::new(dims).with_alloc_policy(policy);
        let all = wb.add_class(LaneSet::full(lanes));
        let a = wb.load_word(width, all);
        let b = wb.load_word(width, all);
        let sum = wb.compute(all, |cb| circuits::ripple_carry_add(cb, &a, &b));
        wb.pin_results(&sum, all);
        wb.readout(&sum, all);
        wb.finish("add")
    }

    fn add_workload(width: usize, lanes: usize) -> Workload {
        add_workload_with(width, lanes, AllocPolicy::default())
    }

    #[test]
    fn inputs_get_the_first_slots() {
        let wl = add_workload(4, 2);
        // 8 input bits occupy rows 0..8; the 5 result bits follow.
        assert_eq!(wl.result_rows(), &[8, 9, 10, 11, 12]);
    }

    #[test]
    fn lowest_first_workspace_is_compact() {
        let wl = add_workload_with(8, 2, AllocPolicy::LowestFirst);
        // 16 inputs + 9 results pinned = 25 dedicated cells. A ripple adder
        // keeps only a few intermediates alive, so total cells stay well
        // under pinned + gates.
        let rows = wl.trace().rows_used();
        assert!(rows > 25, "some workspace must exist, got {rows}");
        assert!(rows < 40, "workspace must be recycled, got {rows}");
    }

    #[test]
    fn full_lane_spreads_workspace() {
        // FullLane walks the whole workspace region (the 8-bit adder's 76
        // gates wrap the 64-row lane), leaving one spare row.
        let wl = add_workload_with(8, 2, AllocPolicy::FullLane);
        assert_eq!(wl.trace().rows_used(), 63);
    }

    #[test]
    fn windowed_band_sits_between_extremes() {
        let compact = add_workload_with(8, 2, AllocPolicy::LowestFirst).trace().rows_used();
        let windowed = add_workload_with(8, 2, AllocPolicy::Windowed).trace().rows_used();
        let full = add_workload_with(8, 2, AllocPolicy::FullLane).trace().rows_used();
        assert!(compact <= windowed, "{compact} <= {windowed}");
        assert!(windowed <= full, "{windowed} <= {full}");
    }

    #[test]
    fn policies_agree_functionally() {
        for policy in [AllocPolicy::Windowed, AllocPolicy::FullLane, AllocPolicy::LowestFirst] {
            let wl = add_workload_with(8, 2, policy);
            let mut array =
                nvpim_array::PimArray::new(wl.trace().dims()).with_arch(ArchStyle::SenseAmp);
            let mut map = nvpim_array::IdentityMap;
            array.execute(wl.trace(), &mut map, &mut |lane, k| {
                let (a, b) = (200u64, 55 + lane as u64);
                if k < 8 {
                    (a >> k) & 1 == 1
                } else {
                    (b >> (k - 8)) & 1 == 1
                }
            });
            assert_eq!(array.word(wl.result_rows(), 0, &map), 255, "{policy:?}");
            assert_eq!(array.word(wl.result_rows(), 1, &map), 256, "{policy:?}");
        }
    }

    #[test]
    fn functional_execution_of_layout() {
        let wl = add_workload(8, 4);
        let mut array = PimArray::new(wl.trace().dims()).with_arch(ArchStyle::PresetOutput);
        let mut map = IdentityMap;
        // lane l computes (3l + 1) + (2l + 5).
        array.execute(wl.trace(), &mut map, &mut |lane, k| {
            let (a, b) = (3 * lane as u64 + 1, 2 * lane as u64 + 5);
            if k < 8 {
                (a >> k) & 1 == 1
            } else {
                (b >> (k - 8)) & 1 == 1
            }
        });
        for lane in 0..4 {
            let sum = array.word(wl.result_rows(), lane, &map);
            assert_eq!(sum, (3 * lane as u64 + 1) + (2 * lane as u64 + 5), "lane {lane}");
        }
    }

    #[test]
    fn transfer_pairs_lanes() {
        let dims = ArrayDims::new(32, 4);
        let mut wb = WorkloadBuilder::new(dims);
        let all = wb.add_class(LaneSet::full(4));
        let hi = wb.add_class(LaneSet::range(4, 2, 4));
        let lo = wb.add_class(LaneSet::range(4, 0, 2));
        let word = wb.load_word(4, all);
        let received = wb.receive_word(&word, hi, lo);
        let sum = wb.compute(lo, |cb| circuits::ripple_carry_add(cb, &word, &received));
        wb.pin_results(&sum, lo);
        let wl = wb.finish("pairsum");

        let mut array = PimArray::new(dims).with_arch(ArchStyle::SenseAmp);
        let mut map = IdentityMap;
        // lane l holds value l + 1.
        array.execute(wl.trace(), &mut map, &mut |lane, k| ((lane as u64 + 1) >> k) & 1 == 1);
        // lane 0 computes 1 + 3, lane 1 computes 2 + 4.
        assert_eq!(array.word(wl.result_rows(), 0, &map), 4);
        assert_eq!(array.word(wl.result_rows(), 1, &map), 6);
    }

    #[test]
    fn constants_are_written_per_iteration() {
        let dims = ArrayDims::new(32, 2);
        let mut wb = WorkloadBuilder::new(dims);
        let all = wb.add_class(LaneSet::full(2));
        let x = wb.load_word(4, all);
        let threshold = wb.load_const_word(5, 4, all);
        let ge = wb.compute(all, |cb| circuits::greater_equal(cb, &x, &threshold));
        wb.pin_results(&[ge], all);
        let wl = wb.finish("ge5");
        let mut array = PimArray::new(dims).with_arch(ArchStyle::SenseAmp);
        let mut map = IdentityMap;
        array.execute(wl.trace(), &mut map, &mut |lane, k| {
            let v = if lane == 0 { 7u64 } else { 3 };
            (v >> k) & 1 == 1
        });
        assert!(array.bit(wl.result_rows()[0], 0, &map)); // 7 >= 5
        assert!(!array.bit(wl.result_rows()[0], 1, &map)); // 3 < 5
    }

    #[test]
    fn zero_extension_shares_one_cell() {
        let dims = ArrayDims::new(32, 2);
        let mut wb = WorkloadBuilder::new(dims);
        let all = wb.add_class(LaneSet::full(2));
        let a = wb.load_word(3, all);
        let b = wb.load_word(5, all);
        let zero = wb.load_constant(false, all);
        let a5 = WorkloadBuilder::zero_extended(&a, 5, zero);
        let sum = wb.compute(all, |cb| circuits::ripple_carry_add(cb, &a5, &b));
        wb.pin_results(&sum, all);
        let wl = wb.finish("mixed");
        let mut array = PimArray::new(dims).with_arch(ArchStyle::SenseAmp);
        let mut map = IdentityMap;
        array.execute(wl.trace(), &mut map, &mut |_, k| {
            let bits = words::to_bits(0b101, 3).into_iter().chain(words::to_bits(0b10110, 5));
            bits.collect::<Vec<_>>()[k]
        });
        assert_eq!(array.word(wl.result_rows(), 0, &map), 0b101 + 0b10110);
    }

    #[test]
    #[should_panic(expected = "must pin a result")]
    fn result_required() {
        let dims = ArrayDims::new(8, 2);
        let wb = WorkloadBuilder::new(dims);
        let _ = wb.finish("empty");
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn overflow_detected() {
        let dims = ArrayDims::new(16, 2);
        let mut wb = WorkloadBuilder::new(dims);
        let all = wb.add_class(LaneSet::full(2));
        let a = wb.load_word(8, all);
        let b = wb.load_word(8, all);
        let p = wb.compute(all, |cb| circuits::multiply(cb, &a, &b));
        wb.pin_results(&p, all);
        let _ = wb.finish("toolarge");
    }
}
