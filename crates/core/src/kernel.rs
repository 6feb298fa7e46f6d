//! Compiled wear kernels for dynamic (`+Hw`) configurations, and the
//! row-vector accumulator every epoch-folding path of the analytic engine
//! shares.
//!
//! Hardware free-row renaming is a *position-based* state machine: which
//! entries of its arrangement a trace reads, redirects, and swaps is fixed
//! by the trace and the software row table — the arrangement's current
//! contents never feed back into the control flow. That makes one symbolic
//! replay per software epoch sufficient:
//!
//! 1. **Compile** ([`compile`]): walk the trace once
//!    against a *fresh* [`HwRemapper`] (identity arrangement), translating
//!    rows through the epoch's software table. Record each operation's
//!    returned slot into per-(class, slot) delta panels, plus the net slot
//!    permutation `E` and the redirect count `k` of one iteration. If the
//!    start-of-epoch arrangement is `A₀`, the real replay's iteration `i`
//!    deposits the slot-`t` delta at physical row `A₀[Eⁱ[t]]` — exactly
//!    (proved inductively: real state = `A₀ ∘ symbolic state` before every
//!    operation, and both sides apply the same position swaps).
//! 2. **Fold** ([`apply_kernel_epoch`]): collapse the epoch's `span`
//!    iterations into per-slot totals over `E`'s cycle structure (O(rows),
//!    any span — [`WearKernel::fold_epoch_into`]) and place them through
//!    `A₀` into one row vector per class. The epoch's wear is then
//!    `Σ_c rowvec(c) ⊗ lanes(c)`, with `lanes(c)` the class's physical lane
//!    set under the epoch's lane permutation. Row vectors are summed per
//!    distinct lane set ([`PendingTerms`]) and reach the [`WearMap`] only
//!    on a flush; a full-width class keeps one lane set under every lane
//!    permutation, so most epochs cost O(rows × classes), not O(cells).
//! 3. **Advance**: set the remapper to `A₀ ∘ E^span` and book `span × k`
//!    redirects, so the renaming state and the observability tally are
//!    bit-identical to having replayed every iteration.
//!
//! Pending terms are flushed at the end of every query (so before every
//! epoch-series sample too), and whenever the next epoch's keys could take
//! the key count past the lane count — so the row vectors never hold more
//! values than the one `rows × lanes` plane they stand in for.
//!
//! Kernels are memoized per software row-table phase and re-validated
//! against the epoch's table ([`WearKernel::matches`]): periodic row
//! strategies (`St`, `Bs`) compile each phase's kernel once; `Ra` rows
//! draw a fresh table every epoch and recompile once per epoch — still one
//! trace walk per epoch instead of one per iteration.

use std::collections::HashMap;

use nvpim_array::{ArchStyle, LaneSet, Step, Trace, WearKernel, WearMap};
use nvpim_balance::{CombinedMap, HwRemapper};

/// The ascending lanes of `set` as contiguous `start..end` runs.
fn lane_runs(set: &LaneSet) -> Vec<(usize, usize)> {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for lane in set.iter() {
        match runs.last_mut() {
            Some((_, end)) if *end == lane => *end += 1,
            _ => runs.push((lane, lane + 1)),
        }
    }
    runs
}

/// Interned physical lane sets — the keys row vectors are grouped under —
/// with each set's contiguous runs for materialization.
#[derive(Debug, Default)]
pub(crate) struct LaneKeys {
    ids: HashMap<LaneSet, usize>,
    pub(crate) runs: Vec<Vec<(usize, usize)>>,
}

impl LaneKeys {
    pub(crate) fn intern(&mut self, set: LaneSet) -> usize {
        let runs = &mut self.runs;
        *self.ids.entry(set).or_insert_with_key(|set| {
            runs.push(lane_runs(set));
            runs.len() - 1
        })
    }

    pub(crate) fn len(&self) -> usize {
        self.runs.len()
    }

    fn clear(&mut self) {
        self.ids.clear();
        self.runs.clear();
    }
}

/// One write (and read) row vector per lane key; a key's vectors stay
/// unallocated (empty) until terms are added under it.
#[derive(Debug)]
pub(crate) struct RowVecs {
    rows: usize,
    pub(crate) writes: Vec<Vec<u64>>,
    pub(crate) reads: Option<Vec<Vec<u64>>>,
}

impl RowVecs {
    pub(crate) fn new(rows: usize, track_reads: bool) -> Self {
        RowVecs { rows, writes: Vec::new(), reads: track_reads.then(Vec::new) }
    }

    /// Grows to at least `keys` (unallocated) vectors.
    pub(crate) fn fit(&mut self, keys: usize) {
        for vecs in std::iter::once(&mut self.writes).chain(self.reads.as_mut()) {
            if vecs.len() < keys {
                vecs.resize_with(keys, Vec::new);
            }
        }
    }

    /// The key's write and read vectors, allocated on first use.
    pub(crate) fn key_mut(&mut self, key: usize) -> (&mut [u64], Option<&mut [u64]>) {
        fn alloc(v: &mut Vec<u64>, rows: usize) -> &mut [u64] {
            v.resize(rows, 0);
            v
        }
        self.fit(key + 1);
        let rows = self.rows;
        let reads = self.reads.as_mut().map(|reads| alloc(&mut reads[key], rows));
        (alloc(&mut self.writes[key], rows), reads)
    }

    /// Adds one `Hw` epoch's terms: `span` iterations of `kernel` folded
    /// per class and placed through the arrangement `d` under each class's
    /// key.
    pub(crate) fn add_hw(
        &mut self,
        kernel: &WearKernel,
        d: &[usize],
        keys: &[usize],
        span: u64,
        folded: &mut Vec<u64>,
    ) {
        folded.resize(d.len(), 0);
        for (class, &key) in keys.iter().enumerate() {
            let (acc, acc_reads) = self.key_mut(key);
            kernel.fold_epoch_into(span, kernel.slot_writes(class), folded);
            for (&slot_row, &v) in d.iter().zip(folded.iter()) {
                acc[slot_row] += v;
            }
            if let (Some(acc), Some(slot_reads)) = (acc_reads, kernel.slot_reads(class)) {
                kernel.fold_epoch_into(span, slot_reads, folded);
                for (&slot_row, &v) in d.iter().zip(folded.iter()) {
                    acc[slot_row] += v;
                }
            }
        }
    }

    /// Adds `Σ rowvec ⊗ lanes` over every key into `wear`, then zeroes the
    /// vectors for reuse.
    pub(crate) fn drain_into(&mut self, keys: &LaneKeys, wear: &mut WearMap) {
        for (key, runs) in keys.runs.iter().enumerate() {
            if let Some(v) = self.writes.get_mut(key) {
                wear.add_outer(v, runs, false);
                v.fill(0);
            }
            if let Some(v) = self.reads.as_mut().and_then(|reads| reads.get_mut(key)) {
                wear.add_outer(v, runs, true);
                v.fill(0);
            }
        }
    }
}

/// Epoch terms not yet in a wear map: row vectors summed per physical lane
/// set, for epoch sequences whose lane tables do not repeat (`Ra` lanes)
/// or whose terms arrive one epoch at a time (the compiled `+Hw` path).
#[derive(Debug)]
pub(crate) struct PendingTerms {
    pub(crate) keys: LaneKeys,
    pub(crate) vecs: RowVecs,
    /// The current epoch's key per class.
    pub(crate) ids: Vec<usize>,
}

impl PendingTerms {
    pub(crate) fn new(rows: usize, track_reads: bool) -> Self {
        PendingTerms {
            keys: LaneKeys::default(),
            vecs: RowVecs::new(rows, track_reads),
            ids: Vec::new(),
        }
    }

    /// Interns each class's lane set under the lane permutation `perm` as
    /// this epoch's keys (`self.ids`). If those keys could take the count
    /// past one per lane, the pending terms are first flushed into `wear`
    /// and the keys forgotten, which bounds the row vectors by one plane.
    pub(crate) fn intern_epoch(&mut self, classes: &[LaneSet], perm: &[usize], wear: &mut WearMap) {
        if self.keys.len() + classes.len() > perm.len() {
            self.flush(wear);
            self.keys.clear();
        }
        self.ids.clear();
        self.ids.extend(classes.iter().map(|c| self.keys.intern(c.permuted(perm))));
    }

    /// Adds every pending term into `wear`; the keys stay interned.
    pub(crate) fn flush(&mut self, wear: &mut WearMap) {
        self.vecs.drain_into(&self.keys, wear);
    }
}

/// Reusable state for folding kernel epochs into row vectors, owned by the
/// analytic engine's lazy `+Hw` backend.
#[derive(Debug)]
pub(crate) struct EpochScratch {
    pub(crate) terms: PendingTerms,
    /// One class's folded per-slot totals.
    folded: Vec<u64>,
    /// Arrangement scratch (A₀, advanced in place to A_span).
    arrangement: Vec<usize>,
    cycle_scratch: Vec<usize>,
}

impl EpochScratch {
    pub(crate) fn new(trace: &Trace, track_reads: bool) -> Self {
        EpochScratch {
            terms: PendingTerms::new(trace.dims().rows(), track_reads),
            folded: Vec::new(),
            arrangement: Vec::new(),
            cycle_scratch: Vec::new(),
        }
    }
}

/// Folds one epoch of `span` iterations of `kernel` into the scratch's
/// pending row vectors and advances the map's renaming state, so that
/// after [`PendingTerms::flush`] `wear` is bit-identical to `span` step
/// replays. A threshold flush may land earlier terms in `wear`. The kernel
/// must have been compiled against the map's current software row table.
///
/// # Panics
///
/// Panics if the map is not dynamic.
pub(crate) fn apply_kernel_epoch(
    kernel: &WearKernel,
    trace: &Trace,
    map: &mut CombinedMap,
    span: u64,
    wear: &mut WearMap,
    s: &mut EpochScratch,
) {
    debug_assert!(kernel.matches(map.sw_row_table()), "kernel is stale for this epoch");
    s.terms.intern_epoch(trace.classes(), map.lane_permutation(), wear);
    let hw = map.hw_mut().expect("compiled path requires a dynamic map");
    s.arrangement.clear();
    s.arrangement.extend_from_slice(&hw.arrangement());
    s.terms.vecs.add_hw(kernel, &s.arrangement, &s.terms.ids, span, &mut s.folded);
    kernel.advance_arrangement(span, &mut s.arrangement, &mut s.cycle_scratch);
    hw.set_arrangement(&s.arrangement);
    hw.add_redirects(span * kernel.redirects_per_iteration());
}

/// Symbolically replays one iteration: a fresh remapper plays the hardware
/// stage, rows translate through the epoch's software `table`. Mirrors the
/// simulator's `Accumulator::replay` operation for operation — in particular a gate
/// redirects *before* its input reads are tallied.
pub(crate) fn compile(
    trace: &Trace,
    table: &[usize],
    arch: ArchStyle,
    track_reads: bool,
) -> WearKernel {
    let slots = trace.dims().rows();
    let lanes = trace.dims().lanes();
    let mut sym = HwRemapper::new(slots);
    let all_lanes: Vec<bool> = trace.classes().iter().map(|c| c.count() == lanes).collect();
    let writes_per_gate = arch.writes_per_gate();
    let n_classes = trace.classes().len();
    let mut slot_writes = vec![vec![0u64; slots]; n_classes];
    let mut slot_reads = track_reads.then(|| vec![vec![0u64; slots]; n_classes]);
    for step in trace.steps() {
        match *step {
            Step::Write { row, class, .. } => {
                slot_writes[class][sym.lookup(table[row])] += 1;
            }
            Step::Read { row, class } => {
                if let Some(reads) = &mut slot_reads {
                    reads[class][sym.lookup(table[row])] += 1;
                }
            }
            Step::Gate { kind, ins, out, class } => {
                let slot = if all_lanes[class] {
                    sym.redirect(table[out])
                } else {
                    sym.lookup(table[out])
                };
                slot_writes[class][slot] += writes_per_gate;
                if let Some(reads) = &mut slot_reads {
                    reads[class][sym.lookup(table[ins[0]])] += 1;
                    if kind.arity() == 2 {
                        reads[class][sym.lookup(table[ins[1]])] += 1;
                    }
                }
            }
            Step::Transfer { src_row, dst_row, src_class, dst_class } => {
                slot_writes[dst_class][sym.lookup(table[dst_row])] += 1;
                if let Some(reads) = &mut slot_reads {
                    reads[src_class][sym.lookup(table[src_row])] += 1;
                }
            }
        }
    }
    let redirects = sym.redirects();
    WearKernel::new(table.to_vec(), slot_writes, slot_reads, sym.arrangement(), redirects)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpim_array::ArrayDims;

    #[test]
    fn pending_terms_stay_within_one_key_per_lane_and_lose_nothing() {
        // Four partial-width classes on 8 lanes, re-permuted every epoch:
        // fresh keys keep arriving, so the threshold flush must fire and
        // keep the key count at or below the lane count, and every term
        // must still reach the map exactly once.
        let (rows, lanes) = (6, 8);
        let dims = ArrayDims::new(rows, lanes);
        let classes: Vec<LaneSet> =
            (0..4).map(|c| LaneSet::from_indices(lanes, &[c, c + 1, 7 - c])).collect();
        let mut terms = PendingTerms::new(rows, true);
        let mut wear = WearMap::new(dims);
        let mut reference = WearMap::new(dims);
        let mut perm: Vec<usize> = (0..lanes).collect();
        let mut flushed_mid_run = false;
        for epoch in 0..40u64 {
            perm.rotate_left(3);
            perm.swap(0, (epoch as usize) % lanes);
            terms.intern_epoch(&classes, &perm, &mut wear);
            assert!(terms.keys.len() <= lanes, "epoch {epoch}: {} keys", terms.keys.len());
            flushed_mid_run |= wear.total_writes() > 0;
            for (class, &key) in terms.ids.iter().enumerate() {
                let row = (epoch as usize + class) % rows;
                let (writes, reads) = terms.vecs.key_mut(key);
                writes[row] += epoch + 1;
                reads.expect("reads tracked")[row] += 2;
                let set = classes[class].permuted(&perm);
                reference.add_writes(row, &set, epoch + 1);
                reference.add_reads(row, &set, 2);
            }
        }
        terms.flush(&mut wear);
        assert!(flushed_mid_run, "the key threshold never triggered a flush");
        for row in 0..rows {
            for lane in 0..lanes {
                assert_eq!(wear.writes_at(row, lane), reference.writes_at(row, lane));
                assert_eq!(wear.reads_at(row, lane), reference.reads_at(row, lane));
            }
        }
        assert_eq!(wear.total_writes(), reference.total_writes());
        assert_eq!(wear.total_reads(), reference.total_reads());
    }
}
