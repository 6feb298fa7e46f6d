//! Per-cell read/write accounting and distribution statistics.

use crate::{ArrayDims, LaneSet};

/// A 2-D map of accumulated cell writes (and reads) over an array.
///
/// This is the paper's core measurement artifact: the write distributions
/// visualized as heatmaps in Figs. 14–16 and fed into the lifetime formula
/// (Eq. 4) via [`WearMap::max_writes`].
///
/// # Examples
///
/// ```
/// use nvpim_array::{ArrayDims, LaneSet, WearMap};
///
/// let mut wear = WearMap::new(ArrayDims::new(4, 4));
/// wear.add_writes(0, &LaneSet::full(4), 5);
/// wear.add_writes(1, &LaneSet::range(4, 0, 2), 1);
/// assert_eq!(wear.max_writes(), 5);
/// assert_eq!(wear.writes_at(1, 1), 1);
/// assert_eq!(wear.writes_at(1, 3), 0);
/// ```
#[derive(Debug, Clone)]
pub struct WearMap {
    dims: ArrayDims,
    writes: Vec<u64>,
    // Empty until the first read lands: a map that tracks no reads neither
    // allocates nor clones a second plane. Readers treat it as all zeros.
    reads: Vec<u64>,
    // Running grand totals, maintained by every mutator so that
    // `total_writes`/`total_reads` are O(1). The conservation checker in
    // nvpim-check cross-validates these against the per-cell sums.
    sum_writes: u64,
    sum_reads: u64,
}

impl WearMap {
    /// A zeroed wear map.
    #[must_use]
    pub fn new(dims: ArrayDims) -> Self {
        WearMap {
            dims,
            writes: vec![0; dims.cells()],
            reads: Vec::new(),
            sum_writes: 0,
            sum_reads: 0,
        }
    }

    /// The dimensions this map covers.
    #[must_use]
    pub fn dims(&self) -> ArrayDims {
        self.dims
    }

    /// Adds `count` writes to the cell at every lane of `lanes` in `row`.
    pub fn add_writes(&mut self, row: usize, lanes: &LaneSet, count: u64) {
        let base = row * self.dims.lanes();
        for lane in lanes.iter() {
            self.writes[base + lane] += count;
            self.sum_writes += count;
        }
    }

    /// Adds `count` reads to the cell at every lane of `lanes` in `row`.
    pub fn add_reads(&mut self, row: usize, lanes: &LaneSet, count: u64) {
        let base = row * self.dims.lanes();
        let reads = self.reads_mut();
        for lane in lanes.iter() {
            reads[base + lane] += count;
        }
        self.sum_reads += count * lanes.count() as u64;
    }

    /// Adds one write at a single cell.
    pub fn add_write_at(&mut self, row: usize, lane: usize, count: u64) {
        self.writes[self.dims.index_of(row, lane)] += count;
        self.sum_writes += count;
    }

    /// Adds one read at a single cell.
    pub fn add_read_at(&mut self, row: usize, lane: usize, count: u64) {
        let index = self.dims.index_of(row, lane);
        self.reads_mut()[index] += count;
        self.sum_reads += count;
    }

    /// Accumulated writes at `(row, lane)`.
    #[must_use]
    pub fn writes_at(&self, row: usize, lane: usize) -> u64 {
        self.writes[self.dims.index_of(row, lane)]
    }

    /// Accumulated reads at `(row, lane)`.
    #[must_use]
    pub fn reads_at(&self, row: usize, lane: usize) -> u64 {
        let index = self.dims.index_of(row, lane);
        if self.reads.is_empty() {
            0
        } else {
            self.reads[index]
        }
    }

    /// Merges another wear map into this one.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn merge(&mut self, other: &WearMap) {
        assert_eq!(self.dims, other.dims, "wear map dimension mismatch");
        for (a, b) in self.writes.iter_mut().zip(&other.writes) {
            *a += b;
        }
        if !other.reads.is_empty() {
            for (a, b) in self.reads_mut().iter_mut().zip(&other.reads) {
                *a += b;
            }
        }
        self.sum_writes += other.sum_writes;
        self.sum_reads += other.sum_reads;
    }

    /// Folds many wear maps into one by summation — the result-collection
    /// primitive for parallel runs, where each worker accumulates a private
    /// map that is merged back in deterministic submission order.
    ///
    /// # Panics
    ///
    /// Panics if any map's dimensions differ from `dims`.
    #[must_use]
    pub fn merged(dims: ArrayDims, maps: impl IntoIterator<Item = WearMap>) -> WearMap {
        let mut total = WearMap::new(dims);
        for map in maps {
            total.merge(&map);
        }
        total
    }

    /// Adds the rank-1 term `rowvec ⊗ runs` to the write plane (or, with
    /// `reads`, the read plane): `rowvec[x]` at every lane of every
    /// `start..end` run of row `x`. Row-vector epoch algebra reaches the
    /// map through this — one pass over the touched cells per distinct
    /// lane set, however many epochs were summed into `rowvec`.
    ///
    /// # Panics
    ///
    /// Panics if a run ends past the lane count.
    pub fn add_outer(&mut self, rowvec: &[u64], runs: &[(usize, usize)], reads: bool) {
        let width: u64 = runs.iter().map(|&(start, end)| (end - start) as u64).sum();
        let lanes = self.dims.lanes();
        let (plane, sum) = self.plane_mut(reads);
        for (row, &v) in plane.chunks_exact_mut(lanes).zip(rowvec) {
            if v == 0 {
                continue;
            }
            for &(start, end) in runs {
                for cell in &mut row[start..end] {
                    *cell += v;
                }
            }
            *sum += v * width;
        }
    }

    /// Adds `scale × weights[lane]` at every lane of `row`, to the write
    /// plane or (with `reads`) the read plane — one row of a rank-1 term
    /// whose lane side is a weight vector rather than a lane set.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn add_row_scaled(&mut self, row: usize, weights: &[u64], scale: u64, reads: bool) {
        let lanes = self.dims.lanes();
        let (plane, sum) = self.plane_mut(reads);
        for (cell, &w) in plane[row * lanes..(row + 1) * lanes].iter_mut().zip(weights) {
            *cell += scale * w;
            *sum += scale * w;
        }
    }

    fn plane_mut(&mut self, reads: bool) -> (&mut [u64], &mut u64) {
        if reads {
            self.reads_mut();
            (&mut self.reads, &mut self.sum_reads)
        } else {
            (&mut self.writes, &mut self.sum_writes)
        }
    }

    /// The read plane, allocated on first use.
    fn reads_mut(&mut self) -> &mut [u64] {
        if self.reads.is_empty() {
            self.reads = vec![0; self.dims.cells()];
        }
        &mut self.reads
    }

    /// Maximum writes over all cells (the lifetime-limiting cell, Eq. 4).
    #[must_use]
    pub fn max_writes(&self) -> u64 {
        self.writes.iter().copied().max().unwrap_or(0)
    }

    /// Total writes over all cells. O(1): returns the running sum kept in
    /// lockstep with the per-cell counters.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.sum_writes
    }

    /// Total reads over all cells. O(1), like [`WearMap::total_writes`].
    #[must_use]
    pub fn total_reads(&self) -> u64 {
        self.sum_reads
    }

    /// Total writes recomputed by summing every cell — the O(cells)
    /// reference the cached [`WearMap::total_writes`] must always agree
    /// with. Exposed for the conservation checker.
    #[must_use]
    pub fn recount_writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Total reads recomputed by summing every cell (see
    /// [`WearMap::recount_writes`]).
    #[must_use]
    pub fn recount_reads(&self) -> u64 {
        self.reads.iter().sum()
    }

    /// Number of cells written at least once (the touched footprint; also
    /// used to pre-size sparse exports like the CSV report).
    #[must_use]
    pub fn nonzero_cells(&self) -> usize {
        self.writes.iter().filter(|&&w| w > 0).count()
    }

    /// Mean writes per cell.
    #[must_use]
    pub fn mean_writes(&self) -> f64 {
        self.total_writes() as f64 / self.dims.cells() as f64
    }

    /// Coordinates `(row, lane)` of a maximally-written cell.
    #[must_use]
    pub fn argmax_writes(&self) -> (usize, usize) {
        let (idx, _) = self
            .writes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &w)| w)
            .expect("wear map is never empty");
        (idx / self.dims.lanes(), idx % self.dims.lanes())
    }

    /// Ratio of the maximum to the mean write count (1.0 = perfectly
    /// balanced). The paper's balancing strategies aim to drive this
    /// toward 1.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_writes();
        if mean == 0.0 {
            1.0
        } else {
            self.max_writes() as f64 / mean
        }
    }

    /// Per-row totals (marginal over lanes).
    #[must_use]
    pub fn row_totals(&self) -> Vec<u64> {
        (0..self.dims.rows())
            .map(|r| {
                let base = r * self.dims.lanes();
                self.writes[base..base + self.dims.lanes()].iter().sum()
            })
            .collect()
    }

    /// Per-lane totals (marginal over rows).
    #[must_use]
    pub fn lane_totals(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.dims.lanes()];
        for r in 0..self.dims.rows() {
            let base = r * self.dims.lanes();
            for (lane, t) in totals.iter_mut().enumerate() {
                *t += self.writes[base + lane];
            }
        }
        totals
    }

    /// Per-cell write counts of one row.
    #[must_use]
    pub fn row_writes(&self, row: usize) -> &[u64] {
        let base = row * self.dims.lanes();
        &self.writes[base..base + self.dims.lanes()]
    }

    /// Gini coefficient of the write distribution (0 = perfectly even,
    /// → 1 = concentrated on few cells). A scalar summary of heatmap
    /// uniformity used in reports.
    #[must_use]
    pub fn gini(&self) -> f64 {
        let mut sorted: Vec<u64> = self.writes.clone();
        sorted.sort_unstable();
        let n = sorted.len() as f64;
        let total: u64 = sorted.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: f64 =
            sorted.iter().enumerate().map(|(i, &w)| (i as f64 + 1.0) * w as f64).sum();
        (2.0 * weighted) / (n * total as f64) - (n + 1.0) / n
    }

    /// Nearest-rank quantile of the per-cell write distribution:
    /// `write_quantile(0.99)` is the smallest count `w` such that at least
    /// 99% of cells have `writes ≤ w`. `q` is clamped to `[0, 1]`; `q = 0`
    /// gives the minimum, `q = 1` the maximum. A pure function of the
    /// write counts, so replayed and compiled runs agree bit for bit.
    #[must_use]
    pub fn write_quantile(&self, q: f64) -> u64 {
        if self.writes.is_empty() {
            return 0;
        }
        let mut sorted: Vec<u64> = self.writes.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: ceil(q * n), 1-based; q = 0 maps to rank 1.
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    }

    /// Downsamples the write map onto a `grid_rows × grid_lanes` grid of
    /// cell-averaged densities normalized to the maximum bucket (1.0 =
    /// hottest bucket), for heatmap rendering.
    ///
    /// # Panics
    ///
    /// Panics if either grid dimension is zero or exceeds the array
    /// dimension.
    #[must_use]
    pub fn heatmap(&self, grid_rows: usize, grid_lanes: usize) -> Vec<Vec<f64>> {
        assert!(grid_rows > 0 && grid_rows <= self.dims.rows(), "bad grid rows");
        assert!(grid_lanes > 0 && grid_lanes <= self.dims.lanes(), "bad grid lanes");
        let mut sums = vec![vec![0f64; grid_lanes]; grid_rows];
        let mut counts = vec![vec![0u64; grid_lanes]; grid_rows];
        for r in 0..self.dims.rows() {
            let gr = r * grid_rows / self.dims.rows();
            let base = r * self.dims.lanes();
            for l in 0..self.dims.lanes() {
                let gl = l * grid_lanes / self.dims.lanes();
                sums[gr][gl] += self.writes[base + l] as f64;
                counts[gr][gl] += 1;
            }
        }
        let mut max = 0f64;
        for (row, crow) in sums.iter_mut().zip(&counts) {
            for (v, &c) in row.iter_mut().zip(crow) {
                *v /= c as f64;
                max = max.max(*v);
            }
        }
        if max > 0.0 {
            for row in &mut sums {
                for v in row {
                    *v /= max;
                }
            }
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation_and_queries() {
        let mut w = WearMap::new(ArrayDims::new(4, 4));
        w.add_writes(2, &LaneSet::full(4), 3);
        w.add_write_at(2, 1, 2);
        assert_eq!(w.writes_at(2, 1), 5);
        assert_eq!(w.max_writes(), 5);
        assert_eq!(w.total_writes(), 14);
        assert_eq!(w.argmax_writes(), (2, 1));
    }

    #[test]
    fn nonzero_cells_counts_touched_footprint() {
        let mut w = WearMap::new(ArrayDims::new(4, 4));
        assert_eq!(w.nonzero_cells(), 0);
        w.add_writes(0, &LaneSet::full(4), 2);
        w.add_write_at(3, 1, 1);
        w.add_write_at(3, 1, 5); // same cell again: still one cell
        assert_eq!(w.nonzero_cells(), 5);
        w.add_reads(2, &LaneSet::full(4), 9); // reads don't count
        assert_eq!(w.nonzero_cells(), 5);
    }

    #[test]
    fn reads_tracked_separately() {
        let mut w = WearMap::new(ArrayDims::new(2, 2));
        w.add_reads(0, &LaneSet::full(2), 7);
        w.add_read_at(1, 1, 1);
        assert_eq!(w.total_reads(), 15);
        assert_eq!(w.reads_at(1, 1), 1);
        assert_eq!(w.total_writes(), 0);
    }

    #[test]
    fn write_quantile_is_nearest_rank() {
        let mut w = WearMap::new(ArrayDims::new(2, 2));
        // Cell counts: [0, 1, 2, 3].
        w.add_write_at(0, 1, 1);
        w.add_write_at(1, 0, 2);
        w.add_write_at(1, 1, 3);
        assert_eq!(w.write_quantile(0.0), 0);
        assert_eq!(w.write_quantile(0.25), 0);
        assert_eq!(w.write_quantile(0.5), 1);
        assert_eq!(w.write_quantile(0.75), 2);
        assert_eq!(w.write_quantile(0.99), 3);
        assert_eq!(w.write_quantile(1.0), 3);
        assert_eq!(w.write_quantile(1.0), w.max_writes());
        // Out-of-range quantiles clamp rather than panic.
        assert_eq!(w.write_quantile(-1.0), 0);
        assert_eq!(w.write_quantile(2.0), 3);
    }

    #[test]
    fn marginals() {
        let mut w = WearMap::new(ArrayDims::new(3, 2));
        w.add_writes(0, &LaneSet::full(2), 1);
        w.add_writes(1, &LaneSet::from_indices(2, &[1]), 4);
        assert_eq!(w.row_totals(), vec![2, 4, 0]);
        assert_eq!(w.lane_totals(), vec![1, 5]);
        assert_eq!(w.row_writes(1), &[0, 4]);
    }

    #[test]
    fn imbalance_of_uniform_map_is_one() {
        let mut w = WearMap::new(ArrayDims::new(8, 8));
        for r in 0..8 {
            w.add_writes(r, &LaneSet::full(8), 10);
        }
        assert!((w.imbalance() - 1.0).abs() < 1e-12);
        assert!(w.gini().abs() < 1e-9);
    }

    #[test]
    fn gini_detects_concentration() {
        let mut even = WearMap::new(ArrayDims::new(4, 4));
        for r in 0..4 {
            even.add_writes(r, &LaneSet::full(4), 1);
        }
        let mut skewed = WearMap::new(ArrayDims::new(4, 4));
        skewed.add_write_at(0, 0, 16);
        assert!(skewed.gini() > even.gini());
        assert!(skewed.gini() > 0.9);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = WearMap::new(ArrayDims::new(2, 2));
        let mut b = WearMap::new(ArrayDims::new(2, 2));
        a.add_write_at(0, 0, 1);
        b.add_write_at(0, 0, 2);
        b.add_read_at(1, 1, 3);
        a.merge(&b);
        assert_eq!(a.writes_at(0, 0), 3);
        assert_eq!(a.reads_at(1, 1), 3);
    }

    #[test]
    fn read_plane_is_allocated_on_first_read_only() {
        let dims = ArrayDims::new(2, 3);
        let mut writes_only = WearMap::new(dims);
        writes_only.add_write_at(1, 2, 4);
        let mut with_reads = WearMap::new(dims);
        with_reads.add_read_at(0, 1, 5);
        assert!(writes_only.reads.is_empty(), "no read, no read plane");

        // Cloning a map without reads copies no read plane; its reads are 0.
        let copy = writes_only.clone();
        assert!(copy.reads.is_empty());
        assert_eq!((copy.reads_at(0, 1), copy.total_reads(), copy.recount_reads()), (0, 0, 0));

        // Merging a map without reads leaves the target's plane untouched.
        let mut target = writes_only.clone();
        target.merge(&writes_only);
        assert!(target.reads.is_empty());
        assert_eq!(target.writes_at(1, 2), 8);

        // Merging a map with reads into one without allocates the plane.
        target.merge(&with_reads);
        assert_eq!(target.reads_at(0, 1), 5);
        assert_eq!(target.total_reads(), target.recount_reads());

        // And the other way round: merging a read-free map changes no read.
        let mut reads_first = with_reads.clone();
        reads_first.merge(&writes_only);
        assert_eq!(reads_first.reads_at(0, 1), 5);
        assert_eq!(reads_first.reads_at(1, 2), 0);
        assert_eq!(reads_first.writes_at(1, 2), 4);
        assert_eq!(reads_first.clone().reads_at(0, 1), 5);
    }

    #[test]
    fn merged_folds_many_maps() {
        let dims = ArrayDims::new(3, 2);
        let maps: Vec<WearMap> = (0..4u64)
            .map(|i| {
                let mut m = WearMap::new(dims);
                m.add_write_at(i as usize % 3, 0, i + 1);
                m.add_read_at(0, 1, i);
                m
            })
            .collect();
        let total = WearMap::merged(dims, maps);
        assert_eq!(total.total_writes(), 1 + 2 + 3 + 4);
        assert_eq!(total.reads_at(0, 1), 1 + 2 + 3);
        assert_eq!(total.writes_at(0, 0), 1 + 4);
        let empty = WearMap::merged(dims, std::iter::empty());
        assert_eq!(empty.total_writes(), 0);
    }

    #[test]
    fn heatmap_normalizes_to_unit_max() {
        let mut w = WearMap::new(ArrayDims::new(8, 8));
        w.add_writes(0, &LaneSet::full(8), 10);
        w.add_writes(4, &LaneSet::full(8), 5);
        let h = w.heatmap(2, 2);
        assert_eq!(h.len(), 2);
        assert!((h[0][0] - 1.0).abs() < 1e-12);
        assert!((h[1][0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cached_totals_track_every_mutator() {
        let mut w = WearMap::new(ArrayDims::new(4, 4));
        w.add_writes(0, &LaneSet::full(4), 3);
        w.add_reads(1, &LaneSet::range(4, 0, 2), 2);
        w.add_write_at(3, 3, 7);
        w.add_read_at(2, 0, 5);
        let mut other = WearMap::new(ArrayDims::new(4, 4));
        other.add_writes(2, &LaneSet::full(4), 1);
        other.add_read_at(0, 0, 4);
        w.merge(&other);
        assert_eq!(w.total_writes(), w.recount_writes());
        assert_eq!(w.total_reads(), w.recount_reads());
        assert_eq!(w.total_writes(), 12 + 7 + 4);
        assert_eq!(w.total_reads(), 4 + 5 + 4);
    }

    #[test]
    fn outer_and_scaled_row_adds_match_per_cell_adds() {
        let dims = ArrayDims::new(3, 5);
        let mut fast = WearMap::new(dims);
        fast.add_outer(&[2, 0, 7], &[(0, 2), (3, 4)], false);
        fast.add_outer(&[1, 4], &[(4, 5)], true);
        fast.add_row_scaled(2, &[1, 0, 3, 0, 2], 5, false);
        let mut slow = WearMap::new(dims);
        for (row, count) in [(0, 2), (2, 7)] {
            slow.add_writes(row, &LaneSet::from_indices(5, &[0, 1, 3]), count);
        }
        slow.add_read_at(0, 4, 1);
        slow.add_read_at(1, 4, 4);
        for (lane, count) in [(0, 5), (2, 15), (4, 10)] {
            slow.add_write_at(2, lane, count);
        }
        for r in 0..3 {
            for l in 0..5 {
                assert_eq!(fast.writes_at(r, l), slow.writes_at(r, l), "writes ({r},{l})");
                assert_eq!(fast.reads_at(r, l), slow.reads_at(r, l), "reads ({r},{l})");
            }
        }
        assert_eq!(fast.total_writes(), fast.recount_writes());
        assert_eq!(fast.total_reads(), fast.recount_reads());
        assert_eq!(fast.total_writes(), slow.total_writes());
    }

    #[test]
    fn empty_map_statistics_are_defined() {
        let w = WearMap::new(ArrayDims::new(4, 4));
        assert_eq!(w.max_writes(), 0);
        assert!((w.imbalance() - 1.0).abs() < 1e-12);
        assert_eq!(w.gini(), 0.0);
        let h = w.heatmap(2, 2);
        assert_eq!(h[0][0], 0.0);
    }
}
