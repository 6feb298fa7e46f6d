//! Replay-free analytic wear evaluation: per-cell wear as a closed-form (or
//! incrementally materialized) function of the iteration count.
//!
//! The simulator answers "what does the wear map look like after N
//! iterations?" in O(N/period) epoch folds. Lifetime estimation and
//! Fig. 17-style sweeps ask that question at many values of N, so this
//! module factors the *schedule* out the same way [`crate::kernel`]
//! factored the *epoch*: express the whole epoch sequence as permutation
//! cycle algebra and answer any N directly.
//!
//! # Row-vector epoch algebra
//!
//! Every epoch deposits a sum of rank-1 terms, one per lane class `c`:
//! `rowvec(c, e) ⊗ lanes(c, e)`. `lanes(c, e)` is the class's lane set
//! under the epoch's lane table. On the software path `rowvec(c, e)` is
//! `T_e·V_c`, the class's per-row deposit `V_c` scattered through the row
//! table; with `Hw` it is the epoch's folded kernel slots placed through
//! the hardware arrangement `D_e`. So all epoch algebra runs on O(rows)
//! row vectors keyed by the physical lane set they multiply (identical
//! sets share a key), and a query materializes cells once per distinct
//! key at the end. When the row tables repeat and the lane tables do not,
//! the transposed form keys lane vectors by (row phase, class) instead.
//!
//! # Reducibility ladder
//!
//! A configuration's epoch sequence is reducible exactly when every future
//! software row/lane table is a pure function of the epoch index
//! ([`nvpim_balance::Strategy::epoch_period`]):
//!
//! 1. **Closed form** ([`AnalyticPath::ClosedForm`]) — `{St,Bs}` on both
//!    axes, with or without `Hw`, or any config under a `never()`
//!    schedule. The tables repeat with period `L = lcm(L_row, L_col)`, so
//!    `N = (qL + r)·p + rem` iterations weigh epoch `j` of the cycle by
//!    `p·(q + [j < r]) + rem·[j = r]`. Each key keeps prefix sums of its
//!    row vectors over the cycle's phases, so without `Hw` a query weighs
//!    three prefix sums per key. With `Hw` the arrangement advances by
//!    the fixed permutation `F = D_L` per `L`-epoch super-cycle, and `F`
//!    acts on rows only: `q` super-cycles fold the cycle's row vectors
//!    over `F`'s cycles ([`PermFolder`]), and the `r` remainder epochs
//!    plus the partial one add shifted by `Fᵏ`. Memory is
//!    O(cells + L·rows·classes) and query cost is independent of N;
//!    kernels and phases are built only as far as queries reach, so a
//!    20-epoch query never touches a 128-phase cycle's tail.
//! 2. **Lazy** ([`AnalyticPath::Lazy`], O(epochs elapsed) per first query,
//!    O(new epochs) for monotone follow-ups) — any axis running `Ra`
//!    without `Hw`, or `Ra` lanes with periodic rows under `Hw`. Epoch
//!    states are enumerated in schedule order with the exact seeded RNG
//!    streams. Without `Hw` the epochs are grouped by the axis that
//!    repeats: `Ra` rows add O(rows) row vectors per lane key (`RaxSt`:
//!    one lane table, `RaxBs`: at most `L_col`), `Ra` lanes under periodic
//!    rows add lane vectors per row phase (`StxRa`: one row table,
//!    `BsxRa`: at most `L_row`). `RaxRa` keys row vectors by each epoch's
//!    permuted lane sets and flushes them into the wear map whenever the
//!    keys would outnumber the lanes. With `Hw` each epoch folds its
//!    kernel (memoized per row-table phase — never a trace walk) into
//!    O(rows) row vectors under the same keys and flush rule
//!    ([`crate::kernel`]): a full-width class keeps one key under every
//!    lane permutation, so only partial-width classes cost cell scatters.
//! 3. **Fallback** ([`AnalyticPath::Fallback`], one kernel compile per
//!    epoch) — `Ra` rows with `Hw`: the software table feeding the kernel
//!    compiler changes unpredictably every epoch, so each epoch needs a
//!    fresh symbolic trace walk. The lazy `+Hw` backend runs it with a
//!    one-slot kernel memo that is recompiled whenever the epoch's table
//!    no longer matches, and folds epochs exactly as on the lazy rung.
//!
//! Every rung answers the per-epoch wear series
//! ([`SimConfig::epoch_series`]) by querying at each epoch boundary in
//! ascending order, so lazy rungs continue incrementally between samples.
//!
//! Every path is bit-identical to the simulator's step replay, the
//! reference oracle — the bit-identity suites (`tests/analytic.rs`,
//! `tests/kernels.rs`) pin `analytic == step replay` across all 18
//! configurations, wear maps and epoch series, and each query re-asserts
//! conservation against the trace's static counts.
//!
//! Each engine builds its own intermediates — one trace walk into logical
//! panels, and the `+Hw` kernels of the row-table phases its queries reach
//! — and nothing is shared across engines: a trace walk or a kernel
//! compile costs well under a millisecond even at paper scale.
//!
//! # Examples
//!
//! ```
//! use nvpim_array::ArrayDims;
//! use nvpim_balance::BalanceConfig;
//! use nvpim_core::analytic::{AnalyticPath, AnalyticWearEngine};
//! use nvpim_core::SimConfig;
//! use nvpim_workloads::parallel_mul::ParallelMul;
//!
//! let wl = ParallelMul::new(ArrayDims::new(128, 8), 8).build();
//! let cfg = SimConfig::default();
//! let mut engine = AnalyticWearEngine::new(&wl, "BsxBs".parse().unwrap(), cfg);
//! assert_eq!(engine.path(), AnalyticPath::ClosedForm);
//! let wear = engine.wear_at(100_000);
//! assert!(wear.max_writes() > 0);
//! ```

use std::time::Instant;

use nvpim_array::trace::TraceCounts;
use nvpim_array::{ArrayDims, LaneSet, PermFolder, Step, Trace, WearKernel, WearMap};
use nvpim_balance::{BalanceConfig, CombinedMap, RemapSchedule, Strategy};
use nvpim_obs::{Event, EventSink, NullSink};
use nvpim_workloads::Workload;

use crate::kernel::{self, LaneKeys, PendingTerms, RowVecs};
use crate::parallel::fan_out;
use crate::sim::{EpochSample, SimConfig, SimResult};

/// Which rung of the reducibility ladder a configuration landed on — see
/// the [module docs](self) for the criteria.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalyticPath {
    /// Queries independent of N: weighted cycle phases of O(rows) row
    /// vectors, materialized once per distinct lane set.
    ClosedForm,
    /// Epoch states enumerated lazily (exact RNG streams) and folded
    /// without trace walks; monotone queries advance incrementally.
    Lazy,
    /// `Ra` rows with `Hw`: epochs enumerated like [`AnalyticPath::Lazy`],
    /// with one kernel compile per epoch.
    Fallback,
}

impl AnalyticPath {
    /// Stable label for manifests and bench IDs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AnalyticPath::ClosedForm => "closed_form",
            AnalyticPath::Lazy => "lazy",
            AnalyticPath::Fallback => "fallback",
        }
    }
}

impl std::fmt::Display for AnalyticPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The concrete backend behind each [`AnalyticPath`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathChoice {
    Static,
    HwClosed,
    LazySw,
    LazyHw,
    Fallback,
}

impl PathChoice {
    fn path(self) -> AnalyticPath {
        match self {
            PathChoice::Static | PathChoice::HwClosed => AnalyticPath::ClosedForm,
            PathChoice::LazySw | PathChoice::LazyHw => AnalyticPath::Lazy,
            PathChoice::Fallback => AnalyticPath::Fallback,
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

fn classify_inner(balance: BalanceConfig, schedule: RemapSchedule) -> PathChoice {
    // Under never() only epoch 0 exists, and it is the identity for every
    // strategy; otherwise only `Ra` lacks a finite epoch period.
    let never = schedule.period().is_none();
    let periodic = |s: Strategy| never || s != Strategy::Random;
    match (balance.hw, periodic(balance.row), periodic(balance.col)) {
        (false, true, true) => PathChoice::Static,
        (false, _, _) => PathChoice::LazySw,
        (true, true, true) => PathChoice::HwClosed,
        (true, true, false) => PathChoice::LazyHw,
        (true, false, _) => PathChoice::Fallback,
    }
}

/// Predicts which [`AnalyticPath`] [`AnalyticWearEngine::new`] will choose
/// for a configuration, without building the engine — used by `repro` and
/// `serve` to label manifests. The ladder depends only on the strategies
/// and whether the schedule ever re-maps.
#[must_use]
pub fn classify(balance: BalanceConfig, schedule: RemapSchedule) -> AnalyticPath {
    classify_inner(balance, schedule).path()
}

/// Splits `n` iterations into whole epochs and the partial last epoch's
/// length (`never()` is one endless partial epoch).
fn split_epochs(n: u64, period: Option<u64>) -> (u64, u64) {
    match period {
        Some(p) => (n / p, n % p),
        None => (0, n),
    }
}

/// The epochs `j` of an `l`-epoch cycle that `n` iterations reach, with
/// their total iteration weight: `N = (ql + r)·p + rem` gives epoch `j`
/// the weight `p·(q + [j < r]) + rem·[j = r]`. Yields `min(l, epochs)`
/// pairs, so the cost never scales with `l` alone.
fn cycle_weights(n: u64, period: Option<u64>, l: u64) -> impl Iterator<Item = (u64, u64)> {
    let (full, rem) = split_epochs(n, period);
    let p = period.unwrap_or(0);
    let (q, r) = (full / l, full % l);
    let reached = if q > 0 { l } else { r + u64::from(rem > 0) };
    (0..reached).map(move |j| (j, p * (q + u64::from(j < r)) + if j == r { rem } else { 0 }))
}

/// Per-class, per-logical-row write (and read) panels of one trace walk —
/// the table-independent core of the non-`Hw` replay.
#[derive(Debug)]
struct LogicalPanels {
    writes: Vec<Vec<u64>>,
    reads: Option<Vec<Vec<u64>>>,
    /// Per class, the logical rows with any write or read deposit.
    live: Vec<Vec<usize>>,
}

/// Walks the trace once into [`LogicalPanels`]: an epoch with row table `T`
/// and lane permutation `P` deposits `V[class][r]` at `(T[r], P[lane])` for
/// each lane of the class. Mirrors `Accumulator::replay_cached` with the
/// identity table.
fn logical_panels(trace: &Trace, cfg: SimConfig) -> LogicalPanels {
    let rows = trace.dims().rows();
    let n_classes = trace.classes().len();
    let writes_per_gate = cfg.arch.writes_per_gate();
    let mut writes = vec![vec![0u64; rows]; n_classes];
    let mut reads = cfg.track_reads.then(|| vec![vec![0u64; rows]; n_classes]);
    for step in trace.steps() {
        match *step {
            Step::Write { row, class, .. } => writes[class][row] += 1,
            Step::Read { row, class } => {
                if let Some(reads) = &mut reads {
                    reads[class][row] += 1;
                }
            }
            Step::Gate { kind, ins, out, class } => {
                writes[class][out] += writes_per_gate;
                if let Some(reads) = &mut reads {
                    reads[class][ins[0]] += 1;
                    if kind.arity() == 2 {
                        reads[class][ins[1]] += 1;
                    }
                }
            }
            Step::Transfer { src_row, dst_row, src_class, dst_class } => {
                writes[dst_class][dst_row] += 1;
                if let Some(reads) = &mut reads {
                    reads[src_class][src_row] += 1;
                }
            }
        }
    }
    let live = (0..n_classes)
        .map(|c| {
            let read = |r: usize| reads.as_ref().map_or(0, |reads| reads[c][r]);
            (0..rows).filter(|&r| writes[c][r] > 0 || read(r) > 0).collect()
        })
        .collect();
    LogicalPanels { writes, reads, live }
}

/// Compiles the `+Hw` kernel specialized against `table`, counting the
/// compile in `compiles` (booked as `sim.kernel_compiles` per query).
fn compile_kernel(
    trace: &Trace,
    table: &[usize],
    cfg: SimConfig,
    compiles: &mut u64,
) -> WearKernel {
    *compiles += 1;
    kernel::compile(trace, table, cfg.arch, cfg.track_reads)
}

impl RowVecs {
    /// Adds one software epoch's terms: `w · T·V_c` under each class's key.
    fn add_sw(&mut self, panels: &LogicalPanels, table: &[usize], keys: &[usize], w: u64) {
        for (class, &key) in keys.iter().enumerate() {
            let live = &panels.live[class];
            let (acc, acc_reads) = self.key_mut(key);
            let vw = &panels.writes[class];
            for &r in live {
                acc[table[r]] += w * vw[r];
            }
            if let (Some(vr), Some(acc)) = (&panels.reads, acc_reads) {
                let vr = &vr[class];
                for &r in live {
                    acc[table[r]] += w * vr[r];
                }
            }
        }
    }
}

/// The tables of a periodic strategy (`St`/`Bs`, or any strategy under
/// `never()`, whose only epoch is the identity), built per phase when a
/// query first reaches it.
#[derive(Debug)]
struct Phases {
    strategy: Strategy,
    n: usize,
    tables: Vec<Option<Vec<usize>>>,
}

impl Phases {
    fn new(strategy: Strategy, n: usize, schedule: RemapSchedule) -> Self {
        let strategy = if schedule.period().is_some() { strategy } else { Strategy::Static };
        let period = strategy.epoch_period(n).expect("periodic strategy");
        Phases { strategy, n, tables: (0..period).map(|_| None).collect() }
    }

    fn period(&self) -> u64 {
        self.tables.len() as u64
    }

    /// The table of epoch `epoch` (any epoch of the same phase shares it).
    fn table(&mut self, epoch: u64) -> &[usize] {
        let phase = epoch % self.period();
        let (strategy, n) = (self.strategy, self.n);
        self.tables[phase as usize]
            .get_or_insert_with(|| strategy.table_at_epoch(n, phase).expect("periodic strategy"))
    }
}

/// Per-class lane keys of a periodic lane strategy, one key list per
/// phase, interned when a query first reaches the phase.
#[derive(Debug)]
struct LanePhases {
    tables: Phases,
    keys: Vec<Option<Vec<usize>>>,
}

impl LanePhases {
    fn new(strategy: Strategy, lanes: usize, schedule: RemapSchedule) -> Self {
        let tables = Phases::new(strategy, lanes, schedule);
        let keys = (0..tables.period()).map(|_| None).collect();
        LanePhases { tables, keys }
    }

    fn period(&self) -> u64 {
        self.tables.period()
    }

    fn keys(&mut self, epoch: u64, classes: &[LaneSet], interner: &mut LaneKeys) -> &[usize] {
        let tables = &mut self.tables;
        self.keys[(epoch % tables.period()) as usize].get_or_insert_with(|| {
            let perm = tables.table(epoch);
            classes.iter().map(|c| interner.intern(c.permuted(perm))).collect()
        })
    }
}

/// Lane vectors keyed by (row phase, class): the transposed grouping, for
/// epoch sequences whose row tables repeat while their lane tables do not.
#[derive(Debug)]
struct LaneVecs {
    lanes: usize,
    /// Per row phase, one lane-weight vector per class.
    phases: Vec<Option<Vec<Vec<u64>>>>,
}

impl LaneVecs {
    fn new(lanes: usize, row_period: u64) -> Self {
        LaneVecs { lanes, phases: (0..row_period).map(|_| None).collect() }
    }

    /// Adds weight `w` at every lane each class occupies under `perm`, in
    /// the vectors of the row phase of epoch `epoch`.
    fn add(&mut self, epoch: u64, classes: &[LaneSet], perm: &[usize], w: u64) {
        let lanes = self.lanes;
        let phase = (epoch % self.phases.len() as u64) as usize;
        let vecs = self.phases[phase].get_or_insert_with(|| vec![vec![0; lanes]; classes.len()]);
        for (set, acc) in classes.iter().zip(vecs) {
            for lane in set.iter() {
                acc[perm[lane]] += w;
            }
        }
    }

    /// Adds `Σ (T·V_c) ⊗ lanevec` into `wear`, then zeroes the vectors.
    fn drain_into(&mut self, panels: &LogicalPanels, rows: &mut Phases, wear: &mut WearMap) {
        for (phase, vecs) in self.phases.iter_mut().enumerate() {
            let Some(vecs) = vecs else { continue };
            let table = rows.table(phase as u64);
            for (class, acc) in vecs.iter_mut().enumerate() {
                if acc.iter().all(|&w| w == 0) {
                    continue;
                }
                let plane_rows = std::iter::once((&panels.writes, false))
                    .chain(panels.reads.as_ref().map(|v| (v, true)));
                for (v, reads) in plane_rows {
                    for &r in &panels.live[class] {
                        let scale = v[class][r];
                        if scale > 0 {
                            wear.add_row_scaled(table[r], acc, scale, reads);
                        }
                    }
                }
                acc.fill(0);
            }
        }
    }
}

/// One lane key's running sum after a phase that touched it.
#[derive(Debug)]
struct PhaseSum {
    phase: u64,
    writes: Vec<u64>,
    reads: Option<Vec<u64>>,
}

impl PhaseSum {
    fn plane(&self, reads: bool) -> Option<&[u64]> {
        if reads {
            self.reads.as_deref()
        } else {
            Some(&self.writes)
        }
    }
}

/// Prefix sums over the cycle's phases, per lane key: after each phase
/// that adds terms under a key, the key's cumulative row vectors. A
/// phase adds at most one entry per class, so the sums hold
/// O(L·rows·classes) values, and any prefix of the cycle is one binary
/// search per key away.
#[derive(Debug, Default)]
struct PhaseSums {
    /// Phases summed so far (`0..phases`).
    phases: u64,
    by_key: Vec<Vec<PhaseSum>>,
}

impl PhaseSums {
    /// Records phase `self.phases`, whose terms `terms` holds under
    /// `keys`, and zeroes those terms.
    fn push(&mut self, keys: &[usize], terms: &mut RowVecs) {
        let phase = self.phases;
        self.phases += 1;
        for &key in keys {
            if self.by_key.len() <= key {
                self.by_key.resize_with(key + 1, Vec::new);
            }
            let sums = &mut self.by_key[key];
            if sums.last().is_some_and(|s| s.phase == phase) {
                continue; // two classes sharing a key in one phase
            }
            let add = |prev: Option<&Vec<u64>>, term: &mut Vec<u64>| {
                let mut sum = std::mem::take(term);
                if let Some(prev) = prev {
                    for (s, &p) in sum.iter_mut().zip(prev) {
                        *s += p;
                    }
                }
                sum
            };
            let last = sums.last();
            let writes = add(last.map(|s| &s.writes), &mut terms.writes[key]);
            let reads = terms
                .reads
                .as_mut()
                .map(|reads| add(last.and_then(|s| s.reads.as_ref()), &mut reads[key]));
            sums.push(PhaseSum { phase, writes, reads });
        }
    }

    /// The key's sum over the phases before `bound`, if any touched it.
    fn before(&self, key: usize, bound: u64) -> Option<&PhaseSum> {
        let sums = self.by_key.get(key)?;
        let i = sums.partition_point(|s| s.phase < bound);
        i.checked_sub(1).map(|i| &sums[i])
    }
}

/// `row += w·x`.
fn axpy(row: &mut [u64], w: u64, x: &[u64]) {
    if w > 0 {
        for (r, &v) in row.iter_mut().zip(x) {
            *r += w * v;
        }
    }
}

/// Closed form for software-only configs with periodic tables (and any
/// config under `never()`). Phase `j` of the `L`-phase cycle deposits
/// `Σ_c (T_j·V_c) ⊗ (P_j·S_c)` per iteration; with the per-key prefix
/// sums `S(<j)` over those phases, `N = (qL + r)·p + rem` iterations give
/// each key the row vector `p·(q·S(<L) + S(<r)) + rem·(S(<r+1) − S(<r))`.
/// When the row tables repeat sooner than the lane tables, the query
/// instead adds lane vectors per row phase ([`LaneVecs`]) over the
/// weighted phases it reaches ([`cycle_weights`]).
#[derive(Debug)]
struct StaticClosedForm {
    dims: ArrayDims,
    period: Option<u64>,
    l: u64,
    panels: LogicalPanels,
    classes: Vec<LaneSet>,
    rows: Phases,
    lanes: LanePhases,
    keys: LaneKeys,
    sums: PhaseSums,
    /// One phase's terms, staged for [`PhaseSums::push`].
    terms: RowVecs,
    row: Vec<u64>,
}

impl StaticClosedForm {
    fn new(trace: &Trace, balance: BalanceConfig, cfg: SimConfig) -> Self {
        let dims = trace.dims();
        let rows = Phases::new(balance.row, dims.rows(), cfg.schedule);
        let lanes = LanePhases::new(balance.col, dims.lanes(), cfg.schedule);
        StaticClosedForm {
            dims,
            period: cfg.schedule.period(),
            l: lcm(rows.period(), lanes.period()),
            panels: logical_panels(trace, cfg),
            classes: trace.classes().to_vec(),
            rows,
            lanes,
            keys: LaneKeys::default(),
            sums: PhaseSums::default(),
            terms: RowVecs::new(dims.rows(), cfg.track_reads),
            row: vec![0; dims.rows()],
        }
    }

    fn query(&mut self, n: u64) -> WearMap {
        let mut wear = WearMap::new(self.dims);
        let (full, rem) = split_epochs(n, self.period);
        let (q, r) = (full / self.l, full % self.l);
        let reached = if q > 0 { self.l } else { r + u64::from(rem > 0) };
        if self.rows.period().min(reached) < self.lanes.period().min(reached) {
            let mut vecs = LaneVecs::new(self.dims.lanes(), self.rows.period());
            for (j, w) in cycle_weights(n, self.period, self.l) {
                vecs.add(j, &self.classes, self.lanes.tables.table(j), w);
            }
            vecs.drain_into(&self.panels, &mut self.rows, &mut wear);
            return wear;
        }
        while self.sums.phases < reached {
            let j = self.sums.phases;
            let keys = self.lanes.keys(j, &self.classes, &mut self.keys);
            self.terms.add_sw(&self.panels, self.rows.table(j), keys, 1);
            self.sums.push(keys, &mut self.terms);
        }
        let p = self.period.unwrap_or(0);
        for key in 0..self.keys.len() {
            for reads in std::iter::once(false).chain(self.panels.reads.is_some().then_some(true)) {
                let sum = |bound| self.sums.before(key, bound).and_then(|s| s.plane(reads));
                let row = &mut self.row;
                row.fill(0);
                if let (1.., Some(whole)) = (q, sum(self.l)) {
                    axpy(row, p * q, whole);
                }
                let head = sum(r);
                if let Some(head) = head {
                    axpy(row, p, head);
                }
                if let (1.., Some(next)) = (rem, sum(r + 1)) {
                    // Phase r's own term, S(<r+1) − S(<r) (elementwise ≥ 0).
                    axpy(row, rem, next);
                    if let Some(head) = head {
                        for (cell, &h) in row.iter_mut().zip(head) {
                            *cell -= rem * h;
                        }
                    }
                }
                wear.add_outer(row, &self.keys.runs[key], reads);
            }
        }
        wear
    }
}

/// Closed form for `Hw` configs with periodic software tables.
///
/// Epoch `j`'s kernel depends only on `j mod L_row` and its lane
/// permutation on `j mod L_col`; the arrangement entering epoch `j` is
/// `D_j = E₀ᵖ ∘ … ∘ E_{j−1}ᵖ` (with `A₀` the identity, slot space *is*
/// physical-row space). Over a super-cycle of `L = lcm` epochs the
/// arrangement advances by the fixed permutation `F = D_L`, which acts
/// on rows only. Each key's row vector is then `Fᵏ`-folded whole
/// super-cycles plus, shifted by `Fᵏ`, the prefix sum of the `r`
/// remainder epochs and the partial epoch's fold. Kernels, arrangements
/// and prefix sums are built only as far as queries reach.
#[derive(Debug)]
struct HwClosedForm {
    dims: ArrayDims,
    period: Option<u64>,
    l: u64,
    classes: Vec<LaneSet>,
    rows: Phases,
    lanes: LanePhases,
    keys: LaneKeys,
    /// One compiled kernel per software row-table phase reached so far.
    kernels: Vec<WearKernel>,
    /// Kernels compiled so far.
    compiles: u64,
    /// `Eᵖ` of each kernel: how one whole epoch advances the arrangement.
    epoch_perms: Vec<Vec<usize>>,
    /// Arrangement entering epoch `j` of a super-cycle, `j` up to the
    /// furthest epoch reached (`d[L]` is `F`).
    d: Vec<Vec<usize>>,
    /// Prefix sums of whole epochs' terms.
    sums: PhaseSums,
    /// `F`, once a query spans a whole super-cycle.
    f: Option<PermFolder>,
    /// Staged terms: one whole epoch's, or the query's partial epoch.
    terms: RowVecs,
    folded: Vec<u64>,
    row: Vec<u64>,
}

impl HwClosedForm {
    fn new(trace: &Trace, balance: BalanceConfig, cfg: SimConfig) -> Self {
        let dims = trace.dims();
        let rows = Phases::new(balance.row, dims.rows() - 1, cfg.schedule);
        let lanes = LanePhases::new(balance.col, dims.lanes(), cfg.schedule);
        HwClosedForm {
            dims,
            period: cfg.schedule.period(),
            l: lcm(rows.period(), lanes.period()),
            classes: trace.classes().to_vec(),
            rows,
            lanes,
            keys: LaneKeys::default(),
            kernels: Vec::new(),
            compiles: 0,
            epoch_perms: Vec::new(),
            d: vec![(0..dims.rows()).collect()],
            sums: PhaseSums::default(),
            f: None,
            terms: RowVecs::new(dims.rows(), cfg.track_reads),
            folded: Vec::new(),
            row: vec![0; dims.rows()],
        }
    }

    /// Compiles the kernels of the first `epochs` cycle epochs (`≤ L`) and
    /// the arrangements entering each of them and the next.
    fn reach(&mut self, epochs: u64, trace: &Trace, cfg: SimConfig) {
        let wanted = epochs.min(self.rows.period()) as usize;
        while self.kernels.len() < wanted {
            let table = self.rows.table(self.kernels.len() as u64);
            let kernel = compile_kernel(trace, table, cfg, &mut self.compiles);
            if let Some(p) = self.period {
                self.epoch_perms.push(kernel.folder().power(p));
            }
            self.kernels.push(kernel);
        }
        if self.period.is_none() {
            // One endless epoch: the arrangement never advances.
            return;
        }
        while self.d.len() as u64 <= epochs {
            let prev = self.d.len() - 1;
            let ep = &self.epoch_perms[prev % self.epoch_perms.len()];
            let dj = &self.d[prev];
            let next = ep.iter().map(|&s| dj[s]).collect();
            self.d.push(next);
        }
    }

    /// Stages epoch `j`'s terms for `span` iterations.
    fn stage_epoch(&mut self, j: u64, span: u64) {
        let kernel = &self.kernels[(j % self.rows.period()) as usize];
        let keys = self.lanes.keys(j, &self.classes, &mut self.keys);
        self.terms.add_hw(kernel, &self.d[j as usize], keys, span, &mut self.folded);
    }

    fn query(&mut self, n: u64, trace: &Trace, cfg: SimConfig) -> WearMap {
        let (full, rem) = split_epochs(n, self.period);
        let (k, r) = (full / self.l, full % self.l);
        let whole = if k > 0 { self.l } else { r };
        self.reach(whole.max(r + u64::from(rem > 0)), trace, cfg);
        while self.sums.phases < whole {
            let p = self.period.expect("whole epochs imply a finite period");
            let j = self.sums.phases;
            self.stage_epoch(j, p);
            let keys = self.lanes.keys(j, &self.classes, &mut self.keys);
            self.sums.push(keys, &mut self.terms);
        }
        if k > 0 && self.f.is_none() {
            self.f = Some(PermFolder::new(self.d[self.l as usize].clone()));
        }
        if rem > 0 {
            self.stage_epoch(r, rem);
        }
        self.terms.fit(self.keys.len());

        let fk = self.f.as_ref().filter(|_| k > 0).map(|f| f.power(k));
        let mut wear = WearMap::new(self.dims);
        for key in 0..self.keys.len() {
            let plane_terms = std::iter::once((&mut self.terms.writes[key], false))
                .chain(self.terms.reads.as_mut().map(|terms| (&mut terms[key], true)));
            for (partial, reads) in plane_terms {
                let sum = |bound| self.sums.before(key, bound).and_then(|s| s.plane(reads));
                let row = &mut self.row;
                match (&self.f, sum(self.l)) {
                    (Some(f), Some(cycle)) if k > 0 => f.fold_into(k, cycle, row),
                    _ => row.fill(0),
                }
                // The tail (remainder epochs, then the partial one) is
                // placed through Fᵏ: its row x lands on physical row Fᵏ[x].
                for tail in sum(r).into_iter().chain(Some(&partial[..])) {
                    match &fk {
                        Some(fk) => {
                            for (&to, &t) in fk.iter().zip(tail) {
                                row[to] += t;
                            }
                        }
                        None => axpy(row, 1, tail),
                    }
                }
                *partial = Vec::new();
                wear.add_outer(row, &self.keys.runs[key], reads);
            }
        }
        wear
    }
}

/// A lazy backend's running wear map as a query's answer: copied when the
/// engine may answer again (`keep`), handed over when this is its last
/// query (the spent backend keeps a one-cell placeholder).
fn hand_over(wear: &mut WearMap, keep: bool) -> WearMap {
    if keep {
        wear.clone()
    } else {
        std::mem::replace(wear, WearMap::new(ArrayDims::new(1, 1)))
    }
}

/// How [`LazySw`] groups the epochs it walks.
#[derive(Debug)]
enum LazyGroup {
    /// `Ra` rows: row vectors per lane key. Periodic lanes reuse one key
    /// list per phase across epochs; `Ra` lanes (`lanes: None`) intern
    /// each epoch's permuted lane sets, flushing the pending terms into the
    /// wear map when the keys would outnumber the lanes.
    ByLanes { lanes: Option<LanePhases>, terms: PendingTerms },
    /// `Ra` lanes under periodic rows: lane vectors per row phase.
    ByRows { rows: Phases, vecs: LaneVecs },
}

/// Lazy enumerator for software-only configs with `Ra` on an axis: walks
/// the epoch sequence with the exact seeded mappers, adding each epoch's
/// terms along the axis that repeats ([`LazyGroup`]) — zero trace walks,
/// and one cell scatter per distinct table rather than per epoch.
/// Monotone queries continue from the cached state.
#[derive(Debug)]
struct LazySw {
    panels: LogicalPanels,
    classes: Vec<LaneSet>,
    map: CombinedMap,
    done: u64,
    /// Wear of every term flushed so far.
    wear: WearMap,
    group: LazyGroup,
}

impl LazySw {
    fn new(trace: &Trace, balance: BalanceConfig, cfg: SimConfig) -> Self {
        let dims = trace.dims();
        let group = if balance.row == Strategy::Random {
            LazyGroup::ByLanes {
                lanes: (balance.col != Strategy::Random)
                    .then(|| LanePhases::new(balance.col, dims.lanes(), cfg.schedule)),
                terms: PendingTerms::new(dims.rows(), cfg.track_reads),
            }
        } else {
            let rows = Phases::new(balance.row, dims.rows(), cfg.schedule);
            let vecs = LaneVecs::new(dims.lanes(), rows.period());
            LazyGroup::ByRows { rows, vecs }
        };
        LazySw {
            panels: logical_panels(trace, cfg),
            classes: trace.classes().to_vec(),
            map: CombinedMap::new(balance, dims.rows(), dims.lanes(), cfg.seed),
            done: 0,
            wear: WearMap::new(dims),
            group,
        }
    }

    fn query(&mut self, balance: BalanceConfig, cfg: SimConfig, n: u64, keep: bool) -> WearMap {
        if n < self.done {
            // Deterministic restart: re-derive the epoch sequence from the
            // seed (backwards queries are rare — sweeps ascend). Pending
            // terms were flushed by the previous query.
            let dims = self.wear.dims();
            self.map = CombinedMap::new(balance, dims.rows(), dims.lanes(), cfg.seed);
            self.wear = WearMap::new(dims);
            self.done = 0;
        }
        let panels = &self.panels;
        while self.done < n {
            let span = match cfg.schedule.period() {
                Some(p) => (p - self.done % p).min(n - self.done),
                None => n - self.done,
            };
            let epoch = self.map.epoch();
            match &mut self.group {
                LazyGroup::ByLanes { lanes: Some(lanes), terms } => {
                    let ids = lanes.keys(epoch, &self.classes, &mut terms.keys);
                    terms.vecs.add_sw(panels, self.map.row_table(), ids, span);
                }
                LazyGroup::ByLanes { lanes: None, terms } => {
                    terms.intern_epoch(&self.classes, self.map.lane_permutation(), &mut self.wear);
                    terms.vecs.add_sw(panels, self.map.row_table(), &terms.ids, span);
                }
                LazyGroup::ByRows { vecs, .. } => {
                    vecs.add(epoch, &self.classes, self.map.lane_permutation(), span);
                }
            }
            self.done += span;
            if let Some(p) = cfg.schedule.period() {
                if self.done % p == 0 {
                    self.map.advance_epoch();
                }
            }
        }
        match &mut self.group {
            LazyGroup::ByLanes { terms, .. } => terms.flush(&mut self.wear),
            LazyGroup::ByRows { rows, vecs } => vecs.drain_into(panels, rows, &mut self.wear),
        }
        hand_over(&mut self.wear, keep)
    }
}

/// Work a `+Hw` backend has done so far: kernels compiled and, on timed
/// lazy queries, the time spent compiling them (`sim.replay`) and folding
/// and flushing epochs (`sim.scatter`).
#[derive(Debug, Default, Clone, Copy)]
struct HwWork {
    compiles: u64,
    replay_ns: u64,
    scatter_ns: u64,
}

/// Nanoseconds since `timer` started, or 0 for an untimed query.
fn elapsed_ns(timer: Option<Instant>) -> u64 {
    timer.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

/// Lazy enumerator for `Hw` configs with `Ra` on an axis: each epoch folds
/// its kernel into row vectors and advances the arrangement
/// ([`kernel::apply_kernel_epoch`]); queries end with a flush. Kernels are
/// memoized per row-table phase and recompiled whenever the epoch's table
/// no longer matches: periodic rows (the lazy rung, `Ra` lanes) compile at
/// most `L_row` kernels ever, while `Ra` rows (the fallback rung) keep one
/// slot and recompile it every epoch.
#[derive(Debug)]
struct LazyHw {
    dims: ArrayDims,
    lr: u64,
    kernels: Vec<Option<WearKernel>>,
    work: HwWork,
    scratch: kernel::EpochScratch,
    map: CombinedMap,
    wear: WearMap,
    done: u64,
}

impl LazyHw {
    fn new(trace: &Trace, balance: BalanceConfig, cfg: SimConfig) -> Self {
        let dims = trace.dims();
        let lr = balance.row.epoch_period(dims.rows() - 1).unwrap_or(1);
        LazyHw {
            dims,
            lr,
            kernels: (0..lr).map(|_| None).collect(),
            work: HwWork::default(),
            scratch: kernel::EpochScratch::new(trace, cfg.track_reads),
            map: CombinedMap::new(balance, dims.rows(), dims.lanes(), cfg.seed),
            wear: WearMap::new(dims),
            done: 0,
        }
    }

    fn query(
        &mut self,
        trace: &Trace,
        balance: BalanceConfig,
        cfg: SimConfig,
        n: u64,
        timed: bool,
        keep: bool,
    ) -> WearMap {
        if n < self.done {
            self.map = CombinedMap::new(balance, self.dims.rows(), self.dims.lanes(), cfg.seed);
            self.wear = WearMap::new(self.dims);
            self.done = 0;
        }
        let p = cfg.schedule.period().expect("lazy Hw path requires a finite schedule");
        while self.done < n {
            let span = (p - self.done % p).min(n - self.done);
            let slot = &mut self.kernels[((self.done / p) % self.lr) as usize];
            let table = self.map.sw_row_table();
            if !slot.as_ref().is_some_and(|k| k.matches(table)) {
                let timer = timed.then(Instant::now);
                *slot = Some(compile_kernel(trace, table, cfg, &mut self.work.compiles));
                self.work.replay_ns += elapsed_ns(timer);
            }
            let kernel = slot.as_ref().expect("compiled above");
            let timer = timed.then(Instant::now);
            kernel::apply_kernel_epoch(
                kernel,
                trace,
                &mut self.map,
                span,
                &mut self.wear,
                &mut self.scratch,
            );
            self.work.scatter_ns += elapsed_ns(timer);
            self.done += span;
            if self.done % p == 0 {
                self.map.advance_epoch();
            }
        }
        let timer = timed.then(Instant::now);
        self.scratch.terms.flush(&mut self.wear);
        self.work.scatter_ns += elapsed_ns(timer);
        hand_over(&mut self.wear, keep)
    }
}

#[derive(Debug)]
enum Backend {
    Static(Box<StaticClosedForm>),
    HwClosed(Box<HwClosedForm>),
    LazySw(Box<LazySw>),
    LazyHw(Box<LazyHw>),
}

impl Backend {
    /// The `+Hw` work done so far (each kernel compiled at most once per
    /// row phase, or once per epoch under `Ra` rows).
    fn work(&self) -> HwWork {
        match self {
            Backend::HwClosed(b) => HwWork { compiles: b.compiles, ..HwWork::default() },
            Backend::LazyHw(b) => b.work,
            _ => HwWork::default(),
        }
    }
}

/// The iteration counts a series samples at: every epoch boundary
/// `min(k·p, n)`, ascending, ending at `n` (one sample under `never()`,
/// none for `n = 0`).
fn sample_points(n: u64, period: Option<u64>) -> impl Iterator<Item = u64> {
    let p = period.unwrap_or(n).max(1);
    (1..=n.div_ceil(p)).map(move |k| (k * p).min(n))
}

/// Replay-free per-cell wear as a function of the iteration count, for one
/// (workload, configuration) pair — bit-identical to running
/// [`crate::EnduranceSimulator`] for the same number of iterations.
///
/// The symbolic cost (trace walks, at most one per distinct software row
/// table) is paid once, as queries first reach it; on the closed-form path
/// every [`AnalyticWearEngine::wear_at`] then costs the same at any
/// iteration count. See the [module docs](self) for the path criteria.
#[derive(Debug)]
pub struct AnalyticWearEngine<'w> {
    workload: &'w Workload,
    balance: BalanceConfig,
    cfg: SimConfig,
    counts: TraceCounts,
    path: AnalyticPath,
    backend: Backend,
}

impl<'w> AnalyticWearEngine<'w> {
    /// Builds the engine, choosing the strongest reducible path for
    /// `balance` under `cfg.schedule`.
    ///
    /// # Panics
    ///
    /// Panics if the workload uses more rows than the configuration makes
    /// available (same contract as the simulator).
    #[must_use]
    pub fn new(workload: &'w Workload, balance: BalanceConfig, cfg: SimConfig) -> Self {
        let trace = workload.trace();
        let dims = trace.dims();
        let logical_rows = dims.rows() - usize::from(balance.hw);
        assert!(
            trace.rows_used() <= logical_rows,
            "workload uses {} rows but only {logical_rows} are available under {balance} \
             (Hw reserves one spare row)",
            trace.rows_used(),
        );
        let counts = trace.counts(cfg.arch);
        let choice = classify_inner(balance, cfg.schedule);
        let backend = match choice {
            PathChoice::Static => {
                Backend::Static(Box::new(StaticClosedForm::new(trace, balance, cfg)))
            }
            PathChoice::HwClosed => {
                Backend::HwClosed(Box::new(HwClosedForm::new(trace, balance, cfg)))
            }
            PathChoice::LazySw => Backend::LazySw(Box::new(LazySw::new(trace, balance, cfg))),
            PathChoice::LazyHw | PathChoice::Fallback => {
                Backend::LazyHw(Box::new(LazyHw::new(trace, balance, cfg)))
            }
        };
        AnalyticWearEngine { workload, balance, cfg, counts, path: choice.path(), backend }
    }

    /// The reducibility rung this configuration landed on.
    #[must_use]
    pub fn path(&self) -> AnalyticPath {
        self.path
    }

    /// The configuration the engine answers for.
    #[must_use]
    pub fn balance(&self) -> BalanceConfig {
        self.balance
    }

    /// The engine's simulation parameters (`iterations` is ignored —
    /// queries carry their own count).
    #[must_use]
    pub fn sim_config(&self) -> SimConfig {
        self.cfg
    }

    /// Sequential steps of one workload iteration (Eq. 4's latency term).
    #[must_use]
    pub fn steps_per_iteration(&self) -> u64 {
        self.counts.sequential_steps
    }

    /// The wear map after exactly `iterations` iterations, instrumented
    /// through the process-wide observer if one is installed.
    #[must_use]
    pub fn wear_at(&mut self, iterations: u64) -> WearMap {
        self.result_at(iterations).wear
    }

    /// [`AnalyticWearEngine::wear_at`] with an explicit event sink.
    #[must_use]
    pub fn wear_at_with<S: EventSink>(&mut self, iterations: u64, sink: &S) -> WearMap {
        self.result_at_with(iterations, sink).wear
    }

    /// A full [`SimResult`] at `iterations` — bit-identical wear, and with
    /// [`SimConfig::epoch_series`] an identical epoch series, to a
    /// simulator run.
    #[must_use]
    pub fn result_at(&mut self, iterations: u64) -> SimResult {
        match nvpim_obs::observer::current() {
            Some(observer) => self.result_at_with(iterations, &*observer),
            None => self.result_at_with(iterations, &NullSink),
        }
    }

    /// [`AnalyticWearEngine::result_at_with`] as the engine's last query:
    /// consuming the engine lets the lazy rungs hand over their running
    /// wear map instead of copying it.
    #[must_use]
    pub fn into_result_at_with<S: EventSink>(mut self, iterations: u64, sink: &S) -> SimResult {
        self.answer(iterations, sink, false)
    }

    /// The backend's wear map after exactly `n` iterations; `keep` keeps a
    /// lazy backend's running state for later queries.
    fn query(&mut self, n: u64, timed: bool, keep: bool) -> WearMap {
        let trace = self.workload.trace();
        match &mut self.backend {
            Backend::Static(b) => b.query(n),
            Backend::HwClosed(b) => b.query(n, trace, self.cfg),
            Backend::LazySw(b) => b.query(self.balance, self.cfg, n, keep),
            Backend::LazyHw(b) => b.query(trace, self.balance, self.cfg, n, timed, keep),
        }
    }

    /// [`AnalyticWearEngine::result_at`] with an explicit event sink. An
    /// enabled sink sees the run's epoch-series points, the
    /// `sim.analytic_queries` counter, the iteration, cell-traffic and
    /// remap counters the simulator would have booked, the `+Hw` kernels
    /// the query compiled as `sim.kernel_compiles`, and — on
    /// the lazy `+Hw` backend — the `sim.replay` (kernel compiles) and
    /// `sim.scatter` (epoch folds and flushes) phases.
    #[must_use]
    pub fn result_at_with<S: EventSink>(&mut self, iterations: u64, sink: &S) -> SimResult {
        self.answer(iterations, sink, true)
    }

    fn answer<S: EventSink>(&mut self, iterations: u64, sink: &S, keep: bool) -> SimResult {
        let enabled = sink.enabled();
        let before = self.backend.work();
        let mut series = Vec::new();
        let wear = if self.cfg.epoch_series {
            let mut last = None;
            for at in sample_points(iterations, self.cfg.schedule.period()) {
                let wear = self.query(at, enabled, keep || at < iterations);
                let remaps = self.cfg.schedule.events_in(at);
                let sample = EpochSample::of(&wear, at, series.len() as u64, remaps);
                if enabled {
                    sample.record(sink);
                }
                series.push(sample);
                last = Some(wear);
            }
            last.unwrap_or_else(|| self.query(iterations, enabled, keep))
        } else {
            self.query(iterations, enabled, keep)
        };
        // Same conservation cross-check as the simulator: the epoch
        // algebra and the trace's static counts tally the same traffic
        // independently.
        assert_eq!(
            wear.total_writes(),
            iterations * self.counts.cell_writes,
            "analytic wear disagrees with trace write counts under {}",
            self.balance
        );
        if self.cfg.track_reads {
            assert_eq!(
                wear.total_reads(),
                iterations * self.counts.cell_reads,
                "analytic wear disagrees with trace read counts under {}",
                self.balance
            );
        }
        if enabled {
            let work = self.backend.work();
            for (name, delta) in [
                ("sim.analytic_queries", 1),
                ("sim.iterations", iterations),
                ("array.cell_writes", wear.total_writes()),
                ("array.cell_reads", wear.total_reads()),
                ("sim.kernel_compiles", work.compiles - before.compiles),
                ("balance.remap_events", self.cfg.schedule.events_in(iterations)),
            ] {
                sink.record(&Event::CounterAdd { name, delta });
            }
            if matches!(self.backend, Backend::LazyHw(_)) {
                let replay = work.replay_ns - before.replay_ns;
                sink.record(&Event::PhaseEnd { phase: "sim.replay", ns: replay });
                let scatter = work.scatter_ns - before.scatter_ns;
                sink.record(&Event::PhaseEnd { phase: "sim.scatter", ns: scatter });
            }
        }
        SimResult {
            wear,
            config: self.balance,
            iterations,
            steps_per_iteration: self.counts.sequential_steps,
            arch: self.cfg.arch,
            series,
        }
    }

    /// Writes on the hottest cell after `iterations` iterations — the
    /// monotone objective [`crate::lifetime::solve`] searches over.
    /// Uninstrumented (a solve issues O(log N) probes).
    #[must_use]
    pub fn max_writes_at(&mut self, iterations: u64) -> u64 {
        self.result_at_with(iterations, &NullSink).wear.max_writes()
    }
}

/// Runs `configs` analytically across `jobs` worker threads (`0` = auto),
/// answering each at `cfg.iterations`, in submission order — bit-identical
/// to running the simulator on each configuration serially.
#[must_use]
pub fn run_configs_analytic(
    workload: &Workload,
    configs: &[BalanceConfig],
    cfg: SimConfig,
    jobs: usize,
) -> Vec<SimResult> {
    map_configs_analytic(workload, configs, cfg, jobs, |r| r)
}

/// [`run_configs_analytic`] with `reduce` applied to each cell's result
/// inside the worker job that computed it, so a caller that needs only a
/// summary (a lifetime, a rendered panel) never holds the whole matrix of
/// wear maps. Outputs come back in submission order.
#[must_use]
pub fn map_configs_analytic<T, R>(
    workload: &Workload,
    configs: &[BalanceConfig],
    cfg: SimConfig,
    jobs: usize,
    reduce: R,
) -> Vec<T>
where
    T: Send,
    R: Fn(SimResult) -> T + Sync,
{
    fan_out(configs.to_vec(), jobs, |config, sink| {
        let engine = AnalyticWearEngine::new(workload, config, cfg);
        let result = match sink {
            Some(observer) => engine.into_result_at_with(cfg.iterations, observer),
            None => engine.into_result_at_with(cfg.iterations, &NullSink),
        };
        reduce(result)
    })
}
