//! One driver per table/figure of the paper's evaluation.
//!
//! Each `*_report` function computes the experiment's data and renders it
//! alongside the paper's reference values, so drift from the publication is
//! visible at a glance.

use std::sync::Mutex;

use nvpim_array::{ArchStyle, ArrayDims, WearMap};
use nvpim_balance::{access_aware, BalanceConfig, ParseConfigError, RemapSchedule};
use nvpim_core::report::{ascii_heatmap, fmt_value, text_table};
use nvpim_core::sim::single_iteration_profile;
use nvpim_core::{baseline, failure, limits, sweep, Lifetime, LifetimeModel, SimConfig, SimResult};
use nvpim_workloads::Workload;

use crate::Scale;

/// Parses a configuration literal used by a report driver.
///
/// The literals here are compile-time constants, so failure means the
/// source itself is wrong — but when that happens, the panic carries the
/// typed [`ParseConfigError`]'s full guidance (the valid strategy names
/// and label shape) instead of a bare `expect("valid")`.
fn config(label: &str) -> BalanceConfig {
    label.parse().unwrap_or_else(|e: ParseConfigError| panic!("{e}"))
}

/// §3.1 / §1: PIM vs. conventional write amplification.
#[must_use]
pub fn amplification_report() -> String {
    let mut out =
        String::from("== Write amplification: PIM vs conventional architecture (§3.1) ==\n");
    let mut rows = Vec::new();
    for bits in [8u64, 16, 32, 64] {
        let conv = baseline::conventional_multiply(bits);
        let pim = baseline::pim_multiply(bits);
        rows.push(vec![
            format!("{bits}-bit mul"),
            conv.reads.to_string(),
            conv.writes.to_string(),
            pim.reads.to_string(),
            pim.writes.to_string(),
            format!("{:.1}x", baseline::write_amplification(bits)),
        ]);
    }
    out.push_str(&text_table(
        &["kernel", "cpu reads", "cpu writes", "pim reads", "pim writes", "write amp"],
        &rows,
    ));
    out.push_str(
        "\npaper reference (32-bit): 64/64 conventional, 19616/9824 PIM, >150x amplification\n",
    );
    let (r, w) = baseline::per_cell_averages(baseline::pim_multiply(32), 1024);
    out.push_str(&format!(
        "per-cell averages over 1024 cells: {r:.2} reads, {w:.2} writes (paper: 19.16 / 9.59)\n"
    ));
    out
}

/// §3.1 Eqs. 1–2 and the per-technology bounds.
#[must_use]
pub fn limits_report() -> String {
    let mut out = String::from("== Closed-form endurance bounds (§3.1, Eq. 1 & Eq. 2) ==\n");
    let ops = limits::max_operations(1024, 1024, 1_000_000_000_000, 9_824);
    let secs = limits::seconds_to_total_failure(1024, 1024, 1_000_000_000_000, 3.0);
    out.push_str(&format!(
        "Eq. 1: max 32-bit multiplications = {} (paper: 1.07e14)\n",
        fmt_value(ops)
    ));
    out.push_str(&format!(
        "Eq. 2: time to total failure = {} s = {:.2} days (paper: 3,072,000 s = 35.56 days)\n",
        fmt_value(secs),
        secs / 86_400.0
    ));
    let mut rows = Vec::new();
    for b in limits::technology_bounds() {
        rows.push(vec![
            b.technology.to_string(),
            format!("{:.0e}", b.endurance as f64),
            fmt_value(b.max_multiplications),
            format!("{:.2}", b.seconds_to_failure / 86_400.0),
            format!("{:.1}", b.seconds_to_failure / 60.0),
        ]);
    }
    out.push_str(&text_table(
        &["technology", "endurance", "max 32b muls", "days", "minutes"],
        &rows,
    ));
    let rram = limits::seconds_to_total_failure(1024, 1024, 100_000_000, 3.0);
    out.push_str(&format!(
        "\nRRAM at 1e8 endurance: {:.2} minutes (paper: \"just over 5 minutes\")\n",
        rram / 60.0
    ));
    out
}

/// Fig. 5: per-cell write/read counts within a lane for one 32-bit multiply.
#[must_use]
pub fn fig5_report() -> String {
    let wl = nvpim_workloads::parallel_mul::ParallelMul::new(ArrayDims::new(1024, 4), 32)
        .without_readout()
        .build();
    let (writes, reads) = single_iteration_profile(&wl, ArchStyle::SenseAmp);
    let mut out = String::from(
        "== Fig. 5: per-cell accesses in a lane, single 32-bit multiplication ==\n\
         (cell index ascending; inputs occupy the first 64 cells, outputs the next 64)\n",
    );
    out.push_str("cell,writes,reads\n");
    for (i, (w, r)) in writes.iter().zip(&reads).enumerate() {
        out.push_str(&format!("{i},{w},{r}\n"));
    }
    let max_w = writes.iter().max().copied().unwrap_or(0);
    let input_w = writes[..64].iter().max().copied().unwrap_or(0);
    out.push_str(&format!(
        "\ninput cells written {input_w}x each; hottest workspace cell written {max_w}x \
         (paper: workspace cells used many more times than input cells)\n"
    ));
    out
}

/// Table 2: extra COPY gates for memory-access-aware shuffling.
#[must_use]
pub fn table2_report() -> String {
    let mut out = String::from("== Table 2: access-aware shuffling overhead (%) ==\n");
    let paper_mul = [25.0, 10.0, 4.55, 2.17, 1.06];
    let paper_add = [76.47, 67.57, 63.64, 61.78, 60.88];
    let mut rows = Vec::new();
    for (i, row) in access_aware::table2().iter().enumerate() {
        rows.push(vec![
            row.bits.to_string(),
            format!("{:.2}", row.mul_percent),
            format!("{:.2}", paper_mul[i]),
            format!("{:.2}", row.add_percent),
            format!("{:.2}", paper_add[i]),
            format!("{:.2}", 100.0 * access_aware::mul_overhead_nand_scheme(row.bits)),
            format!("{:.2}", 100.0 * access_aware::add_overhead_nand_scheme(row.bits)),
        ]);
    }
    out.push_str(&text_table(
        &["bits", "mul %", "(paper)", "add %", "(paper)", "mul % (nand)", "add % (nand)"],
        &rows,
    ));
    out.push_str("\n(the nand columns are this implementation's executed-gate ablation)\n");
    out
}

/// Fig. 11b: usable bits per lane vs. failed cells in the array.
#[must_use]
pub fn fig11_report() -> String {
    let mut out = String::from(
        "== Fig. 11b: % usable bits per lane vs % failed cells (analytic + Monte Carlo) ==\n",
    );
    let mut rows = Vec::new();
    for permille in [0u32, 1, 2, 5, 10, 20, 50] {
        let f = f64::from(permille) / 1000.0;
        let mut row = vec![format!("{:.1}", f * 100.0)];
        for lanes in [256usize, 512, 1024] {
            row.push(format!("{:.2}", 100.0 * failure::usable_fraction(f, lanes)));
        }
        let dims = ArrayDims::new(128, 128);
        let mc = failure::usable_fraction_monte_carlo(
            dims,
            (f * dims.cells() as f64).round() as usize,
            40,
            7,
        );
        row.push(format!("{:.2}", 100.0 * mc));
        rows.push(row);
    }
    out.push_str(&text_table(
        &["% failed", "256 lanes", "512 lanes", "1024 lanes", "MC 128x128"],
        &rows,
    ));
    out.push_str(
        "\n(paper: available space collapses within fractions of a percent of failures,\n\
         irrespective of array size)\n",
    );
    out
}

/// §3.3's lane-set partitioning workaround.
#[must_use]
pub fn lanesets_report() -> String {
    let mut out = String::from("== §3.3: lane sets — usable space vs throughput ==\n");
    for f in [0.001f64, 0.002, 0.005] {
        out.push_str(&format!("\nfailed fraction {:.1}%:\n", f * 100.0));
        let mut rows = Vec::new();
        for t in failure::lane_set_tradeoffs(1024, f, &[1, 2, 4, 8, 16]) {
            rows.push(vec![
                t.sets.to_string(),
                format!("{:.1}", t.usable_fraction * 100.0),
                format!("{:.2}", t.relative_throughput * 100.0),
            ]);
        }
        out.push_str(&text_table(&["sets", "% usable", "% throughput"], &rows));
    }
    out
}

/// The paper's three §4 benchmarks — the workload axis of the Fig. 14–17
/// matrix — in presentation order ([`Scale::all_workloads`] order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PaperWorkload {
    Mul,
    Conv,
    Dot,
}

impl PaperWorkload {
    const ALL: [PaperWorkload; 3] = [PaperWorkload::Mul, PaperWorkload::Conv, PaperWorkload::Dot];

    fn parse(which: &str) -> Self {
        match which {
            "mul" => PaperWorkload::Mul,
            "conv" => PaperWorkload::Conv,
            "dot" => PaperWorkload::Dot,
            other => panic!("unknown workload `{other}` (expected mul, conv, dot)"),
        }
    }

    fn build(self, scale: Scale) -> Workload {
        match self {
            PaperWorkload::Mul => scale.mul_workload(),
            PaperWorkload::Conv => scale.conv_workload(),
            PaperWorkload::Dot => scale.dot_workload(),
        }
    }

    fn figure(self) -> &'static str {
        match self {
            PaperWorkload::Mul => "Fig. 14 (multiplication)",
            PaperWorkload::Conv => "Fig. 15 (convolution)",
            PaperWorkload::Dot => "Fig. 16 (dot-product)",
        }
    }
}

/// One benchmark's Fig. 17 series: lifetime improvement per configuration
/// relative to `St × St`, in [`BalanceConfig::all`] order.
type Improvements = Vec<(BalanceConfig, f64)>;

/// Process-wide memo of the Fig. 17 matrix, one series per (scale, paper
/// workload). The heatmap reports compute every cell of their workload
/// anyway and fill it; `fig17_report` and `table3_report` read it, so
/// `repro all` computes each cell once. Values are 18 floats per series,
/// never a wear map, so the memo needs no budget.
static IMPROVEMENTS: Mutex<Vec<((Scale, PaperWorkload), Improvements)>> = Mutex::new(Vec::new());

fn memo_get(scale: Scale, which: PaperWorkload) -> Option<Improvements> {
    let memo = IMPROVEMENTS.lock().expect("improvement memo poisoned");
    memo.iter().find(|(key, _)| *key == (scale, which)).map(|(_, series)| series.clone())
}

fn memo_put(scale: Scale, which: PaperWorkload, series: Improvements) {
    let mut memo = IMPROVEMENTS.lock().expect("improvement memo poisoned");
    if !memo.iter().any(|(key, _)| *key == (scale, which)) {
        memo.push(((scale, which), series));
    }
}

/// The Fig. 17 matrix at `scale`, one series per workload of
/// `workloads` (built in [`PaperWorkload::ALL`] order): memoized series
/// where a heatmap report already computed them, the rest computed (and
/// memoized) now.
fn fig17_matrix(scale: Scale, workloads: &[Workload]) -> Vec<Improvements> {
    PaperWorkload::ALL
        .iter()
        .zip(workloads)
        .map(|(&which, workload)| {
            memo_get(scale, which).unwrap_or_else(|| {
                let series = fig17_data(workload, scale);
                memo_put(scale, which, series.clone());
                series
            })
        })
        .collect()
}

/// Each cell's improvement over `StxSt` from the cells' lifetimes in
/// iterations — the float expression [`LifetimeModel::improvement`]
/// evaluates, so the series is bit-identical to it.
fn improvements_from(lifetimes: &[(BalanceConfig, f64)]) -> Improvements {
    let (_, baseline) =
        lifetimes.iter().find(|(c, _)| c.is_static()).expect("StxSt is part of the matrix");
    lifetimes.iter().map(|&(config, iterations)| (config, iterations / baseline)).collect()
}

/// Answers `configs` of `workload` at `scale` through the analytic engine,
/// reducing each cell inside the worker job that computed it.
fn map_cells<T: Send>(
    workload: &Workload,
    configs: &[BalanceConfig],
    scale: Scale,
    reduce: impl Fn(SimResult) -> T + Sync,
) -> Vec<T> {
    nvpim_core::map_configs_analytic(workload, configs, scale.sim_config(), scale.jobs, reduce)
}

/// The heatmap figures: Fig. 14 (multiplication), Fig. 15 (convolution),
/// Fig. 16 (dot-product). `which` ∈ {"mul", "conv", "dot"}. Also fills the
/// Fig. 17 memo for `which` at `scale`.
#[must_use]
pub fn heatmap_report(which: &str, scale: Scale) -> String {
    let which = PaperWorkload::parse(which);
    let model = LifetimeModel::mtj();
    let combined = Mutex::new(WearMap::new(scale.dims));
    // The 18 panels need only final wear maps, not trajectories, so they
    // answer through the replay-free analytic engine — bit-identical to
    // the replay path. Each job renders its panel and keeps only the
    // lifetime, so no wear map outlives the job that computed it.
    let cells = map_cells(&which.build(scale), &BalanceConfig::all(), scale, |result| {
        let panel = heatmap_cell(&result, &combined);
        (result.config, panel, model.lifetime(&result).iterations)
    });
    let lifetimes: Vec<(BalanceConfig, f64)> = cells.iter().map(|&(c, _, l)| (c, l)).collect();
    memo_put(scale, which, improvements_from(&lifetimes));
    let panels: Vec<String> = cells.into_iter().map(|(_, panel, _)| panel).collect();
    render_heatmaps(which, scale, &panels, &combined.into_inner().expect("combined map poisoned"))
}

/// Renders one configuration's panel (header statistics and ASCII map) and
/// adds its wear into `combined`. u64 sums are exact and
/// order-independent, so the combined map does not depend on which job
/// finishes first.
fn heatmap_cell(result: &SimResult, combined: &Mutex<WearMap>) -> String {
    let wear = &result.wear;
    combined.lock().expect("combined map poisoned").merge(wear);
    let mut out = format!(
        "\n-- {}: max {} writes/cell, imbalance {:.2}x, gini {:.3} --\n",
        result.config,
        wear.max_writes(),
        wear.imbalance(),
        wear.gini()
    );
    out.push_str(&ascii_heatmap(wear, 24, 72));
    out.push('\n');
    out
}

/// Assembles a heatmap report: the 18 panels in the paper's order, then
/// the aggregate panel — total wear across every configuration, a quick
/// visual check that balancing conserves writes while moving them.
fn render_heatmaps(
    which: PaperWorkload,
    scale: Scale,
    panels: &[String],
    combined: &WearMap,
) -> String {
    let mut out = format!(
        "== {}: write distributions, {} iterations, re-compile {} ==\n",
        which.figure(),
        scale.iterations,
        scale.sim_config().schedule,
    );
    out.push_str(&panels.concat());
    out.push_str(&format!(
        "\n-- all 18 configs combined: {} total writes --\n",
        combined.total_writes()
    ));
    out.push_str(&ascii_heatmap(combined, 24, 72));
    out.push('\n');
    out
}

/// One benchmark's Fig. 17 data: lifetime improvement per configuration
/// relative to `St × St`. Uncached; each cell is reduced to its lifetime
/// inside the job that computed it.
#[must_use]
pub fn fig17_data(workload: &Workload, scale: Scale) -> Vec<(BalanceConfig, f64)> {
    let model = LifetimeModel::mtj();
    // Lifetime queries don't need the wear trajectory, so the whole matrix
    // answers through the replay-free analytic engine — bit-identical to
    // the simulator (irreducible configs fall back inside the engine).
    let lifetimes = map_cells(workload, &BalanceConfig::all(), scale, |result| {
        (result.config, model.lifetime(&result).iterations)
    });
    improvements_from(&lifetimes)
}

/// Fig. 17: lifetime improvement bars for all three benchmarks, from the
/// memo where the heatmap reports already computed the matrix.
#[must_use]
pub fn fig17_report(scale: Scale) -> String {
    let workloads = scale.all_workloads();
    let data = fig17_matrix(scale, &workloads);
    let names: Vec<&str> = workloads.iter().map(Workload::name).collect();
    fig17_table(&names, &data, scale.iterations)
}

/// Renders the Fig. 17 table from an already-computed improvement matrix
/// (one series per workload), so a caller that computed the matrix once can
/// render several reports from it.
///
/// # Panics
///
/// Panics if `data` is empty or its series disagree on the config order.
#[must_use]
pub fn fig17_table(
    workload_names: &[&str],
    data: &[Vec<(BalanceConfig, f64)>],
    iterations: u64,
) -> String {
    let mut out =
        format!("== Fig. 17: lifetime improvement vs StxSt ({iterations} iterations) ==\n");
    let mut rows = Vec::new();
    for (i, (config, _)) in data[0].iter().enumerate() {
        let mut row = vec![config.to_string()];
        for series in data {
            assert_eq!(series[i].0, *config, "series must share one config order");
            row.push(format!("{:.3}x", series[i].1));
        }
        rows.push(row);
    }
    let headers: Vec<&str> =
        std::iter::once("config").chain(workload_names.iter().copied()).collect();
    out.push_str(&text_table(&headers, &rows));
    out.push_str("\npaper reference (best config, Table 3): mul 1.59x, conv 2.22x, dot 2.11x\n");
    out
}

/// Table 3: average lane utilization and best lifetime improvement, from
/// the Fig. 17 memo where the heatmap reports already computed the matrix.
#[must_use]
pub fn table3_report(scale: Scale) -> String {
    table3_table(scale, &fig17_matrix(scale, &scale.all_workloads()))
}

/// Renders Table 3 from an already-computed improvement matrix (one series
/// per workload, in [`Scale::all_workloads`] order). Lane utilization is a
/// static workload property and is computed here.
///
/// # Panics
///
/// Panics if `data` has fewer series than workloads or an empty series.
#[must_use]
pub fn table3_table(scale: Scale, data: &[Vec<(BalanceConfig, f64)>]) -> String {
    let mut out = format!(
        "== Table 3: lane utilization and best lifetime improvement ({} iterations) ==\n",
        scale.iterations
    );
    let paper = [("mul32", 100.0, 1.59), ("conv4x3w8", 84.78, 2.22), ("dot1024x32", 65.2, 2.11)];
    let mut rows = Vec::new();
    for (i, wl) in scale.all_workloads().iter().enumerate() {
        let util = 100.0 * wl.lane_utilization(ArchStyle::PresetOutput);
        let data = &data[i];
        let (best_cfg, best) =
            data.iter().max_by(|a, b| a.1.total_cmp(&b.1)).expect("configs nonempty");
        rows.push(vec![
            wl.name().to_owned(),
            format!("{util:.2}"),
            format!("{:.2}", paper[i].1),
            format!("{best:.2}x ({best_cfg})"),
            format!("{:.2}x", paper[i].2),
        ]);
    }
    out.push_str(&text_table(
        &["benchmark", "util %", "(paper)", "best improvement", "(paper)"],
        &rows,
    ));
    out
}

/// §5: the re-compilation frequency study.
#[must_use]
pub fn sweep_report(scale: Scale) -> String {
    let mut out =
        format!("== §5: re-mapping frequency sweep ({} iterations, RaxRa) ==\n", scale.iterations);
    let workload = scale.mul_workload();
    let base = SimConfig::paper().with_iterations(scale.iterations);
    // Analytic sweep: every point is a replay-free lifetime query,
    // bit-identical to the simulated sweep.
    let points = sweep::remap_frequency_sweep_analytic(
        &workload,
        config("RaxRa"),
        base,
        LifetimeModel::mtj(),
        &RemapSchedule::PAPER_SWEEP,
        scale.jobs,
    );
    let mut rows = Vec::new();
    for p in &points {
        rows.push(vec![
            p.period.to_string(),
            fmt_value(p.lifetime_iterations),
            format!("{:.3}x", p.improvement_vs_never),
        ]);
    }
    out.push_str(&text_table(&["remap every", "lifetime (iters)", "vs never"], &rows));
    if let Some(sat) = sweep::saturation_period(&points, 0.016) {
        out.push_str(&format!(
            "\nsaturation (within 1.6% of best): every {sat} iterations \
             (paper: ~every 50 iterations)\n"
        ));
    }
    out
}

/// Extension: per-iteration energy of each benchmark on each technology,
/// plus the energy cost of the access-aware shuffling overhead.
#[must_use]
pub fn energy_report(scale: Scale) -> String {
    use nvpim_nvm::{DeviceParams, EnergyModel, Technology};
    let mut out = String::from("== Extension: energy per iteration (nJ) ==\n");
    let mut rows = Vec::new();
    for wl in scale.all_workloads() {
        let mut row = vec![wl.name().to_owned()];
        for tech in [Technology::Mram, Technology::SotMram, Technology::Rram, Technology::Pcm] {
            let model = EnergyModel::from_device(&DeviceParams::for_technology(tech));
            let pj = wl.energy_per_iteration_pj(ArchStyle::PresetOutput, &model);
            row.push(format!("{:.1}", pj / 1000.0));
        }
        rows.push(row);
    }
    out.push_str(&text_table(&["benchmark", "MRAM", "SOT-MRAM", "RRAM", "PCM"], &rows));
    // Access-aware shuffling's energy tax (the Table 2 overhead in joules).
    let model = EnergyModel::from_device(&DeviceParams::for_technology(Technology::Mram));
    let mul_pj = scale.mul_workload().energy_per_iteration_pj(ArchStyle::PresetOutput, &model);
    out.push_str(&format!(
        "\naccess-aware shuffling adds ~{:.2}% gate energy to a 32-bit multiply \
         (= {:.2} nJ per iteration at MRAM energies)\n",
        100.0 * access_aware::mul_overhead_nand_scheme(32),
        mul_pj * access_aware::mul_overhead_nand_scheme(32) / 1000.0,
    ));
    out
}

/// Extension: Fig. 8 quantified — memory-access cost of a 32-bit variable
/// under each within-lane strategy, for both orientations.
#[must_use]
pub fn fig8_report() -> String {
    use nvpim_array::Orientation;
    use nvpim_balance::{access_cost, Strategy, StrategyMapper};
    let mut out = String::from(
        "== Extension (Fig. 8): accesses to read a 32-bit variable after re-mapping ==\n",
    );
    let mut rows = Vec::new();
    for strategy in Strategy::ALL {
        let mut mapper = StrategyMapper::new(strategy, 1024, 3);
        mapper.advance_epoch();
        let row_par =
            access_cost::mapped_access_cost(mapper.as_slice(), 0, 32, Orientation::RowParallel);
        let col_par =
            access_cost::mapped_access_cost(mapper.as_slice(), 0, 32, Orientation::ColumnParallel);
        rows.push(vec![
            strategy.to_string(),
            row_par.accesses.to_string(),
            if row_par.in_order { "yes" } else { "no" }.to_owned(),
            col_par.accesses.to_string(),
        ]);
    }
    out.push_str(&text_table(
        &["strategy", "row-par accesses", "in order", "col-par accesses"],
        &rows,
    ));
    out.push_str(
        "\n(paper: scattering bits is costly for row-parallel reads but immaterial for\n\
         column-parallel ones — the reason Byte-Shifting exists)\n",
    );
    out
}

/// Extension: degradation timeline — usable rows over time as the hottest
/// cells die, and the point where the workload stops fitting.
#[must_use]
pub fn degradation_report(scale: Scale) -> String {
    let workload = scale.mul_workload();
    let configs = [config("StxSt"), config("RaxRa+Hw")];
    let lines =
        map_cells(&workload, &configs, scale, |result| degradation_line(&workload, &result));
    format!(
        "== Extension: degradation timeline, {} (MTJ endurance 1e12) ==\n{}",
        workload.name(),
        lines.concat()
    )
}

/// One configuration's line of the degradation report.
fn degradation_line(workload: &Workload, result: &SimResult) -> String {
    let timeline =
        failure::degradation_timeline(&result.wear, result.iterations, 1_000_000_000_000);
    let required = workload.trace().rows_used();
    let dead = failure::iterations_until_insufficient(
        &result.wear,
        result.iterations,
        1_000_000_000_000,
        required,
    );
    format!(
        "\n{}: first row dies at {} iterations; workload (needs {} rows) \
         unfits at {} iterations; 10% of rows dead by {}\n",
        result.config,
        fmt_value(timeline.first().map_or(f64::INFINITY, |p| p.iterations)),
        required,
        dead.map_or("never".to_owned(), fmt_value),
        fmt_value(
            timeline.iter().find(|p| p.usable_rows <= 0.9).map_or(f64::INFINITY, |p| p.iterations)
        ),
    )
}

/// Extension: Eq. 4 under log-normal per-cell endurance variation.
#[must_use]
pub fn variation_report(scale: Scale) -> String {
    let workload = scale.mul_workload();
    let reports = map_cells(&workload, &[config("RaxRa")], scale, |result| variation_text(&result));
    reports.concat()
}

/// The variation report for one simulated configuration.
fn variation_text(result: &SimResult) -> String {
    use nvpim_nvm::EnduranceModel;
    let model = LifetimeModel::mtj();
    let uniform = model.lifetime(result);
    let mut out =
        String::from("== Extension: first-cell-failure lifetime under endurance variation ==\n");
    out.push_str(&format!(
        "uniform endurance (paper's assumption): {} iterations\n",
        fmt_value(uniform.iterations)
    ));
    let mut rows = Vec::new();
    for sigma in [0.1f64, 0.3, 0.5, 1.0] {
        let varied = model.lifetime_with_variation(
            result,
            EnduranceModel::LogNormal { median: 1_000_000_000_000, sigma },
            17,
        );
        rows.push(vec![
            format!("{sigma:.1}"),
            fmt_value(varied.iterations),
            format!("{:.1}%", 100.0 * varied.iterations / uniform.iterations),
        ]);
    }
    out.push_str(&text_table(&["sigma (ln E)", "lifetime (iters)", "vs uniform"], &rows));
    out.push_str("\n(variation pulls first failure below the uniform estimate — §4's remark)\n");
    out
}

/// The configurations the binarized-layer report compares.
const BNN_CONFIGS: [&str; 5] = ["StxSt", "RaxSt", "StxRa", "RaxRa", "RaxRa+Hw"];

/// Extension: the fully binarized XNOR-popcount layer characterized like
/// the paper's three benchmarks.
#[must_use]
pub fn bnn_report(scale: Scale) -> String {
    use nvpim_workloads::bnn_layer::BnnLayer;
    let workload = BnnLayer::new(scale.dims, 128).build();
    let model = LifetimeModel::mtj();
    let lifetimes = map_cells(&workload, &BNN_CONFIGS.map(config), scale, |result| {
        (result.config, model.lifetime(&result).iterations)
    });
    bnn_text(&workload, scale, &lifetimes)
}

/// The binarized-layer report from each configuration's lifetime.
fn bnn_text(workload: &Workload, scale: Scale, lifetimes: &[(BalanceConfig, f64)]) -> String {
    let mut out = format!(
        "== Extension: binarized (XNOR-popcount) layer, {} ({} iterations) ==\n",
        workload.name(),
        scale.iterations
    );
    out.push_str(&format!(
        "{} sequential steps/iteration ({}x fewer than mul32), utilization {:.1}%\n",
        workload.steps_per_iteration(ArchStyle::PresetOutput),
        scale.mul_workload().steps_per_iteration(ArchStyle::PresetOutput)
            / workload.steps_per_iteration(ArchStyle::PresetOutput).max(1),
        100.0 * workload.lane_utilization(ArchStyle::PresetOutput),
    ));
    let rows: Vec<Vec<String>> = lifetimes
        .iter()
        .zip(improvements_from(lifetimes))
        .map(|(&(config, iterations), (_, improvement))| {
            vec![config.to_string(), fmt_value(iterations), format!("{improvement:.2}x")]
        })
        .collect();
    out.push_str(&text_table(&["config", "lifetime (iters)", "vs StxSt"], &rows));
    out.push_str(
        "\n(binarization slashes gates per result, so the same endurance budget buys\n\
         orders of magnitude more inferences — the Pimball-style design point)\n",
    );
    out
}

/// Extension: accelerator-level lifetime (§4's server-replacement framing).
#[must_use]
pub fn system_report(scale: Scale) -> String {
    let workload = scale.mul_workload();
    let model = LifetimeModel::mtj();
    let lifetimes =
        map_cells(&workload, &[config("RaxRa")], scale, |result| model.lifetime(&result));
    system_text(&workload, lifetimes[0])
}

/// The accelerator report from one array's lifetime.
fn system_text(workload: &Workload, array: Lifetime) -> String {
    use nvpim_core::system::AcceleratorModel;
    let mut out =
        format!("== Extension: accelerator of 64 arrays running {} (RaxRa) ==\n", workload.name());
    out.push_str(&format!(
        "single array (Eq. 4): {} iterations = {:.1} days\n",
        fmt_value(array.iterations),
        array.days()
    ));
    let mut rows = Vec::new();
    for sigma in [0.0f64, 0.2, 0.4] {
        let mut row = vec![format!("{sigma:.1}")];
        for tolerate in [0usize, 3, 15] {
            let fleet =
                AcceleratorModel::new(64, tolerate).lifetime_with_spread(array, sigma, 400, 21);
            row.push(format!("{:.1}", fleet.days()));
        }
        rows.push(row);
    }
    out.push_str(&text_table(
        &["lifetime spread σ", "replace at 1st failure", "tolerate 3", "tolerate 15"],
        &rows,
    ));
    out.push_str(
        "\n(days; with realistic array-to-array spread, replacing on first failure\n\
         forfeits much of the nominal lifetime — §4's replacement question)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpim_core::EnduranceSimulator;

    #[test]
    fn closed_form_reports_contain_paper_numbers() {
        let r = limits_report();
        assert!(r.contains("1.07e14") || r.contains("1.070e14"));
        assert!(r.contains("35.56"));
        let a = amplification_report();
        assert!(a.contains("153.5x"));
        let t = table2_report();
        assert!(t.contains("2.17"));
        assert!(t.contains("61.78"));
    }

    #[test]
    fn fig5_report_is_csv_like() {
        let r = fig5_report();
        assert!(r.contains("cell,writes,reads"));
        assert!(r.lines().count() > 200);
    }

    #[test]
    fn fig11_report_contains_collapse() {
        let r = fig11_report();
        assert!(r.contains("1024 lanes"));
        // At 1% failed, 1024 lanes retain ~0.003% usable.
        assert!(r.contains("0.00"));
    }

    #[test]
    fn fig17_data_tiny_scale() {
        let scale = Scale::tiny();
        let wl = scale.dot_workload();
        let data = fig17_data(&wl, scale);
        assert_eq!(data.len(), 18);
        // StxSt is its own baseline.
        let st = data.iter().find(|(c, _)| c.is_static()).unwrap();
        assert!((st.1 - 1.0).abs() < 1e-9);
        // The best configuration beats the baseline.
        let best = data.iter().map(|&(_, i)| i).fold(0.0f64, f64::max);
        assert!(best > 1.2, "best {best}");
    }

    #[test]
    fn heatmap_report_renders_all_panels() {
        let r = heatmap_report("conv", Scale::tiny());
        // 18 per-config panels plus the combined-wear panel.
        assert_eq!(r.matches("-- ").count(), 19);
        assert!(r.contains("RaxBs+Hw"));
        assert!(r.contains("all 18 configs combined"));
    }

    #[test]
    fn heatmap_report_is_jobs_invariant() {
        let serial = heatmap_report("mul", Scale::tiny().with_jobs(1));
        let parallel = heatmap_report("mul", Scale::tiny().with_jobs(4));
        assert_eq!(serial, parallel);
    }

    /// The heatmap report rendered from full simulator replays, through the
    /// same panel and assembly functions as the analytic path.
    fn heatmap_report_replayed(which: &str, scale: Scale) -> String {
        let which = PaperWorkload::parse(which);
        let workload = which.build(scale);
        let sim = EnduranceSimulator::new(scale.sim_config());
        let results: Vec<_> =
            BalanceConfig::all().into_iter().map(|c| sim.run(&workload, c)).collect();
        let combined = Mutex::new(WearMap::new(scale.dims));
        let panels: Vec<String> = results.iter().map(|r| heatmap_cell(r, &combined)).collect();
        render_heatmaps(which, scale, &panels, &combined.into_inner().unwrap())
    }

    #[test]
    fn heatmap_analytic_path_matches_simulator_bit_for_bit() {
        // The default path answers through the analytic engine; every
        // panel (all 18 configs + combined) must render byte-identically
        // to a full simulator replay.
        for which in ["mul", "conv", "dot"] {
            let analytic = heatmap_report(which, Scale::tiny());
            let replay = heatmap_report_replayed(which, Scale::tiny());
            assert_eq!(analytic, replay, "{which}: analytic heatmap diverges from replay");
        }
    }

    #[test]
    fn heatmap_combined_panel_sums_every_config() {
        let scale = Scale::tiny().with_iterations(37);
        let report = heatmap_report("dot", scale);
        let results = nvpim_core::run_configs_analytic(
            &scale.dot_workload(),
            &BalanceConfig::all(),
            scale.sim_config(),
            scale.jobs,
        );
        let combined = WearMap::merged(scale.dims, results.into_iter().map(|r| r.wear));
        let panel = format!(
            "\n-- all 18 configs combined: {} total writes --\n{}\n",
            combined.total_writes(),
            ascii_heatmap(&combined, 24, 72)
        );
        assert!(report.ends_with(&panel), "combined panel is not the sum of the 18 maps");
    }

    fn workload_names(scale: Scale) -> Vec<String> {
        scale.all_workloads().iter().map(|w| w.name().to_owned()).collect()
    }

    #[test]
    fn heatmaps_fill_the_memo_that_fig17_and_table3_render() {
        // Each memo test runs at its own iteration count, so no other test
        // shares its (scale, workload) keys.
        let scale = Scale::tiny().with_iterations(53);
        for which in ["mul", "conv", "dot"] {
            let _ = heatmap_report(which, scale);
        }
        let fresh: Vec<Improvements> =
            scale.all_workloads().iter().map(|w| fig17_data(w, scale)).collect();
        for (which, series) in PaperWorkload::ALL.iter().zip(&fresh) {
            assert_eq!(memo_get(scale, *which).as_ref(), Some(series), "{which:?} not memoized");
        }
        let names = workload_names(scale);
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        assert_eq!(fig17_report(scale), fig17_table(&names, &fresh, scale.iterations));
        assert_eq!(table3_report(scale), table3_table(scale, &fresh));
    }

    #[test]
    fn fig17_and_table3_answer_from_the_memo() {
        // A planted series no engine would produce: the reports must print
        // it instead of recomputing the matrix.
        let scale = Scale::tiny().with_iterations(41);
        let planted: Vec<Improvements> = (0..3)
            .map(|i| {
                BalanceConfig::all()
                    .into_iter()
                    .enumerate()
                    .map(|(j, c)| (c, 1.0 + (18 * i + j) as f64 / 8.0))
                    .collect()
            })
            .collect();
        for (which, series) in PaperWorkload::ALL.iter().zip(&planted) {
            memo_put(scale, *which, series.clone());
        }
        let names = workload_names(scale);
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        assert_eq!(fig17_report(scale), fig17_table(&names, &planted, scale.iterations));
        assert_eq!(table3_report(scale), table3_table(scale, &planted));
    }

    #[test]
    fn fig17_report_computes_the_matrix_on_a_miss() {
        let scale = Scale::tiny().with_iterations(29);
        let fresh: Vec<Improvements> =
            scale.all_workloads().iter().map(|w| fig17_data(w, scale)).collect();
        let names = workload_names(scale);
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        assert_eq!(fig17_report(scale), fig17_table(&names, &fresh, scale.iterations));
        assert_eq!(memo_get(scale, PaperWorkload::Dot).as_ref(), Some(&fresh[2]));
    }

    #[test]
    fn extension_reports_match_the_replay_simulator() {
        use nvpim_workloads::bnn_layer::BnnLayer;
        let scale = Scale::tiny();
        let sim = EnduranceSimulator::new(scale.sim_config());
        let model = LifetimeModel::mtj();
        let mul = scale.mul_workload();

        let lines: String = ["StxSt", "RaxRa+Hw"]
            .iter()
            .map(|label| degradation_line(&mul, &sim.run(&mul, config(label))))
            .collect();
        let degradation = degradation_report(scale);
        assert!(degradation.ends_with(&lines), "degradation diverges from replay");

        let raxra = sim.run(&mul, config("RaxRa"));
        assert_eq!(variation_report(scale), variation_text(&raxra));
        assert_eq!(system_report(scale), system_text(&mul, model.lifetime(&raxra)));

        let bnn = BnnLayer::new(scale.dims, 128).build();
        let lifetimes: Vec<(BalanceConfig, f64)> = BNN_CONFIGS
            .iter()
            .map(|label| (config(label), model.lifetime(&sim.run(&bnn, config(label))).iterations))
            .collect();
        assert_eq!(bnn_report(scale), bnn_text(&bnn, scale, &lifetimes));
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn heatmap_rejects_unknown() {
        let _ = heatmap_report("fft", Scale::tiny());
    }

    #[test]
    fn extension_reports_render() {
        let scale = Scale::tiny();
        let e = energy_report(scale);
        assert!(e.contains("PCM"));
        let b = bnn_report(scale);
        assert!(b.contains("bnn128"));
        let s = system_report(scale);
        assert!(s.contains("tolerate 15"));
        let f = fig8_report();
        assert!(f.contains("Ra"));
        assert!(f.contains("in order"));
        let d = degradation_report(scale);
        assert!(d.contains("first row dies"));
        let v = variation_report(scale);
        assert!(v.contains("vs uniform"));
    }
}
