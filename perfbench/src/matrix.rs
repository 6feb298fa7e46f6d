//! The two matrix workloads: `fig17-full` (`repro fig17 --full`) and
//! `all-default` (`repro all`).
//!
//! The timed run calls the same report functions `repro` calls, in the same
//! order, in a fresh process. The traced run re-drives the matrix cells
//! through `AnalyticWearEngine`, `LifetimeModel` and the renderers with a
//! span around each call, and writes the rendered reports so `run.py` can
//! compare them with the timed run's bytes.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use nvpim_array::WearMap;
use nvpim_balance::{BalanceConfig, RemapSchedule};
use nvpim_bench::{experiments, Scale};
use nvpim_core::report::{ascii_heatmap, fmt_value, text_table};
use nvpim_core::{fan_out, sweep, AnalyticWearEngine, LifetimeModel, SimConfig, SimResult};
use nvpim_obs::{observer, Observer};
use nvpim_workloads::Workload;

use crate::spans::Recorder;
use crate::{write_file, Metrics};

/// The scale a matrix workload runs at.
pub fn scale(workload: &str) -> Scale {
    match workload {
        "fig17-full" => Scale::paper(),
        "all-default" => Scale::default_scale(),
        other => crate::die(&format!("unknown matrix workload `{other}`")),
    }
}

/// A named top-level report call.
type ReportCall = (&'static str, Box<dyn Fn() -> String>);

/// The report calls `repro all` makes, in its order. `repro all` prints
/// them separated by one empty line.
fn all_calls(scale: Scale) -> Vec<ReportCall> {
    vec![
        ("amplification", Box::new(experiments::amplification_report)),
        ("limits", Box::new(experiments::limits_report)),
        ("table2", Box::new(experiments::table2_report)),
        ("fig11", Box::new(experiments::fig11_report)),
        ("lanesets", Box::new(experiments::lanesets_report)),
        ("fig5", Box::new(experiments::fig5_report)),
        ("fig14", Box::new(move || experiments::heatmap_report("mul", scale))),
        ("fig15", Box::new(move || experiments::heatmap_report("conv", scale))),
        ("fig16", Box::new(move || experiments::heatmap_report("dot", scale))),
        ("fig17", Box::new(move || experiments::fig17_report(scale))),
        ("table3", Box::new(move || experiments::table3_report(scale))),
        ("sweep", Box::new(move || experiments::sweep_report(scale))),
        ("energy", Box::new(move || experiments::energy_report(scale))),
        ("fig8", Box::new(experiments::fig8_report)),
        ("degradation", Box::new(move || experiments::degradation_report(scale))),
        ("variation", Box::new(move || experiments::variation_report(scale))),
        ("bnn", Box::new(move || experiments::bnn_report(scale))),
        ("system", Box::new(move || experiments::system_report(scale))),
    ]
}

/// Set-up: builds the three paper benchmarks at the workload's scale over
/// and over for a quarter of a second (at least five times); reports the
/// median build time.
pub fn setup(workload: &str) -> Metrics {
    let s = scale(workload);
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 5 || started.elapsed().as_secs_f64() < 0.25 {
        let build = Instant::now();
        std::hint::black_box(s.all_workloads());
        times.push(build.elapsed().as_secs_f64());
    }
    Metrics::new().with("setup_s", crate::median(&times))
}

/// The timed run: the report exactly as `repro` prints it.
pub fn run(workload: &str, out: &Path) {
    let s = scale(workload);
    let report = match workload {
        "fig17-full" => experiments::fig17_report(s),
        _ => all_calls(s).iter().map(|(_, call)| call()).collect::<Vec<_>>().join("\n"),
    };
    write_file(out, &report);
}

/// Traced run, part one for `all-default`: each top-level call of
/// `repro all` in its own span, with the program's own observer installed
/// so its `sim.analytic_queries` counter shows how many cells the report
/// set computed. Writes each call's output to `dir/calls/<name>.txt` and
/// the whole report to `dir/all-default.txt`.
pub fn trace_calls(rec: &Recorder, dir: &Path) -> Metrics {
    let obs = observer::install(Observer::collecting())
        .unwrap_or_else(|_| crate::die("an observer is already installed"));
    let mut m = Metrics::new();
    let mut reports = Vec::new();
    for (name, call) in all_calls(scale("all-default")) {
        let span = format!("reports.{name}");
        let report = rec.time(span.as_str(), call);
        m = m.with(&format!("{span}_s"), rec.total_s(&span));
        write_file(&dir.join("calls").join(format!("{name}.txt")), &report);
        reports.push(report);
    }
    write_file(&dir.join("all-default.txt"), &reports.join("\n"));
    let computed = obs.snapshot().counter("sim.analytic_queries").unwrap_or(0);
    m.with("analytic.cells_computed", computed as f64)
}

/// Computes one workload's 18 cells the way `run_configs_analytic` does
/// (same fan-out, same worker count), with spans around engine build and
/// query, named by the engine path that answered.
fn redrive_matrix(rec: &Recorder, wl: &Workload, cfg: SimConfig, jobs: usize) -> Vec<SimResult> {
    let _matrix = rec.span("parallel.matrix");
    fan_out(BalanceConfig::all(), jobs, |config, _sink| {
        let _cell = rec.span("analytic.cell");
        let mut build = rec.span("analytic.build");
        let mut engine = AnalyticWearEngine::new(wl, config, cfg);
        let path = engine.path().label();
        build.rename(format!("analytic.build.{path}"));
        drop(build);
        rec.time(format!("analytic.query.{path}"), || engine.result_at(cfg.iterations))
    })
}

/// Lifetime improvement of each cell over `StxSt`, as `fig17_data` computes
/// it.
fn improvements(rec: &Recorder, cells: &[SimResult]) -> Vec<(BalanceConfig, f64)> {
    let _span = rec.span("lifetime");
    let model = LifetimeModel::mtj();
    let baseline = cells.iter().find(|c| c.config.is_static()).expect("StxSt is in the matrix");
    cells.iter().map(|c| (c.config, model.improvement(c, baseline))).collect()
}

/// The Fig. 14–16 heatmap report, rendered from re-driven cells in the
/// layout `experiments::heatmap_report` prints.
fn render_heatmaps(rec: &Recorder, figure: &str, scale: Scale, cells: &[SimResult]) -> String {
    let _span = rec.span("render.heatmap");
    let mut out = format!(
        "== {figure}: write distributions, {} iterations, re-compile {} ==\n",
        scale.iterations,
        scale.sim_config().schedule,
    );
    for cell in cells {
        let wear = &cell.wear;
        out.push_str(&format!(
            "\n-- {}: max {} writes/cell, imbalance {:.2}x, gini {:.3} --\n",
            cell.config,
            wear.max_writes(),
            wear.imbalance(),
            wear.gini()
        ));
        out.push_str(&ascii_heatmap(wear, 24, 72));
        out.push('\n');
    }
    let combined = WearMap::merged(scale.dims, cells.iter().map(|c| c.wear.clone()));
    out.push_str(&format!(
        "\n-- all 18 configs combined: {} total writes --\n",
        combined.total_writes()
    ));
    out.push_str(&ascii_heatmap(&combined, 24, 72));
    out.push('\n');
    out
}

/// The §5 sweep, through the public sweep function, rendered in the layout
/// `experiments::sweep_report` prints. Returns the report and the sweep's
/// distinct periods.
fn redrive_sweep(rec: &Recorder, scale: Scale) -> (String, Vec<u64>) {
    let workload = rec.time("workloads.build", || scale.mul_workload());
    let periods = RemapSchedule::PAPER_SWEEP;
    let points = rec.time("sweep", || {
        sweep::remap_frequency_sweep_analytic(
            &workload,
            "RaxRa".parse().expect("valid config"),
            SimConfig::paper().with_iterations(scale.iterations),
            LifetimeModel::mtj(),
            &periods,
            scale.jobs,
        )
    });
    let _span = rec.span("render.tables");
    let mut out =
        format!("== §5: re-mapping frequency sweep ({} iterations, RaxRa) ==\n", scale.iterations);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.period.to_string(),
                fmt_value(p.lifetime_iterations),
                format!("{:.3}x", p.improvement_vs_never),
            ]
        })
        .collect();
    out.push_str(&text_table(&["remap every", "lifetime (iters)", "vs never"], &rows));
    if let Some(sat) = sweep::saturation_period(&points, 0.016) {
        out.push_str(&format!(
            "\nsaturation (within 1.6% of best): every {sat} iterations \
             (paper: ~every 50 iterations)\n"
        ));
    }
    // The sweep also evaluates a never-re-map point as its baseline.
    (out, std::iter::once(0).chain(periods).collect())
}

/// Traced re-drive of every distinct matrix cell: `fig17-full` renders the
/// Fig. 17 report from it; `all-default` also renders the three heatmap
/// reports, Table 3 and the sweep. Writes each rendered report to
/// `dir/redrive/<name>.txt`.
pub fn trace_cells(rec: &Recorder, workload: &str, dir: &Path) -> Metrics {
    let s = scale(workload);
    let cfg = s.sim_config();
    let all_default = workload == "all-default";
    let top = rec.span(if all_default { "redrive" } else { "reports.fig17" });
    let workloads = rec.time("workloads.build", || s.all_workloads());
    let mut matrices = Vec::new();
    let mut reports: Vec<(&str, String)> = Vec::new();
    for (wl, (fig, figure)) in workloads.iter().zip([
        ("fig14", "Fig. 14 (multiplication)"),
        ("fig15", "Fig. 15 (convolution)"),
        ("fig16", "Fig. 16 (dot-product)"),
    ]) {
        let cells = redrive_matrix(rec, wl, cfg, s.jobs);
        if all_default {
            reports.push((fig, render_heatmaps(rec, figure, s, &cells)));
        }
        matrices.push(improvements(rec, &cells));
    }
    let names: Vec<&str> = workloads.iter().map(Workload::name).collect();
    rec.time("render.tables", || {
        reports.push(("fig17", experiments::fig17_table(&names, &matrices, s.iterations)));
        if all_default {
            reports.push(("table3", experiments::table3_table(s, &matrices)));
        }
    });
    let mut distinct: BTreeSet<(String, String, u64)> = BTreeSet::new();
    for wl in &names {
        for config in BalanceConfig::all() {
            distinct.insert((
                (*wl).to_owned(),
                config.to_string(),
                cfg.schedule.period().unwrap_or(0),
            ));
        }
    }
    if all_default {
        let (report, periods) = redrive_sweep(rec, s);
        reports.push(("sweep", report));
        for period in periods {
            distinct.insert((names[0].to_owned(), "RaxRa".into(), period));
        }
    }
    drop(top);
    for (name, report) in &reports {
        write_file(&dir.join("redrive").join(format!("{name}.txt")), report);
    }
    let m = matrix_metrics(rec, distinct.len(), s.jobs);
    if all_default {
        m
    } else {
        let computed = rec.durations_s("analytic.cell").len();
        m.with("analytic.cells_computed", computed as f64)
            .with("reports.fig17_s", rec.total_s("reports.fig17"))
    }
}

/// Per-layer metrics of a traced re-drive.
fn matrix_metrics(rec: &Recorder, distinct: usize, jobs: usize) -> Metrics {
    let cells = rec.durations_s("analytic.cell");
    let workers = nvpim_exec::JobPool::new(jobs).threads() as f64;
    let busy = cells.iter().sum::<f64>() / (workers * rec.total_s("parallel.matrix"));
    crate::analytic_metrics(rec)
        .with("analytic.slowest_cell_s", cells.iter().copied().fold(0.0, f64::max))
        .with("analytic.cells_distinct", distinct as f64)
        .with("parallel.busy_frac", busy)
        .with("workloads.build_s", rec.total_s("workloads.build"))
        .with("lifetime.s", rec.total_s("lifetime"))
        .with("sweep.s", rec.total_s("sweep"))
        .with("render.heatmap_s", rec.total_s("render.heatmap"))
        .with("render.tables_s", rec.total_s("render.tables"))
}
