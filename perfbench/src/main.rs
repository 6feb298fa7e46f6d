//! `nvpim-perfbench`: the worker half of the end-to-end benchmark.
//!
//! `run.py` builds this binary and starts it once per measurement, so every
//! timed matrix run is a fresh, cold process, like a user's `repro` run.
//!
//! ```text
//! nvpim-perfbench setup fig17-full|all-default
//! nvpim-perfbench run   fig17-full|all-default --out FILE
//! nvpim-perfbench trace fig17-full|all-default-calls|all-default-cells --out DIR
//! nvpim-perfbench serve-round --seed N --out FILE.jsonl
//! nvpim-perfbench serve-check --seed N --trace 0|1 --out DIR ROUND.jsonl...
//! ```
//!
//! Each mode prints one JSON object on its last stdout line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use nvpim_obs::Json;

mod matrix;
mod serve_mix;
mod spans;

use spans::Recorder;

/// Named metric values, printed as one JSON object.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    pub fn with(mut self, name: &str, value: f64) -> Self {
        self.0.insert(name.to_owned(), value);
        self
    }

    pub fn merge(mut self, other: Metrics) -> Self {
        self.0.extend(other.0);
        self
    }

    fn to_json(&self) -> Json {
        self.0.iter().fold(Json::object(), |doc, (name, value)| doc.with(name, *value))
    }
}

pub fn die(msg: &str) -> ! {
    eprintln!("nvpim-perfbench: {msg}");
    std::process::exit(2);
}

pub fn write_file(path: &Path, text: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", dir.display())));
    }
    std::fs::write(path, text)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `q` quantile of `values` by linear interpolation (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// Per engine path (`closed_form`, `lazy`, `fallback`): cells answered,
/// and time spent building engines and answering queries, from the
/// `analytic.build.<path>` and `analytic.query.<path>` spans.
pub fn analytic_metrics(rec: &Recorder) -> Metrics {
    let mut m = Metrics::new();
    for path in ["closed_form", "lazy", "fallback"] {
        let queries = rec.durations_s(&format!("analytic.query.{path}"));
        m = m
            .with(&format!("analytic.cells.{path}"), queries.len() as f64)
            .with(
                &format!("analytic.build_s.{path}"),
                rec.total_s(&format!("analytic.build.{path}")),
            )
            .with(&format!("analytic.query_s.{path}"), queries.iter().sum());
    }
    m
}

/// Writes a traced run's spans as Chrome trace-event JSON, checks them with
/// the program's own validator, and writes the per-layer self-time table
/// next to them.
fn export_trace(rec: &Recorder, wall_s: f64, dir: &Path, part: &str) -> Metrics {
    let trace = rec.chrome_trace();
    if let Err(e) = nvpim_obs::validate::chrome_trace(&trace) {
        die(&format!("trace for {part} does not validate: {e}"));
    }
    write_file(&dir.join(format!("trace-{part}.json")), &trace);
    write_file(&dir.join(format!("selftime-{part}.txt")), &rec.self_time_table(wall_s));
    Metrics::new().with("trace.wall_s", wall_s).with("trace.coverage", rec.coverage(wall_s))
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn num(args: &[String], name: &str) -> u64 {
    flag(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("{name} needs a whole number")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map_or("", String::as_str);
    let target = args.get(1).map_or("", String::as_str);
    let out = || PathBuf::from(flag(&args, "--out").unwrap_or_else(|| die("--out is required")));
    let doc = match mode {
        "setup" => matrix::setup(target).to_json(),
        "run" => {
            matrix::run(target, &out());
            Metrics::new().with("peak_rss_mib", peak_rss_mib()).to_json()
        }
        "trace" => {
            let rec = Recorder::new();
            let started = Instant::now();
            let dir = out();
            let m = match target {
                "fig17-full" => matrix::trace_cells(&rec, "fig17-full", &dir),
                "all-default-cells" => matrix::trace_cells(&rec, "all-default", &dir),
                "all-default-calls" => matrix::trace_calls(&rec, &dir),
                other => die(&format!("unknown trace target `{other}`")),
            };
            let wall_s = started.elapsed().as_secs_f64();
            m.merge(export_trace(&rec, wall_s, &dir, target)).to_json()
        }
        "serve-round" => serve_mix::round(num(&args, "--seed"), &out()).to_json(),
        "serve-check" => {
            let trace = num(&args, "--trace") == 1;
            let rec = Recorder::new();
            let started = Instant::now();
            let rounds: Vec<PathBuf> =
                args[1..].iter().filter(|a| a.ends_with(".jsonl")).map(PathBuf::from).collect();
            let (mut m, attempted, failed) =
                serve_mix::check(num(&args, "--seed"), &rounds, trace, &rec);
            if trace {
                let wall_s = started.elapsed().as_secs_f64();
                m = m.merge(export_trace(&rec, wall_s, &out(), "serve-mix"));
            }
            Json::object()
                .with("metrics", m.to_json())
                .with("attempted", attempted)
                .with("failed", failed)
        }
        _ => die("usage: nvpim-perfbench setup|run|trace|serve-round|serve-check [options]"),
    };
    println!("{}", doc.render());
}
