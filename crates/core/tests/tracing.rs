//! End-to-end tracing across the parallel engine.
//!
//! The contract under test: with a process-wide observer carrying a
//! `TraceRecorder` and an ambient root span, a parallel matrix run yields
//! **one coherent trace** — every worker's `exec.job` span shares the root's
//! trace id and parents to the root span, and the Chrome trace-event export
//! passes the repo's own validator.
//!
//! Lives in its own integration binary because `observer::install` is
//! once-per-process.

use std::sync::Arc;

use nvpim_array::{ArchStyle, ArrayDims};
use nvpim_balance::BalanceConfig;
use nvpim_core::{run_matrix, SimConfig};
use nvpim_obs::{observer, validate, Observer, TraceRecorder};
use nvpim_workloads::parallel_mul::ParallelMul;
use nvpim_workloads::Workload;

fn workload() -> Workload {
    ParallelMul::new(ArrayDims::new(128, 8), 8).build()
}

#[test]
fn parallel_matrix_produces_one_coherent_trace() {
    let recorder = Arc::new(TraceRecorder::new());
    let installed = observer::install(Observer::collecting().with_tracer(Arc::clone(&recorder)))
        .expect("first install in this process");
    let tracer = installed.tracer().expect("tracer attached");

    let configs: Vec<BalanceConfig> =
        ["StxSt", "RaxSt", "RaxRa", "BsxSt"].iter().map(|s| s.parse().unwrap()).collect();
    let base = SimConfig::default().with_iterations(8);

    let root_trace;
    let root_span;
    {
        let root = tracer.begin_trace("repro.matrix");
        root_trace = root.trace();
        root_span = root.id();
        tracer.set_ambient(root.context());
        let cells = run_matrix(&[workload()], &configs, &[base.arch], &[Some(4), None], base, 2);
        assert_eq!(cells.len(), 8);
        tracer.clear_ambient();
    }

    // Every job span of the root's trace parents to the root. Sibling tests
    // share this process-wide recorder, so only this trace's spans count.
    let jobs: Vec<_> =
        recorder.spans_for(root_trace).into_iter().filter(|s| s.name == "exec.job").collect();
    assert_eq!(jobs.len(), 8, "one exec.job span per matrix cell");
    for job in &jobs {
        assert_eq!(job.trace, root_trace, "job span escaped the trace");
        assert_eq!(job.parent, Some(root_span), "job span not parented to root");
    }
    // Job indices cover the whole matrix (attrs propagate through workers).
    let mut indices: Vec<u64> = jobs
        .iter()
        .filter_map(|s| {
            s.attrs.iter().find_map(|(k, v)| match v {
                nvpim_obs::trace::AttrValue::U64(n) if k == "job" => Some(*n),
                _ => None,
            })
        })
        .collect();
    indices.sort_unstable();
    assert_eq!(indices, (0..8).collect::<Vec<u64>>());

    // The whole trace — root plus jobs — exports as valid Chrome JSON.
    let chrome = recorder.chrome_trace_for(root_trace);
    let stats = validate::chrome_trace(&chrome).expect("valid Chrome trace");
    assert_eq!(stats.complete_spans, 9, "root + 8 jobs");

    // Flame aggregation sees the jobs under the root.
    let flame = recorder.flame_for(root_trace);
    let job_row = flame.iter().find(|r| r.name == "exec.job").expect("exec.job row");
    assert_eq!(job_row.count, 8);
    let root_row = flame.iter().find(|r| r.name == "repro.matrix").expect("root row");
    assert!(root_row.total_ns >= root_row.self_ns, "self time excludes child job time");
}

#[test]
fn without_ambient_context_jobs_open_no_spans() {
    // Runs in the same process as the test above (order unknown), so it
    // asserts a scoped property: fan-out with no ambient set records no
    // exec.job spans on the threads that ran its jobs.
    let installed = match observer::install(Observer::collecting()) {
        Ok(arc) => arc,
        Err(_) => observer::current().expect("installed by sibling test"),
    };
    let tracer = installed.tracer().cloned();
    if let Some(tracer) = &tracer {
        tracer.clear_ambient();
    }
    // Each job leaves a marker trace on the thread that runs it, so the job
    // spans of this fan-out (if any) can be told apart from those sibling
    // tests record concurrently: they would share a marker's thread id.
    let markers = std::sync::Mutex::new(Vec::new());
    let out = nvpim_core::fan_out((0..4u64).collect(), 2, |i, _| {
        if let Some(tracer) = &tracer {
            let marker = tracer.begin_trace("marker");
            markers.lock().unwrap().push(marker.trace());
        }
        i + 1
    });
    assert_eq!(out, vec![1, 2, 3, 4]);
    let Some(tracer) = tracer else { return };
    let markers = markers.into_inner().unwrap();
    assert_eq!(markers.len(), 4);
    let tids: std::collections::BTreeSet<u64> =
        markers.iter().flat_map(|&m| tracer.spans_for(m)).map(|s| s.tid).collect();
    let leaked = tracer
        .spans()
        .into_iter()
        .filter(|s| s.name == "exec.job" && tids.contains(&s.tid))
        .count();
    assert_eq!(leaked, 0, "no ambient context ⇒ no job spans");
}

#[test]
fn traced_parallel_results_stay_bit_identical() {
    // Tracing must not perturb simulation results: the same matrix with
    // and without an ambient root span produces identical wear maps.
    let configs: Vec<BalanceConfig> =
        ["RaxRa+Hw", "StxSt"].iter().map(|s| s.parse().unwrap()).collect();
    let base = SimConfig::default().with_iterations(10);
    let arch = [ArchStyle::SenseAmp];
    let quiet = run_matrix(&[workload()], &configs, &arch, &[Some(5)], base, 2);
    let traced = {
        let installed = match observer::install(Observer::collecting()) {
            Ok(arc) => arc,
            Err(_) => observer::current().expect("installed by sibling test"),
        };
        match installed.tracer() {
            Some(tracer) => {
                let root = tracer.begin_trace("determinism");
                tracer.set_ambient(root.context());
                let cells = run_matrix(&[workload()], &configs, &arch, &[Some(5)], base, 2);
                tracer.clear_ambient();
                cells
            }
            None => run_matrix(&[workload()], &configs, &arch, &[Some(5)], base, 2),
        }
    };
    for ((pq, rq), (pt, rt)) in quiet.iter().zip(&traced) {
        assert_eq!(pq, pt);
        for row in 0..128 {
            for lane in 0..8 {
                assert_eq!(rq.wear.writes_at(row, lane), rt.wear.writes_at(row, lane));
            }
        }
    }
}
