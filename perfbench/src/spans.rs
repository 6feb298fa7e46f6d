//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls into the program's public functions, not
//! inside the program. Each span keeps its thread, its parent on the same
//! thread, and its start and end. At the end of a traced run the spans are
//! written as Chrome trace-event JSON (checked with
//! `nvpim_obs::validate::chrome_trace`) and folded into a per-layer
//! self-time table.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use nvpim_obs::Json;

/// One finished span.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: String,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from every thread of one process.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Open span; records itself when dropped.
pub struct Guard<'r> {
    recorder: &'r Recorder,
    id: u64,
    parent: Option<u64>,
    name: String,
    start: Instant,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Opens a span named `name` under the innermost open span of this
    /// thread.
    pub fn span(&self, name: impl Into<String>) -> Guard<'_> {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        Guard { recorder: self, id, parent, name: name.into(), start: Instant::now() }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(&self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Sum of the durations of spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self.spans().iter().filter(|s| s.name == name).map(|s| s.dur_ns).sum();
        ns as f64 / 1e9
    }

    /// Durations of spans called `name`, in seconds, in start order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans().iter().filter(|s| s.name == name).map(|s| s.dur_ns as f64 / 1e9).collect()
    }

    /// Share of `wall_s` covered by the root spans of the calling thread.
    pub fn coverage(&self, wall_s: f64) -> f64 {
        let tid = TID.with(|t| *t);
        let ns: u64 = self
            .spans()
            .iter()
            .filter(|s| s.tid == tid && s.parent.is_none())
            .map(|s| s.dur_ns)
            .sum();
        ns as f64 / 1e9 / wall_s
    }

    /// The spans as Chrome trace-event JSON: one complete (`X`) event per
    /// span, in start order, plus a thread-name record per thread.
    pub fn chrome_trace(&self) -> String {
        let spans = self.spans();
        let mut events = Vec::new();
        let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            events.push(
                Json::object()
                    .with("ph", "M")
                    .with("name", "thread_name")
                    .with("pid", 1u64)
                    .with("tid", tid)
                    .with("args", Json::object().with("name", format!("thread-{tid}"))),
            );
        }
        for s in &spans {
            let mut args = Json::object().with("id", s.id);
            if let Some(parent) = s.parent {
                args = args.with("parent", parent);
            }
            events.push(
                Json::object()
                    .with("ph", "X")
                    .with("name", s.name.as_str())
                    .with("pid", 1u64)
                    .with("tid", s.tid)
                    .with("ts", s.start_ns as f64 / 1e3)
                    .with("dur", s.dur_ns as f64 / 1e3)
                    .with("args", args),
            );
        }
        Json::object().with("traceEvents", Json::Arr(events)).render()
    }

    /// Self time per span name and thread kind: each span's duration minus
    /// the part its same-thread children cover. Rows are `(name, on main
    /// thread, count, self s, total s)`, largest self time first.
    fn self_times(&self) -> Vec<(String, bool, u64, f64, f64)> {
        let main = TID.with(|t| *t);
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            if let Some(parent) = s.parent {
                *child_ns.entry(parent).or_default() += s.dur_ns;
            }
        }
        let mut rows: BTreeMap<(&str, bool), (u64, u64, u64)> = BTreeMap::new();
        for s in &spans {
            let own = s.dur_ns.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let row = rows.entry((&s.name, s.tid == main)).or_default();
            row.0 += 1;
            row.1 += own;
            row.2 += s.dur_ns;
        }
        let mut out: Vec<(String, bool, u64, f64, f64)> = rows
            .into_iter()
            .map(|((name, on_main), (n, own, total))| {
                (name.to_owned(), on_main, n, own as f64 / 1e9, total as f64 / 1e9)
            })
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(b.3.total_cmp(&a.3)).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// The self-time table as aligned text. Main-thread rows are a share
    /// of the wall time; worker-thread rows (spans inside a fan-out) are a
    /// share of all worker-thread span time.
    pub fn self_time_table(&self, wall_s: f64) -> String {
        let rows = self.self_times();
        let pool: f64 = rows.iter().filter(|r| !r.1).map(|r| r.3).sum();
        let mut out = format!(
            "{:<28} {:<7} {:>7} {:>11} {:>11} {:>7}\n",
            "span", "thread", "count", "self s", "total s", "self %"
        );
        for (name, on_main, n, own, total) in rows {
            let (thread, base) = if on_main { ("main", wall_s) } else { ("worker", pool) };
            out.push_str(&format!(
                "{name:<28} {thread:<7} {n:>7} {own:>11.4} {total:>11.4} {:>6.1}%\n",
                100.0 * own / base
            ));
        }
        out.push_str(&format!("(main rows: share of the {wall_s:.3} s wall"));
        if pool > 0.0 {
            out.push_str(&format!(
                "; worker rows: share of {pool:.3} s of worker-thread span time"
            ));
        }
        out.push_str(")\n");
        out
    }
}

impl Guard<'_> {
    /// Renames the span, for spans whose name depends on what the call
    /// returned.
    pub fn rename(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.truncate(pos);
            }
        });
        let start_ns =
            u64::try_from(self.start.duration_since(self.recorder.epoch).as_nanos()).unwrap_or(0);
        let dur_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            tid: TID.with(|t| *t),
            start_ns,
            dur_ns,
        };
        if let Ok(mut spans) = self.recorder.spans.lock() {
            spans.push(span);
        }
    }
}
