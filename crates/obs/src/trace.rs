//! Hierarchical tracing: trace/span ids, parent links, attributes, and a
//! lock-cheap ring-buffer recorder exporting Chrome trace-event JSON.
//!
//! The design mirrors the rest of `nvpim-obs`: zero dependencies, cheap
//! when disabled (no [`TraceRecorder`] installed means instrumentation
//! sites never construct a guard), and bounded memory when enabled. Spans
//! land in a fixed-capacity ring — once full, the oldest spans are evicted
//! and counted, so a long-running service never grows without bound.
//!
//! ## Ids and propagation
//!
//! A [`TraceId`] names one logical operation end to end (one `repro`
//! invocation, one HTTP request); a [`SpanId`] names one timed region
//! inside it. Both are non-zero `u64`s rendered as 16-digit lowercase hex
//! on the wire (the `X-Trace-Id` header, Chrome trace `args`). A
//! [`TraceContext`] — trace id plus optional parent span — is `Copy`, so
//! handing it across [`std::thread::scope`] workers is free; each worker
//! opens child spans against the same context and the export shows one
//! coherent tree.
//!
//! ## Example
//!
//! ```
//! use nvpim_obs::trace::TraceRecorder;
//!
//! let rec = TraceRecorder::new();
//! let root = rec.begin_trace("request");
//! {
//!     let mut child = rec.span(root.context(), "simulate");
//!     child.attr_u64("iterations", 100);
//! }
//! drop(root);
//! assert_eq!(rec.spans().len(), 2);
//! let json = rec.chrome_trace();
//! assert!(json.contains("traceEvents"));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// Default ring capacity: 4096 spans ≈ a few hundred KiB, enough for a
/// full matrix run or thousands of HTTP requests between exports.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Identifier of one end-to-end trace (non-zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(u64);

/// Identifier of one span within a trace (non-zero, recorder-unique).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl TraceId {
    /// Wire format: 16 lowercase hex digits (the `X-Trace-Id` value).
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the wire format; rejects empty, zero, oversized, or
    /// non-hex input.
    #[must_use]
    pub fn from_hex(text: &str) -> Option<TraceId> {
        let text = text.trim();
        if text.is_empty() || text.len() > 16 {
            return None;
        }
        let raw = u64::from_str_radix(text, 16).ok()?;
        (raw != 0).then_some(TraceId(raw))
    }

    /// The raw id value (always non-zero).
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }
}

impl SpanId {
    /// Wire format: 16 lowercase hex digits.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// The raw id value (always non-zero).
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Propagation handle: which trace new spans belong to and which span is
/// their parent. `Copy`, so it crosses thread boundaries for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every span opened against this context joins.
    pub trace: TraceId,
    /// Parent span for new children (`None` ⇒ children are roots).
    pub parent: Option<SpanId>,
}

/// One span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer attribute.
    U64(u64),
    /// Floating-point attribute.
    F64(f64),
    /// String attribute.
    Str(String),
}

impl AttrValue {
    fn to_json(&self) -> Json {
        match self {
            AttrValue::U64(v) => Json::from(*v),
            AttrValue::F64(v) => Json::Num(*v),
            AttrValue::Str(v) => Json::from(v.as_str()),
        }
    }
}

/// One completed span as stored in the ring.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// Parent span, if any (`None` ⇒ root of its trace).
    pub parent: Option<SpanId>,
    /// Span name (e.g. `serve.simulate`, `exec.job`).
    pub name: String,
    /// Start offset in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Small per-process thread id (stable per OS thread).
    pub tid: u64,
    /// Attributes attached while the span was open.
    pub attrs: Vec<(String, AttrValue)>,
}

/// Fixed-capacity span storage: oldest records are evicted (and counted)
/// once the ring is full.
#[derive(Debug)]
struct Ring {
    slots: Vec<SpanRecord>,
    head: usize,
    evicted: u64,
}

impl Ring {
    fn push(&mut self, record: SpanRecord, capacity: usize) {
        if self.slots.len() < capacity {
            self.slots.push(record);
        } else {
            self.slots[self.head] = record;
            self.head = (self.head + 1) % capacity;
            self.evicted += 1;
        }
    }

    /// Records in insertion order (oldest first).
    fn in_order(&self) -> Vec<SpanRecord> {
        let mut out = Vec::with_capacity(self.slots.len());
        out.extend_from_slice(&self.slots[self.head..]);
        out.extend_from_slice(&self.slots[..self.head]);
        out
    }
}

/// Source of recorder ids (keys into each thread's ambient contexts).
static NEXT_RECORDER: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's ambient context per recorder, by recorder id.
    static AMBIENT: RefCell<Vec<(u64, TraceContext)>> = const { RefCell::new(Vec::new()) };
}

/// Collects completed spans into a bounded ring and exports them.
///
/// One lock guards the ring; it is taken only when a span *closes* (guard
/// drop), never while instrumented code runs, so contention stays
/// proportional to span count, not span duration.
pub struct TraceRecorder {
    epoch: Instant,
    capacity: usize,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    ring: Mutex<Ring>,
    /// Keys this recorder's entry in each thread's [`AMBIENT`] list.
    id: u64,
    threads: Mutex<BTreeMap<u64, String>>,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder").field("capacity", &self.capacity).finish_non_exhaustive()
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    /// A recorder with the default ring capacity
    /// ([`DEFAULT_TRACE_CAPACITY`]).
    #[must_use]
    pub fn new() -> Self {
        TraceRecorder::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A recorder holding at most `capacity` spans (minimum 16).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(16);
        TraceRecorder {
            epoch: Instant::now(),
            capacity,
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            ring: Mutex::new(Ring { slots: Vec::new(), head: 0, evicted: 0 }),
            id: NEXT_RECORDER.fetch_add(1, Ordering::Relaxed),
            threads: Mutex::new(BTreeMap::new()),
        }
    }

    /// Maximum spans retained before eviction.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Spans evicted so far because the ring was full.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.ring.lock().expect("trace ring poisoned").evicted
    }

    /// Allocates a fresh trace id without opening a span (for callers that
    /// mint ids eagerly, e.g. to echo a header before work starts).
    #[must_use]
    pub fn new_trace_id(&self) -> TraceId {
        TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    /// Opens a root span under a brand-new trace id.
    #[must_use = "dropping the guard immediately records a zero-length span"]
    pub fn begin_trace<'r>(&'r self, name: &str) -> SpanGuard<'r> {
        let trace = self.new_trace_id();
        self.start_span(trace, None, name)
    }

    /// Opens a root span under an externally supplied trace id (e.g. a
    /// client's `X-Trace-Id`).
    #[must_use = "dropping the guard immediately records a zero-length span"]
    pub fn adopt_trace<'r>(&'r self, trace: TraceId, name: &str) -> SpanGuard<'r> {
        self.start_span(trace, None, name)
    }

    /// Opens a child span under `ctx`.
    #[must_use = "dropping the guard immediately records a zero-length span"]
    pub fn span<'r>(&'r self, ctx: TraceContext, name: &str) -> SpanGuard<'r> {
        self.start_span(ctx.trace, ctx.parent, name)
    }

    fn start_span<'r>(
        &'r self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &str,
    ) -> SpanGuard<'r> {
        let span = SpanId(self.next_span.fetch_add(1, Ordering::Relaxed));
        let tid = current_tid();
        self.register_thread(tid);
        SpanGuard {
            recorder: self,
            trace,
            span,
            parent,
            name: name.to_string(),
            start_ns: self.now_ns(),
            tid,
            attrs: Vec::new(),
        }
    }

    /// Sets the calling thread's ambient context, picked up by
    /// instrumentation that has no explicit propagation path (e.g.
    /// `core::parallel` fan-out captures it on the driver thread and hands
    /// it to its workers). CLI drivers set this once around a whole run.
    /// The context is per thread and per recorder, so concurrent runs on
    /// other threads never adopt each other's root spans; servers use
    /// explicit per-request contexts instead.
    pub fn set_ambient(&self, ctx: TraceContext) {
        AMBIENT.with(|ambient| {
            let mut ambient = ambient.borrow_mut();
            ambient.retain(|&(id, _)| id != self.id);
            ambient.push((self.id, ctx));
        });
    }

    /// Clears the calling thread's ambient context.
    pub fn clear_ambient(&self) {
        AMBIENT.with(|ambient| ambient.borrow_mut().retain(|&(id, _)| id != self.id));
    }

    /// The calling thread's ambient context, if one is set.
    #[must_use]
    pub fn ambient(&self) -> Option<TraceContext> {
        AMBIENT.with(|ambient| {
            ambient.borrow().iter().find(|&&(id, _)| id == self.id).map(|&(_, ctx)| ctx)
        })
    }

    /// Nanoseconds since the recorder's epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn register_thread(&self, tid: u64) {
        let mut threads = self.threads.lock().expect("thread table poisoned");
        threads.entry(tid).or_insert_with(|| {
            std::thread::current().name().map_or_else(|| format!("thread-{tid}"), str::to_string)
        });
    }

    fn record(&self, record: SpanRecord) {
        self.ring.lock().expect("trace ring poisoned").push(record, self.capacity);
    }

    /// All retained spans in completion order (oldest first).
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.ring.lock().expect("trace ring poisoned").in_order()
    }

    /// Spans belonging to one trace, in completion order.
    #[must_use]
    pub fn spans_for(&self, trace: TraceId) -> Vec<SpanRecord> {
        let mut spans = self.spans();
        spans.retain(|s| s.trace == trace);
        spans
    }

    /// Chrome trace-event JSON for every retained span (loadable in
    /// `chrome://tracing` and Perfetto).
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        self.chrome_trace_filtered(None)
    }

    /// Chrome trace-event JSON restricted to one trace id.
    #[must_use]
    pub fn chrome_trace_for(&self, trace: TraceId) -> String {
        self.chrome_trace_filtered(Some(trace))
    }

    fn chrome_trace_filtered(&self, only: Option<TraceId>) -> String {
        let mut spans = self.spans();
        if let Some(trace) = only {
            spans.retain(|s| s.trace == trace);
        }
        // Complete ("X") events must come out sorted by timestamp; the
        // ring holds completion order, which is finish-time order.
        spans.sort_by_key(|s| (s.start_ns, s.span.0));
        let used: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.tid).collect();

        let mut events = Vec::new();
        {
            let threads = self.threads.lock().expect("thread table poisoned");
            for (&tid, name) in threads.iter().filter(|(tid, _)| used.contains(tid)) {
                events.push(
                    Json::object()
                        .with("ph", "M")
                        .with("name", "thread_name")
                        .with("pid", 1u64)
                        .with("tid", tid)
                        .with("args", Json::object().with("name", name.as_str())),
                );
            }
        }
        for s in &spans {
            let mut args =
                Json::object().with("trace", s.trace.to_hex()).with("span", s.span.to_hex());
            if let Some(parent) = s.parent {
                args = args.with("parent", parent.to_hex());
            }
            for (key, value) in &s.attrs {
                args = args.with(key.as_str(), value.to_json());
            }
            events.push(
                Json::object()
                    .with("ph", "X")
                    .with("name", s.name.as_str())
                    .with("cat", "nvpim")
                    .with("ts", Json::Num(s.start_ns as f64 / 1_000.0))
                    .with("dur", Json::Num(s.dur_ns as f64 / 1_000.0))
                    .with("pid", 1u64)
                    .with("tid", s.tid)
                    .with("args", args),
            );
        }
        Json::object().with("traceEvents", Json::Arr(events)).render()
    }

    /// Flamegraph-style aggregation: per span name, how many spans closed,
    /// their summed wall time, and the *self* time (total minus time spent
    /// in direct children still retained in the ring). Rows come out
    /// hottest-self first.
    #[must_use]
    pub fn flame(&self) -> Vec<FlameRow> {
        flame_of(&self.spans())
    }

    /// [`TraceRecorder::flame`] restricted to one trace id.
    #[must_use]
    pub fn flame_for(&self, trace: TraceId) -> Vec<FlameRow> {
        flame_of(&self.spans_for(trace))
    }
}

fn flame_of(spans: &[SpanRecord]) -> Vec<FlameRow> {
    let mut child_ns: BTreeMap<SpanId, u64> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *child_ns.entry(parent).or_insert(0) += s.dur_ns;
        }
    }
    let mut rows: BTreeMap<&str, FlameRow> = BTreeMap::new();
    for s in spans {
        let row = rows.entry(s.name.as_str()).or_insert_with(|| FlameRow {
            name: s.name.clone(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += s.dur_ns;
        let children = child_ns.get(&s.span).copied().unwrap_or(0);
        row.self_ns += s.dur_ns.saturating_sub(children);
    }
    let mut out: Vec<FlameRow> = rows.into_values().collect();
    out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
    out
}

/// One row of [`TraceRecorder::flame`]'s self-vs-total aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlameRow {
    /// Span name.
    pub name: String,
    /// Number of completed spans with this name.
    pub count: u64,
    /// Summed wall time across those spans.
    pub total_ns: u64,
    /// Summed wall time minus time attributed to direct children.
    pub self_ns: u64,
}

/// RAII guard for an open span: records into the ring on drop.
#[must_use = "a span measures until dropped"]
pub struct SpanGuard<'r> {
    recorder: &'r TraceRecorder,
    trace: TraceId,
    span: SpanId,
    parent: Option<SpanId>,
    name: String,
    start_ns: u64,
    tid: u64,
    attrs: Vec<(String, AttrValue)>,
}

impl std::fmt::Debug for SpanGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("trace", &self.trace)
            .field("span", &self.span)
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl SpanGuard<'_> {
    /// The trace this span belongs to.
    #[must_use]
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// This span's id.
    #[must_use]
    pub fn id(&self) -> SpanId {
        self.span
    }

    /// Context for opening children of this span.
    #[must_use]
    pub fn context(&self) -> TraceContext {
        TraceContext { trace: self.trace, parent: Some(self.span) }
    }

    /// Attaches an unsigned-integer attribute.
    pub fn attr_u64(&mut self, key: &str, value: u64) {
        self.attrs.push((key.to_string(), AttrValue::U64(value)));
    }

    /// Attaches a floating-point attribute.
    pub fn attr_f64(&mut self, key: &str, value: f64) {
        self.attrs.push((key.to_string(), AttrValue::F64(value)));
    }

    /// Attaches a string attribute.
    pub fn attr_str(&mut self, key: &str, value: &str) {
        self.attrs.push((key.to_string(), AttrValue::Str(value.to_string())));
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.recorder.now_ns();
        self.recorder.record(SpanRecord {
            trace: self.trace,
            span: self.span,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            tid: self.tid,
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

/// Small per-process thread id: monotonically assigned on first use and
/// stable for the thread's lifetime (unlike [`std::thread::ThreadId`],
/// it is a plain `u64` suitable for the Chrome trace `tid` field).
fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|tid| *tid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let rec = TraceRecorder::new();
        let id = rec.new_trace_id();
        assert_eq!(TraceId::from_hex(&id.to_hex()), Some(id));
        assert_eq!(id.to_hex().len(), 16);
        assert_eq!(TraceId::from_hex(""), None);
        assert_eq!(TraceId::from_hex("0"), None);
        assert_eq!(TraceId::from_hex("xyz"), None);
        assert_eq!(TraceId::from_hex("11112222333344445"), None);
        assert_eq!(TraceId::from_hex("ff"), Some(TraceId(255)));
    }

    #[test]
    fn spans_nest_and_record_on_drop() {
        let rec = TraceRecorder::new();
        let root = rec.begin_trace("root");
        let root_ctx = root.context();
        {
            let mut child = rec.span(root_ctx, "child");
            child.attr_u64("n", 7);
            child.attr_str("kind", "unit");
        }
        assert_eq!(rec.spans().len(), 1, "only the closed child is recorded");
        drop(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let child = &spans[0];
        let root = &spans[1];
        assert_eq!(child.name, "child");
        assert_eq!(child.parent, Some(root.span));
        assert_eq!(child.trace, root.trace);
        assert_eq!(child.attrs.len(), 2);
        assert!(root.parent.is_none());
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let rec = TraceRecorder::with_capacity(16);
        for i in 0..20 {
            drop(rec.begin_trace(&format!("span-{i}")));
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 16);
        assert_eq!(rec.evicted(), 4);
        assert_eq!(spans[0].name, "span-4", "oldest four were evicted");
        assert_eq!(spans[15].name, "span-19");
    }

    #[test]
    fn adopted_trace_keeps_external_id() {
        let rec = TraceRecorder::new();
        let external = TraceId::from_hex("deadbeef").unwrap();
        drop(rec.adopt_trace(external, "request"));
        assert_eq!(rec.spans()[0].trace, external);
        assert_eq!(rec.spans_for(external).len(), 1);
        assert!(rec.spans_for(TraceId(12345)).is_empty());
    }

    #[test]
    fn cross_thread_spans_share_one_trace() {
        let rec = TraceRecorder::new();
        let root = rec.begin_trace("matrix");
        let ctx = root.context();
        std::thread::scope(|scope| {
            for job in 0..3u64 {
                let rec = &rec;
                scope.spawn(move || {
                    let mut span = rec.span(ctx, "exec.job");
                    span.attr_u64("job", job);
                });
            }
        });
        drop(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        let traces: std::collections::BTreeSet<TraceId> = spans.iter().map(|s| s.trace).collect();
        assert_eq!(traces.len(), 1, "all workers joined the root trace");
        let tids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.tid).collect();
        assert!(tids.len() >= 2, "worker spans carry their own thread ids");
    }

    #[test]
    fn ambient_context_set_and_clear() {
        let rec = TraceRecorder::new();
        assert!(rec.ambient().is_none());
        let root = rec.begin_trace("run");
        rec.set_ambient(root.context());
        assert_eq!(rec.ambient(), Some(root.context()));
        rec.clear_ambient();
        assert!(rec.ambient().is_none());
    }

    #[test]
    fn ambient_context_is_per_thread_and_per_recorder() {
        let (rec, other) = (TraceRecorder::new(), TraceRecorder::new());
        let root = rec.begin_trace("run");
        rec.set_ambient(root.context());
        assert!(other.ambient().is_none(), "another recorder sees its own context");
        std::thread::scope(|s| {
            s.spawn(|| assert!(rec.ambient().is_none(), "another thread sees its own context"));
        });
        assert_eq!(rec.ambient(), Some(root.context()));
        rec.clear_ambient();
    }

    #[test]
    fn chrome_trace_is_valid_json_with_sorted_x_events() {
        let rec = TraceRecorder::new();
        let root = rec.begin_trace("outer");
        drop(rec.span(root.context(), "inner"));
        drop(root);
        let text = rec.chrome_trace();
        let doc = crate::json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_array).expect("array");
        let xs: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        assert_eq!(xs.len(), 2);
        let mut last_ts = f64::MIN;
        for x in &xs {
            let ts = x.get("ts").and_then(Json::as_f64).expect("ts");
            assert!(ts >= last_ts, "X events sorted by ts");
            last_ts = ts;
            assert!(x.get("dur").and_then(Json::as_f64).is_some());
            assert!(x.get("args").and_then(|a| a.get("trace")).is_some());
        }
        let metas =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("M")).count();
        assert!(metas >= 1, "thread_name metadata present");
    }

    #[test]
    fn flame_for_counts_only_its_own_trace() {
        let rec = TraceRecorder::new();
        let mine = rec.begin_trace("mine");
        let other = rec.begin_trace("other");
        drop(rec.span(mine.context(), "job"));
        drop(rec.span(other.context(), "job"));
        drop(rec.span(other.context(), "job"));
        let trace = mine.trace();
        drop(mine);
        drop(other);
        let all = rec.flame();
        assert_eq!(all.iter().find(|r| r.name == "job").unwrap().count, 3);
        let scoped = rec.flame_for(trace);
        assert_eq!(scoped.len(), 2, "job + mine, nothing from the other trace");
        assert_eq!(scoped.iter().find(|r| r.name == "job").unwrap().count, 1);
        assert!(scoped.iter().all(|r| r.name != "other"));
    }

    #[test]
    fn flame_attributes_self_time_to_leaves() {
        let rec = TraceRecorder::new();
        let root = rec.begin_trace("outer");
        {
            let _child = rec.span(root.context(), "inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        drop(root);
        let flame = rec.flame();
        assert_eq!(flame.len(), 2);
        let outer = flame.iter().find(|r| r.name == "outer").unwrap();
        let inner = flame.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(outer.count, 1);
        assert!(inner.self_ns > 0);
        assert_eq!(inner.self_ns, inner.total_ns, "leaf keeps all its time");
        assert!(
            outer.self_ns <= outer.total_ns.saturating_sub(inner.total_ns) + outer.total_ns / 10
                || outer.self_ns < outer.total_ns,
            "parent self time excludes child time"
        );
    }
}
