//! The `serve-mix` workload: a closed loop of client connections against
//! one in-process `Server`, sending a seeded stream of `/simulate`
//! requests over the 54 paper-dims cells.
//!
//! Each round runs in its own process. It starts a fresh server and warms
//! the hot set (the 54 cells at the default seed) during set-up; the timed
//! stream then repeats hot cells and mixes in about one fresh seed per ten
//! requests, each of which must miss. A separate check process replays the
//! same requests in process through `SimRequest`, `ResultCache`, the engine
//! and `wire::result_body`, and every reply of every round must match the
//! replay's bodies byte for byte.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use nvpim_balance::BalanceConfig;
use nvpim_core::{AnalyticWearEngine, SimConfig};
use nvpim_obs::Json;
use nvpim_serve::cache::ResultCache;
use nvpim_serve::request::SimRequest;
use nvpim_serve::{wire, Client, Server, ServerConfig};

use crate::spans::Recorder;
use crate::{median, percentile, Metrics};

/// Times each hot cell appears in one stream.
const HOT_REPEATS: usize = 19;
/// Fresh-seed requests per cell in one stream. 54 hot entries plus
/// 54 × 2 fresh ones stay under the default 256-entry cache, so no hot
/// entry is ever evicted.
const FRESH_PER_CELL: usize = 2;
/// Iterations per request: the `repro` default scale.
const ITERATIONS: u64 = 2_000;

/// One request of the stream.
#[derive(Clone)]
struct Req {
    body: String,
    fresh: bool,
}

/// What the client saw for one request.
struct Reply {
    status: u16,
    hit: bool,
    micros: f64,
    body: String,
}

/// splitmix64: the stream's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The 54 cells: the three paper benchmarks × 18 configurations at
/// 1024×1024, as `/simulate` request documents without a seed.
fn cells() -> Vec<Json> {
    let dims = Json::object().with("rows", 1024u64).with("lanes", 1024u64);
    let workloads = [
        dims.clone().with("kind", "mul").with("width", 32u64),
        dims.clone()
            .with("kind", "conv")
            .with("filter_rows", 4u64)
            .with("filter_cols", 3u64)
            .with("width", 8u64),
        dims.with("kind", "dot").with("elements", 1024u64).with("width", 32u64),
    ];
    let mut out = Vec::new();
    for wl in &workloads {
        for config in BalanceConfig::all() {
            out.push(
                Json::object()
                    .with("workload", wl.clone())
                    .with("config", config.to_string())
                    .with("iterations", ITERATIONS)
                    .with("period", 100u64),
            );
        }
    }
    out
}

/// The hot set and the seeded stream: every cell `HOT_REPEATS` times at the
/// default seed plus `FRESH_PER_CELL` times at fresh seeds, shuffled.
fn stream(seed: u64) -> (Vec<Req>, Vec<Req>) {
    let mut rng = Rng(seed);
    let default_seed = SimConfig::paper().seed;
    let mut used = BTreeSet::from([default_seed]);
    let mut hot = Vec::new();
    let mut all = Vec::new();
    for cell in cells() {
        let req = Req { body: cell.render(), fresh: false };
        hot.push(req.clone());
        all.extend(std::iter::repeat_n(req, HOT_REPEATS));
        for _ in 0..FRESH_PER_CELL {
            let mut s = rng.next() >> 16;
            while !used.insert(s) {
                s = rng.next() >> 16;
            }
            all.push(Req { body: cell.clone().with("seed", s).render(), fresh: true });
        }
    }
    for i in (1..all.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        all.swap(i, j);
    }
    (hot, all)
}

/// Sends `reqs` over `conns` closed-loop connections: each connection sends
/// its next request only after the previous reply arrived. Returns replies
/// in stream order and the wall time from first send to last reply.
fn drive(client: &Client, reqs: &[Req], conns: usize) -> (Vec<Option<Reply>>, f64) {
    let next = AtomicUsize::new(0);
    let replies: Mutex<Vec<Option<Reply>>> = Mutex::new((0..reqs.len()).map(|_| None).collect());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(req) = reqs.get(i) else { break };
                let t = Instant::now();
                let reply = client.post_json("/simulate", &req.body);
                let micros = t.elapsed().as_secs_f64() * 1e6;
                let reply = reply.ok().map(|r| Reply {
                    status: r.status,
                    hit: r.header("x-cache") == Some("hit"),
                    micros,
                    body: r.text(),
                });
                replies.lock().expect("reply list poisoned")[i] = reply;
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    (replies.into_inner().expect("reply list poisoned"), wall)
}

/// Starts a server and warms the hot set. Returns the running server, the
/// warm-up replies and the set-up time.
fn setup(
    hot: &[Req],
    workers: usize,
) -> (nvpim_serve::server::ServerHandle, Vec<Option<Reply>>, f64) {
    let started = Instant::now();
    let handle = Server::start(ServerConfig { workers, ..ServerConfig::default() })
        .unwrap_or_else(|e| crate::die(&format!("server failed to start: {e}")));
    let (warm, _) = drive(&Client::new(handle.addr()), hot, workers);
    (handle, warm, started.elapsed().as_secs_f64())
}

/// Computes a request's response body the way the server does on a miss,
/// with spans around each layer.
fn compute(rec: &Recorder, req: &SimRequest) -> String {
    let cfg = req.sim_config();
    let workload = rec.time("workloads.build", || req.build_workload());
    let mut build = rec.span("analytic.build");
    let mut engine = AnalyticWearEngine::new(&workload, req.config, cfg);
    let path = engine.path().label();
    build.rename(format!("analytic.build.{path}"));
    drop(build);
    let result = rec.time(format!("analytic.query.{path}"), || engine.result_at(cfg.iterations));
    rec.time("wire.result_body", || wire::result_body(req, &result))
}

/// In-process replay of the warm-up and the stream through request parse
/// and key, `ResultCache`, the engine and `wire::result_body`, on the same
/// number of threads. Returns every distinct request's body.
fn replay(rec: &Recorder, hot: &[Req], reqs: &[Req], threads: usize) -> BTreeMap<String, String> {
    let cache = Mutex::new(ResultCache::new(ServerConfig::default().cache_entries, None));
    let bodies = Mutex::new(BTreeMap::new());
    for phase in [hot, reqs] {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    while let Some(req) = phase.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let parse = rec.span("serve.parse_key");
                        let sim = SimRequest::from_str(&req.body).expect("stream requests parse");
                        let (key, canonical) = (sim.cache_key(), sim.canonical_text());
                        drop(parse);
                        let hit = rec.time("serve.cache_get", || {
                            cache.lock().expect("cache poisoned").get_response(key, &canonical)
                        });
                        if hit.is_none() {
                            let body = rec.time("serve.compute", || compute(rec, &sim));
                            rec.time("serve.cache_insert", || {
                                cache.lock().expect("cache poisoned").insert(
                                    key,
                                    canonical,
                                    body.clone(),
                                );
                            });
                            bodies
                                .lock()
                                .expect("body map poisoned")
                                .insert(req.body.clone(), body);
                        }
                    }
                });
            }
        });
    }
    bodies.into_inner().expect("body map poisoned")
}

/// One round in this (fresh) process: start a server, warm the hot set,
/// send the stream, shut down. Every reply goes to `out`, one JSON line
/// each, for [`check`]. Returns the round's set-up time, stream wall time
/// and peak resident set.
pub fn round(seed: u64, out: &Path) -> Metrics {
    let workers = nvpim_exec::JobPool::new(0).threads();
    let (hot, reqs) = stream(seed);
    let (handle, warm, setup_s) = setup(&hot, workers);
    let (replies, wall_s) = drive(&Client::new(handle.addr()), &reqs, workers);
    handle.request_shutdown();
    handle.join();
    let peak_rss = crate::peak_rss_mib();
    let mut lines = String::new();
    for (phase, replies) in [("warm", warm), ("stream", replies)] {
        for (i, reply) in replies.into_iter().enumerate() {
            let doc = Json::object().with("phase", phase).with("i", i);
            let doc = match reply {
                Some(r) => doc
                    .with("status", u64::from(r.status))
                    .with("hit", r.hit)
                    .with("us", r.micros)
                    .with("body", r.body),
                None => doc.with("status", 0u64),
            };
            lines.push_str(&doc.render());
            lines.push('\n');
        }
    }
    crate::write_file(out, &lines);
    Metrics::new().with("setup_s", setup_s).with("wall_s", wall_s).with("peak_rss_mib", peak_rss)
}

/// Checks the replies of every round against the bodies of the in-process
/// replay, and derives the latency, hit-ratio and refusal figures. With
/// `trace`, also the replay's per-layer figures. Returns the metrics
/// and the attempted and failed request counts.
pub fn check(seed: u64, rounds: &[PathBuf], trace: bool, rec: &Recorder) -> (Metrics, u64, u64) {
    let workers = nvpim_exec::JobPool::new(0).threads();
    let (hot, reqs) = stream(seed);
    let expected = rec.time("serve.replay", || replay(rec, &hot, &reqs, workers));
    let _check = rec.span("serve.check");
    let (mut attempted, mut failed, mut refused, mut cache_hits) = (0u64, 0u64, 0u64, 0u64);
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    for path in rounds {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| crate::die(&format!("cannot read {}: {e}", path.display())));
        for line in text.lines() {
            let doc = nvpim_obs::json::parse(line)
                .unwrap_or_else(|e| crate::die(&format!("bad reply record: {e}")));
            let field = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
            let i = field("i") as usize;
            let warm = doc.get("phase").and_then(Json::as_str) == Some("warm");
            let req = if warm { &hot[i] } else { &reqs[i] };
            let status = field("status");
            attempted += 1;
            refused += u64::from(matches!(status, 429 | 503));
            let body = doc.get("body").and_then(Json::as_str);
            if status != 200 || body != expected.get(&req.body).map(String::as_str) {
                failed += 1;
                continue;
            }
            if !warm {
                let us = doc.get("us").and_then(Json::as_f64).unwrap_or(0.0);
                cache_hits += u64::from(matches!(doc.get("hit"), Some(Json::Bool(true))));
                if req.fresh {
                    misses.push(us / 1e3);
                } else {
                    hits.push(us);
                }
            }
        }
    }
    let served = (hits.len() + misses.len()).max(1) as f64;
    let mut m = Metrics::new()
        .with("serve.hit_p50_us", percentile(&hits, 0.50))
        .with("serve.hit_p99_us", percentile(&hits, 0.99))
        .with("serve.hit_samples", hits.len() as f64)
        .with("serve.miss_p50_ms", percentile(&misses, 0.50))
        .with("serve.miss_p90_ms", percentile(&misses, 0.90))
        .with("serve.miss_samples", misses.len() as f64)
        .with("serve.hit_ratio", cache_hits as f64 / served)
        .with("serve.refused", refused as f64);
    if trace {
        let us = |name: &str| median(&rec.durations_s(name)) * 1e6;
        let computes = rec.durations_s("serve.compute");
        m = m
            .with("serve.parse_key_us", us("serve.parse_key"))
            .with("serve.cache_get_us", us("serve.cache_get"))
            .with(
                "serve.net_us",
                percentile(&hits, 0.50) - us("serve.parse_key") - us("serve.cache_get"),
            )
            .with("serve.compute_ms", median(&computes) * 1e3)
            .with("serve.cache_insert_us", us("serve.cache_insert"))
            .with("workloads.build_s", rec.total_s("workloads.build"))
            .with("analytic.cells_computed", computes.len() as f64)
            .with("analytic.cells_distinct", expected.len() as f64)
            .with("analytic.slowest_cell_s", computes.iter().copied().fold(0.0, f64::max));
        m = m.merge(crate::analytic_metrics(rec));
    }
    (m, attempted, failed)
}
