//! Seeded property tests of the service's input parsing.
//!
//! Two layers stand between a socket and a simulation: the HTTP reader
//! (`http::read_request`) and the request model (`SimRequest::from_json`).
//! Whatever bytes or JSON a client sends, both must answer with a typed
//! rejection — an `HttpError` carrying 400/413/431, an I/O error, or a
//! `RequestError` — and never panic. Every request they do accept must
//! canonicalize stably: its canonical text re-parses to the same cache key,
//! and must build its workload without panicking: either the layout fits
//! the array or the build is a `RequestError` naming the fields to change.
//!
//! Cases are deterministic per test (set `PROPTEST_SEED` to vary them,
//! `PROPTEST_CASES` to run more).

use std::io::ErrorKind;
use std::str::FromStr as _;

use nvpim_obs::Json;
use nvpim_serve::http::{self, HttpError, HttpRequest, MAX_BODY, MAX_HEAD};
use nvpim_serve::request::MAX_CELLS;
use nvpim_serve::SimRequest;
use proptest::prelude::*;
use proptest::TestRng;

type ReadOutcome = Result<HttpRequest, Result<HttpError, std::io::Error>>;

fn read(bytes: &[u8]) -> ReadOutcome {
    let mut source = bytes;
    http::read_request(&mut source)
}

/// The status of a protocol rejection; panics on any other outcome.
fn rejection(outcome: ReadOutcome) -> u16 {
    match outcome {
        Err(Ok(e)) => e.status,
        Err(Err(io)) => panic!("expected an HttpError, got I/O error {io}"),
        Ok(request) => panic!("expected an HttpError, got {request:?}"),
    }
}

fn request_bytes(path: &str, content_length: &str, body: &str) -> Vec<u8> {
    format!("POST {path} HTTP/1.1\r\nHost: nvpim\r\nContent-Length: {content_length}\r\n\r\n{body}")
        .into_bytes()
}

fn ascii(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127, len).prop_map(|b| String::from_utf8(b).unwrap())
}

fn path() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("/simulate"), Just("/batch"), Just("/health"), Just("/trace/ff")]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Baseline for the hostile cases below: a well-formed request reads
    /// back exactly.
    #[test]
    fn well_formed_requests_read_back_exactly(path in path(), body in ascii(0..300)) {
        let bytes = request_bytes(path, &body.len().to_string(), &body);
        let request = read(&bytes).expect("well-formed request");
        prop_assert_eq!(request.method.as_str(), "POST");
        prop_assert_eq!(request.path.as_str(), path);
        prop_assert_eq!(request.body, body.into_bytes());
    }

    /// A connection that closes before the blank line ending the head is a
    /// 400, wherever it is cut.
    #[test]
    fn truncated_heads_answer_400(path in path(), body in ascii(0..64), cut in 0usize..1000) {
        let bytes = request_bytes(path, &body.len().to_string(), &body);
        let head_len = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        prop_assert_eq!(rejection(read(&bytes[..cut % head_len])), 400);
    }

    /// A head past `MAX_HEAD` answers 431 whether or not it ever ends.
    #[test]
    fn oversized_heads_answer_431(extra in 0usize..4096, pad in 33u8..127, terminated: bool) {
        let mut bytes = b"GET /health HTTP/1.1\r\nX-Pad: ".to_vec();
        bytes.resize(bytes.len() + MAX_HEAD + extra, pad);
        if terminated {
            bytes.extend_from_slice(b"\r\n\r\n");
        }
        prop_assert_eq!(rejection(read(&bytes)), 431);
    }

    /// A `Content-Length` that is not a decimal count answers 400: a stray
    /// letter, sign, or separator anywhere in it, or digits past `u64`.
    #[test]
    fn non_numeric_content_lengths_answer_400(
        digits in 1u64..1_000_000,
        junk in prop_oneof![Just('a'), Just('x'), Just('-'), Just('.'), Just('/'), Just('e')],
        at in 0usize..8,
        overflow in 20usize..40,
    ) {
        let mut value = digits.to_string();
        value.insert(at.min(value.len()), junk);
        prop_assert_eq!(rejection(read(&request_bytes("/simulate", &value, ""))), 400);
        let huge = format!("{digits}{}", "9".repeat(overflow));
        prop_assert_eq!(rejection(read(&request_bytes("/simulate", &huge, ""))), 400);
    }

    /// A declared body past `MAX_BODY` answers 413 before any of it is read.
    #[test]
    fn oversized_content_lengths_answer_413(declared in (MAX_BODY + 1)..usize::MAX) {
        let bytes = request_bytes("/simulate", &declared.to_string(), "{}");
        prop_assert_eq!(rejection(read(&bytes)), 413);
    }

    /// A body shorter than its `Content-Length` is an I/O error (the peer
    /// hung up mid-body), not a request with a short body.
    #[test]
    fn short_bodies_are_io_errors(body in ascii(1..300), missing in 1usize..300) {
        let declared = body.len() + missing;
        match read(&request_bytes("/simulate", &declared.to_string(), &body)) {
            Err(Err(io)) => prop_assert_eq!(io.kind(), ErrorKind::UnexpectedEof),
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
    }

    /// Arbitrary bytes after a request line never panic the reader; any
    /// protocol rejection carries one of the three statuses it may emit.
    #[test]
    fn arbitrary_heads_never_panic(
        noise in prop::collection::vec(any::<u8>(), 0..400),
        terminated: bool,
    ) {
        let mut bytes = b"POST /simulate HTTP/1.1\r\n".to_vec();
        bytes.extend_from_slice(&noise);
        if terminated {
            bytes.extend_from_slice(b"\r\n\r\n");
        }
        if let Err(Ok(e)) = read(&bytes) {
            prop_assert!([400, 413, 431].contains(&e.status), "unexpected status {}", e.status);
        }
    }
}

/// The JSON type a request field expects.
#[derive(Debug, Clone, Copy)]
enum Expects {
    /// A non-negative integer.
    Count,
    /// `true` / `false`.
    Flag,
    /// A string.
    Text,
    /// An object (or a kind string).
    Workload,
}

/// Every request field: `(inside the workload object, key, expected type)`.
const FIELDS: [(bool, &str, Expects); 16] = [
    (false, "workload", Expects::Workload),
    (true, "kind", Expects::Text),
    (true, "rows", Expects::Count),
    (true, "lanes", Expects::Count),
    (true, "width", Expects::Count),
    (true, "elements", Expects::Count),
    (false, "config", Expects::Text),
    (false, "arch", Expects::Text),
    (false, "technology", Expects::Text),
    (false, "iterations", Expects::Count),
    (false, "period", Expects::Count),
    (false, "seed", Expects::Count),
    (false, "timeout_ms", Expects::Count),
    (false, "track_reads", Expects::Flag),
    (false, "series", Expects::Flag),
    (false, "width", Expects::Count),
];

/// A value of the wrong JSON type for a field expecting `expects`.
fn wrong_value(expects: Expects, pick: usize, n: u64) -> Json {
    let fits = |v: &Json| match expects {
        Expects::Count => v.as_u64().is_some(),
        Expects::Flag => matches!(v, Json::Bool(_)),
        Expects::Text => v.as_str().is_some(),
        Expects::Workload => matches!(v, Json::Obj(_)),
    };
    let wrong: Vec<Json> = [
        Json::Null,
        Json::Bool(n % 2 == 0),
        Json::Int(-(n as i64) - 1),
        Json::Num(n as f64 + 0.5),
        Json::UInt(n),
        Json::Str(format!("v{n}")),
        Json::Arr(vec![Json::UInt(n)]),
        Json::object().with("v", n),
    ]
    .into_iter()
    .filter(|v| !fits(v))
    .collect();
    wrong[pick % wrong.len()].clone()
}

/// A valid request that every corruption below starts from.
fn base_doc() -> Json {
    let workload = Json::object().with("kind", "dot").with("rows", 128u64).with("lanes", 8u64);
    Json::object().with("workload", workload).with("iterations", 5u64)
}

fn set(doc: Json, in_workload: bool, key: &str, value: Json) -> Json {
    if in_workload {
        let workload = doc.get("workload").cloned().unwrap_or_else(Json::object);
        doc.with("workload", workload.with(key, value))
    } else {
        doc.with(key, value)
    }
}

/// Re-parses an accepted request's canonical text: it must come back as
/// the same request (bar the uncached `timeout_ms`) under the same key.
fn assert_canonical_round_trip(request: &SimRequest) {
    let text = request.canonical_text();
    let again = SimRequest::from_str(&text).unwrap_or_else(|e| panic!("{text} re-parse: {e}"));
    assert_eq!(again.cache_key(), request.cache_key(), "{text}");
    assert_eq!(again.canonical_text(), text);
    assert_eq!(again, SimRequest { timeout_ms: None, ..request.clone() });
}

/// Config spellings: `(text, canonical label)`; `None` marks a spelling
/// the parser must refuse.
const ROW_COL: [(&str, Option<&str>); 12] = [
    ("st", Some("St")),
    ("St", Some("St")),
    ("static", Some("St")),
    ("Ra", Some("Ra")),
    ("RANDOM", Some("Ra")),
    ("bs", Some("Bs")),
    ("byte-shift", Some("Bs")),
    ("", None),
    ("sr", None),
    ("stat", None),
    ("st ", None),
    ("Hw", None),
];
const SEPARATORS: [(&str, bool); 5] =
    [("x", true), ("X", true), ("", false), ("*", false), ("-", false)];
const SUFFIXES: [(&str, Option<&str>); 6] = [
    ("", Some("")),
    ("+Hw", Some("+Hw")),
    ("+hw", Some("+Hw")),
    ("+HW", None),
    ("+", None),
    ("+Hw+Hw", None),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A field of the wrong JSON type is a `RequestError` naming that
    /// field — never a panic, never a silently applied default.
    #[test]
    fn wrongly_typed_fields_are_rejected(field in 0usize..FIELDS.len(), pick: usize, n in 0u64..1000) {
        let (in_workload, key, expects) = FIELDS[field];
        let doc = set(base_doc(), in_workload, key, wrong_value(expects, pick, n));
        match SimRequest::from_json(&doc) {
            Err(e) => prop_assert!(e.message.contains(key), "{key}: {}", e.message),
            Ok(request) => panic!("{} accepted as {request:?}", doc.render()),
        }
    }

    /// Nesting past the JSON parser's depth bound is an `invalid JSON`
    /// rejection — however deep, so a body of nothing but brackets cannot
    /// overflow a worker's stack.
    #[test]
    fn deeply_nested_bodies_are_rejected(extra_log in 0u32..18, objects: bool) {
        let depth = nvpim_obs::json::MAX_DEPTH + (1 << extra_log);
        let (open, close) = if objects { (r#"{"workload":"#, "}") } else { ("[", "]") };
        let body = format!("{}1{}", open.repeat(depth), close.repeat(depth));
        let e = SimRequest::from_str(&body).expect_err("too deep to parse");
        prop_assert!(e.message.starts_with("invalid JSON"), "{}", e.message);
    }

    /// Missing fields take their documented defaults: any subset of a
    /// complete request still parses, and canonicalizes stably.
    #[test]
    fn missing_fields_fall_back_to_defaults(mask: u64) {
        let full = Json::object()
            .with("workload", Json::object().with("kind", "mul").with("width", 16u64))
            .with("rows", 256u64)
            .with("lanes", 16u64)
            .with("config", "RaxBs+Hw")
            .with("arch", "sense-amp")
            .with("technology", "pcm")
            .with("iterations", 300u64)
            .with("period", 7u64)
            .with("seed", 11u64)
            .with("timeout_ms", 900u64)
            .with("track_reads", true)
            .with("series", true);
        let Json::Obj(fields) = full else { unreachable!() };
        let kept: std::collections::BTreeMap<String, Json> = fields
            .into_iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, kv)| kv)
            .collect();
        let request = SimRequest::from_json(&Json::Obj(kept)).expect("defaults complete it");
        assert_canonical_round_trip(&request);
    }

    /// Array dimensions of any size: accepted exactly when at least 4 × 2
    /// and at most `MAX_CELLS` cells (no overflow on the product).
    #[test]
    fn huge_dims_are_rejected(rows_bits in 0u32..64, rows_low: u64, lanes_bits in 0u32..64, lanes_low: u64) {
        let rows = rows_low >> rows_bits;
        let lanes = lanes_low >> lanes_bits;
        let doc = Json::object()
            .with("workload", Json::object().with("kind", "mul").with("rows", rows).with("lanes", lanes))
            .with("iterations", 5u64);
        let fits = rows >= 4
            && lanes >= 2
            && rows.checked_mul(lanes).is_some_and(|cells| cells <= MAX_CELLS as u64);
        match SimRequest::from_json(&doc) {
            Ok(request) => {
                prop_assert!(fits, "{rows} × {lanes} accepted");
                assert_canonical_round_trip(&request);
            }
            Err(e) => prop_assert!(!fits, "{rows} × {lanes} rejected: {}", e.message),
        }
    }

    /// Config strings: every accepted spelling canonicalizes to its paper
    /// label, every other string is a `bad config` rejection.
    #[test]
    fn config_strings_parse_or_reject(
        row in 0usize..ROW_COL.len(),
        separator in 0usize..SEPARATORS.len(),
        col in 0usize..ROW_COL.len(),
        suffix in 0usize..SUFFIXES.len(),
    ) {
        let (row_text, row_label) = ROW_COL[row];
        let (sep_text, sep_ok) = SEPARATORS[separator];
        let (col_text, col_label) = ROW_COL[col];
        let (suffix_text, suffix_label) = SUFFIXES[suffix];
        let text = format!("{row_text}{sep_text}{col_text}{suffix_text}");
        let doc = base_doc().with("config", text.as_str());
        let expected = match (row_label, sep_ok, col_label, suffix_label) {
            (Some(r), true, Some(c), Some(hw)) => Some(format!("{r}x{c}{hw}")),
            _ => None,
        };
        match (SimRequest::from_json(&doc), expected) {
            (Ok(request), Some(label)) => {
                prop_assert_eq!(request.config.to_string(), label);
                assert_canonical_round_trip(&request);
            }
            (Err(e), None) => prop_assert!(e.message.starts_with("bad `config`"), "{}", e.message),
            (outcome, expected) => panic!("{text:?}: got {outcome:?}, expected {expected:?}"),
        }
    }
}

/// Random JSON trees over the request's own key names, so hostile values
/// land where the parser looks for them.
struct AnyJson {
    depth: u32,
}

const KEYS: [&str; 20] = [
    "workload",
    "kind",
    "rows",
    "lanes",
    "width",
    "elements",
    "filter_rows",
    "filter_cols",
    "fan_in",
    "mat_rows",
    "config",
    "arch",
    "technology",
    "iterations",
    "period",
    "seed",
    "timeout_ms",
    "track_reads",
    "series",
    "requests",
];

const WORDS: [&str; 12] = [
    "mul",
    "dot",
    "conv",
    "bnn",
    "matvec",
    "RaxBs+Hw",
    "StxSt",
    "sense-amp",
    "cram",
    "rram",
    "",
    "\u{0}\u{ffff}",
];

impl Strategy for AnyJson {
    type Value = Json;

    fn sample(&self, rng: &mut TestRng) -> Json {
        let leaf_kinds = 7;
        let kinds = if self.depth == 0 { leaf_kinds } else { leaf_kinds + 2 };
        match rng.index(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.next_u64() % 2 == 0),
            2 => Json::UInt(rng.next_u64() >> rng.index(64)),
            3 => Json::Int(-((rng.next_u64() >> 1) as i64)),
            4 => Json::Num(rng.unit_f64() * 1e6 - 5e5),
            5 => Json::UInt(rng.index(2048) as u64),
            6 => Json::Str(WORDS[rng.index(WORDS.len())].to_owned()),
            7 => {
                let inner = AnyJson { depth: self.depth - 1 };
                Json::Arr((0..rng.index(4)).map(|_| inner.sample(rng)).collect())
            }
            _ => {
                let inner = AnyJson { depth: self.depth - 1 };
                (0..rng.index(8)).fold(Json::object(), |doc, _| {
                    doc.with(KEYS[rng.index(KEYS.len())], inner.sample(rng))
                })
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Arbitrary JSON never panics the request parser; whatever it accepts
    /// canonicalizes stably.
    #[test]
    fn arbitrary_documents_never_panic(doc in AnyJson { depth: 3 }) {
        if let Ok(request) = SimRequest::from_json(&doc) {
            assert_canonical_round_trip(&request);
        }
    }

    /// Requests spelled every way the wire format allows — kind shorthand
    /// or object, shape parameters nested or at the top level, aliases for
    /// arch and technology — either fail with a `RequestError` or
    /// canonicalize to text that re-parses to the same cache key.
    #[test]
    fn spelling_variants_canonicalize_stably(
        kind in 0usize..5,
        shorthand: bool,
        nested: u64,
        present: u64,
        rows in 4u64..600,
        lanes in 2u64..80,
        width in 1u64..70,
        elements_log in 0u32..8,
        small in (0u64..6, 0u64..6, 0u64..70),
        config in 0usize..18,
        arch in 0usize..6,
        technology in 0usize..9,
        iterations in 1u64..2_000,
        period in 0u64..300,
        seed: u64,
        flags in (any::<bool>(), any::<bool>()),
        timeout_ms in 1u64..60_000,
    ) {
        const KINDS: [&str; 5] = ["mul", "dot", "conv", "bnn", "matvec"];
        const ARCHES: [&str; 6] = ["preset-output", "preset", "cram", "sense-amp", "senseamp", "pinatubo"];
        const TECHNOLOGIES: [&str; 9] =
            ["mram", "MTJ", "stt-mram", "sot", "SOT-MRAM", "rram", "ReRAM", "pcm", "pcram"];
        let configs = nvpim_balance::BalanceConfig::all();
        let (filter_rows, filter_cols, fan_in) = small;
        let shape = [
            ("rows", rows),
            ("lanes", lanes),
            ("width", width),
            ("elements", 1 << elements_log),
            ("filter_rows", filter_rows),
            ("filter_cols", filter_cols),
            ("fan_in", fan_in),
            ("mat_rows", filter_rows),
        ];
        let mut workload = Json::object().with("kind", KINDS[kind]);
        let mut doc = Json::object();
        for (i, (key, value)) in shape.into_iter().enumerate() {
            if present >> i & 1 == 0 {
                continue;
            }
            if nested >> i & 1 == 1 {
                workload = workload.with(key, value);
            } else {
                doc = doc.with(key, value);
            }
        }
        let only_kind = matches!(&workload, Json::Obj(map) if map.len() == 1);
        doc = doc.with(
            "workload",
            if shorthand && only_kind { Json::from(KINDS[kind]) } else { workload },
        );
        let optional = [
            ("config", Json::from(configs[config].to_string().to_ascii_lowercase())),
            ("arch", Json::from(ARCHES[arch])),
            ("technology", Json::from(TECHNOLOGIES[technology])),
            ("iterations", Json::from(iterations)),
            ("period", Json::from(period)),
            ("seed", Json::from(seed)),
            ("track_reads", Json::from(flags.0)),
            ("series", Json::from(flags.1)),
            ("timeout_ms", Json::from(timeout_ms)),
        ];
        for (i, (key, value)) in optional.into_iter().enumerate() {
            if present >> (shape.len() + i) & 1 == 1 {
                doc = doc.with(key, value);
            }
        }
        if let Ok(request) = SimRequest::from_json(&doc) {
            assert_canonical_round_trip(&request);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every accepted request builds without panicking, on arrays short
    /// and narrow enough that wide operands and large fan-ins overflow
    /// them: a workload that fits the rows its configuration leaves (one
    /// fewer under `+Hw`), or a `RequestError` naming `rows` and the
    /// workload's size field.
    #[test]
    fn accepted_requests_build_or_name_the_field(
        kind in 0usize..5,
        rows in 4u64..300,
        lanes in 2u64..80,
        width in 2u64..65,
        elements_log in 1u32..7,
        filter in (0u64..6, 0u64..5),
        fan_in in 2u64..600,
        mat_rows in 1u64..12,
        config in 0usize..18,
    ) {
        const KINDS: [&str; 5] = ["mul", "dot", "conv", "bnn", "matvec"];
        const SIZE_FIELDS: [&str; 5] = ["width", "width", "width", "fan_in", "mat_rows"];
        let config = nvpim_balance::BalanceConfig::all()[config];
        let workload = Json::object()
            .with("kind", KINDS[kind])
            .with("rows", rows)
            .with("lanes", lanes)
            .with("width", width)
            .with("elements", 1u64 << elements_log)
            .with("filter_rows", filter.0)
            .with("filter_cols", filter.1)
            .with("fan_in", fan_in)
            .with("mat_rows", mat_rows);
        let doc = Json::object()
            .with("workload", workload)
            .with("config", config.to_string())
            .with("iterations", 3u64);
        if let Ok(request) = SimRequest::from_json(&doc) {
            let built = std::panic::catch_unwind(|| request.try_build_workload())
                .unwrap_or_else(|_| panic!("{} panicked while building", doc.render()));
            match built {
                Ok(wl) => {
                    let available = rows as usize - usize::from(config.hw);
                    prop_assert!(wl.trace().rows_used() <= available, "{}", doc.render());
                }
                Err(e) => {
                    prop_assert!(e.message.contains("`rows`"), "{}", e.message);
                    let field = format!("`{}`", SIZE_FIELDS[kind]);
                    prop_assert!(e.message.contains(&field), "{}", e.message);
                }
            }
        }
    }
}
