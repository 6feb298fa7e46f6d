//! Allocation parity: disabled observability must be free on the heap.
//!
//! `run()` dispatches to `NullSink`, whose `enabled()` is a constant
//! `false`, so every guarded emission site in `run_with` should be dead
//! code after monomorphization — including the allocations that build
//! event payloads. This binary installs a counting global allocator and
//! asserts `run_with(&NullSink)` allocates exactly as much as `run()`, for
//! the simulator and for the analytic engine's `result_at`. A dedicated
//! integration binary so the allocator swap cannot skew any other test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use nvpim_array::ArrayDims;
use nvpim_balance::{BalanceConfig, RemapSchedule};
use nvpim_core::{AnalyticWearEngine, EnduranceSimulator, SimConfig};
use nvpim_obs::NullSink;
use nvpim_workloads::parallel_mul::ParallelMul;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counters are side tables.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counters are process-wide, so the tests of this binary measure one
/// at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Heap traffic of one closure run: (allocation count, bytes requested).
fn measure<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let bytes = BYTES.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - allocs, BYTES.load(Ordering::Relaxed) - bytes, out)
}

#[test]
fn null_sink_adds_no_allocations_over_plain_run() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let workload = ParallelMul::new(ArrayDims::new(128, 16), 8).build();
    let cfg = SimConfig::paper().with_iterations(50).with_schedule(RemapSchedule::every(10));
    let balance: BalanceConfig = "RaxSt+Hw".parse().unwrap();
    let sim = EnduranceSimulator::new(cfg);

    // Warm up both paths so lazily-initialized state (kernel caches,
    // thread-locals) is paid before measurement.
    let _ = sim.run(&workload, balance);
    let _ = sim.run_with(&workload, balance, &NullSink);

    let (plain_allocs, plain_bytes, plain) = measure(|| sim.run(&workload, balance));
    let (null_allocs, null_bytes, nulled) = measure(|| sim.run_with(&workload, balance, &NullSink));

    assert_eq!(
        (plain.wear.total_writes(), plain.wear.max_writes()),
        (nulled.wear.total_writes(), nulled.wear.max_writes()),
        "paths must stay bit-identical"
    );
    assert_eq!(
        (null_allocs, null_bytes),
        (plain_allocs, plain_bytes),
        "run_with(&NullSink) must allocate exactly what run() does"
    );
    // Sanity: the simulation itself does allocate, so the parity assertion
    // is not vacuously comparing zero to zero.
    assert!(plain_allocs > 0, "measurement hook never observed the run");
}

#[test]
fn null_sink_adds_no_allocations_over_plain_engine_query() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // The production path: `RaxSt+Hw` is the fallback rung, whose queries
    // time kernel compiles and epoch folds only for an enabled sink.
    let workload = ParallelMul::new(ArrayDims::new(128, 16), 8).build();
    let cfg = SimConfig::paper().with_iterations(50).with_schedule(RemapSchedule::every(10));
    let balance: BalanceConfig = "RaxSt+Hw".parse().unwrap();
    let plain = || AnalyticWearEngine::new(&workload, balance, cfg).result_at(cfg.iterations);
    let nulled = || {
        AnalyticWearEngine::new(&workload, balance, cfg).result_at_with(cfg.iterations, &NullSink)
    };
    let _ = plain();
    let _ = nulled();

    let (plain_allocs, plain_bytes, plain) = measure(plain);
    let (null_allocs, null_bytes, nulled) = measure(nulled);

    assert_eq!(
        (plain.wear.total_writes(), plain.wear.max_writes()),
        (nulled.wear.total_writes(), nulled.wear.max_writes()),
        "paths must stay bit-identical"
    );
    assert_eq!(
        (null_allocs, null_bytes),
        (plain_allocs, plain_bytes),
        "result_at_with(&NullSink) must allocate exactly what result_at() does"
    );
    assert!(plain_allocs > 0, "measurement hook never observed the query");
}
