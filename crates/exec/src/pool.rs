//! A scoped-thread job pool with a shared work queue.
//!
//! Workers are spawned inside [`std::thread::scope`], so borrowed job inputs
//! (workload references, simulator configs) need no `'static` bound and no
//! reference counting. The queue hands out jobs by submission index; each
//! result is written into the slot of its index, making the output order
//! independent of worker scheduling.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};

/// Environment variable overriding the pool's default width.
pub const THREADS_ENV: &str = "NVPIM_THREADS";

/// The machine's detected parallelism
/// ([`std::thread::available_parallelism`], 1 if unknown), queried once per
/// process. The detection is a syscall on most platforms; caching it keeps
/// repeated pool construction and spawn-width clamping off the kernel.
#[must_use]
pub fn machine_parallelism() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// The pool width used when none is requested explicitly: the
/// `NVPIM_THREADS` environment variable if set to a positive integer,
/// otherwise [`machine_parallelism`]. The environment is re-read on every
/// call (tests and long-lived services may change it); only the hardware
/// detection is cached.
#[must_use]
pub fn available_threads() -> usize {
    match parse_threads(std::env::var(THREADS_ENV).ok().as_deref()) {
        Some(n) => n,
        None => machine_parallelism(),
    }
}

/// Validates an `NVPIM_THREADS`-style override without side effects.
///
/// `Ok(None)` means "no override" (unset, empty, or an explicit `0` — the
/// documented spelling of "auto"); `Ok(Some(n))` is an accepted width;
/// `Err(rejected)` carries a value that is present but not a non-negative
/// integer (`abc`, `-3`, `1.5`, …) and must not be silently ignored.
pub fn validate_threads(value: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = value else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Ok(None),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(raw.to_owned()),
    }
}

/// Parses an `NVPIM_THREADS`-style override. `None`, empty, or zero mean
/// "no override"; an *invalid* value (unparsable or negative) also resolves
/// to "no override" but emits a one-time stderr warning naming the rejected
/// value, bumps [`invalid_env_rejections`], and — when a process-wide
/// [`nvpim_obs::Observer`] is installed — records an
/// `exec.invalid_threads_env` counter.
#[must_use]
pub fn parse_threads(value: Option<&str>) -> Option<usize> {
    match validate_threads(value) {
        Ok(width) => width,
        Err(rejected) => {
            note_invalid_override(&rejected);
            None
        }
    }
}

static INVALID_ENV_REJECTIONS: AtomicU64 = AtomicU64::new(0);
static WARN_ONCE: Once = Once::new();

/// How many invalid `NVPIM_THREADS` values have been rejected so far in
/// this process (the stderr warning is printed only for the first).
#[must_use]
pub fn invalid_env_rejections() -> u64 {
    INVALID_ENV_REJECTIONS.load(Ordering::Relaxed)
}

fn note_invalid_override(rejected: &str) {
    INVALID_ENV_REJECTIONS.fetch_add(1, Ordering::Relaxed);
    if let Some(observer) = nvpim_obs::observer::current() {
        observer.metrics().counter("exec.invalid_threads_env").inc();
    }
    WARN_ONCE.call_once(|| {
        eprintln!(
            "nvpim-exec: ignoring invalid {THREADS_ENV}={rejected:?} (expected a \
             non-negative integer; 0 = auto); falling back to auto-detected parallelism"
        );
    });
}

/// A fixed-width pool of scoped worker threads draining a shared job queue.
///
/// The pool itself holds no threads — they live only for the duration of one
/// [`JobPool::map`] call — so a `JobPool` is just a validated width and is
/// trivially `Copy`.
///
/// # Examples
///
/// ```
/// use nvpim_exec::JobPool;
///
/// let pool = JobPool::new(2);
/// let doubled = pool.map(vec![1, 2, 3], |x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6]);
/// assert_eq!(pool.threads(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobPool {
    threads: usize,
}

/// The work queue: jobs are taken in submission order; each carries its
/// submission index so the worker can store the result in the right slot.
struct Queue<I> {
    items: Vec<Option<I>>,
    next: usize,
}

impl JobPool {
    /// A pool of exactly `threads` workers. `threads == 0` means "auto":
    /// [`available_threads`] (the `NVPIM_THREADS` override, else the
    /// machine's parallelism).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        JobPool { threads: if threads == 0 { available_threads() } else { threads } }
    }

    /// A pool sized by the environment ([`available_threads`]).
    #[must_use]
    pub fn from_env() -> Self {
        JobPool::new(0)
    }

    /// Worker count this pool runs with.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Worker threads [`JobPool::map`] would actually spawn for `jobs`
    /// queued items: the configured width clamped to the machine's
    /// parallelism and the job count (never below 1). Callers can use
    /// `effective_threads(n) <= 1` to predict the inline path and skip
    /// per-worker setup of their own.
    #[must_use]
    pub fn effective_threads(&self, jobs: usize) -> usize {
        self.threads.min(machine_parallelism()).min(jobs).max(1)
    }

    /// Applies `f` to every item, returning the outputs in submission order.
    ///
    /// When [`JobPool::effective_threads`] resolves to one worker — a width
    /// of 1, a single item, or a single-core machine (oversubscribing cores
    /// only adds scheduling overhead to CPU-bound simulation jobs) — the
    /// jobs run inline on the calling thread: no threads are spawned and
    /// execution is exactly the serial loop. Otherwise that many scoped
    /// workers drain the queue.
    ///
    /// # Panics
    ///
    /// If a job panics, the panic propagates to the caller once the worker
    /// scope joins (mirroring a panic in the serial loop). Remaining queued
    /// jobs may or may not have started by then.
    pub fn map<I, O, F>(&self, items: Vec<I>, f: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(I) -> O + Sync,
    {
        let n = items.len();
        let workers = self.effective_threads(n);
        if workers <= 1 || n <= 1 {
            return items.into_iter().map(f).collect();
        }

        let queue = Mutex::new(Queue { items: items.into_iter().map(Some).collect(), next: 0 });
        let results: Mutex<Vec<Option<O>>> = Mutex::new((0..n).map(|_| None).collect());
        std::thread::scope(|scope| {
            for worker in 0..workers {
                // Named workers so trace exports (Chrome `thread_name`
                // metadata) and panic messages identify the lane.
                std::thread::Builder::new()
                    .name(format!("nvpim-worker-{worker}"))
                    .spawn_scoped(scope, || loop {
                        let (index, item) = {
                            let mut q = queue.lock().expect("job queue poisoned");
                            if q.next >= q.items.len() {
                                break;
                            }
                            let index = q.next;
                            q.next += 1;
                            (index, q.items[index].take().expect("job taken twice"))
                        };
                        let output = f(item);
                        results.lock().expect("result slots poisoned")[index] = Some(output);
                    })
                    .expect("spawn pool worker");
            }
        });

        results
            .into_inner()
            .expect("result slots poisoned")
            .into_iter()
            .map(|slot| slot.expect("worker scope joined with job incomplete"))
            .collect()
    }
}

impl Default for JobPool {
    fn default() -> Self {
        JobPool::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_keep_submission_order() {
        // Stagger job durations so completion order differs from submission
        // order; the output must still follow submission order.
        let pool = JobPool::new(4);
        let out = pool.map((0..32u64).collect(), |i| {
            if i % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * 10
        });
        assert_eq!(out, (0..32u64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn map_matches_serial_loop_at_any_width() {
        let jobs: Vec<u64> = (0..50).collect();
        let serial: Vec<u64> = jobs.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 8] {
            let parallel = JobPool::new(threads).map(jobs.clone(), |x| x * x + 1);
            assert_eq!(parallel, serial, "{threads} threads");
        }
    }

    #[test]
    fn single_thread_runs_inline() {
        // With one worker no threads are spawned: the closure observes the
        // caller's thread id for every job.
        let caller = std::thread::current().id();
        let pool = JobPool::new(1);
        let ids = pool.map(vec![(); 8], |()| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let out = JobPool::new(8).map((0..100usize).collect(), |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(ran.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let out = JobPool::new(16).map(vec![1, 2], |x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = JobPool::new(4).map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = JobPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map((0..8u32).collect(), |i| {
                assert!(i != 5, "job 5 exploded");
                i
            })
        }));
        assert!(result.is_err(), "a panicking job must fail the whole map");
    }

    #[test]
    fn zero_width_resolves_to_environment() {
        assert!(JobPool::new(0).threads() >= 1);
        assert!(JobPool::from_env().threads() >= 1);
    }

    #[test]
    fn machine_parallelism_is_stable_and_positive() {
        let first = machine_parallelism();
        assert!(first >= 1);
        assert_eq!(machine_parallelism(), first, "cached value must not drift");
    }

    #[test]
    fn effective_threads_clamps_to_machine_and_jobs() {
        let pool = JobPool::new(64);
        // Never wider than the machine or the job list, never zero.
        assert!(pool.effective_threads(100) <= machine_parallelism());
        assert_eq!(pool.effective_threads(0), 1);
        assert_eq!(pool.effective_threads(1), 1);
        assert_eq!(JobPool::new(1).effective_threads(100), 1);
        // The configured width is still reported unclamped.
        assert_eq!(pool.threads(), 64);
    }

    #[test]
    fn oversubscribed_pool_still_runs_every_job() {
        // A pool far wider than the machine must behave exactly like the
        // serial loop (results, order, exactly-once) — only the spawn width
        // is clamped.
        let ran = AtomicUsize::new(0);
        let out = JobPool::new(1024).map((0..40usize).collect(), |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i * 7
        });
        assert_eq!(ran.load(Ordering::Relaxed), 40);
        assert_eq!(out, (0..40).map(|i| i * 7).collect::<Vec<_>>());
    }

    #[test]
    fn threads_override_parsing() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("banana")), None);
        assert_eq!(parse_threads(Some("3")), Some(3));
        assert_eq!(parse_threads(Some(" 12 ")), Some(12));
    }

    #[test]
    fn accepted_values_do_not_count_as_rejections() {
        let before = invalid_env_rejections();
        assert_eq!(validate_threads(Some("4")), Ok(Some(4)));
        assert_eq!(validate_threads(Some(" 0 ")), Ok(None));
        assert_eq!(validate_threads(Some("")), Ok(None));
        assert_eq!(validate_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(invalid_env_rejections(), before, "accepted values must not warn");
    }

    #[test]
    fn invalid_values_warn_and_fall_back() {
        assert_eq!(validate_threads(Some("abc")), Err("abc".to_owned()));
        assert_eq!(validate_threads(Some("-3")), Err("-3".to_owned()));
        assert_eq!(validate_threads(Some("1.5")), Err("1.5".to_owned()));

        let before = invalid_env_rejections();
        assert_eq!(parse_threads(Some("abc")), None);
        assert_eq!(parse_threads(Some("-3")), None);
        assert_eq!(
            invalid_env_rejections(),
            before + 2,
            "each invalid override must be counted, not silently dropped"
        );
        // The fallback still resolves to a usable width.
        assert!(JobPool::new(0).threads() >= 1);
    }
}
