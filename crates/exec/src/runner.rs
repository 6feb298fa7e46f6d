//! Deterministic fan-out of experiment matrices over a [`JobPool`].

use crate::JobPool;

/// Runs lists of independent jobs on a pool, returning results in
/// submission order.
///
/// This is the engine behind the simulation stack's parallel entry points
/// (`run_configs_analytic`, the parallel re-mapping sweep, the `repro`
/// figure matrix): callers enumerate the experiment matrix as a `Vec` of job
/// descriptors, and the runner guarantees the output `Vec` lines up
/// element-for-element with the input — bit-identical to the serial loop.
///
/// # Examples
///
/// ```
/// use nvpim_exec::ParallelRunner;
///
/// let runner = ParallelRunner::new(2);
/// // A 2-D matrix flattened in row-major submission order.
/// let jobs: Vec<(u32, u32)> =
///     (0..3).flat_map(|a| (0..4).map(move |b| (a, b))).collect();
/// let sums = runner.run(jobs.clone(), |(a, b)| a + b);
/// assert_eq!(sums.len(), 12);
/// assert_eq!(sums[5], jobs[5].0 + jobs[5].1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelRunner {
    pool: JobPool,
}

impl ParallelRunner {
    /// A runner over `jobs` workers (`0` = auto: `NVPIM_THREADS`, else the
    /// machine's parallelism).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        ParallelRunner { pool: JobPool::new(jobs) }
    }

    /// A runner sized by the environment.
    #[must_use]
    pub fn from_env() -> Self {
        ParallelRunner { pool: JobPool::from_env() }
    }

    /// The underlying pool.
    #[must_use]
    pub fn pool(&self) -> JobPool {
        self.pool
    }

    /// Worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Workers that would actually be spawned for `jobs` items (the
    /// configured width clamped to the machine and the job count); `<= 1`
    /// means the run executes inline on the calling thread.
    #[must_use]
    pub fn effective_threads(&self, jobs: usize) -> usize {
        self.pool.effective_threads(jobs)
    }

    /// Executes every job, returning outputs in submission order.
    pub fn run<I, O, F>(&self, jobs: Vec<I>, f: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(I) -> O + Sync,
    {
        self.pool.map(jobs, f)
    }

    /// Executes one job per element of a cartesian product `outer × inner`,
    /// in row-major submission order (all of `inner` for `outer[0]` first).
    ///
    /// A convenience for two-axis experiment matrices such as
    /// (workload × configuration); wider matrices flatten their axes into
    /// the job descriptor and use [`ParallelRunner::run`].
    pub fn run_product<A, B, O, F>(&self, outer: &[A], inner: &[B], f: F) -> Vec<O>
    where
        A: Sync,
        B: Sync,
        O: Send,
        F: Fn(&A, &B) -> O + Sync,
    {
        let jobs: Vec<(usize, usize)> =
            (0..outer.len()).flat_map(|a| (0..inner.len()).map(move |b| (a, b))).collect();
        self.pool.map(jobs, |(a, b)| f(&outer[a], &inner[b]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_matches_serial_map() {
        let jobs: Vec<u64> = (0..50).collect();
        let serial: Vec<u64> = jobs.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 8] {
            let parallel = ParallelRunner::new(threads).run(jobs.clone(), |x| x * x + 1);
            assert_eq!(parallel, serial, "{threads} threads");
        }
    }

    #[test]
    fn product_is_row_major() {
        let runner = ParallelRunner::new(3);
        let out = runner.run_product(&[10u32, 20], &[1u32, 2, 3], |a, b| a + b);
        assert_eq!(out, vec![11, 12, 13, 21, 22, 23]);
    }

    #[test]
    fn product_with_empty_axis_is_empty() {
        let runner = ParallelRunner::new(2);
        let out = runner.run_product(&[1u8, 2], &[] as &[u8], |a, b| a + b);
        assert!(out.is_empty());
    }
}
