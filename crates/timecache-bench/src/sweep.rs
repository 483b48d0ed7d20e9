//! The parallel sweep engine: fans independent simulation runs across
//! cores.
//!
//! Every paper artifact reads *independent* runs — each a pure function of
//! its [`crate::runner::RunKey`] with no shared mutable state — so the
//! [`crate::runner::RunTable`] and the fault and leakage matrices hand the
//! engine a worker count, a job count and an indexed job function and get
//! results back **in job order**, regardless of which worker finished which
//! job when.
//! The pool is built from `std::thread::scope` plus an atomic job cursor
//! (no third-party dependencies):
//!
//! * `jobs == 1` (or a single job) runs every job inline on the caller's
//!   thread in index order;
//! * `jobs > 1` spawns `min(jobs, n)` workers that claim indices from a
//!   shared [`AtomicUsize`] cursor and deposit results into per-index
//!   slots.
//!
//! A job's result is all it hands back: a simulation job returns its
//! run's metrics and events together, so nothing a job records is shared
//! with another job or with the caller.
//!
//! The worker count is always an argument. The `experiments` binary
//! resolves its `--jobs N` flag once (default:
//! [`std::thread::available_parallelism`]) and passes the count down.
//!
//! # Progress output
//!
//! Job closures report progress through [`progress`], which writes each
//! message as one atomic line under the stderr lock so concurrent workers
//! never interleave partial lines.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Writes one full progress line to stderr. `eprintln!` holds the stderr
/// lock for the whole line, so lines from concurrent workers never
/// interleave mid-line; it also honours the test harness's output capture
/// (which worker threads inherit), so progress from a sweep run inside a
/// test never splits the harness's own `test ... ok` lines.
pub fn progress(msg: &str) {
    eprintln!("{msg}");
}

/// Runs jobs `0..n` on up to `jobs` workers and returns their results
/// indexed by job.
///
/// # Panics
///
/// Propagates any job panic to the caller (workers are joined by
/// `std::thread::scope`).
pub fn run<T, F>(jobs: usize, n: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || n <= 1 {
        return (0..n).map(job).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            let cursor = &cursor;
            let slots = &slots;
            let job = &job;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = job(i);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every job index was claimed and completed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_land_by_job_index() {
        // Jobs with deliberately inverted costs: later jobs finish first
        // under parallel execution, yet results stay index-ordered.
        let job = |i: usize| {
            std::thread::sleep(std::time::Duration::from_millis(8 - i as u64));
            i * 10
        };
        let serial = run(1, 8, job);
        let parallel = run(4, 8, job);
        assert_eq!(serial, (0..8).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn worker_count_is_clamped_to_jobs() {
        // More workers than jobs must not deadlock or drop results.
        assert_eq!(run(16, 2, |i| i), vec![0, 1]);
        assert_eq!(run(4, 0, |i| i), Vec::<usize>::new());
    }
}
