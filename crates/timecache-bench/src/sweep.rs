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
//!   thread in index order — bit-for-bit the pre-engine serial behavior,
//!   including the caller's thread-local telemetry handle;
//! * `jobs > 1` spawns `min(jobs, n)` workers that claim indices from a
//!   shared [`AtomicUsize`] cursor and deposit results into per-index
//!   slots.
//!
//! The worker count is always an argument. The `experiments` binary
//! resolves its `--jobs N` flag once (default:
//! [`std::thread::available_parallelism`]) and passes the count down.
//!
//! # Telemetry
//!
//! The run-scoped [`crate::telemetry`] handle is thread-local and its
//! sinks are `Rc`-shared, so workers cannot record into the caller's
//! handle directly. Instead, when the caller's handle is enabled each
//! worker installs its own enabled handle for the duration of the sweep
//! and ships a [`TelemetrySnapshot`] back at join; the engine absorbs the
//! snapshots into the caller's handle in worker order. Counters,
//! histograms, phase profiles and event counts merge additively, so they
//! equal a serial run's (see `Telemetry::absorb`); the retained event
//! window depends on which jobs each worker ran.
//!
//! # Progress output
//!
//! Job closures report progress through [`progress`], which writes each
//! message as one atomic line under the stderr lock so concurrent workers
//! never interleave partial lines.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use timecache_telemetry::{Telemetry, TelemetrySnapshot};

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
        // Inline serial path: identical to the historical behavior,
        // including use of the caller's thread-local telemetry.
        return (0..n).map(job).collect();
    }

    let workers = jobs.min(n);
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // The caller's handle is not Send; capture only whether it is enabled
    // and absorb the workers' snapshots after the scope ends.
    let caller_tel = crate::telemetry::current();
    let record = caller_tel.is_enabled();
    // Workers inherit the caller's trace-event setting so a counter-only
    // sweep stays counter-only (and its absorb stays cheap) in parallel.
    let events_on = caller_tel.trace_events();
    let snapshots: Vec<Mutex<Option<TelemetrySnapshot>>> =
        (0..workers).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let cursor = &cursor;
            let slots = &slots;
            let snapshots = &snapshots;
            let job = &job;
            scope.spawn(move || {
                let tel = if record {
                    let tel = Telemetry::enabled();
                    tel.set_trace_events(events_on);
                    crate::telemetry::set(&tel);
                    Some(tel)
                } else {
                    None
                };
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = job(i);
                    *slots[i].lock().expect("result slot poisoned") = Some(result);
                }
                if let Some(tel) = tel {
                    *snapshots[worker].lock().expect("snapshot slot poisoned") =
                        Some(tel.snapshot());
                }
            });
        }
    });

    for slot in snapshots {
        if let Some(snap) = slot.into_inner().expect("snapshot slot poisoned") {
            caller_tel.absorb(&snap);
        }
    }
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

    #[test]
    fn worker_telemetry_merges_into_caller_handle() {
        let tel = crate::telemetry::enable();
        let before = tel
            .registry()
            .unwrap()
            .counter_value("sweep_test_total", &[])
            .unwrap_or(0);
        run(3, 6, |_| {
            let worker_tel = crate::telemetry::current();
            worker_tel
                .registry()
                .unwrap()
                .counter("sweep_test_total", "Test.", &[])
                .inc();
        });
        assert_eq!(
            tel.registry()
                .unwrap()
                .counter_value("sweep_test_total", &[]),
            Some(before + 6)
        );
        crate::telemetry::disable();
    }

    #[test]
    fn worker_event_drops_merge_into_caller_tracer() {
        // Each job emits more than half a ring, so workers overwrite events
        // before the join as well as when merging.
        let job = |i: usize| {
            let tel = crate::telemetry::current();
            for latency in 0..40_000 {
                tel.emit_at(
                    i as u64,
                    timecache_telemetry::TraceEvent::Probe {
                        attack: "sweep_test",
                        latency,
                        hit: false,
                    },
                );
            }
        };
        let counts = |jobs: usize| {
            let tel = crate::telemetry::enable();
            run(jobs, 8, job);
            crate::telemetry::disable();
            let tracer = tel.tracer().unwrap();
            (tracer.recorded(), tracer.dropped(), tracer.len())
        };
        let serial = counts(1);
        assert_eq!(serial.0, 8 * 40_000);
        assert!(serial.1 > 0, "the ring must overflow");
        assert_eq!(counts(4), serial);
    }

    #[test]
    fn disabled_telemetry_stays_disabled_in_workers() {
        crate::telemetry::disable();
        let enabled = run(2, 4, |_| crate::telemetry::current().is_enabled());
        assert_eq!(enabled, vec![false; 4]);
    }
}
