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
//! handle directly. Instead, when the caller's handle is enabled each job
//! runs under its own fresh enabled handle and leaves a
//! [`TelemetrySnapshot`] in its job's slot; after the join the engine
//! absorbs the snapshots into the caller's handle in job order. That
//! replays the serial run's recording order, so the merged event log
//! (`*_events.jsonl`, including its sequence numbers and drop count)
//! equals a serial run's at any worker count (see `Telemetry::absorb`).
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

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(T, TelemetrySnapshot)>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    // The caller's handle is not Send; capture only its settings and
    // absorb the jobs' snapshots after the scope ends.
    let caller_tel = crate::telemetry::current();
    let record = caller_tel.is_enabled();
    let events_on = caller_tel.trace_events();

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
                let tel = if record {
                    Telemetry::enabled()
                } else {
                    Telemetry::disabled()
                };
                tel.set_trace_events(events_on);
                crate::telemetry::set(&tel);
                let result = job(i);
                *slots[i].lock().expect("result slot poisoned") = Some((result, tel.snapshot()));
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            let (result, snap) = slot
                .into_inner()
                .expect("result slot poisoned")
                .expect("every job index was claimed and completed");
            caller_tel.absorb(&snap);
            result
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use timecache_telemetry::TraceEvent;

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
        tel.emit_at(
            0,
            TraceEvent::Probe {
                attack: "caller",
                latency: 0,
                hit: true,
            },
        );
        run(3, 6, |i| {
            crate::telemetry::current().emit_at(
                i as u64,
                TraceEvent::Probe {
                    attack: "sweep_test",
                    latency: i as u64,
                    hit: false,
                },
            );
        });
        crate::telemetry::disable();
        // The caller's event, then one per job in job order, renumbered.
        let records = tel.tracer().unwrap().records();
        assert_eq!(records.len(), 7);
        for (i, rec) in records[1..].iter().enumerate() {
            assert_eq!((rec.seq, rec.cycle), (i as u64 + 1, i as u64));
            assert!(matches!(
                rec.event,
                TraceEvent::Probe { latency, .. } if latency == i as u64
            ));
        }
    }

    #[test]
    fn worker_event_drops_merge_into_caller_tracer() {
        // Each job emits more than half a ring, so the caller's ring
        // overwrites events while merging.
        let job = |i: usize| {
            let tel = crate::telemetry::current();
            for latency in 0..40_000 {
                tel.emit_at(
                    i as u64,
                    TraceEvent::Probe {
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
            (
                tracer.recorded(),
                tracer.dropped(),
                tracer.len(),
                tracer.to_jsonl(),
            )
        };
        let serial = counts(1);
        assert_eq!(serial.0, 8 * 40_000);
        assert!(serial.1 > 0, "the ring must overflow");
        // Counts and the retained window, sequence numbers included.
        assert!(counts(4) == serial, "jobs = 4 differs from the serial run");
    }

    #[test]
    fn disabled_telemetry_stays_disabled_in_workers() {
        crate::telemetry::disable();
        let enabled = run(2, 4, |_| crate::telemetry::current().is_enabled());
        assert_eq!(enabled, vec![false; 4]);
    }
}
