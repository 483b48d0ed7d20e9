//! The parallel sweep engine: fans independent simulation runs across
//! cores.
//!
//! Every paper artifact is a sweep over *independent* runs — each a pure
//! function of `(workload pair, security mode, RunParams)` with no shared
//! mutable state — so the experiment modules hand the engine a job count
//! and an indexed job function and get results back **in job order**,
//! regardless of which worker finished which job when. The pool is built
//! from `std::thread::scope` plus an atomic job cursor (no third-party
//! dependencies):
//!
//! * `jobs == 1` (or a single job) runs every job inline on the caller's
//!   thread in index order — bit-for-bit the pre-engine serial behavior,
//!   including the caller's thread-local telemetry handle;
//! * `jobs > 1` spawns `min(jobs, n)` workers that claim indices from a
//!   shared [`AtomicUsize`] cursor and deposit results into per-index
//!   slots.
//!
//! The worker count defaults to [`std::thread::available_parallelism`] and
//! is overridden process-wide by the `experiments` binary's `--jobs N`
//! flag via [`set_jobs`].
//!
//! # Telemetry
//!
//! The run-scoped [`crate::telemetry`] handle is thread-local and its
//! sinks are `Rc`-shared, so workers cannot record into the caller's
//! handle directly. Instead, when the caller's handle is enabled each
//! worker installs its own enabled handle for the duration of the sweep
//! and ships a [`TelemetrySnapshot`] back at join; the engine absorbs the
//! snapshots into the caller's handle in worker order. Counters,
//! histograms, and phase profiles merge additively, so the merged totals
//! equal a serial run's (see `Telemetry::absorb`).
//!
//! # Progress output
//!
//! Job closures report progress through [`progress`], which writes each
//! message as one atomic line under the stderr lock so concurrent workers
//! never interleave partial lines.
//!
//! # Resilience
//!
//! [`run`] propagates a job panic and loses the whole sweep — fine for the
//! paper artifacts, wrong for long fault-injection campaigns. For those,
//! [`run_resilient`] isolates each job behind `catch_unwind`, retries it a
//! bounded number of times (with capped exponential spin backoff between
//! attempts), and reports survivors and failures side by side in a
//! [`SweepOutcome`]: one failed job costs one row, never the sweep.
//! [`run_checkpointed`] additionally journals every finished job to
//! `<name>.partial.jsonl` under the results directory, so a killed sweep
//! resumes from completed work — and because results are assembled in job
//! order, the resumed sweep's final artifact is byte-identical to an
//! uninterrupted run's. The journal is deleted once the sweep completes
//! with zero failures.

use std::fmt::Write as _;
use std::io::Write;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use timecache_telemetry::{encode, Telemetry, TelemetrySnapshot};

/// Process-wide worker-count override; 0 means "use all cores".
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count for subsequent sweeps. `0` restores
/// the default (all cores); `1` forces serial execution.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The effective worker count: the [`set_jobs`] override, or
/// [`std::thread::available_parallelism`] (falling back to 1) when unset.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    }
}

/// Writes one full progress line to stderr. `eprintln!` holds the stderr
/// lock for the whole line, so lines from concurrent workers never
/// interleave mid-line; it also honours the test harness's output capture
/// (which worker threads inherit), so progress from a sweep run inside a
/// test never splits the harness's own `test ... ok` lines.
pub fn progress(msg: &str) {
    eprintln!("{msg}");
}

/// Runs jobs `0..n` with the process-wide worker count ([`jobs`]) and
/// returns their results indexed by job.
///
/// # Panics
///
/// Propagates any job panic to the caller (workers are joined by
/// `std::thread::scope`).
pub fn run<T, F>(n: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_with_jobs(n, jobs(), job)
}

/// [`run`] with an explicit worker count.
pub fn run_with_jobs<T, F>(n: usize, num_jobs: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if num_jobs <= 1 || n <= 1 {
        // Inline serial path: identical to the historical behavior,
        // including use of the caller's thread-local telemetry.
        return (0..n).map(job).collect();
    }

    let workers = num_jobs.min(n);
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

// ---------------------------------------------------------------------
// Resilient execution: panic isolation, bounded retry, checkpoint/resume.
// ---------------------------------------------------------------------

/// Retry policy for [`run_resilient`] / [`run_checkpointed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPolicy {
    /// How many times a panicking job is re-attempted before it is
    /// recorded as failed (so each job runs at most `1 + max_retries`
    /// times).
    pub max_retries: u32,
    /// Cap on the exponential spin backoff between attempts, in
    /// `spin_loop` iterations. The backoff is deterministic busy-work —
    /// no clocks — so sweeps stay reproducible.
    pub backoff_cap: u64,
}

impl Default for SweepPolicy {
    fn default() -> Self {
        SweepPolicy {
            max_retries: 1,
            backoff_cap: 1 << 16,
        }
    }
}

/// One job that kept panicking past its retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// The job index that failed.
    pub index: usize,
    /// Attempts made (always `1 + max_retries` here).
    pub attempts: u32,
    /// The final panic message.
    pub message: String,
}

/// Results of a resilient sweep: per-job slots (`None` where the job
/// failed) plus the failure records.
#[derive(Debug)]
pub struct SweepOutcome<T> {
    /// Job results in index order; `None` marks a failed job.
    pub results: Vec<Option<T>>,
    /// Jobs that exhausted their retry budget, in index order.
    pub failures: Vec<JobFailure>,
}

impl<T> SweepOutcome<T> {
    /// Whether every job produced a result.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Renders a caught panic payload (the `&str`/`String` cases cover every
/// `panic!`/`assert!` in this workspace).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// Deterministic capped-exponential busy-wait before retry `attempt`
/// (1-based): 128, 256, ... `spin_loop` iterations, capped at `cap`.
fn retry_backoff(attempt: u32, cap: u64) {
    let iters = (64u64 << attempt.min(16)).min(cap);
    for _ in 0..iters {
        std::hint::spin_loop();
    }
}

/// Runs `job(index)` with panic isolation and bounded retry.
fn attempt_job<T>(
    index: usize,
    policy: &SweepPolicy,
    job: &(impl Fn(usize) -> T + Sync),
) -> Result<T, JobFailure> {
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match std::panic::catch_unwind(AssertUnwindSafe(|| job(index))) {
            Ok(value) => return Ok(value),
            Err(payload) => {
                let message = panic_message(payload);
                if attempts > policy.max_retries {
                    return Err(JobFailure {
                        index,
                        attempts,
                        message,
                    });
                }
                progress(&format!(
                    "  job {index} panicked (attempt {attempts}): {message}; retrying"
                ));
                retry_backoff(attempts, policy.backoff_cap);
            }
        }
    }
}

/// [`run`], but one panicking job costs one result instead of the sweep:
/// each job runs behind `catch_unwind` with up to `policy.max_retries`
/// re-attempts, and jobs that keep panicking are reported as
/// [`JobFailure`]s alongside everyone else's results.
pub fn run_resilient<T, F>(n: usize, policy: SweepPolicy, job: F) -> SweepOutcome<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let attempted = run_with_jobs(n, jobs(), |i| attempt_job(i, &policy, &job));
    let mut results = Vec::with_capacity(n);
    let mut failures = Vec::new();
    for outcome in attempted {
        match outcome {
            Ok(value) => results.push(Some(value)),
            Err(failure) => {
                results.push(None);
                failures.push(failure);
            }
        }
    }
    SweepOutcome { results, failures }
}

/// Checkpoint header line: identifies the sweep, its parameterisation
/// (`tag`), and the job count. A mismatch on resume means the checkpoint
/// belongs to a different configuration and is discarded.
fn checkpoint_header(name: &str, tag: &str, n: usize) -> String {
    let mut line = String::from("{\"sweep\":");
    encode::json_string(&mut line, name);
    line.push_str(",\"tag\":");
    encode::json_string(&mut line, tag);
    let _ = write!(line, ",\"jobs\":{n}}}");
    line
}

/// Checkpoint record line for one finished job.
fn checkpoint_record(index: usize, row: &str) -> String {
    let mut line = format!("{{\"job\":{index},\"row\":");
    encode::json_string(&mut line, row);
    line.push('}');
    line
}

/// Parses a [`checkpoint_record`] line; `None` for malformed input (a
/// torn final line from a killed run is expected and skipped).
fn parse_checkpoint_line(line: &str) -> Option<(usize, String)> {
    let rest = line.strip_prefix("{\"job\":")?;
    let comma = rest.find(',')?;
    let index: usize = rest[..comma].parse().ok()?;
    let rest = rest[comma..].strip_prefix(",\"row\":\"")?;
    let body = rest.strip_suffix("\"}")?;
    let mut row = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            // An unescaped quote would have ended the string: torn line.
            if c == '"' {
                return None;
            }
            row.push(c);
            continue;
        }
        match chars.next()? {
            '"' => row.push('"'),
            '\\' => row.push('\\'),
            'n' => row.push('\n'),
            'r' => row.push('\r'),
            't' => row.push('\t'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16).ok()?;
                row.push(char::from_u32(code)?);
            }
            _ => return None,
        }
    }
    Some((index, row))
}

/// [`run_resilient`] with crash-resumable progress: every finished job is
/// appended (and flushed) to `<name>.partial.jsonl` under `dir`
/// (experiments pass [`crate::output::results_dir`]), and a rerun with
/// the same `name`, `tag`, and `n` skips jobs the journal already covers.
/// Rows cross the journal as strings via `encode_row`/`decode_row` (one
/// line per job; `decode_row` returning `None` re-runs that job). The
/// journal is removed when the sweep finishes with zero failures, so
/// `*.partial` files only linger for interrupted or failing sweeps.
///
/// # Errors
///
/// Returns an error if the journal cannot be written. Job panics never
/// surface here — they are [`JobFailure`]s.
#[allow(clippy::too_many_arguments)]
pub fn run_checkpointed<T, F>(
    dir: &std::path::Path,
    name: &str,
    tag: &str,
    n: usize,
    policy: SweepPolicy,
    encode_row: impl Fn(&T) -> String + Sync,
    decode_row: impl Fn(&str) -> Option<T>,
    job: F,
) -> std::io::Result<SweepOutcome<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.partial.jsonl"));
    let header = checkpoint_header(name, tag, n);

    let mut done: Vec<Option<T>> = (0..n).map(|_| None).collect();
    if let Ok(text) = std::fs::read_to_string(&path) {
        let mut lines = text.lines();
        if lines.next() == Some(header.as_str()) {
            for line in lines {
                if let Some((index, row)) = parse_checkpoint_line(line) {
                    if index < n {
                        done[index] = decode_row(&row);
                    }
                }
            }
        }
    }
    let resumed = done.iter().filter(|d| d.is_some()).count();
    if resumed > 0 {
        progress(&format!(
            "  resuming {name}: {resumed}/{n} jobs restored from checkpoint"
        ));
    }

    // Rewrite the journal from the trusted rows, dropping a stale header
    // or torn tail before new records append.
    let mut file = std::fs::File::create(&path)?;
    writeln!(file, "{header}")?;
    for (index, row) in done.iter().enumerate() {
        if let Some(row) = row {
            writeln!(file, "{}", checkpoint_record(index, &encode_row(row)))?;
        }
    }
    file.flush()?;
    let file = Mutex::new(file);

    let todo: Vec<usize> = (0..n).filter(|&i| done[i].is_none()).collect();
    let fresh = run_resilient(todo.len(), policy, |k| {
        let index = todo[k];
        let row = job(index);
        let record = checkpoint_record(index, &encode_row(&row));
        let mut f = file.lock().expect("checkpoint journal poisoned");
        let _ = writeln!(f, "{record}");
        let _ = f.flush();
        (index, row)
    });

    let failures: Vec<JobFailure> = fresh
        .failures
        .into_iter()
        .map(|f| JobFailure {
            index: todo[f.index],
            ..f
        })
        .collect();
    for (index, row) in fresh.results.into_iter().flatten() {
        done[index] = Some(row);
    }
    if failures.is_empty() {
        drop(file);
        let _ = std::fs::remove_file(&path);
    }
    Ok(SweepOutcome {
        results: done,
        failures,
    })
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
        let serial = run_with_jobs(8, 1, job);
        let parallel = run_with_jobs(8, 4, job);
        assert_eq!(serial, (0..8).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn worker_count_is_clamped_to_jobs() {
        // More workers than jobs must not deadlock or drop results.
        assert_eq!(run_with_jobs(2, 16, |i| i), vec![0, 1]);
        assert_eq!(run_with_jobs(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn jobs_override_round_trips() {
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert!(jobs() >= 1);
    }

    #[test]
    fn worker_telemetry_merges_into_caller_handle() {
        let tel = crate::telemetry::enable();
        let before = tel
            .registry()
            .unwrap()
            .counter_value("sweep_test_total", &[])
            .unwrap_or(0);
        run_with_jobs(6, 3, |_| {
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
    fn disabled_telemetry_stays_disabled_in_workers() {
        crate::telemetry::disable();
        let enabled = run_with_jobs(4, 2, |_| crate::telemetry::current().is_enabled());
        assert_eq!(enabled, vec![false; 4]);
    }

    /// The default panic hook prints a message per caught panic; silence
    /// it for panicking-job tests so test output stays readable. Process
    /// global, so tests using it serialize on this lock.
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        static QUIET: Mutex<()> = Mutex::new(());
        let _guard = QUIET.lock().unwrap_or_else(|e| e.into_inner());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = f();
        std::panic::set_hook(prev);
        result
    }

    #[test]
    fn resilient_sweep_survives_a_panicking_job() {
        with_quiet_panics(|| {
            let policy = SweepPolicy {
                max_retries: 1,
                backoff_cap: 1 << 8,
            };
            let out = run_resilient(6, policy, |i| {
                assert!(i != 3, "job 3 always dies");
                i * 2
            });
            assert!(!out.is_complete());
            assert_eq!(out.results.len(), 6);
            assert_eq!(out.results[2], Some(4));
            assert_eq!(out.results[3], None);
            assert_eq!(out.failures.len(), 1);
            let f = &out.failures[0];
            assert_eq!((f.index, f.attempts), (3, 2));
            assert!(f.message.contains("job 3 always dies"), "{}", f.message);
        });
    }

    #[test]
    fn resilient_retry_rescues_a_transient_panic() {
        with_quiet_panics(|| {
            // Panics on every first attempt, succeeds on the retry.
            let tried: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            let out = run_resilient(4, SweepPolicy::default(), |i| {
                if tried[i].fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("transient");
                }
                i
            });
            assert!(out.is_complete());
            assert_eq!(
                out.results
                    .into_iter()
                    .map(Option::unwrap)
                    .collect::<Vec<_>>(),
                vec![0, 1, 2, 3]
            );
        });
    }

    #[test]
    fn checkpoint_lines_roundtrip() {
        let line = checkpoint_record(7, "a|b\"c\\d\ne");
        assert_eq!(
            parse_checkpoint_line(&line),
            Some((7, "a|b\"c\\d\ne".into()))
        );
        // Torn tails (killed mid-write) and garbage are skipped, not fatal.
        assert_eq!(parse_checkpoint_line(&line[..line.len() - 3]), None);
        assert_eq!(parse_checkpoint_line("not json"), None);
        assert_eq!(parse_checkpoint_line(""), None);
    }

    #[test]
    fn checkpointed_sweep_resumes_without_rerunning_done_jobs() {
        let dir = std::env::temp_dir().join("tc-sweep-ckpt-test");
        let _ = std::fs::remove_dir_all(&dir);

        let encode = |v: &usize| v.to_string();
        let decode = |s: &str| s.parse::<usize>().ok();
        let runs = AtomicUsize::new(0);
        let job = |i: usize| {
            runs.fetch_add(1, Ordering::Relaxed);
            i + 100
        };

        // Seed a checkpoint covering jobs 0 and 2 (plus a torn tail).
        let path = dir.join("ckpt_test.partial.jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            &path,
            format!(
                "{}\n{}\n{}\n{{\"job\":4,\"row\":\"tor",
                checkpoint_header("ckpt_test", "v1", 5),
                checkpoint_record(0, "100"),
                checkpoint_record(2, "102"),
            ),
        )
        .unwrap();

        let out = run_checkpointed(
            &dir,
            "ckpt_test",
            "v1",
            5,
            SweepPolicy::default(),
            encode,
            decode,
            job,
        )
        .unwrap();
        assert!(out.is_complete());
        let values: Vec<usize> = out.results.into_iter().map(Option::unwrap).collect();
        assert_eq!(values, vec![100, 101, 102, 103, 104]);
        // Jobs 0 and 2 came from the journal; only 1, 3, 4 (torn) ran.
        assert_eq!(runs.load(Ordering::Relaxed), 3);
        // A clean finish removes the journal.
        assert!(!path.exists());

        // A tag change invalidates the journal: everything reruns.
        std::fs::write(
            &path,
            format!(
                "{}\n{}\n",
                checkpoint_header("ckpt_test", "v1", 5),
                checkpoint_record(0, "100"),
            ),
        )
        .unwrap();
        runs.store(0, Ordering::Relaxed);
        let out = run_checkpointed(
            &dir,
            "ckpt_test",
            "v2",
            5,
            SweepPolicy::default(),
            encode,
            decode,
            job,
        )
        .unwrap();
        assert!(out.is_complete());
        assert_eq!(runs.load(Ordering::Relaxed), 5);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_sweep_keeps_journal_on_failure() {
        with_quiet_panics(|| {
            let dir = std::env::temp_dir().join("tc-sweep-ckpt-fail-test");
            let _ = std::fs::remove_dir_all(&dir);

            let policy = SweepPolicy {
                max_retries: 0,
                backoff_cap: 1 << 8,
            };
            let out = run_checkpointed(
                &dir,
                "ckpt_fail",
                "v1",
                4,
                policy,
                |v: &usize| v.to_string(),
                |s| s.parse().ok(),
                |i| {
                    assert!(i != 1, "boom");
                    i
                },
            )
            .unwrap();
            assert_eq!(out.failures.len(), 1);
            assert_eq!(out.failures[0].index, 1);
            assert_eq!(out.results[1], None);
            // The journal survives for a later resume...
            let path = dir.join("ckpt_fail.partial.jsonl");
            assert!(path.exists());
            // ...and a rerun picks up the three finished jobs.
            let out = run_checkpointed(
                &dir,
                "ckpt_fail",
                "v1",
                4,
                policy,
                |v: &usize| v.to_string(),
                |s| s.parse().ok(),
                |i| i,
            )
            .unwrap();
            assert!(out.is_complete());
            assert!(!path.exists());

            let _ = std::fs::remove_dir_all(&dir);
        });
    }
}
