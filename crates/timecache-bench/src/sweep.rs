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
//!
//! # Checkpointed sweeps
//!
//! [`run`] propagates a job panic and loses the whole sweep — fine for the
//! paper artifacts, wrong for long fault-injection campaigns. For those,
//! [`run_checkpointed`] runs each job once behind `catch_unwind` and
//! reports survivors and failures side by side in a [`SweepOutcome`]: one
//! failed job costs one row, never the sweep. A failed job is not retried:
//! jobs are pure functions of their index, so a retry would only panic
//! again. Every finished job is journaled to `<name>.partial.jsonl` under
//! the results directory, so a killed sweep resumes from completed work —
//! and because results are assembled in job order, the resumed sweep's
//! final artifact is byte-identical to an uninterrupted run's. The journal
//! is deleted once the sweep completes with zero failures.

use crate::output::in_context;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use timecache_telemetry::{encode, Telemetry, TelemetrySnapshot};

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

/// One job that panicked in a [`run_checkpointed`] sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// The job index that failed.
    pub index: usize,
    /// The panic message.
    pub message: String,
}

impl JobFailure {
    /// Appends `failures` to `json` as a JSON array of
    /// `{"job":<index>,"message":<text>}` records: the `"failed"` list of
    /// the sweep artifacts.
    pub fn write_json_list(json: &mut String, failures: &[JobFailure]) {
        json.push('[');
        for (k, f) in failures.iter().enumerate() {
            if k > 0 {
                json.push(',');
            }
            let _ = write!(json, "{{\"job\":{},\"message\":", f.index);
            encode::json_string(json, &f.message);
            json.push('}');
        }
        json.push(']');
    }
}

/// Results of a checkpointed sweep: per-job slots (`None` where the job
/// failed) plus the failure records.
#[derive(Debug)]
pub struct SweepOutcome<T> {
    /// Job results in index order; `None` marks a failed job.
    pub results: Vec<Option<T>>,
    /// Jobs that panicked, in index order.
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

/// [`run`] with panic isolation and crash-resumable progress.
///
/// Each job runs once behind `catch_unwind`; a panicking job becomes a
/// [`JobFailure`] alongside everyone else's results. Every finished job is
/// appended (and flushed) to `<name>.partial.jsonl` under `dir`
/// (experiments pass [`crate::output::results_dir`]), and a rerun with the
/// same `name`, `tag`, and `n` skips jobs the journal already covers.
/// Rows cross the journal as strings via `encode_row`/`decode_row` (one
/// line per job; `decode_row` returning `None` re-runs that job). The
/// journal is removed when the sweep finishes with zero failures, so
/// `*.partial` files only linger for interrupted or failing sweeps.
///
/// # Errors
///
/// Returns an error, prefixed with the journal path, if the journal cannot
/// be written. A failed append or flush after a finished job does not stop
/// the sweep; the first such error is returned once the pool joins, since
/// the journal no longer covers every finished job. Job panics never
/// surface here — they are [`JobFailure`]s.
#[allow(clippy::too_many_arguments)]
pub fn run_checkpointed<T, F>(
    dir: &Path,
    name: &str,
    tag: &str,
    n: usize,
    jobs: usize,
    encode_row: impl Fn(&T) -> String + Sync,
    decode_row: impl Fn(&str) -> Option<T>,
    job: F,
) -> io::Result<SweepOutcome<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    std::fs::create_dir_all(dir).map_err(|e| in_context("creating", dir, e))?;
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
    let rewrite = || -> io::Result<std::fs::File> {
        let mut file = std::fs::File::create(&path)?;
        writeln!(file, "{header}")?;
        for (index, row) in done.iter().enumerate() {
            if let Some(row) = row {
                writeln!(file, "{}", checkpoint_record(index, &encode_row(row)))?;
            }
        }
        file.flush()?;
        Ok(file)
    };
    let file = rewrite().map_err(|e| in_context("writing", &path, e))?;
    // The journal plus the first append or flush error.
    let journal = Mutex::new((file, None::<io::Error>));

    let todo: Vec<usize> = (0..n).filter(|&i| done[i].is_none()).collect();
    let fresh = run(jobs, todo.len(), |k| {
        let index = todo[k];
        let row =
            std::panic::catch_unwind(AssertUnwindSafe(|| job(index))).map_err(panic_message)?;
        let record = checkpoint_record(index, &encode_row(&row));
        let mut guard = journal.lock().expect("checkpoint journal poisoned");
        let (file, error) = &mut *guard;
        if let Err(e) = writeln!(file, "{record}").and_then(|()| file.flush()) {
            error.get_or_insert(e);
        }
        Ok(row)
    });
    let (file, journal_error) = journal.into_inner().expect("checkpoint journal poisoned");
    if let Some(e) = journal_error {
        return Err(in_context("writing", &path, e));
    }

    let mut failures = Vec::new();
    for (index, result) in todo.into_iter().zip(fresh) {
        match result {
            Ok(row) => done[index] = Some(row),
            Err(message) => failures.push(JobFailure { index, message }),
        }
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

    #[test]
    fn resilient_sweep_survives_a_panicking_job() {
        let dir = std::env::temp_dir().join("tc-sweep-panic-test");
        let _ = std::fs::remove_dir_all(&dir);
        let runs = AtomicUsize::new(0);
        let out = run_checkpointed(
            &dir,
            "panic_test",
            "v1",
            6,
            2,
            |v: &usize| v.to_string(),
            |s| s.parse().ok(),
            |i| {
                runs.fetch_add(1, Ordering::Relaxed);
                assert!(i != 3, "job 3 always dies");
                i * 2
            },
        )
        .unwrap();
        assert!(!out.is_complete());
        assert_eq!(out.results.len(), 6);
        assert_eq!(out.results[2], Some(4));
        assert_eq!(out.results[3], None);
        assert_eq!(out.failures.len(), 1);
        let f = &out.failures[0];
        assert_eq!(f.index, 3);
        assert!(f.message.contains("job 3 always dies"), "{}", f.message);
        // Each job ran exactly once: a panic is not retried.
        assert_eq!(runs.load(Ordering::Relaxed), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failure_records_render_as_a_json_list() {
        let mut json = String::new();
        JobFailure::write_json_list(&mut json, &[]);
        assert_eq!(json, "[]");
        json.clear();
        let failures = [
            JobFailure {
                index: 4,
                message: "boom".into(),
            },
            JobFailure {
                index: 7,
                message: "say \"hi\"".into(),
            },
        ];
        JobFailure::write_json_list(&mut json, &failures);
        assert_eq!(
            json,
            r#"[{"job":4,"message":"boom"},{"job":7,"message":"say \"hi\""}]"#
        );
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

        let out = run_checkpointed(&dir, "ckpt_test", "v1", 5, 2, encode, decode, job).unwrap();
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
        let out = run_checkpointed(&dir, "ckpt_test", "v2", 5, 2, encode, decode, job).unwrap();
        assert!(out.is_complete());
        assert_eq!(runs.load(Ordering::Relaxed), 5);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_sweep_keeps_journal_on_failure() {
        let dir = std::env::temp_dir().join("tc-sweep-ckpt-fail-test");
        let _ = std::fs::remove_dir_all(&dir);

        let out = run_checkpointed(
            &dir,
            "ckpt_fail",
            "v1",
            4,
            2,
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
            2,
            |v: &usize| v.to_string(),
            |s| s.parse().ok(),
            |i| i,
        )
        .unwrap();
        assert!(out.is_complete());
        assert!(!path.exists());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
