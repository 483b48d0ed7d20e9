//! Per-run event logs for the experiment harness.
//!
//! Every simulated run records into its own enabled [`Telemetry`] handle
//! ([`record`]) and keeps the events beside its metrics: the
//! [`crate::runner::RunTable`] beside each run, the fault matrix beside each
//! cell. A run's events are a pure function of the run, like its metrics,
//! so they are the same in any table and at any worker count.
//! [`write_artifacts`] writes into [`crate::output::results_dir`]:
//!
//! * `<id>_events.jsonl` — every run's context-switch saves and restores,
//!   rollover resets, probes, injected faults and invariant violations, one
//!   JSON object per line ([`trace::to_jsonl`]). Each line starts with
//!   `"run":i`, the 0-based line of its run in `<id>_runs.jsonl` (or its
//!   cell's row in `fault_matrix.csv`), and `seq` counts from 0 in each run;
//! * `<id>_manifest.json` — the event counts summed over the runs and the
//!   artifact list.

use crate::output::{results_dir, write_artifact};
use std::io;
use std::path::PathBuf;
use timecache_telemetry::{encode, trace, EventRecord, Telemetry};

/// Runs `f` with a fresh enabled handle and returns its result with the
/// events the handle recorded, in sequence order.
pub fn record<T>(f: impl FnOnce(&Telemetry) -> T) -> (T, Vec<EventRecord>) {
    let tel = Telemetry::enabled();
    let result = f(&tel);
    (result, tel.tracer().expect("an enabled handle").records())
}

/// Writes the event logs of `runs`, in order, and their manifest as
/// artifacts named after `id` under [`results_dir`] with
/// [`write_artifact`], returning the written paths. Each run's ring drops
/// its oldest events first, so its first retained `seq` is the number it
/// dropped and its last `seq` plus one the number it recorded.
///
/// # Errors
///
/// Returns the underlying error if any artifact cannot be written.
pub fn write_artifacts(id: &str, runs: &[Vec<EventRecord>]) -> io::Result<Vec<PathBuf>> {
    let dir = results_dir()?;
    let events = format!("{id}_events.jsonl");
    let events_path = dir.join(&events);
    write_artifact(&events_path, &trace::to_jsonl(runs))?;

    let (mut recorded, mut dropped, mut retained) = (0, 0, 0);
    for records in runs {
        if let (Some(first), Some(last)) = (records.first(), records.last()) {
            recorded += last.seq + 1;
            dropped += first.seq;
            retained += records.len();
        }
    }
    let mut manifest = String::from("{\"experiment\":");
    encode::json_string(&mut manifest, id);
    manifest.push_str(&format!(
        ",\"events_recorded\":{recorded},\"events_dropped\":{dropped},\
         \"events_retained\":{retained},\"artifacts\":["
    ));
    encode::json_string(&mut manifest, &events);
    manifest.push_str("]}");
    let manifest_path = dir.join(format!("{id}_manifest.json"));
    write_artifact(&manifest_path, &manifest)?;
    Ok(vec![events_path, manifest_path])
}

#[cfg(test)]
mod tests {
    use super::*;
    use timecache_telemetry::TraceEvent;

    fn probe(latency: u64) -> TraceEvent {
        TraceEvent::Probe {
            attack: "demo",
            latency,
            hit: true,
        }
    }

    #[test]
    fn artifacts_cover_all_sinks() {
        crate::output::test_results_dir();
        // Two runs: one that recorded an event, one that overflowed a
        // 2-entry ring with 3 and kept the last 2.
        let ((), first) = record(|tel| tel.emit_at(7, probe(1)));
        let tel = Telemetry::with_trace_capacity(2);
        for latency in 0..3 {
            tel.emit_at(8, probe(latency));
        }
        let runs = [first, tel.tracer().unwrap().records()];
        let written = write_artifacts("unit_demo", &runs).unwrap();
        assert_eq!(written.len(), 2);
        let events = std::fs::read_to_string(&written[0]).unwrap();
        assert_eq!(events, trace::to_jsonl(&runs));
        assert_eq!(events.lines().count(), 3);
        assert!(events.starts_with("{\"run\":0,\"seq\":0,\"cycle\":7,"));
        assert!(events
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("{\"run\":1,\"seq\":1,"));
        let manifest = std::fs::read_to_string(&written[1]).unwrap();
        assert_eq!(
            manifest,
            "{\"experiment\":\"unit_demo\",\"events_recorded\":4,\"events_dropped\":1,\
             \"events_retained\":3,\"artifacts\":[\"unit_demo_events.jsonl\"]}"
        );
    }
}
