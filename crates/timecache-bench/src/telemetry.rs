//! Run-scoped telemetry for the experiment harness.
//!
//! The harness keeps one [`Telemetry`] handle per *thread* (each simulated
//! run is single-threaded; sweeps parallelize across runs).
//! [`crate::runner`] hands the thread's current handle to every
//! [`timecache_os::System`] it builds, so enabling telemetry before an
//! experiment records the event log of every run without threading a
//! handle through every experiment signature. Parallel sweeps via
//! [`crate::sweep`] run each job under its own enabled handle and merge the
//! jobs' events back into the caller's handle in job order, so every
//! artifact below equals a serial run's. After the run, [`write_artifacts`]
//! writes into [`crate::output::results_dir`]:
//!
//! * `<id>_events.jsonl` — the event log of context-switch saves and
//!   restores, rollover resets, probes, injected faults and invariant
//!   violations, one JSON object per line;
//! * `<id>_manifest.json` — the run manifest tying the artifacts together
//!   (experiment id, event counts, artifact list).
//!
//! Per-run counts are not telemetry: `exp::run` writes them, one line per
//! run, to `<id>_runs.jsonl` with or without `--telemetry`.

use crate::output::{results_dir, write_artifact};
use std::cell::RefCell;
use std::io;
use std::path::PathBuf;
use timecache_telemetry::{encode, Telemetry};

thread_local! {
    static CURRENT: RefCell<Telemetry> = RefCell::new(Telemetry::disabled());
}

/// Installs a fresh enabled handle as the current run telemetry and
/// returns it.
pub fn enable() -> Telemetry {
    let tel = Telemetry::enabled();
    set(&tel);
    tel
}

/// Installs `tel` (a clone shares its sinks) as the current run telemetry.
pub fn set(tel: &Telemetry) {
    CURRENT.with(|c| *c.borrow_mut() = tel.clone());
}

/// Resets the current run telemetry to disabled.
pub fn disable() {
    set(&Telemetry::disabled());
}

/// The current run telemetry (disabled unless [`enable`]/[`set`] was
/// called). [`crate::runner`] attaches this to every system it builds.
pub fn current() -> Telemetry {
    CURRENT.with(|c| c.borrow().clone())
}

/// Writes the current event log and its manifest as artifacts named after
/// `id` under [`results_dir`] with [`write_artifact`], returning the
/// written paths. A disabled handle writes nothing and returns an empty
/// list.
///
/// # Errors
///
/// Returns the underlying error if any artifact cannot be written.
pub fn write_artifacts(id: &str) -> io::Result<Vec<PathBuf>> {
    write_artifacts_from(id, &current())
}

/// [`write_artifacts`] for an explicit handle.
///
/// # Errors
///
/// Returns the underlying error if any artifact cannot be written.
pub fn write_artifacts_from(id: &str, tel: &Telemetry) -> io::Result<Vec<PathBuf>> {
    let Some(tracer) = tel.tracer() else {
        return Ok(Vec::new());
    };
    let dir = results_dir()?;
    let events = format!("{id}_events.jsonl");
    let events_path = dir.join(&events);
    write_artifact(&events_path, &tracer.to_jsonl())?;

    let mut manifest = String::from("{\"experiment\":");
    encode::json_string(&mut manifest, id);
    manifest.push_str(&format!(
        ",\"events_recorded\":{},\"events_dropped\":{},\"events_retained\":{},\"artifacts\":[",
        tracer.recorded(),
        tracer.dropped(),
        tracer.len()
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

    #[test]
    fn disabled_handle_writes_nothing() {
        assert!(write_artifacts_from("noop", &Telemetry::disabled())
            .unwrap()
            .is_empty());
    }

    fn probe() -> TraceEvent {
        TraceEvent::Probe {
            attack: "demo",
            latency: 2,
            hit: true,
        }
    }

    #[test]
    fn artifacts_cover_all_sinks() {
        crate::output::test_results_dir();
        let tel = Telemetry::enabled();
        tel.emit_at(7, probe());
        let written = write_artifacts_from("unit_demo", &tel).unwrap();
        assert_eq!(written.len(), 2);
        let events = std::fs::read_to_string(&written[0]).unwrap();
        assert_eq!(events, tel.tracer().unwrap().to_jsonl());
        let manifest = std::fs::read_to_string(&written[1]).unwrap();
        assert_eq!(
            manifest,
            "{\"experiment\":\"unit_demo\",\"events_recorded\":1,\"events_dropped\":0,\
             \"events_retained\":1,\"artifacts\":[\"unit_demo_events.jsonl\"]}"
        );
    }

    #[test]
    fn current_handle_is_swappable() {
        disable();
        assert!(!current().is_enabled());
        let tel = enable();
        assert!(current().is_enabled());
        current().emit_at(1, probe());
        assert_eq!(tel.tracer().unwrap().len(), 1);
        disable();
        assert!(!current().is_enabled());
    }
}
