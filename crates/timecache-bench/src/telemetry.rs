//! Run-scoped telemetry for the experiment harness.
//!
//! The harness keeps one [`Telemetry`] handle per *thread* (each simulated
//! run is single-threaded; sweeps parallelize across runs).
//! [`crate::runner`] hands the thread's current handle to every
//! [`timecache_os::System`] it builds, so enabling telemetry before an
//! experiment makes the entire run observable without threading a handle
//! through every experiment signature. Parallel sweeps via [`crate::sweep`]
//! run each job under its own enabled handle and merge the jobs'
//! snapshots back into the caller's handle in job order, so every artifact
//! below equals a serial run's. After the run, [`write_artifacts`]
//! snapshots everything into [`crate::output::results_dir`]:
//!
//! * `<id>_metrics.prom` — Prometheus text exposition of all counters,
//!   gauges, and histograms;
//! * `<id>_metrics.json` — the same registry as JSON;
//! * `<id>_events.jsonl` — the event log of context-switch saves and
//!   restores, rollover resets, probes, injected faults and invariant
//!   violations, one JSON object per line;
//! * `<id>_profile.json` — per-process / per-context phase cycles;
//! * `<id>_manifest.json` — the run manifest tying the artifacts together
//!   (experiment id, event counts, artifact list).

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

/// Writes the current telemetry state as artifacts named after `id` under
/// [`results_dir`] with [`write_artifact`], returning the written paths. A disabled handle writes
/// nothing and returns an empty list.
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
    let (Some(reg), Some(tracer), Some(prof)) = (tel.registry(), tel.tracer(), tel.profiler())
    else {
        return Ok(Vec::new());
    };
    let dir = results_dir()?;
    let mut written = Vec::new();
    for (suffix, body) in [
        ("metrics.prom", reg.render_prometheus()),
        ("metrics.json", reg.render_json()),
        ("events.jsonl", tracer.to_jsonl()),
        ("profile.json", prof.render_json()),
    ] {
        let path = dir.join(format!("{id}_{suffix}"));
        write_artifact(&path, &body)?;
        written.push(path);
    }

    let mut manifest = String::from("{");
    encode::json_string(&mut manifest, "experiment");
    manifest.push(':');
    encode::json_string(&mut manifest, id);
    manifest.push_str(&format!(
        ",\"events_recorded\":{},\"events_dropped\":{},\"events_retained\":{}",
        tracer.recorded(),
        tracer.dropped(),
        tracer.len()
    ));
    manifest.push_str(",\"artifacts\":[");
    for (i, path) in written.iter().enumerate() {
        if i > 0 {
            manifest.push(',');
        }
        encode::json_string(&mut manifest, &path.file_name().unwrap().to_string_lossy());
    }
    manifest.push_str("]}");
    let path = dir.join(format!("{id}_manifest.json"));
    write_artifact(&path, &manifest)?;
    written.push(path);
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_writes_nothing() {
        assert!(write_artifacts_from("noop", &Telemetry::disabled())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn artifacts_cover_all_sinks() {
        crate::output::test_results_dir();
        let tel = Telemetry::enabled();
        tel.registry()
            .unwrap()
            .counter("demo_total", "Demo.", &[])
            .add(3);
        tel.emit_at(
            7,
            timecache_telemetry::TraceEvent::Probe {
                attack: "demo",
                latency: 2,
                hit: true,
            },
        );
        let written = write_artifacts_from("unit_demo", &tel).unwrap();
        assert_eq!(written.len(), 5);
        let prom = std::fs::read_to_string(&written[0]).unwrap();
        assert!(prom.contains("demo_total 3"));
        let manifest = std::fs::read_to_string(written.last().unwrap()).unwrap();
        assert!(manifest.contains("\"experiment\":\"unit_demo\""));
        assert!(manifest.contains("\"events_recorded\":1"));
        assert!(manifest.contains("unit_demo_events.jsonl"));
    }

    #[test]
    fn current_handle_is_swappable() {
        disable();
        assert!(!current().is_enabled());
        let tel = enable();
        assert!(current().is_enabled());
        tel.registry().unwrap().counter("x_total", "x", &[]).inc();
        assert_eq!(
            current().registry().unwrap().counter_value("x_total", &[]),
            Some(1)
        );
        disable();
        assert!(!current().is_enabled());
    }
}
