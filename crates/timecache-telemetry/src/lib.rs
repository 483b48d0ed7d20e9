//! # timecache-telemetry
//!
//! Zero-dependency observability for the TimeCache reproduction:
//!
//! * a bounded, typed event [`Tracer`] (ring buffer + JSONL export) of the
//!   rare events that explain a number: context-switch saves and restores,
//!   rollover resets, attacker probes, injected faults and invariant
//!   violations;
//! * the [`Telemetry`] handle around it, cheap to pass everywhere: when
//!   disabled it is a `None` and every emit site short-circuits without
//!   touching the heap;
//! * a log2-bucketed latency [`Histogram`] for attacker threshold
//!   calibration;
//! * [`encode`], the JSON and CSV escaping every artifact writer shares.
//!
//! `timecache-os` and `timecache-attacks` emit events through a
//! [`Telemetry`]; the bench harness writes the event log and a manifest
//! into `results/` next to each experiment's CSV. Counts are not kept
//! here: each simulated run's counts are fields of its metrics, which the
//! harness writes one line per run.
//!
//! # Quick start
//!
//! ```
//! use timecache_telemetry::{Telemetry, TraceEvent};
//!
//! let tel = Telemetry::enabled();
//! tel.emit_at(100, TraceEvent::Probe { attack: "demo", latency: 2, hit: true });
//! assert_eq!(tel.tracer().unwrap().len(), 1);
//! assert!(tel.tracer().unwrap().to_jsonl().contains("\"type\":\"probe\""));
//!
//! // Disabled telemetry: every call is a cheap no-op.
//! let off = Telemetry::disabled();
//! off.emit_at(100, TraceEvent::Probe { attack: "demo", latency: 2, hit: true });
//! assert!(off.tracer().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod histogram;
pub mod trace;

pub use histogram::{Histogram, HISTOGRAM_BUCKETS};
pub use trace::{EventRecord, ServedBy, TraceEvent, Tracer};

use std::cell::Cell;
use std::rc::Rc;

/// Default event-ring capacity for [`Telemetry::enabled`].
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

#[derive(Debug)]
struct TelemetryInner {
    tracer: Tracer,
    /// Whether [`Telemetry::emit_at`] records anything. Defaults to true.
    trace_events: Cell<bool>,
}

/// The top-level telemetry handle.
///
/// Cloning is cheap and shares the underlying event log. The default
/// handle is *disabled*: [`Telemetry::emit_at`] is then one branch, and
/// [`Telemetry::tracer`] returns `None`.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Rc<TelemetryInner>>,
}

impl Telemetry {
    /// A disabled handle: all operations are no-ops.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// An enabled handle with the default trace capacity.
    pub fn enabled() -> Self {
        Telemetry::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled handle retaining at most `capacity` trace events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Telemetry {
            inner: Some(Rc::new(TelemetryInner {
                tracer: Tracer::with_capacity(capacity),
                trace_events: Cell::new(true),
            })),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The event tracer, if enabled.
    #[inline]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.inner.as_deref().map(|i| &i.tracer)
    }

    /// Whether trace-event emission is on (false when disabled).
    #[inline]
    pub fn trace_events(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.trace_events.get())
    }

    /// Turns trace-event emission on or off. Off, [`Telemetry::emit_at`]
    /// is a no-op on an enabled handle. No-op when disabled; emission
    /// defaults to on.
    pub fn set_trace_events(&self, on: bool) {
        if let Some(inner) = &self.inner {
            inner.trace_events.set(on);
        }
    }

    /// Records `event` at simulated cycle `cycle`. No-op when disabled or when
    /// trace events are off ([`Telemetry::set_trace_events`]).
    #[inline]
    pub fn emit_at(&self, cycle: u64, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            if inner.trace_events.get() {
                inner.tracer.record(cycle, event);
            }
        }
    }

    /// Captures this handle's event log — the retained events and the drop
    /// count — as owned plain data. The result is `Send` even
    /// though `Telemetry` itself is not (its sinks are `Rc`-shared), which
    /// is what lets a worker thread run with its own enabled handle and
    /// ship the recordings back for [`Telemetry::absorb`] at join time.
    /// A disabled handle snapshots to an empty (no-op) value.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        match &self.inner {
            None => TelemetrySnapshot::default(),
            Some(inner) => TelemetrySnapshot {
                events: inner.tracer.records(),
                events_dropped: inner.tracer.dropped(),
            },
        }
    }

    /// Folds a snapshot into this handle: dropped events count as recorded
    /// and dropped here, and retained events are re-recorded at their
    /// original cycles (fresh sequence numbers). No-op when disabled.
    pub fn absorb(&self, snap: &TelemetrySnapshot) {
        let Some(inner) = &self.inner else { return };
        inner.tracer.skip(snap.events_dropped);
        for rec in &snap.events {
            inner.tracer.record(rec.cycle, rec.event);
        }
    }
}

/// A thread-transferable (`Send`) copy of a [`Telemetry`] handle's state at
/// one instant. Produced by [`Telemetry::snapshot`], consumed by
/// [`Telemetry::absorb`]. The default value is empty and absorbs as a
/// no-op.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    events: Vec<EventRecord>,
    /// Events the source tracer overwrote before the snapshot.
    events_dropped: u64,
}

impl TelemetrySnapshot {
    /// Whether the snapshot carries no events at all (taken from a
    /// disabled handle, or an enabled handle that never recorded).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(latency: u64) -> TraceEvent {
        TraceEvent::Probe {
            attack: "x",
            latency,
            hit: latency < 10,
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(t.tracer().is_none());
        t.emit_at(5, probe(1));
    }

    #[test]
    fn clones_share_sinks() {
        let t = Telemetry::enabled();
        let u = t.clone();
        u.emit_at(7, probe(1));
        assert_eq!(t.tracer().unwrap().records()[0].cycle, 7);
    }

    #[test]
    fn snapshot_round_trips_across_threads() {
        fn assert_send<T: Send>() {}
        assert_send::<TelemetrySnapshot>();

        // Worker thread records into its own handle and ships a snapshot.
        let snap = std::thread::spawn(|| {
            let tel = Telemetry::enabled();
            tel.emit_at(5, probe(3));
            tel.snapshot()
        })
        .join()
        .unwrap();
        assert!(!snap.is_empty());

        let main = Telemetry::enabled();
        main.emit_at(1, probe(2));
        main.absorb(&snap);
        let records = main.tracer().unwrap().records();
        assert_eq!(records.len(), 2);
        assert_eq!((records[1].seq, records[1].cycle), (1, 5));
        assert_eq!(records[1].event, probe(3));
    }

    #[test]
    fn disabled_handle_snapshot_and_absorb_are_noops() {
        let off = Telemetry::disabled();
        assert!(off.snapshot().is_empty());
        let on = Telemetry::enabled();
        on.emit_at(1, probe(1));
        off.absorb(&on.snapshot()); // must not panic
        assert!(!off.is_enabled());
    }

    #[test]
    fn trace_events_toggle_gates_emission_only() {
        let t = Telemetry::enabled();
        assert!(t.trace_events());
        t.set_trace_events(false);
        assert!(!t.trace_events());
        t.emit_at(9, probe(1));
        // Events suppressed; the handle stays enabled.
        assert_eq!(t.tracer().unwrap().len(), 0);
        assert!(t.is_enabled());
        t.set_trace_events(true);
        t.emit_at(9, probe(1));
        assert_eq!(t.tracer().unwrap().len(), 1);

        // A disabled handle reports off and tolerates the setter.
        let off = Telemetry::disabled();
        assert!(!off.trace_events());
        off.set_trace_events(true);
        assert!(!off.trace_events());
    }
}
