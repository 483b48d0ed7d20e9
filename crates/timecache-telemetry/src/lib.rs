//! # timecache-telemetry
//!
//! Zero-dependency observability for the TimeCache reproduction:
//!
//! * a bounded, typed event [`Tracer`] (ring buffer + JSONL export) of the
//!   rare events that explain a number: context-switch saves and restores,
//!   rollover resets, injected and detected faults, and a run's first
//!   invariant violation;
//! * the [`Telemetry`] handle around it, cheap to pass everywhere: when
//!   disabled it is a `None` and every emit site short-circuits without
//!   touching the heap;
//! * [`encode`], the JSON and CSV escaping every artifact writer shares.
//!
//! `timecache-os` emits events through a [`Telemetry`]. The bench harness gives each simulated run its own
//! enabled handle, keeps the run's events beside its metrics, and writes
//! every run's events with [`trace::to_jsonl`] into `results/` next to
//! each experiment's CSV. Counts are not kept here: each simulated run's
//! counts are fields of its metrics, which the harness writes one line per
//! run.
//!
//! # Quick start
//!
//! ```
//! use timecache_telemetry::{trace, Telemetry, TraceEvent};
//!
//! let tel = Telemetry::enabled();
//! tel.emit_at(100, TraceEvent::SwitchSave { core: 0, thread: 0, pid: 1 });
//! let records = tel.tracer().unwrap().records();
//! assert_eq!(records.len(), 1);
//! assert!(trace::to_jsonl(&[records]).starts_with("{\"run\":0,\"seq\":0,\"cycle\":100,\"type\":\"switch_save\""));
//!
//! // Disabled telemetry: every call is a cheap no-op.
//! let off = Telemetry::disabled();
//! off.emit_at(100, TraceEvent::SwitchSave { core: 0, thread: 0, pid: 1 });
//! assert!(off.tracer().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod trace;

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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn save(pid: u32) -> TraceEvent {
        TraceEvent::SwitchSave {
            core: 0,
            thread: 0,
            pid,
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(t.tracer().is_none());
        t.emit_at(5, save(1));
    }

    #[test]
    fn clones_share_sinks() {
        let t = Telemetry::enabled();
        let u = t.clone();
        u.emit_at(7, save(1));
        assert_eq!(t.tracer().unwrap().records()[0].cycle, 7);
    }

    #[test]
    fn trace_events_toggle_gates_emission_only() {
        let t = Telemetry::enabled();
        t.set_trace_events(false);
        t.emit_at(9, save(1));
        // Events suppressed; the handle stays enabled.
        assert_eq!(t.tracer().unwrap().len(), 0);
        assert!(t.is_enabled());
        t.set_trace_events(true);
        t.emit_at(9, save(1));
        assert_eq!(t.tracer().unwrap().len(), 1);

        // A disabled handle tolerates the setter and stays disabled.
        let off = Telemetry::disabled();
        off.set_trace_events(true);
        off.emit_at(9, save(1));
        assert!(off.tracer().is_none());
    }
}
