//! # timecache-telemetry
//!
//! Zero-dependency observability spine for the TimeCache reproduction:
//!
//! * a [`Registry`] of labeled counters, gauges, and log-bucketed latency
//!   [`Histogram`]s with Prometheus-text and JSON exposition;
//! * a bounded, typed event [`Tracer`] (ring buffer + JSONL export) whose
//!   monotonic sequence numbers make traces record/replay-friendly;
//! * a [`Profiler`] attributing simulated cycles to phases (compute,
//!   memory stall, switch cost) per process and per hardware context;
//! * the [`Telemetry`] handle that bundles all three and is cheap to pass
//!   everywhere: when disabled it is a `None` and every instrumentation
//!   site short-circuits without touching the heap.
//!
//! The simulator crates (`timecache-sim`, `timecache-os`,
//! `timecache-attacks`, `timecache-bench`) all take a [`Telemetry`] and
//! report through it; the bench harness snapshots the registry and trace
//! into `results/` next to each experiment's CSV.
//!
//! # Quick start
//!
//! ```
//! use timecache_telemetry::{Telemetry, TraceEvent, Phase, Scope};
//!
//! let tel = Telemetry::enabled();
//! if let Some(reg) = tel.registry() {
//!     reg.counter("events_total", "Total events.", &[]).inc();
//! }
//! tel.emit_at(100, TraceEvent::Probe { attack: "demo", latency: 2, hit: true });
//! if let Some(p) = tel.profiler() {
//!     p.record(Scope::Process(0), Phase::Compute, 42);
//! }
//!
//! let prom = tel.registry().unwrap().render_prometheus();
//! assert!(prom.contains("events_total 1"));
//! assert_eq!(tel.tracer().unwrap().len(), 1);
//!
//! // Disabled telemetry: every call is a cheap no-op.
//! let off = Telemetry::disabled();
//! off.emit_at(100, TraceEvent::Probe { attack: "demo", latency: 2, hit: true });
//! assert!(off.registry().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod profile;
pub mod registry;
pub mod trace;

pub use profile::{Phase, PhaseCycles, ProfileSnapshot, Profiler, Scope};
pub use registry::{Counter, Gauge, Histogram, Registry, RegistrySnapshot, HISTOGRAM_BUCKETS};
pub use trace::{EventRecord, ServedBy, TraceEvent, Tracer};

use std::cell::Cell;
use std::rc::Rc;

/// Default event-ring capacity for [`Telemetry::enabled`].
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

#[derive(Debug)]
struct TelemetryInner {
    registry: Registry,
    tracer: Tracer,
    profiler: Profiler,
    /// Whether [`Telemetry::emit_at`] records anything. Defaults to true;
    /// a counter-only measurement can turn it off. Counters and histograms
    /// are unaffected.
    trace_events: Cell<bool>,
}

/// The top-level telemetry handle.
///
/// Cloning is cheap and shares the underlying sinks. The default handle is
/// *disabled*: instrumentation sites check [`Telemetry::is_enabled`] (or
/// get `None` from the accessors) and skip all work, keeping the simulator
/// hot path allocation-free and branch-cheap.
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
                registry: Registry::new(),
                tracer: Tracer::with_capacity(capacity),
                profiler: Profiler::new(),
                trace_events: Cell::new(true),
            })),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The metrics registry, if enabled.
    #[inline]
    pub fn registry(&self) -> Option<&Registry> {
        self.inner.as_deref().map(|i| &i.registry)
    }

    /// The event tracer, if enabled.
    #[inline]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.inner.as_deref().map(|i| &i.tracer)
    }

    /// The phase profiler, if enabled.
    #[inline]
    pub fn profiler(&self) -> Option<&Profiler> {
        self.inner.as_deref().map(|i| &i.profiler)
    }

    /// Whether trace-event emission is on (false when disabled).
    #[inline]
    pub fn trace_events(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.trace_events.get())
    }

    /// Turns trace-event emission on or off. Off, [`Telemetry::emit_at`]
    /// is a no-op while counters, histograms, gauges, and the profiler keep
    /// recording exactly, so a measurement can time the counter sinks
    /// alone. No-op when disabled; emission defaults to on.
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

    /// Captures this handle's full state — registry, retained events, and
    /// profile tables — as owned plain data. The result is `Send` even
    /// though `Telemetry` itself is not (its sinks are `Rc`-shared), which
    /// is what lets a worker thread run with its own enabled handle and
    /// ship the recordings back for [`Telemetry::absorb`] at join time.
    /// A disabled handle snapshots to an empty (no-op) value.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        match &self.inner {
            None => TelemetrySnapshot::default(),
            Some(inner) => TelemetrySnapshot {
                registry: Some(inner.registry.snapshot()),
                events: inner.tracer.records(),
                events_dropped: inner.tracer.dropped(),
                profile: Some(inner.profiler.snapshot()),
            },
        }
    }

    /// Folds a snapshot into this handle: counters/histograms add, gauges
    /// adopt the snapshot value, dropped events count as recorded and
    /// dropped here, retained events are re-recorded at their original
    /// cycles (fresh sequence numbers), and profile tables add element-wise
    /// (see [`Registry::merge`] and [`Profiler::merge`]). No-op when disabled.
    pub fn absorb(&self, snap: &TelemetrySnapshot) {
        let Some(inner) = &self.inner else { return };
        if let Some(reg) = &snap.registry {
            inner.registry.merge(reg);
        }
        inner.tracer.skip(snap.events_dropped);
        for rec in &snap.events {
            inner.tracer.record(rec.cycle, rec.event);
        }
        if let Some(profile) = &snap.profile {
            inner.profiler.merge(profile);
        }
    }
}

/// A thread-transferable (`Send`) copy of a [`Telemetry`] handle's state at
/// one instant. Produced by [`Telemetry::snapshot`], consumed by
/// [`Telemetry::absorb`]. The default value is empty and absorbs as a
/// no-op.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    registry: Option<RegistrySnapshot>,
    events: Vec<EventRecord>,
    /// Events the source tracer overwrote before the snapshot.
    events_dropped: u64,
    profile: Option<ProfileSnapshot>,
}

impl TelemetrySnapshot {
    /// Whether the snapshot carries no recordings at all (taken from a
    /// disabled handle, or an enabled handle that never recorded).
    pub fn is_empty(&self) -> bool {
        self.registry
            .as_ref()
            .is_none_or(RegistrySnapshot::is_empty)
            && self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(t.registry().is_none());
        assert!(t.tracer().is_none());
        assert!(t.profiler().is_none());
        t.emit_at(
            5,
            TraceEvent::Probe {
                attack: "x",
                latency: 1,
                hit: true,
            },
        );
    }

    #[test]
    fn clones_share_sinks() {
        let t = Telemetry::enabled();
        let u = t.clone();
        t.registry().unwrap().counter("c_total", "c", &[]).inc();
        assert_eq!(u.registry().unwrap().counter_value("c_total", &[]), Some(1));
        u.emit_at(
            7,
            TraceEvent::Probe {
                attack: "x",
                latency: 1,
                hit: false,
            },
        );
        assert_eq!(t.tracer().unwrap().records()[0].cycle, 7);
    }

    #[test]
    fn snapshot_round_trips_across_threads() {
        fn assert_send<T: Send>() {}
        assert_send::<TelemetrySnapshot>();

        // Worker thread records into its own handle and ships a snapshot.
        let snap = std::thread::spawn(|| {
            let tel = Telemetry::enabled();
            tel.registry()
                .unwrap()
                .counter("jobs_total", "jobs", &[])
                .add(2);
            tel.emit_at(
                5,
                TraceEvent::Probe {
                    attack: "t",
                    latency: 3,
                    hit: true,
                },
            );
            tel.profiler()
                .unwrap()
                .record(Scope::Process(0), Phase::Compute, 9);
            tel.snapshot()
        })
        .join()
        .unwrap();
        assert!(!snap.is_empty());

        let main = Telemetry::enabled();
        main.registry()
            .unwrap()
            .counter("jobs_total", "jobs", &[])
            .add(1);
        main.absorb(&snap);
        assert_eq!(
            main.registry().unwrap().counter_value("jobs_total", &[]),
            Some(3)
        );
        assert_eq!(main.tracer().unwrap().records()[0].cycle, 5);
        assert_eq!(
            main.profiler()
                .unwrap()
                .process_cycles(0)
                .get(Phase::Compute),
            9
        );
    }

    #[test]
    fn disabled_handle_snapshot_and_absorb_are_noops() {
        let off = Telemetry::disabled();
        assert!(off.snapshot().is_empty());
        let on = Telemetry::enabled();
        on.registry().unwrap().counter("c_total", "c", &[]).inc();
        off.absorb(&on.snapshot()); // must not panic
        assert!(!off.is_enabled());
    }

    #[test]
    fn trace_events_toggle_gates_emission_only() {
        let t = Telemetry::enabled();
        assert!(t.trace_events());
        t.set_trace_events(false);
        assert!(!t.trace_events());
        t.emit_at(
            9,
            TraceEvent::Probe {
                attack: "x",
                latency: 1,
                hit: true,
            },
        );
        // Events suppressed; counters unaffected.
        assert_eq!(t.tracer().unwrap().len(), 0);
        t.registry().unwrap().counter("c_total", "c", &[]).inc();
        assert_eq!(t.registry().unwrap().counter_value("c_total", &[]), Some(1));
        t.set_trace_events(true);
        t.emit_at(
            9,
            TraceEvent::Probe {
                attack: "x",
                latency: 1,
                hit: true,
            },
        );
        assert_eq!(t.tracer().unwrap().len(), 1);

        // A disabled handle reports off and tolerates the setter.
        let off = Telemetry::disabled();
        assert!(!off.trace_events());
        off.set_trace_events(true);
        assert!(!off.trace_events());
    }
}
