//! # hardsnap-telemetry
//!
//! Structured observability for the HardSnap reproduction: where does
//! the time go — snapshot capture/restore, scan shifting, context
//! switches, fault recovery, or symbolic execution? (The paper's §V
//! cost breakdown asks exactly this.)
//!
//! Three primitives, recorded through a per-worker [`Recorder`]:
//!
//! * **counters** — monotonically increasing event tallies, indexed by
//!   the [`Counter`] enum for hot-path speed (one array slot, one
//!   relaxed atomic add);
//! * **histograms** — log2-bucketed distributions ([`Metric`]), used
//!   for both *virtual-time* latencies (deterministic, from the target
//!   cost models) and value distributions like quantum sizes;
//! * **spans** — begin/end intervals stamped with *wall-clock* time
//!   and a track id (worker replica), exported in Chrome
//!   `trace_event` format for Perfetto / `about://tracing`.
//!
//! ## Zero-cost when disabled, deterministic when enabled
//!
//! A disabled `Recorder` is `None` inside: every record call is one
//! branch on an `Option` discriminant and no `Instant::now()` is ever
//! taken. Crucially, telemetry is **observe-only**: nothing the
//! recorder collects feeds back into engine decisions, so canonical
//! digests are bit-identical with telemetry on or off, at any worker
//! count. Wall-clock values exist only in the exporter side-channel.
//!
//! Configuration is parsed once from `HARDSNAP_TELEMETRY` (see
//! [`TelemetryConfig`]).

#![warn(missing_docs)]

mod config;
mod export;
mod flight;
mod prom;
mod recorder;

pub use config::{global, TelemetryConfig};
pub use export::MetricsSnapshot;
pub use flight::{validate_flight_dump, FlightEntry, FlightRecorder};
pub use prom::{
    parse_prometheus, prom_name, prometheus_text, validate_exposition, PromError, PromFamily,
    PromSample,
};
pub use recorder::{
    bucket_index, bucket_lower_bound, Counter, FaultClass, HistSnapshot, Metric, Recorder,
    SpanEvent, SpanGuard,
};
