//! Observability layer for the CCN coordinated-caching suite.
//!
//! The paper's evaluation (Tables I–IV, Figures 4–13) lives or dies on
//! trustworthy measurements, and a production-scale serving system is
//! unoperable without first-class observability. This crate is the
//! single place the rest of the workspace reports through:
//!
//! - [`trace`] — a structured tracing facade: [`Tracer`] hands out
//!   [`Span`] guards that record enter/exit monotonic timestamps into a
//!   shared [`TraceSink`]. A disabled tracer costs one branch per span;
//!   the `off` cargo feature compiles recording away entirely.
//! - [`metrics`] — a metrics registry: [`Counter`], [`Gauge`], and
//!   fixed-bucket [`Histogram`]s whose percentile queries come with a
//!   provable containment interval ([`Histogram::percentile_bounds`]).
//! - [`json`] — a dependency-free JSON value type ([`Json`]) with a
//!   serializer (non-finite floats become `null`, strings are fully
//!   escaped) and a round-trip parser. The workspace has no route to
//!   crates.io, so this module is the single serde path every report
//!   and manifest serializes through.
//! - [`manifest`] — [`RunManifest`]: the JSON header every benchmark
//!   binary and the `ccn` CLI emit, capturing seed, requested and
//!   effective thread counts, available cores, git revision, smoke
//!   flag, per-phase wall/throughput timings ([`PhaseClock`]), and the
//!   serving runs' `engine_*` sections, each checked against one
//!   static field table.
//!
//! # Example
//!
//! ```
//! use ccn_obs::{Histogram, Tracer};
//!
//! let (tracer, sink) = Tracer::collecting();
//! let mut hist = Histogram::latency_ms();
//! {
//!     let _span = tracer.span("work");
//!     hist.observe(3.5);
//! }
//! # #[cfg(not(feature = "off"))]
//! assert_eq!(sink.count("work"), 1);
//! assert_eq!(hist.count(), 1);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod json;
pub mod manifest;
pub mod metrics;
pub mod trace;

pub use json::{Json, JsonError, ToJson};
pub use manifest::{
    available_cores, effective_threads, git_describe, ManifestError, PhaseClock, PhaseTiming,
    RunManifest, MANIFEST_SCHEMA,
};
pub use metrics::{Counter, Gauge, Histogram, Metric, Registry};
pub use trace::{Span, SpanRecord, TraceSink, Tracer};
