//! # hardsnap-serve
//!
//! The campaign service: a daemon that multiplexes many concurrent
//! analysis campaigns over a **bounded pool of target replicas**, the
//! operational layer the paper's multi-target orchestration (§III-B)
//! implies but never builds. One lab has a handful of boards; a CI
//! fleet has many queued firmware images. This crate arbitrates between
//! them:
//!
//! * **Jobs with hard budgets** — virtual time, scheduling quanta,
//!   instruction count, a wall-clock deadline and a snapshot-store byte
//!   budget, all enforced *cooperatively* by the engine at quantum
//!   boundaries (never a kill), so the partial [`hardsnap::RunResult`]
//!   and its campaign checkpoint stay valid and resumable. The
//!   wall-clock deadline is fixed once per job and bounds every leg and
//!   every repeat attempt; a client's `cancel` stops a job the same
//!   way, through [`hardsnap::CancelToken`].
//! * **Admission control** — a job is admitted only when the replica
//!   pool and the bounded queue have room; otherwise the submission is
//!   rejected with the typed [`ServeError::Saturated`], never silently
//!   dropped or unboundedly queued.
//! * **Crash safety** — every accepted job is journaled to the state
//!   directory before it is acknowledged, and every leg of progress is
//!   checkpointed as one campaign file committed by
//!   [`hardsnap_bus::persist::write_atomic`] (tmp + fsync + rename).
//!   `kill -9` the daemon at any instant, restart it, and every
//!   in-flight campaign resumes and finishes with a canonical digest
//!   **bit-identical** to an uninterrupted run.
//! * **Flaky-run detection** — a completed job can be re-executed
//!   `repeat` times with re-seeded fault plans on its own replica
//!   allocation; digest divergence is reported as `flaky` (with the
//!   first diverging state id) vs `stable`, with CI-friendly exit
//!   codes.
//! * **Warm prototypes** — every replica a job runs is a power-on fork
//!   of one prototype of the design, built by
//!   [`runner::build_prototype`]. With `--warm-pool N` the daemon keeps
//!   N prototypes built ([`WarmPool`]) so a job skips the SoC build;
//!   where its prototype came from never changes a digest.
//!
//! The wire protocol is newline-delimited JSON over a unix socket (or
//! stdio), built on the in-tree [`hardsnap_util::json`] reader/writer —
//! the workspace stays fully offline, no serde. 64-bit digests travel
//! as hex *strings* (`"0x…"`): JSON numbers are f64 and exact only to
//! 2^53.

#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod events;
pub mod job;
pub mod pool;
pub mod proto;
pub mod runner;

pub use client::{Client, EventStream};
pub use daemon::{Daemon, DaemonConfig, SchedPolicy};
pub use events::{Event, EventBody, EventBus, Subscription};
pub use job::{DaemonStats, JobSpec, JobState, JobSummary, Verdict};
pub use pool::{Lease, PoolStats, WarmPool};
pub use proto::{Request, Response};

use std::fmt;

/// Errors from the campaign service, client or daemon side.
#[derive(Debug)]
pub enum ServeError {
    /// The daemon cannot admit the job: the replica pool plus the
    /// bounded submission queue are full (or the job wants more
    /// replicas than the pool holds). The typed face of back-pressure —
    /// callers retry later or scale the pool; nothing was enqueued.
    Saturated {
        /// Why admission failed, human-readable.
        reason: String,
    },
    /// Filesystem or socket failure.
    Io(String),
    /// A malformed request, response or job file.
    Protocol(String),
    /// A job-level failure (bad firmware spec, engine error).
    Job(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Saturated { reason } => write!(f, "saturated: {reason}"),
            ServeError::Io(m) => write!(f, "serve I/O: {m}"),
            ServeError::Protocol(m) => write!(f, "serve protocol: {m}"),
            ServeError::Job(m) => write!(f, "job: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<hardsnap_bus::PersistError> for ServeError {
    fn from(e: hardsnap_bus::PersistError) -> Self {
        ServeError::Io(e.to_string())
    }
}

/// Formats a 64-bit digest for the wire (hex string, exact — JSON
/// numbers are f64).
pub fn digest_hex(d: u64) -> String {
    format!("{d:#018x}")
}
