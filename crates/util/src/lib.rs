//! # hardsnap-util
//!
//! Zero-dependency infrastructure shared by every HardSnap crate, so the
//! whole workspace builds and tests fully offline (`cargo build
//! --offline` with an empty registry cache).
//!
//! The paper's central claim is *reproducibility* of combined HW/SW
//! state; that property is only testable when the test stimulus itself
//! is reproducible. Everything here is deterministic and seedable:
//!
//! * [`rng`] — a SplitMix64-seeded xoshiro256\*\* PRNG with a
//!   `rand`-like surface (`next_u32`/`next_u64`, `gen`, `gen_range`,
//!   `gen_bool`, `fill_bytes`, `choose`);
//! * [`prop`] — a minimal property-testing harness ([`prop_check!`]):
//!   N seeded cases, shrink-by-halving on integer/vec inputs, failures
//!   reproduce from a printed seed;
//! * [`sync`] — `std::sync` wrappers with `parking_lot`-style
//!   infallible `lock()`/`read()`/`write()` plus `std::sync::mpsc`
//!   re-exports;
//! * [`bench`](mod@bench) — `Instant`-based micro-bench timers
//!   (warmup + median-of-k) with a criterion-shaped facade so bench
//!   files only change their imports;
//! * [`json`] — a minimal JSON reader/writer so tests and CI can
//!   validate the artifacts the workspace emits (Chrome traces,
//!   metrics dumps, `BENCH_*.json`) without `serde_json`.

#![warn(missing_docs)]

pub mod bench;
pub mod json;
pub mod prop;
pub mod rng;
pub mod sync;

pub use rng::Rng;
