//! The warm replica pool: pre-built prototypes leased to jobs so
//! turnaround skips the cold SoC build.
//!
//! Building a prototype means parsing the SoC's Verilog, elaborating
//! it and compiling the bytecode engine — by far the largest fixed cost
//! of a short job. The pool pays that cost once per prototype, **off
//! the job critical path**: [`WarmPool::new`] builds its N prototypes
//! with [`build_prototype`] on N threads at once. A lease gives a job
//! exclusive use of one prototype, and the job forks every replica it
//! runs from it via [`HwTarget::fork_clean`] — sharing the compiled
//! design, which is the entire win. Dropping the lease pushes the
//! prototype straight back under the pool mutex: there is nothing to
//! restore, because a fork starts at power-on whatever state its parent
//! is in.
//!
//! ## Digest invariance
//!
//! [`HwTarget::fork_clean`] yields a *power-on* replica regardless of
//! the prototype's current state, exactly what a cold build constructs
//! — so a job that leased a prototype and a job that built its own
//! digest bit-identically (pinned by the fork tests of the simulator
//! and FPGA targets, the runner tests and `exp_sched`).

use crate::runner::build_prototype;
use hardsnap::HwTarget;
use hardsnap_telemetry::{Counter, Recorder};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Live occupancy, for gauges and `top`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured pool size.
    pub target: u64,
    /// Prototypes ready to lease.
    pub ready: u64,
    /// Prototypes currently leased to running jobs.
    pub leased: u64,
    /// Prototypes still being built.
    pub building: u64,
}

struct PoolState {
    ready: Vec<Box<dyn HwTarget>>,
    leased: usize,
    building: usize,
}

struct Shared {
    state: Mutex<PoolState>,
    changed: Condvar,
    rec: Recorder,
    target: usize,
}

impl Shared {
    /// Applies `f` under the pool mutex and wakes every waiter. Never
    /// panics on a poisoned mutex, so a lease can return its prototype
    /// from `drop`: no holder of the mutex leaves the state half-updated.
    fn update(&self, f: impl FnOnce(&mut PoolState)) {
        f(&mut self.state.lock().unwrap_or_else(PoisonError::into_inner));
        self.changed.notify_all();
    }
}

/// The pool. The daemon owns one when `--warm-pool` is nonzero.
pub struct WarmPool {
    shared: Arc<Shared>,
    /// The build threads, joined on drop.
    builders: Vec<JoinHandle<()>>,
}

/// A leased prototype. The job forks its replicas from it; dropping the
/// lease returns the prototype to the pool.
pub struct Lease {
    proto: Option<Box<dyn HwTarget>>,
    shared: Arc<Shared>,
}

impl Lease {
    /// The prototype to fork replicas from.
    pub fn prototype(&self) -> &dyn HwTarget {
        self.proto.as_deref().expect("lease holds its prototype")
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if let Some(proto) = self.proto.take() {
            self.shared.update(|g| {
                g.leased -= 1;
                g.ready.push(proto);
            });
        }
    }
}

impl WarmPool {
    /// Starts building `replicas` prototypes, one thread each, and
    /// returns immediately; prototypes become leasable as their builds
    /// finish (watch with [`WarmPool::wait_ready`]).
    pub fn new(replicas: usize, rec: Recorder) -> WarmPool {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                ready: Vec::with_capacity(replicas),
                leased: 0,
                building: replicas,
            }),
            changed: Condvar::new(),
            rec,
            target: replicas,
        });
        let builders = (0..replicas)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let built = build_prototype();
                    if let Err(e) = &built {
                        eprintln!("hardsnap-serve: warm-pool build failed: {e}");
                    }
                    shared.update(|g| {
                        g.building -= 1;
                        g.ready.extend(built.ok());
                    });
                })
            })
            .collect();
        WarmPool { shared, builders }
    }

    /// Leases a ready prototype, or `None` (counted as a pool miss)
    /// when every prototype is leased or still being built — the caller
    /// then builds one cold, so a miss costs latency, never correctness.
    pub fn try_lease(&self) -> Option<Lease> {
        let mut g = self.shared.state.lock().unwrap();
        let Some(proto) = g.ready.pop() else {
            self.shared.rec.count(Counter::ServePoolMisses);
            return None;
        };
        g.leased += 1;
        self.shared.rec.count(Counter::ServePoolHits);
        Some(Lease {
            proto: Some(proto),
            shared: Arc::clone(&self.shared),
        })
    }

    /// Live occupancy.
    pub fn stats(&self) -> PoolStats {
        let g = self.shared.state.lock().unwrap();
        PoolStats {
            target: self.shared.target as u64,
            ready: g.ready.len() as u64,
            leased: g.leased as u64,
            building: g.building as u64,
        }
    }

    /// Blocks until at least `n` prototypes are ready (or the builds
    /// can no longer reach `n`, or the timeout lapses). Returns whether
    /// `n` are ready — startup/bench helper, never on a job path.
    pub fn wait_ready(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut g = self.shared.state.lock().unwrap();
        loop {
            if g.ready.len() >= n {
                return true;
            }
            // Can the pool still get there?
            if g.ready.len() + g.building + g.leased < n {
                return false;
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = self
                .shared
                .changed
                .wait_timeout(g, left.min(Duration::from_millis(50)))
                .unwrap();
            g = guard;
        }
    }
}

impl Drop for WarmPool {
    fn drop(&mut self) {
        for builder in self.builders.drain(..) {
            if builder.join().is_err() {
                eprintln!("hardsnap-serve: a warm-pool build thread panicked");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_returned_lease_is_leasable_at_once() {
        let rec = Recorder::enabled(0, "pool-test");
        let p = WarmPool::new(2, rec.clone());
        assert!(p.wait_ready(2, Duration::from_secs(60)), "{:?}", p.stats());

        let first = p.try_lease().expect("a built pool must lease");
        let second = p.try_lease().expect("a built pool must lease");
        assert!(p.try_lease().is_none(), "every prototype is leased");
        drop(first);
        // No wait: the prototype is back before `drop` returns.
        let again = p.try_lease().expect("a returned prototype leases at once");
        assert_eq!(
            p.stats(),
            PoolStats {
                target: 2,
                ready: 0,
                leased: 2,
                building: 0
            }
        );
        drop((second, again));
        assert_eq!(p.stats().ready, 2);

        let m = rec.snapshot().unwrap();
        assert_eq!(
            (m.counter("serve.pool_hits"), m.counter("serve.pool_misses")),
            (3, 1)
        );
    }

    #[test]
    fn empty_pool_misses_and_never_blocks() {
        let p = WarmPool::new(0, Recorder::enabled(0, "pool-test"));
        assert!(p.try_lease().is_none());
        let s = p.stats();
        assert_eq!(s.target, 0);
        assert_eq!(s.ready, 0);
        assert!(!p.wait_ready(1, Duration::from_secs(60)));
    }
}
