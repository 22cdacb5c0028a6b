//! The warm replica pool: pre-built, pre-armed targets leased to jobs
//! so turnaround skips the cold-boot cost.
//!
//! Cold-booting a replica means re-parsing the SoC's Verilog,
//! re-elaborating, and re-compiling the bytecode engine — by far the
//! largest fixed cost of a short job. The pool pays that cost once per
//! replica, **off the job critical path**: background armer threads
//! build prototypes at daemon start and restore each one to a
//! designated *baseline* snapshot with
//! [`hardsnap::replica::arm_baseline`] (shape admission check first,
//! then a lazy O(changed) restore). A job that leases a warm prototype
//! forks its per-leg replicas from it via [`HwTarget::fork_clean`] —
//! sharing the compiled design, which is the entire win — and the
//! lease's drop handler re-arms the prototype in the background so the
//! pool refills without delaying the next job.
//!
//! ## Digest invariance
//!
//! [`HwTarget::fork_clean`] yields a *power-on* replica regardless of
//! the prototype's current state, exactly what a cold boot constructs —
//! so a leg forked from a leased prototype and a cold-booted leg are
//! semantically identical and every job digests bit-identically whether
//! it hit or missed the pool (pinned by the pool tests and `exp_sched`).
//!
//! ## Shape gate
//!
//! The baseline file's META section carries the design `shape_hash`.
//! Arming checks it against the prototype's live shape *before* any
//! payload I/O; a baseline from a different design disables the pool
//! (every lease then misses and jobs cold-boot — correctness never
//! depends on the pool). `--baseline` takes a full image file; since
//! leases fork power-on replicas whatever the baseline, it sets where
//! re-arming starts, never what a job computes.

use crate::ServeError;
use hardsnap::replica::arm_baseline;
use hardsnap::HwTarget;
use hardsnap_bus::persist::SnapshotFile;
use hardsnap_sim::{SimEngine, SimTarget};
use hardsnap_telemetry::{Counter, Metric, Recorder};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Pool tuning, derived from the daemon's config.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Warm replicas to keep armed (0 = pool disabled).
    pub replicas: usize,
    /// Baseline snapshot to arm against; `None` synthesizes one from a
    /// freshly built prototype's post-reset state.
    pub baseline: Option<PathBuf>,
    /// Where a synthesized baseline lands (`<state_dir>/baseline.hsnap`).
    pub state_dir: PathBuf,
}

/// Live occupancy, for gauges and `top`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured pool size.
    pub target: u64,
    /// Armed replicas ready to lease.
    pub ready: u64,
    /// Replicas currently leased to running jobs.
    pub leased: u64,
    /// Replicas being built or re-armed in the background.
    pub arming: u64,
    /// Replicas retired after an arm failure.
    pub retired: u64,
    /// True when the pool refuses to lease (shape mismatch or build
    /// failure); every lease then misses and jobs cold-boot.
    pub disabled: bool,
}

struct PoolState {
    ready: Vec<Box<dyn HwTarget>>,
    leased: usize,
    arming: usize,
    retired: usize,
    disabled: bool,
    /// Why the pool disabled itself, for the log.
    disabled_reason: Option<String>,
    baseline: Option<Arc<SnapshotFile>>,
}

struct Shared {
    state: Mutex<PoolState>,
    changed: Condvar,
    rec: Recorder,
    target: usize,
}

impl Shared {
    /// Arms (or re-arms) `proto` against the pool baseline and returns
    /// it to the ready set; retires it on failure. Runs on armer /
    /// lease-return threads, never on a job's critical path.
    fn arm_and_stash(self: &Arc<Shared>, mut proto: Box<dyn HwTarget>, rearm: bool) {
        let baseline = self.state.lock().unwrap().baseline.clone();
        let Some(file) = baseline else {
            // Disabled before this replica finished building.
            let mut g = self.state.lock().unwrap();
            g.arming = g.arming.saturating_sub(1);
            g.retired += 1;
            self.changed.notify_all();
            return;
        };
        let t0 = Instant::now();
        let armed = arm_baseline(proto.as_mut(), &file);
        self.rec
            .observe(Metric::ServePoolRearmUs, t0.elapsed().as_micros() as u64);
        let mut g = self.state.lock().unwrap();
        g.arming = g.arming.saturating_sub(1);
        match armed {
            Ok(_) => {
                if rearm {
                    self.rec.count(Counter::ServePoolRearms);
                }
                g.ready.push(proto);
            }
            Err(e) => {
                self.rec.count(Counter::ServePoolRearmFails);
                g.retired += 1;
                eprintln!("hardsnap-serve: warm-pool arm failed, replica retired: {e}");
            }
        }
        drop(g);
        self.changed.notify_all();
    }
}

/// The pool. The daemon owns one when `--warm-pool` is nonzero.
pub struct WarmPool {
    shared: Arc<Shared>,
}

/// A leased warm prototype. The job forks per-leg replicas from it;
/// dropping the lease re-arms the prototype in the background and
/// returns it to the pool.
pub struct Lease {
    proto: Option<Box<dyn HwTarget>>,
    shared: Arc<Shared>,
}

impl Lease {
    /// The armed prototype to fork replicas from.
    pub fn prototype(&self) -> &dyn HwTarget {
        self.proto.as_deref().expect("lease holds its prototype")
    }

    /// Mutable access, for tests that dirty a prototype to prove the
    /// re-arm path restores it.
    pub fn prototype_mut(&mut self) -> &mut dyn HwTarget {
        self.proto
            .as_deref_mut()
            .expect("lease holds its prototype")
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        let Some(proto) = self.proto.take() else {
            return;
        };
        let shared = Arc::clone(&self.shared);
        {
            let mut g = shared.state.lock().unwrap();
            g.leased -= 1;
            g.arming += 1;
        }
        std::thread::spawn(move || shared.arm_and_stash(proto, true));
    }
}

/// Builds one bare prototype: the built-in SoC on the bytecode engine.
/// This is the expensive step the pool amortizes.
fn build_prototype() -> Result<Box<dyn HwTarget>, ServeError> {
    let soc = hardsnap_periph::soc().map_err(|e| ServeError::Job(e.to_string()))?;
    Ok(Box::new(
        SimTarget::with_engine(soc, SimEngine::Bytecode)
            .map_err(|e| ServeError::Job(e.to_string()))?,
    ))
}

impl WarmPool {
    /// Spawns the armer threads and returns immediately; replicas
    /// become leasable as they finish arming (watch with
    /// [`WarmPool::wait_ready`]).
    ///
    /// The first armer resolves the baseline: an explicit
    /// `cfg.baseline` file is opened and shape-checked against a
    /// freshly built prototype (mismatch disables the pool — typed,
    /// logged, jobs fall back to cold boots); with no explicit file the
    /// prototype's post-reset state is captured to
    /// `<state_dir>/baseline.hsnap` and used.
    pub fn new(cfg: PoolConfig, rec: Recorder) -> Arc<WarmPool> {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                ready: Vec::new(),
                leased: 0,
                arming: cfg.replicas,
                retired: 0,
                disabled: false,
                disabled_reason: None,
                baseline: None,
            }),
            changed: Condvar::new(),
            rec,
            target: cfg.replicas,
        });
        if cfg.replicas > 0 {
            let seed = Arc::clone(&shared);
            std::thread::spawn(move || {
                // First prototype doubles as the baseline resolver so the
                // shape gate runs exactly once, against real live state.
                let proto = match build_prototype() {
                    Ok(p) => p,
                    Err(e) => {
                        Self::disable(&seed, format!("prototype build failed: {e}"));
                        return;
                    }
                };
                let file = match Self::resolve_baseline(&cfg, proto.as_ref()) {
                    Ok(f) => Arc::new(f),
                    Err(e) => {
                        Self::disable(&seed, e);
                        return;
                    }
                };
                seed.state.lock().unwrap().baseline = Some(Arc::clone(&file));
                for _ in 1..cfg.replicas {
                    let shared = Arc::clone(&seed);
                    std::thread::spawn(move || match build_prototype() {
                        Ok(p) => shared.arm_and_stash(p, false),
                        Err(e) => {
                            let mut g = shared.state.lock().unwrap();
                            g.arming = g.arming.saturating_sub(1);
                            g.retired += 1;
                            drop(g);
                            shared.changed.notify_all();
                            eprintln!("hardsnap-serve: warm-pool build failed: {e}");
                        }
                    });
                }
                seed.arm_and_stash(proto, false);
            });
        }
        Arc::new(WarmPool { shared })
    }

    fn disable(shared: &Arc<Shared>, reason: String) {
        let mut g = shared.state.lock().unwrap();
        g.disabled = true;
        g.retired += g.arming;
        g.arming = 0;
        eprintln!("hardsnap-serve: warm pool disabled: {reason}");
        g.disabled_reason = Some(reason);
        drop(g);
        shared.changed.notify_all();
    }

    fn resolve_baseline(cfg: &PoolConfig, proto: &dyn HwTarget) -> Result<SnapshotFile, String> {
        match &cfg.baseline {
            Some(path) => {
                let file = SnapshotFile::open(path)
                    .map_err(|e| format!("baseline {}: {e}", path.display()))?;
                let meta = file.meta().map_err(|e| format!("baseline META: {e}"))?;
                meta.check_shape(proto.snapshot_shape())
                    .map_err(|e| format!("baseline {}: {e}", path.display()))?;
                Ok(file)
            }
            None => {
                let path = cfg.state_dir.join("baseline.hsnap");
                let mut fresh = proto
                    .fork_clean()
                    .map_err(|e| format!("baseline fork: {e}"))?;
                hardsnap::replica::synthesize_baseline(fresh.as_mut(), &path)
                    .map_err(|e| format!("baseline synthesis: {e}"))?;
                SnapshotFile::open(&path).map_err(|e| format!("baseline reopen: {e}"))
            }
        }
    }

    /// Leases an armed prototype, or `None` (counted as a pool miss)
    /// when the pool is disabled or momentarily empty — the caller then
    /// cold-boots, so a miss costs latency, never correctness.
    pub fn try_lease(&self) -> Option<Lease> {
        let mut g = self.shared.state.lock().unwrap();
        if g.disabled {
            self.shared.rec.count(Counter::ServePoolMisses);
            return None;
        }
        match g.ready.pop() {
            Some(proto) => {
                g.leased += 1;
                self.shared.rec.count(Counter::ServePoolHits);
                Some(Lease {
                    proto: Some(proto),
                    shared: Arc::clone(&self.shared),
                })
            }
            None => {
                self.shared.rec.count(Counter::ServePoolMisses);
                None
            }
        }
    }

    /// Live occupancy.
    pub fn stats(&self) -> PoolStats {
        let g = self.shared.state.lock().unwrap();
        PoolStats {
            target: self.shared.target as u64,
            ready: g.ready.len() as u64,
            leased: g.leased as u64,
            arming: g.arming as u64,
            retired: g.retired as u64,
            disabled: g.disabled,
        }
    }

    /// Blocks until at least `n` replicas are ready (or arming can no
    /// longer reach `n`, or the timeout lapses). Returns whether `n`
    /// are ready — startup/bench helper, never on a job path.
    pub fn wait_ready(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut g = self.shared.state.lock().unwrap();
        loop {
            if g.ready.len() >= n {
                return true;
            }
            // Can the pool still get there?
            if g.disabled || g.ready.len() + g.arming + g.leased < n {
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

#[cfg(test)]
mod tests {
    use super::*;
    use hardsnap_bus::persist::PersistError;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hardsnap-pool-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn pool(name: &str, replicas: usize, baseline: Option<PathBuf>) -> Arc<WarmPool> {
        WarmPool::new(
            PoolConfig {
                replicas,
                baseline,
                state_dir: tmp(name),
            },
            Recorder::enabled(0, "pool-test"),
        )
    }

    #[test]
    fn arms_leases_and_rearms() {
        let p = pool("basic", 2, None);
        assert!(p.wait_ready(2, Duration::from_secs(60)), "{:?}", p.stats());

        let mut lease = p.try_lease().expect("armed pool must lease");
        assert_eq!(p.stats().leased, 1);
        // Dirty the prototype: the re-arm path must restore the baseline.
        lease.prototype_mut().reset();
        let fork = lease.prototype().fork_clean().unwrap();
        assert_eq!(
            fork.snapshot_shape(),
            lease.prototype().snapshot_shape(),
            "fork shares the design shape"
        );
        drop(lease);

        // The returned replica re-arms in the background.
        assert!(p.wait_ready(2, Duration::from_secs(60)), "{:?}", p.stats());
        let s = p.stats();
        assert_eq!(s.ready, 2);
        assert_eq!(s.leased, 0);
        assert!(!s.disabled);
    }

    #[test]
    fn empty_pool_misses_and_never_blocks() {
        let p = pool("empty", 0, None);
        assert!(p.try_lease().is_none());
        let s = p.stats();
        assert_eq!(s.target, 0);
        assert_eq!(s.ready, 0);
    }

    #[test]
    fn mismatched_baseline_disables_the_pool() {
        // A baseline captured from a different design: the shape gate
        // must disable the pool and every lease must miss (cold-boot
        // fallback), not corrupt jobs.
        let dir = tmp("mismatch");
        let path = dir.join("wrong.hsnap");
        let small = hardsnap_periph::timer().unwrap();
        let mut other: Box<dyn HwTarget> =
            Box::new(SimTarget::with_engine(small, SimEngine::Bytecode).unwrap());
        hardsnap::replica::synthesize_baseline(other.as_mut(), &path).unwrap();
        // Sanity: the gate itself is the typed ShapeMismatch.
        let file = SnapshotFile::open(&path).unwrap();
        let proto = build_prototype().unwrap();
        assert!(matches!(
            file.meta().unwrap().check_shape(proto.snapshot_shape()),
            Err(PersistError::ShapeMismatch { .. })
        ));

        let p = pool("mismatch-pool", 2, Some(path));
        assert!(
            !p.wait_ready(1, Duration::from_secs(60)),
            "mismatched baseline must never arm"
        );
        let s = p.stats();
        assert!(s.disabled);
        assert_eq!(s.ready, 0);
        assert!(p.try_lease().is_none(), "disabled pool only misses");
    }
}
