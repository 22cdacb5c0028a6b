//! # hardsnap-fuzz
//!
//! Coverage-guided fuzzing over HardSnap hardware targets — the fuzzing
//! side of the paper's motivation (§II, citing Muench et al.): "fuzzing
//! embedded systems requires to restart the target under test after each
//! fuzzing input", and hardware snapshotting replaces that reboot with a
//! fast restore.
//!
//! The fuzzer runs the concrete HS32 CPU against a live hardware target,
//! feeds each `sym` hypercall from the input tape, tracks PC coverage,
//! mutates interesting inputs, and resets between inputs using either:
//!
//! * [`ResetStrategy::Snapshot`] — restore the hardware snapshot taken
//!   once after startup;
//! * [`ResetStrategy::Reboot`] — reset the device (with its modeled
//!   reboot cost) and re-execute firmware from the entry point.
//!
//! Either way the software side is rewound, not rebuilt: one working
//! [`Cpu`] is reset to the baseline CPU with [`Cpu::reset_to`], which
//! copies back only the RAM pages the last input stored to. A
//! rebooted CPU (`Cpu::new`) equals that baseline, so both strategies
//! run every input from the same software state. Per input, a reset
//! is one hardware restore (or reboot) plus one CPU rewind, and both
//! cost work in proportion to what the previous input changed.
//!
//! ## Example
//!
//! ```
//! use hardsnap_fuzz::{Fuzzer, FuzzConfig, ResetStrategy};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let soc = hardsnap_periph::soc().unwrap();
//! let target = Box::new(hardsnap_sim::SimTarget::new(soc)?);
//! let prog = hardsnap_isa::assemble(&hardsnap::firmware::uart_parser_firmware()).unwrap();
//! let mut fuzzer = Fuzzer::new(target, &prog, FuzzConfig {
//!     max_inputs: 200,
//!     seed: 7,
//!     ..Default::default()
//! })?;
//! let report = fuzzer.run()?;
//! assert!(report.execs == 200);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use hardsnap_bus::{BusError, HwSnapshot, HwTarget};
use hardsnap_isa::{Cpu, CpuFault, Event, MmioBus, Program};
use hardsnap_util::Rng;
use std::collections::{HashSet, VecDeque};

/// Adapter: any [`HwTarget`] is an [`MmioBus`] for the concrete CPU.
pub struct TargetBus<'a>(
    /// The wrapped target.
    pub &'a mut dyn HwTarget,
);

impl MmioBus for TargetBus<'_> {
    fn mmio_read(&mut self, addr: u32) -> Result<u32, BusError> {
        self.0.bus_read(addr)
    }

    fn mmio_write(&mut self, addr: u32, data: u32) -> Result<(), BusError> {
        self.0.bus_write(addr, data)
    }
}

/// How the target is returned to a clean state between inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResetStrategy {
    /// Restore the post-startup hardware snapshot + CPU clone (HardSnap).
    Snapshot,
    /// Full device reboot with modeled cost
    /// ([`hardsnap_bus::REBOOT_COST_NS`]), then concrete re-execution of
    /// the firmware from the entry point (the naive baseline).
    Reboot,
}

/// Fuzzer configuration.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Inputs to execute.
    pub max_inputs: u64,
    /// Instruction budget per input.
    pub max_instrs_per_input: u64,
    /// Reset strategy between inputs.
    pub reset: ResetStrategy,
    /// Words per input tape.
    pub tape_len: usize,
    /// RNG seed (runs are deterministic).
    pub seed: u64,
    /// Capture/restore in O(changed state): the target tracks dirty
    /// state against the baseline and each per-input restore writes
    /// back only what the input touched (identical results either way;
    /// only the modeled restore cost drops).
    pub delta_snapshots: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            max_inputs: 1000,
            max_instrs_per_input: 2000,
            reset: ResetStrategy::Snapshot,
            tape_len: 4,
            seed: 0xF0CC_5EED,
            delta_snapshots: false,
        }
    }
}

/// One crashing input.
#[derive(Clone, Debug)]
pub struct Crash {
    /// The fault detected.
    pub fault: CpuFault,
    /// The input tape that triggered it.
    pub input: Vec<u32>,
}

/// Fuzzing campaign report.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Inputs executed.
    pub execs: u64,
    /// Distinct PCs covered.
    pub coverage: usize,
    /// Crashes found (deduplicated by fault).
    pub crashes: Vec<Crash>,
    /// Virtual hardware time consumed, including reboot penalties (ns).
    pub hw_virtual_time_ns: u64,
    /// Host wall-clock duration.
    pub host_time: std::time::Duration,
    /// Virtual executions per second (execs / virtual seconds).
    pub virtual_execs_per_sec: f64,
}

/// A coverage-guided fuzzer bound to one hardware target.
pub struct Fuzzer {
    target: Box<dyn HwTarget>,
    config: FuzzConfig,
    /// The CPU at the entry point; every input starts from it.
    baseline_cpu: Cpu,
    /// The working CPU, rewound to `baseline_cpu` before each input.
    cpu: Cpu,
    baseline_hw: HwSnapshot,
    coverage: HashSet<u32>,
    corpus: Vec<Vec<u32>>,
    /// Corpus entries awaiting the deterministic byte-sweep stage
    /// (AFL-style: every byte position × every byte value).
    sweep_queue: VecDeque<Vec<u32>>,
    /// In-progress sweep: (base tape, word index, next byte value).
    sweep: Option<(Vec<u32>, usize, u32)>,
    rng: Rng,
    extra_time_ns: u64,
}

impl Fuzzer {
    /// Prepares a campaign: resets the device, runs nothing yet, and
    /// captures the baseline (CPU at entry, hardware post-reset).
    ///
    /// # Errors
    ///
    /// Propagates snapshot errors from the target.
    pub fn new(
        mut target: Box<dyn HwTarget>,
        program: &Program,
        config: FuzzConfig,
    ) -> Result<Self, hardsnap_bus::TargetError> {
        target.reset();
        if config.delta_snapshots {
            // Enabled before the baseline capture so the target anchors
            // its dirty tracking on the baseline itself: every restore
            // afterwards is a diff against exactly what we restore to.
            target.set_delta_snapshots(true);
        }
        let baseline_cpu = Cpu::new(program);
        let baseline_hw = target.save_snapshot()?;
        let mut corpus = vec![vec![0u32; config.tape_len]];
        corpus.push(
            (0..config.tape_len as u32)
                .map(|i| i * 0x1111_1111)
                .collect(),
        );
        Ok(Fuzzer {
            target,
            config,
            cpu: baseline_cpu.clone(),
            baseline_cpu,
            baseline_hw,
            coverage: HashSet::new(),
            corpus,
            sweep_queue: VecDeque::new(),
            sweep: None,
            rng: Rng::seed_from_u64(config.seed),
            extra_time_ns: 0,
        })
    }

    fn mutate(&mut self, base: &[u32]) -> Vec<u32> {
        let mut t = base.to_vec();
        if t.is_empty() {
            t.push(0);
        }
        for _ in 0..self.rng.gen_range(1..=3) {
            let i = self.rng.gen_range(0..t.len());
            match self.rng.gen_range(0u32..6) {
                0 => t[i] = self.rng.gen(),
                1 => t[i] ^= 1u32 << self.rng.gen_range(0u32..32),
                2 => {
                    t[i] = *[0u32, 1, 0xff, 0x7f, 0x80, 0xffff_ffff]
                        .get(self.rng.gen_range(0usize..6))
                        .unwrap()
                }
                // Byte-granular mutations: firmware protocols are
                // byte-oriented, so spend most of the budget there.
                3 | 4 => t[i] = self.rng.gen_range(0u32..256),
                _ => t[i] = t[i].wrapping_add(1),
            }
        }
        t
    }

    /// Prepares target + CPU for the next input per the reset strategy:
    /// the hardware is restored or rebooted, and the working CPU is
    /// rewound to the baseline either way (a rebooted CPU equals it).
    ///
    /// # Errors
    ///
    /// Propagates a failed baseline restore — the device no longer
    /// accepts the snapshot it produced at startup, so the campaign
    /// cannot continue on consistent state.
    fn reset_for_input(&mut self) -> Result<(), hardsnap_bus::TargetError> {
        match self.config.reset {
            ResetStrategy::Snapshot => self.target.restore_snapshot(&self.baseline_hw)?,
            ResetStrategy::Reboot => {
                self.target.reset();
                self.extra_time_ns += hardsnap_bus::REBOOT_COST_NS;
            }
        }
        self.cpu.reset_to(&self.baseline_cpu);
        Ok(())
    }

    /// Runs one input; returns new-coverage flag and optional crash.
    ///
    /// # Errors
    ///
    /// Propagates a failed per-input reset (see
    /// [`Fuzzer::reset_for_input`]).
    fn run_one(
        &mut self,
        tape: &[u32],
    ) -> Result<(bool, Option<CpuFault>), hardsnap_bus::TargetError> {
        self.reset_for_input()?;
        let cpu = &mut self.cpu;
        cpu.set_input_tape(tape.to_vec());
        let mut new_cov = false;
        let mut fault = None;
        for _ in 0..self.config.max_instrs_per_input {
            if self.coverage.insert(cpu.pc) {
                new_cov = true;
            }
            let lines = self.target.irq_lines();
            if lines != 0 {
                cpu.take_irq(lines);
            }
            let mut bus = TargetBus(self.target.as_mut());
            match cpu.step(&mut bus) {
                Ok(Event::Halted) => break,
                Ok(_) => {}
                Err(f) => {
                    fault = Some(f);
                    break;
                }
            }
            self.target.step(4);
        }
        Ok((new_cov, fault))
    }

    /// Produces the next input: deterministic byte sweep of fresh
    /// corpus entries first, then random mutations of the corpus.
    fn next_input(&mut self, execs: u64) -> Vec<u32> {
        if execs < self.corpus.len() as u64 {
            return self.corpus[execs as usize].clone();
        }
        loop {
            if let Some((base, idx, val)) = &mut self.sweep {
                let mut t = base.clone();
                t[*idx] = *val;
                *val += 1;
                if *val == 256 {
                    *val = 0;
                    *idx += 1;
                    if *idx == base.len() {
                        self.sweep = None;
                    }
                }
                return t;
            }
            if let Some(base) = self.sweep_queue.pop_front() {
                if !base.is_empty() {
                    self.sweep = Some((base, 0, 0));
                }
                continue;
            }
            let base = self.corpus[self.rng.gen_range(0..self.corpus.len())].clone();
            return self.mutate(&base);
        }
    }

    /// Runs the campaign.
    ///
    /// # Errors
    ///
    /// Propagates a failed per-input reset; everything else an input
    /// does wrong is a [`Crash`], not an error.
    pub fn run(&mut self) -> Result<FuzzReport, hardsnap_bus::TargetError> {
        let host_start = std::time::Instant::now();
        let hw_t0 = self.target.virtual_time_ns();
        let mut crashes: Vec<Crash> = Vec::new();
        let mut execs = 0u64;
        while execs < self.config.max_inputs {
            let tape = self.next_input(execs);
            let (new_cov, fault) = self.run_one(&tape)?;
            execs += 1;
            if new_cov {
                self.corpus.push(tape.clone());
                self.sweep_queue.push_back(tape.clone());
            }
            if let Some(f) = fault {
                if !crashes.iter().any(|c| c.fault == f) {
                    crashes.push(Crash {
                        fault: f,
                        input: tape,
                    });
                }
            }
        }
        let hw_ns = self.target.virtual_time_ns() - hw_t0 + self.extra_time_ns;
        Ok(FuzzReport {
            execs,
            coverage: self.coverage.len(),
            crashes,
            hw_virtual_time_ns: hw_ns,
            host_time: host_start.elapsed(),
            virtual_execs_per_sec: execs as f64 / (hw_ns as f64 / 1e9).max(1e-9),
        })
    }

    /// Current corpus size.
    pub fn corpus_len(&self) -> usize {
        self.corpus.len()
    }

    /// The covered program counters so far.
    pub fn coverage_set(&self) -> &HashSet<u32> {
        &self.coverage
    }
}

/// Runs `workers` independent fuzzing islands in parallel (each on its
/// own power-on fork of `proto`, with a distinct seed) and merges their
/// results: united coverage, deduplicated crashes, summed executions.
/// Virtual hardware time is the maximum across islands (they run
/// concurrently).
///
/// # Errors
///
/// Propagates the first fork or island-construction failure.
pub fn parallel_campaign(
    proto: &dyn HwTarget,
    program: &Program,
    config: FuzzConfig,
    workers: usize,
) -> Result<FuzzReport, hardsnap_bus::TargetError> {
    assert!(workers >= 1);
    let host_start = std::time::Instant::now();
    let targets = (0..workers)
        .map(|_| proto.fork_clean())
        .collect::<Result<Vec<_>, _>>()?;
    let results = hardsnap_util::sync::scope(|scope| {
        let mut handles = Vec::new();
        for (w, target) in targets.into_iter().enumerate() {
            let cfg = FuzzConfig {
                seed: config
                    .seed
                    .wrapping_add((w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                max_inputs: config.max_inputs / workers as u64,
                ..config
            };
            handles.push(scope.spawn(move || {
                let mut f = Fuzzer::new(target, program, cfg)?;
                let report = f.run()?;
                let coverage: HashSet<u32> = f.coverage_set().clone();
                Ok::<_, hardsnap_bus::TargetError>((report, coverage))
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("island panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;

    let mut coverage: HashSet<u32> = HashSet::new();
    let mut crashes: Vec<Crash> = Vec::new();
    let mut execs = 0;
    let mut hw_ns = 0;
    for (r, cov) in results {
        execs += r.execs;
        hw_ns = hw_ns.max(r.hw_virtual_time_ns);
        coverage.extend(cov);
        for c in r.crashes {
            if !crashes.iter().any(|k| k.fault == c.fault) {
                crashes.push(c);
            }
        }
    }
    Ok(FuzzReport {
        execs,
        coverage: coverage.len(),
        crashes,
        hw_virtual_time_ns: hw_ns,
        host_time: host_start.elapsed(),
        virtual_execs_per_sec: execs as f64 / (hw_ns as f64 / 1e9).max(1e-9),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardsnap::firmware;
    use hardsnap_sim::SimTarget;

    fn fuzzer(reset: ResetStrategy, max_inputs: u64) -> Fuzzer {
        let soc = hardsnap_periph::soc().unwrap();
        let target = Box::new(SimTarget::new(soc).unwrap());
        let prog = hardsnap_isa::assemble(&firmware::uart_parser_firmware()).unwrap();
        Fuzzer::new(
            target,
            &prog,
            FuzzConfig {
                max_inputs,
                reset,
                seed: 42,
                tape_len: 2,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn snapshot_fuzzing_finds_the_crash() {
        let mut f = fuzzer(ResetStrategy::Snapshot, 8000);
        let report = f.run().unwrap();
        assert_eq!(report.execs, 8000);
        assert!(report.coverage > 10);
        let crash = report
            .crashes
            .iter()
            .find(|c| matches!(c.fault, CpuFault::FailHit { .. }));
        // 'X' 0x42 is a 2^16 haystack with coverage guidance on the first
        // byte; 8000 seeded execs reliably find it with this seed.
        assert!(crash.is_some(), "crashes: {:?}", report.crashes);
        let crash = crash.unwrap();
        assert_eq!(crash.input[0] & 0xff, 0x58);
        assert_eq!(crash.input[1] & 0xff, 0x42);
    }

    #[test]
    fn snapshot_reset_beats_reboot_in_virtual_time() {
        let mut snap = fuzzer(ResetStrategy::Snapshot, 150);
        let r_snap = snap.run().unwrap();
        let mut reboot = fuzzer(ResetStrategy::Reboot, 150);
        let r_reboot = reboot.run().unwrap();
        assert!(
            r_snap.hw_virtual_time_ns < r_reboot.hw_virtual_time_ns,
            "snapshot {} ns must beat reboot {} ns",
            r_snap.hw_virtual_time_ns,
            r_reboot.hw_virtual_time_ns
        );
        assert!(r_snap.virtual_execs_per_sec > r_reboot.virtual_execs_per_sec);
    }

    #[test]
    fn delta_snapshots_same_results_cheaper_restores() {
        let mk = |delta: bool| {
            let soc = hardsnap_periph::soc().unwrap();
            let target = Box::new(SimTarget::new(soc).unwrap());
            let prog = hardsnap_isa::assemble(&firmware::uart_parser_firmware()).unwrap();
            Fuzzer::new(
                target,
                &prog,
                FuzzConfig {
                    max_inputs: 200,
                    seed: 42,
                    tape_len: 2,
                    delta_snapshots: delta,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let full = mk(false).run().unwrap();
        let delta = mk(true).run().unwrap();
        // Identical campaign, cheaper resets: only the modeled restore
        // cost may differ.
        assert_eq!(full.execs, delta.execs);
        assert_eq!(full.coverage, delta.coverage);
        assert_eq!(full.crashes.len(), delta.crashes.len());
        assert!(
            delta.hw_virtual_time_ns < full.hw_virtual_time_ns,
            "delta restores ({} ns) must undercut full restores ({} ns)",
            delta.hw_virtual_time_ns,
            full.hw_virtual_time_ns
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let r1 = fuzzer(ResetStrategy::Snapshot, 300).run().unwrap();
        let r2 = fuzzer(ResetStrategy::Snapshot, 300).run().unwrap();
        assert_eq!(r1.coverage, r2.coverage);
        assert_eq!(r1.crashes.len(), r2.crashes.len());
    }

    #[test]
    fn reset_restores_clean_state_between_inputs() {
        // A firmware whose crash depends on residual hardware state from
        // a previous input would be flaky; the uart parser writes TXDATA
        // on 'W' commands, so the FIFO fills up across inputs *unless*
        // reset works. Run many 'W' inputs then check STATUS via a fresh
        // input: if resets work, the FIFO never overflows.
        let soc = hardsnap_periph::soc().unwrap();
        let target = Box::new(SimTarget::new(soc).unwrap());
        let prog = hardsnap_isa::assemble(&firmware::uart_parser_firmware()).unwrap();
        let mut f = Fuzzer::new(
            target,
            &prog,
            FuzzConfig {
                max_inputs: 1,
                tape_len: 2,
                ..Default::default()
            },
        )
        .unwrap();
        for _ in 0..40 {
            let (_, fault) = f.run_one(&[0x57, 0xAA]).unwrap(); // 'W' 0xAA
            assert!(fault.is_none());
        }
        // After a restore, the TX fifo must not be full.
        f.reset_for_input().unwrap();
        let st = f
            .target
            .bus_read(hardsnap_bus::map::soc::UART_BASE + 0x08)
            .unwrap();
        assert_eq!(st & 0x2, 0, "tx full bit set: state leaked across inputs");
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use hardsnap::firmware;
    use hardsnap_sim::SimTarget;

    #[test]
    fn parallel_islands_merge_coverage_and_crashes() {
        let prog = hardsnap_isa::assemble(&firmware::uart_parser_firmware()).unwrap();
        let proto = SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap();
        let report = parallel_campaign(
            &proto,
            &prog,
            FuzzConfig {
                max_inputs: 12000,
                seed: 9,
                tape_len: 2,
                ..Default::default()
            },
            4,
        )
        .unwrap();
        assert_eq!(report.execs, 12000);
        assert!(report.coverage > 10);
        // Four islands with deterministic-sweep stages: the magic crash
        // falls out of at least one.
        assert!(
            report
                .crashes
                .iter()
                .any(|c| matches!(c.fault, CpuFault::FailHit { .. })),
            "{:?}",
            report.crashes
        );
    }

    #[test]
    fn parallel_speedup_in_host_time() {
        // Not a strict benchmark, but 4 islands of N/4 inputs should not
        // be slower than 1 island of N inputs.
        let prog = hardsnap_isa::assemble(&firmware::uart_parser_firmware()).unwrap();
        let proto = SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap();
        let t0 = std::time::Instant::now();
        let _ = parallel_campaign(
            &proto,
            &prog,
            FuzzConfig {
                max_inputs: 800,
                seed: 5,
                tape_len: 2,
                ..Default::default()
            },
            1,
        )
        .unwrap();
        let serial = t0.elapsed();
        let t0 = std::time::Instant::now();
        let _ = parallel_campaign(
            &proto,
            &prog,
            FuzzConfig {
                max_inputs: 800,
                seed: 5,
                tape_len: 2,
                ..Default::default()
            },
            4,
        )
        .unwrap();
        let parallel = t0.elapsed();
        assert!(
            parallel < serial * 2,
            "parallel {parallel:?} should not be much slower than serial {serial:?}"
        );
    }
}
