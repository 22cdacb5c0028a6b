//! # hardsnap-symex
//!
//! Symbolic execution engine for HS32 firmware — the reproduction's
//! stand-in for Inception's KLEE-based virtual machine, built from
//! scratch: hash-consed bit-vector terms ([`TermPool`]), a bit-blaster,
//! a CDCL SAT solver, a bit-vector decision procedure ([`BvSolver`]),
//! symbolic machine states ([`SymState`]) and the per-instruction
//! symbolic [`Executor`] with forking, KLEE-style memory-error
//! detectors, MMIO forwarding across the VM boundary ([`SymMmio`]) and
//! the user-selectable [`Concretization`] policy of the paper (§III-B).
//!
//! The scheduling loop that owns hardware snapshots (Algorithm 1) lives
//! in the `hardsnap` core crate.
//!
//! ## Example: finding the magic input
//!
//! ```
//! use hardsnap_symex::{Concretization, Executor, StepOutcome, NoSymMmio, BugKind};
//! let prog = hardsnap_isa::assemble(r#"
//!     .org 0x100
//!     entry:
//!         sym r1, #0
//!         movi r2, #1234
//!         bne r1, r2, ok
//!         fail
//!     ok: halt
//! "#).unwrap();
//! let mut ex = Executor::new(Concretization::Minimal);
//! let mut worklist = vec![ex.initial_state(prog.image.clone(), prog.entry)];
//! let mut hw = NoSymMmio;
//! let mut found = None;
//! while let Some(s) = worklist.pop() {
//!     match ex.step(s, &mut hw) {
//!         StepOutcome::ContinueWith(s) => worklist.push(s),
//!         StepOutcome::Fork(ss) => worklist.extend(ss),
//!         StepOutcome::Halted(_) => {}
//!         StepOutcome::Bug { report, continuation } => {
//!             found = Some(report);
//!             worklist.extend(continuation);
//!         }
//!     }
//! }
//! let bug = found.expect("bug found");
//! assert_eq!(bug.kind, BugKind::FailHit);
//! let (_, v) = bug.testcase.unwrap().iter().next().unwrap();
//! assert_eq!(v, 1234); // the engine synthesized the magic input
//! ```

#![warn(missing_docs)]

pub mod blast;
pub mod exec;
pub mod expr;
pub mod portable;
pub mod sat;
pub mod solver;
pub mod state;

pub use blast::Blaster;
pub use exec::{
    BugKind, BugReport, Concretization, ExecStats, Executor, NoSymMmio, StepOutcome, SymMmio,
};
pub use expr::{BinOp, Term, TermId, TermPool, UnOp};
pub use portable::PortableState;
pub use sat::{Lit, SatResult, SatSolver};
pub use solver::{BvSolver, Model, QueryResult, SolverStats};
pub use state::{StateId, SymMemory, SymState};
