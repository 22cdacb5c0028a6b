//! Symbolic machine state: the `S_sw` of the paper's combined state
//! representation (PC, registers, memory), plus the path constraints and
//! the hardware-snapshot association that HardSnap adds.

use crate::expr::{TermId, TermPool};
use hardsnap_bus::MemoryMap;
use std::collections::HashMap;
use std::sync::Arc;

/// Identifies a symbolic execution state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u64);

/// Byte-granular symbolic memory: a shared concrete base image with a
/// copy-on-fork overlay of symbolic bytes.
#[derive(Clone, Debug)]
pub struct SymMemory {
    base: Arc<Vec<u8>>,
    overlay: HashMap<u32, TermId>,
}

impl SymMemory {
    /// Creates a memory over a concrete base image (the loaded firmware
    /// RAM).
    pub fn new(base: Arc<Vec<u8>>) -> Self {
        SymMemory {
            base,
            overlay: HashMap::new(),
        }
    }

    /// Size of the addressable base image.
    pub fn size(&self) -> u32 {
        self.base.len() as u32
    }

    /// The shared concrete base image (cheap `Arc` handle).
    pub fn base_image(&self) -> Arc<Vec<u8>> {
        self.base.clone()
    }

    /// Iterates the overlay (written) bytes in unspecified order.
    pub fn overlay_entries(&self) -> impl Iterator<Item = (u32, TermId)> + '_ {
        self.overlay.iter().map(|(&a, &t)| (a, t))
    }

    /// Number of overlay (written) bytes — a cheap state-size metric.
    pub fn overlay_len(&self) -> usize {
        self.overlay.len()
    }

    /// Reads one byte as a term.
    pub fn load8(&self, pool: &mut TermPool, addr: u32) -> TermId {
        match self.overlay.get(&addr) {
            Some(&t) => t,
            None => {
                let b = self.base.get(addr as usize).copied().unwrap_or(0);
                pool.constant(b as u64, 8)
            }
        }
    }

    /// Writes one byte term.
    pub fn store8(&mut self, addr: u32, value: TermId) {
        self.overlay.insert(addr, value);
    }

    /// Reads a little-endian 32-bit word as a term.
    pub fn load32(&self, pool: &mut TermPool, addr: u32) -> TermId {
        let b0 = self.load8(pool, addr);
        let b1 = self.load8(pool, addr.wrapping_add(1));
        let b2 = self.load8(pool, addr.wrapping_add(2));
        let b3 = self.load8(pool, addr.wrapping_add(3));
        let lo = pool.concat(b1, b0);
        let hi = pool.concat(b3, b2);
        pool.concat(hi, lo)
    }

    /// Writes a little-endian 32-bit word term (split into byte terms).
    pub fn store32(&mut self, pool: &mut TermPool, addr: u32, value: TermId) {
        for i in 0..4 {
            let byte = pool.extract(value, 8 * i + 7, 8 * i);
            self.store8(addr.wrapping_add(i), byte);
        }
    }
}

/// One symbolic execution state.
#[derive(Clone, Debug)]
pub struct SymState {
    /// Unique id (stable across in-place stepping; forks allocate new
    /// ids for the extra successors).
    pub id: StateId,
    /// Register terms (`regs[0]` is pinned to the zero constant).
    pub regs: [TermId; 16],
    /// Concrete program counter.
    pub pc: u32,
    /// Saved PC for `iret`.
    pub epc: u32,
    /// Global interrupt enable.
    pub irq_enabled: bool,
    /// Servicing an interrupt (atomic interrupts, as in Inception).
    pub in_isr: bool,
    /// Executed `halt`.
    pub halted: bool,
    /// Symbolic memory.
    pub mem: SymMemory,
    /// Path constraints (1-bit terms, conjunction).
    pub constraints: Vec<TermId>,
    /// Id of the hardware snapshot owned by this state (managed by the
    /// HardSnap engine; `None` until first hardware interaction).
    pub hw_snapshot: Option<u64>,
    /// Retired instructions.
    pub instret: u64,
    /// Debug console bytes emitted on this path.
    pub console: Vec<u8>,
    /// Number of `sym` hypercalls executed (names the variables).
    pub sym_count: u32,
    /// Last checkpoint-hint id crossed, if any.
    pub last_checkpoint: Option<u16>,
    /// Memory map (RAM/MMIO routing), shared by every state of a run:
    /// a fork or a copy clones the handle, not the region names.
    pub map: Arc<MemoryMap>,
    /// Per-state fork counter feeding [`SymState::next_fork_id`]. It
    /// evolves only with this state's own execution history, so the ids
    /// it derives are independent of scheduling order or worker count.
    pub fork_nonce: u64,
}

impl SymState {
    /// Creates the initial state for a firmware image with entry point
    /// `entry`.
    pub fn initial(pool: &mut TermPool, image: Arc<Vec<u8>>, entry: u32) -> Self {
        let zero = pool.constant(0, 32);
        SymState {
            id: StateId(0),
            regs: [zero; 16],
            pc: entry,
            epc: 0,
            irq_enabled: false,
            in_isr: false,
            halted: false,
            mem: SymMemory::new(image),
            constraints: Vec::new(),
            hw_snapshot: None,
            instret: 0,
            console: Vec::new(),
            sym_count: 0,
            last_checkpoint: None,
            map: Arc::new(MemoryMap::default_soc()),
            fork_nonce: 0,
        }
    }

    /// Derives the id for the next forked successor of this state.
    ///
    /// The id is a splitmix64-style mix of the parent id and a per-state
    /// fork counter, so it is a pure function of the path that produced
    /// the fork — never of executor instance, scheduling order, or
    /// worker count. Call this *before* cloning the parent so every
    /// successor (including the one that keeps the parent id) observes
    /// the advanced counter and future forks cannot collide.
    pub fn next_fork_id(&mut self) -> StateId {
        self.fork_nonce += 1;
        let mut z = self
            .id
            .0
            .wrapping_add(self.fork_nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        StateId(z ^ (z >> 31))
    }

    /// Reads a register term (`r0` is the zero constant).
    pub fn reg(&self, r: u8) -> TermId {
        self.regs[r as usize]
    }

    /// Writes a register term (`r0` writes are dropped).
    pub fn set_reg(&mut self, r: u8, v: TermId) {
        if r != 0 {
            self.regs[r as usize] = v;
        }
    }

    /// Adds a path constraint.
    pub fn assume(&mut self, c: TermId) {
        self.constraints.push(c);
    }

    /// Every term the state holds: registers, memory overlay bytes (in
    /// unspecified order), path constraints.
    pub(crate) fn roots(&self) -> impl Iterator<Item = TermId> + '_ {
        self.regs
            .iter()
            .copied()
            .chain(self.mem.overlay.values().copied())
            .chain(self.constraints.iter().copied())
    }

    /// Replaces each term `t` the state holds (see [`SymState::roots`])
    /// with `f(t)`: moves the state into another numbering of its terms.
    pub(crate) fn map_terms(&mut self, mut f: impl FnMut(TermId) -> TermId) {
        let overlay = self.mem.overlay.values_mut();
        for t in self
            .regs
            .iter_mut()
            .chain(overlay)
            .chain(&mut self.constraints)
        {
            *t = f(*t);
        }
    }

    /// True if every register is concrete (useful in tests/metrics).
    pub fn fully_concrete(&self, pool: &TermPool) -> bool {
        self.regs.iter().all(|&r| pool.as_const(r).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_reads_base_until_overwritten() {
        let mut pool = TermPool::new();
        let base = Arc::new(vec![0x11, 0x22, 0x33, 0x44, 0x55]);
        let mut mem = SymMemory::new(base);
        let w = mem.load32(&mut pool, 0);
        assert_eq!(pool.as_const(w), Some(0x4433_2211));
        let c = pool.constant(0xaa, 8);
        mem.store8(1, c);
        let w = mem.load32(&mut pool, 0);
        assert_eq!(pool.as_const(w), Some(0x4433_aa11));
    }

    #[test]
    fn store32_roundtrips_through_bytes() {
        let mut pool = TermPool::new();
        let mut mem = SymMemory::new(Arc::new(vec![0u8; 16]));
        let v = pool.constant(0xdead_beef, 32);
        mem.store32(&mut pool, 4, v);
        let r = mem.load32(&mut pool, 4);
        assert_eq!(pool.as_const(r), Some(0xdead_beef));
        // Unaligned view across the word.
        let r = mem.load32(&mut pool, 6);
        assert_eq!(pool.as_const(r), Some(0x0000_dead));
    }

    #[test]
    fn symbolic_store_stays_symbolic() {
        let mut pool = TermPool::new();
        let mut mem = SymMemory::new(Arc::new(vec![0u8; 8]));
        let x = pool.var("x", 32);
        mem.store32(&mut pool, 0, x);
        let r = mem.load32(&mut pool, 0);
        assert!(pool.as_const(r).is_none());
        // But evaluates correctly under an assignment.
        let mut env = HashMap::new();
        env.insert("x".to_string(), 0x0102_0304u64);
        assert_eq!(pool.eval(r, &env), 0x0102_0304);
    }

    #[test]
    fn out_of_image_reads_are_zero() {
        let mut pool = TermPool::new();
        let mem = SymMemory::new(Arc::new(vec![1, 2]));
        let b = mem.load8(&mut pool, 100);
        assert_eq!(pool.as_const(b), Some(0));
    }

    #[test]
    fn fork_by_clone_is_independent() {
        let mut pool = TermPool::new();
        let image = Arc::new(vec![0u8; 8]);
        let mut a = SymState::initial(&mut pool, image, 0x100);
        let mut b = a.clone();
        b.id = StateId(1);
        let five = pool.constant(5, 32);
        a.set_reg(1, five);
        let c9 = pool.constant(9, 8);
        a.mem.store8(0, c9);
        assert_eq!(pool.as_const(b.reg(1)), Some(0));
        let tb = b.mem.load8(&mut pool, 0);
        assert_eq!(pool.as_const(tb), Some(0));
        let ta = a.mem.load8(&mut pool, 0);
        assert_eq!(pool.as_const(ta), Some(9));
    }

    #[test]
    fn r0_stays_zero() {
        let mut pool = TermPool::new();
        let mut s = SymState::initial(&mut pool, Arc::new(vec![]), 0);
        let v = pool.constant(77, 32);
        s.set_reg(0, v);
        assert_eq!(pool.as_const(s.reg(0)), Some(0));
    }
}
