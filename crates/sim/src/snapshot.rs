//! Activity-proportional snapshot capture for the simulator backend.
//!
//! [`SnapshotTracker`] makes capture and restore O(changed) instead of
//! O(design): it resolves every clocked register and memory to its
//! simulator id once, keeps a shared immutable [`Arc`] base image, and
//! accumulates the bytecode engine's snapshot journal into cumulative
//! dirty-since-base sets. A delta capture then touches only journalled
//! locations, and a restore pokes only the locations whose value differs
//! from the requested image. On the interpreter backend (no journal) the
//! tracker diffs a full capture against the base
//! ([`SnapshotDelta::between`]), producing the exact same delta
//! bit-for-bit — only the host cost differs, never the image. Which
//! images a restore admits and when a delta rebases are the
//! `hardsnap-bus` rules ([`SnapshotLayout::admit`],
//! [`SnapshotDelta::needs_rebase`]) the FPGA target follows too.
//!
//! Every image the tracker builds shares one [`SnapshotLayout`], built
//! from the design once at construction and handed on to the trackers
//! of `SimTarget::fork_clean` replicas, so a capture copies values only
//! and a shape check of one of its own images compares no names.
//!
//! The tracker deliberately lives at the [`Simulator`] level rather than
//! inside [`crate::SimTarget`] so designs without AXI ports (e.g. the
//! random modules used by property tests) can exercise delta capture
//! directly.

use crate::Simulator;
use hardsnap_bus::{
    HwSnapshot, MemSlot, RegSlot, SnapshotCapture, SnapshotDelta, SnapshotLayout, TargetError,
};
use hardsnap_rtl::{MemId, NetId};
use std::sync::Arc;

/// Tracks dirty state between captures and emits copy-on-write delta
/// images against a shared immutable base.
pub struct SnapshotTracker {
    /// Clocked register net ids, in canonical capture (scan-chain) order.
    reg_ids: Vec<NetId>,
    /// Net slot -> index into `reg_ids` (`u32::MAX` = not a captured
    /// register, e.g. a combinational net or input port).
    slot_to_reg: Vec<u32>,
    /// Memory ids, in canonical capture order.
    mem_ids: Vec<MemId>,
    /// Names and geometry of every image this tracker builds.
    layout: Arc<SnapshotLayout>,
    /// The shared base image deltas are expressed against. `None` until
    /// the first capture (or after [`SnapshotTracker::reset`]).
    base: Option<Arc<HwSnapshot>>,
    /// Cumulative dirty-since-base register flags + list (journal path).
    reg_dirty: Vec<bool>,
    reg_dirty_list: Vec<u32>,
    /// Cumulative dirty-since-base memory-word flags + list.
    mem_dirty: Vec<Vec<bool>>,
    mem_dirty_list: Vec<(u32, u32)>,
    /// Journal drain scratch (reused across captures).
    nets_scratch: Vec<u32>,
    mems_scratch: Vec<(u32, u32)>,
}

/// What a [`SnapshotTracker::restore_diff`] actually had to touch —
/// drives the activity-proportional restore cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RestoreStats {
    /// Registers whose value differed and were poked.
    pub regs_changed: usize,
    /// Memory words whose value differed and were poked.
    pub words_changed: usize,
}

impl RestoreStats {
    /// Delta-equivalent byte volume of the restore (same accounting as
    /// [`SnapshotDelta::byte_size`]).
    pub fn byte_size(&self) -> usize {
        8 + self.regs_changed * 12 + self.words_changed * 16
    }
}

impl SnapshotTracker {
    /// Resolves capture-order register and memory ids for `sim`'s design.
    pub fn new(sim: &Simulator) -> Self {
        let module = sim.module();
        let reg_ids = module.clocked_regs();
        let mut slot_to_reg = vec![u32::MAX; module.iter_nets().count()];
        for (ri, id) in reg_ids.iter().enumerate() {
            slot_to_reg[id.0 as usize] = ri as u32;
        }
        let mem_ids: Vec<MemId> = module.iter_mems().map(|(id, _)| id).collect();
        let layout = SnapshotLayout::new(
            module.name.clone(),
            reg_ids
                .iter()
                .map(|&id| {
                    let net = module.net(id);
                    RegSlot {
                        name: net.name.clone(),
                        width: net.width,
                    }
                })
                .collect(),
            mem_ids
                .iter()
                .map(|&id| {
                    let mem = module.memory(id);
                    MemSlot {
                        name: mem.name.clone(),
                        width: mem.width,
                        depth: sim.mem_words(id).len(),
                    }
                })
                .collect(),
        );
        Self::with_ids(reg_ids, slot_to_reg, mem_ids, Arc::new(layout))
    }

    /// A tracker for a replica of the same design (e.g. a
    /// `Simulator::fork_clean` of this tracker's simulator): the same
    /// resolved ids and the same shared layout, no base and nothing
    /// dirty.
    pub(crate) fn fork(&self) -> Self {
        Self::with_ids(
            self.reg_ids.clone(),
            self.slot_to_reg.clone(),
            self.mem_ids.clone(),
            self.layout.clone(),
        )
    }

    fn with_ids(
        reg_ids: Vec<NetId>,
        slot_to_reg: Vec<u32>,
        mem_ids: Vec<MemId>,
        layout: Arc<SnapshotLayout>,
    ) -> Self {
        SnapshotTracker {
            reg_dirty: vec![false; reg_ids.len()],
            reg_dirty_list: Vec::new(),
            mem_dirty: layout.mems().iter().map(|m| vec![false; m.depth]).collect(),
            mem_dirty_list: Vec::new(),
            nets_scratch: Vec::new(),
            mems_scratch: Vec::new(),
            reg_ids,
            slot_to_reg,
            mem_ids,
            layout,
            base: None,
        }
    }

    /// The layout every image of this tracker carries.
    pub(crate) fn layout(&self) -> &Arc<SnapshotLayout> {
        &self.layout
    }

    /// Drops the base and all dirty state; the next capture is full.
    pub fn reset(&mut self) {
        self.base = None;
        self.clear_dirty();
    }

    /// The current base image, if a capture has established one.
    pub fn base(&self) -> Option<&Arc<HwSnapshot>> {
        self.base.as_ref()
    }

    fn clear_dirty(&mut self) {
        for &ri in &self.reg_dirty_list {
            self.reg_dirty[ri as usize] = false;
        }
        self.reg_dirty_list.clear();
        for &(mi, wi) in &self.mem_dirty_list {
            self.mem_dirty[mi as usize][wi as usize] = false;
        }
        self.mem_dirty_list.clear();
    }

    /// Builds the canonical full snapshot by scanning every resolved
    /// register and memory, in capture order.
    pub fn capture_full(&self, sim: &Simulator) -> HwSnapshot {
        HwSnapshot::new(
            self.layout.clone(),
            sim.cycle(),
            self.reg_ids
                .iter()
                .map(|&id| sim.peek_id(id).bits())
                .collect(),
            self.mem_ids
                .iter()
                .map(|&id| sim.mem_words(id).to_vec())
                .collect(),
        )
    }

    /// Captures the current state as a delta against the shared base, or
    /// as a new full base when none exists yet / the delta has grown past
    /// the rebase threshold. Materializing the returned capture is
    /// guaranteed bit-identical to [`SnapshotTracker::capture_full`].
    pub fn capture(&mut self, sim: &mut Simulator) -> SnapshotCapture {
        let base = match &self.base {
            Some(b) => b.clone(),
            None => {
                // Journal from this moment on; everything journalled
                // before the base existed is already inside the base.
                sim.enable_snapshot_journal();
                let snap = Arc::new(self.capture_full(sim));
                sim.drain_snapshot_changes(&mut self.nets_scratch, &mut self.mems_scratch);
                self.nets_scratch.clear();
                self.mems_scratch.clear();
                self.clear_dirty();
                self.base = Some(snap.clone());
                return SnapshotCapture::Full(snap);
            }
        };

        let delta = if sim.drain_snapshot_changes(&mut self.nets_scratch, &mut self.mems_scratch) {
            let mut delta = SnapshotDelta {
                regs: Vec::new(),
                mem_words: Vec::new(),
                cycle: sim.cycle(),
            };
            // Bytecode path: fold the journal into the cumulative
            // dirty-since-base sets, then emit only locations that still
            // differ from the base. Locations that changed back are
            // dropped from the lists — any later change re-journals them.
            for i in 0..self.nets_scratch.len() {
                let ri = self.slot_to_reg[self.nets_scratch[i] as usize];
                if ri != u32::MAX && !self.reg_dirty[ri as usize] {
                    self.reg_dirty[ri as usize] = true;
                    self.reg_dirty_list.push(ri);
                }
            }
            for i in 0..self.mems_scratch.len() {
                let (mi, wi) = self.mems_scratch[i];
                if !self.mem_dirty[mi as usize][wi as usize] {
                    self.mem_dirty[mi as usize][wi as usize] = true;
                    self.mem_dirty_list.push((mi, wi));
                }
            }
            let mut list = std::mem::take(&mut self.reg_dirty_list);
            list.retain(|&ri| {
                let cur = sim.peek_id(self.reg_ids[ri as usize]).bits();
                if cur != base.regs[ri as usize] {
                    delta.regs.push((ri, cur));
                    true
                } else {
                    self.reg_dirty[ri as usize] = false;
                    false
                }
            });
            self.reg_dirty_list = list;
            let mut mlist = std::mem::take(&mut self.mem_dirty_list);
            mlist.retain(|&(mi, wi)| {
                let cur = sim.mem_words(self.mem_ids[mi as usize])[wi as usize];
                if cur != base.mems[mi as usize][wi as usize] {
                    delta.mem_words.push((mi, wi, cur));
                    true
                } else {
                    self.mem_dirty[mi as usize][wi as usize] = false;
                    false
                }
            });
            self.mem_dirty_list = mlist;
            delta.regs.sort_unstable_by_key(|&(i, _)| i);
            delta.mem_words.sort_unstable_by_key(|&(m, w, _)| (m, w));
            delta
        } else {
            // Interpreter fallback: diff a full image against the base.
            // Host cost is O(design), but the delta is the one the
            // journal path would produce.
            SnapshotDelta::between(&base, &self.capture_full(sim))
                .expect("a capture has its base's layout")
        };

        if delta.needs_rebase(&base) {
            // The delta stopped paying for itself: promote the current
            // state to a new shared base (journal already drained above).
            let snap = Arc::new(self.capture_full(sim));
            self.clear_dirty();
            self.base = Some(snap.clone());
            return SnapshotCapture::Full(snap);
        }
        SnapshotCapture::Delta { base, delta }
    }

    /// Restores `snap` by poking only the registers and memory words
    /// whose current value differs — O(changed) between the loaded state
    /// and the requested snapshot. The image passes the layout's
    /// admission check ([`SnapshotLayout::admit`]) first, so the restore
    /// either happens completely or leaves the simulator untouched.
    ///
    /// Pokes flow through the engine's normal write paths, so on the
    /// bytecode backend they land in the snapshot journal and the
    /// cumulative dirty sets stay sound for the next delta capture.
    ///
    /// # Errors
    ///
    /// The admission error; on `Err` no state was written.
    pub fn restore_diff(
        &mut self,
        sim: &mut Simulator,
        snap: &HwSnapshot,
    ) -> Result<RestoreStats, TargetError> {
        self.layout.admit(snap)?;
        let mut stats = RestoreStats::default();
        for (&id, &bits) in self.reg_ids.iter().zip(&snap.regs) {
            if sim.peek_id(id).bits() != bits {
                sim.poke_id(id, bits);
                stats.regs_changed += 1;
            }
        }
        for (&id, words) in self.mem_ids.iter().zip(&snap.mems) {
            // Bulk fast path: untouched memories (the common case for
            // quiescent peripherals) are skipped with one slice compare.
            if sim.mem_words(id) == &words[..] {
                continue;
            }
            for (wi, &w) in words.iter().enumerate() {
                if sim.mem_words(id)[wi] != w {
                    sim.poke_mem_id(id, wi as u32, w);
                    stats.words_changed += 1;
                }
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimEngine;
    use hardsnap_verilog::parse_design;

    const TOY: &str = r#"
    module toy (input wire clk, input wire rst, input wire [7:0] d,
                output reg [7:0] q);
        reg [7:0] shadow;
        reg [7:0] mem [0:15];
        always @(posedge clk) begin
            if (rst) begin
                q <= 8'd0; shadow <= 8'd0;
            end else begin
                q <= d; shadow <= q;
                mem[d[3:0]] <= q;
            end
        end
    endmodule
    "#;

    fn sim(engine: SimEngine) -> Simulator {
        let d = parse_design(TOY).unwrap();
        let flat = hardsnap_rtl::elaborate(&d, "toy").unwrap();
        Simulator::with_engine(flat, engine).unwrap()
    }

    fn run_a_bit(s: &mut Simulator, seed: u64) {
        for i in 0..8u64 {
            s.poke("d", (seed.wrapping_mul(31).wrapping_add(i)) & 0xff)
                .unwrap();
            s.step(1);
        }
    }

    #[test]
    fn delta_capture_materializes_identically_to_full() {
        for engine in [SimEngine::Bytecode, SimEngine::Interpreter] {
            let mut s = sim(engine);
            let mut tr = SnapshotTracker::new(&s);
            run_a_bit(&mut s, 1);
            let first = tr.capture(&mut s);
            assert!(matches!(first, SnapshotCapture::Full(_)));
            run_a_bit(&mut s, 2);
            let cap = tr.capture(&mut s);
            let full = tr.capture_full(&s);
            assert_eq!(
                cap.materialize().unwrap().content_hash(),
                full.content_hash()
            );
            assert_eq!(cap.materialize().unwrap(), full);
        }
    }

    #[test]
    fn restore_diff_rewinds_exactly_and_reports_activity() {
        let mut s = sim(SimEngine::Bytecode);
        let mut tr = SnapshotTracker::new(&s);
        run_a_bit(&mut s, 3);
        let snap = tr.capture_full(&s);
        run_a_bit(&mut s, 4);
        let stats = tr.restore_diff(&mut s, &snap).unwrap();
        assert!(stats.regs_changed > 0 || stats.words_changed > 0);
        assert_eq!(tr.capture_full(&s).content_hash(), snap.content_hash());
        // Restoring the state we're already in touches nothing.
        let stats2 = tr.restore_diff(&mut s, &snap).unwrap();
        assert_eq!(stats2, RestoreStats::default());
    }

    #[test]
    fn restore_diff_rejects_bad_shapes_without_touching_state() {
        let mut s = sim(SimEngine::Bytecode);
        let mut tr = SnapshotTracker::new(&s);
        run_a_bit(&mut s, 5);
        let good = tr.capture_full(&s);
        let mut bad = good.clone();
        bad.regs[0] = 1 << 20; // exceeds the 8-bit width
        assert!(tr.restore_diff(&mut s, &bad).is_err());
        // The failed restore wrote nothing.
        assert_eq!(tr.capture_full(&s).content_hash(), good.content_hash());
        let mut bad2 = good.clone();
        bad2.regs.remove(0);
        assert!(tr.restore_diff(&mut s, &bad2).is_err());
        let mut bad3 = good;
        bad3.mems[0].pop();
        assert!(tr.restore_diff(&mut s, &bad3).is_err());
    }

    #[test]
    fn deltas_rebase_once_they_stop_paying() {
        let mut s = sim(SimEngine::Bytecode);
        let mut tr = SnapshotTracker::new(&s);
        let first = tr.capture(&mut s);
        let base_hash = match &first {
            SnapshotCapture::Full(b) => b.content_hash(),
            _ => unreachable!(),
        };
        // Touch essentially every word of state.
        for round in 0..32u64 {
            run_a_bit(&mut s, round.wrapping_mul(7919).wrapping_add(13));
        }
        let cap = tr.capture(&mut s);
        match cap {
            SnapshotCapture::Full(b) => assert_ne!(b.content_hash(), base_hash),
            SnapshotCapture::Delta {
                ref base,
                ref delta,
            } => {
                // If it stayed a delta it must still be cheap.
                assert!(!delta.needs_rebase(base));
            }
        }
    }
}
