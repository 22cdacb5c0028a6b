//! # hardsnap-fpga
//!
//! The FPGA-platform hardware target of the HardSnap reproduction
//! (paper §III-A "FPGA target", §III-C snapshot controller IP).
//!
//! A real FPGA offers near-silicon speed but almost no visibility; the
//! paper's answer is RTL-level scan-chain instrumentation plus an
//! on-fabric snapshot-controller IP. This crate models that platform:
//!
//! * [`FpgaTarget`] takes the *uninstrumented* flat design, runs the
//!   `hardsnap-scan` instrumentation pass (the toolchain of Fig. 3 B),
//!   and executes the instrumented netlist. The **visibility firewall**
//!   is enforced in the API: only the design's ports (bus, IRQ and scan
//!   pins) are accessible — there is no peek/poke of internal state, by
//!   construction, exactly like a real fabric.
//! * Snapshots travel through the actual scan chain, bit by bit, through
//!   the simulated netlist: `save` loops `scan_out` back into `scan_in`
//!   (so the state is preserved while being observed) and `restore`
//!   shifts the encoded image in. Memories are drained/filled through
//!   the generated word-access collar. Bit-exactness against the
//!   simulator target is therefore a *tested* property, not an
//!   assumption.
//! * The virtual-time model charges fabric cycles (100 MHz), USB 3.0
//!   round-trips per bus transaction, and per-bit scan cost — the
//!   quantities the paper's evaluation measures.
//! * High-end-FPGA **readback** is modeled as a save-only alternative
//!   with its own (much larger, mostly fixed) cost, for the scan-vs-
//!   readback comparison (experiment E7).

#![warn(missing_docs)]

use hardsnap_bus::{
    axi_ports, BusError, HwSnapshot, HwTarget, LazyRestore, MemSlot, RegSlot, SnapshotCapture,
    SnapshotDelta, SnapshotFile, SnapshotLayout, TargetCaps, TargetError, TargetKind,
};
use hardsnap_rtl::{Module, NetId};
use hardsnap_scan::{instrument, ports as scan_ports, ChainMap, ScanOptions};
use hardsnap_sim::{AxiLite, SimError, Simulator};
use hardsnap_telemetry::{Counter, Metric, Recorder};
use std::sync::Arc;

/// Virtual-time cost model of the FPGA platform.
///
/// Defaults model a 100 MHz fabric behind a USB 3.0 low-latency debugger
/// (the paper's modified Inception debugger) and a readback path in the
/// tens of milliseconds, matching the orders of magnitude of the
/// hardware the paper used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FpgaTimeModel {
    /// Fabric clock period in nanoseconds (10 ns = 100 MHz).
    pub ns_per_cycle: u64,
    /// USB 3.0 round-trip per bus transaction.
    pub usb_latency_ns: u64,
    /// Fixed controller setup cost per scan save/restore operation.
    pub scan_overhead_ns: u64,
    /// Fixed cost of a configuration readback (frame addressing etc.).
    pub readback_fixed_ns: u64,
    /// Incremental readback cost per state bit.
    pub readback_ns_per_bit: u64,
}

impl Default for FpgaTimeModel {
    fn default() -> Self {
        FpgaTimeModel {
            ns_per_cycle: 10,              // 100 MHz fabric
            usb_latency_ns: 30_000,        // 30 us USB3 round-trip
            scan_overhead_ns: 60_000,      // two USB commands to the scan IP
            readback_fixed_ns: 15_000_000, // 15 ms frame addressing
            readback_ns_per_bit: 5,
        }
    }
}

/// Construction options.
#[derive(Clone, Debug)]
pub struct FpgaOptions {
    /// Instrumentation scope/settings passed to the scan pass. The
    /// default uses a 32-lane chain (`ScanOptions::width = 32`): the
    /// snapshot controller shifts whole 32-bit words per fabric cycle,
    /// cutting scan time ~32× versus the bit-serial chain.
    pub scan: ScanOptions,
    /// Model a high-end FPGA with configuration readback support.
    pub readback: bool,
    /// Time model override.
    pub model: Option<FpgaTimeModel>,
}

impl Default for FpgaOptions {
    fn default() -> Self {
        FpgaOptions {
            scan: ScanOptions {
                width: 32,
                ..ScanOptions::default()
            },
            readback: false,
            model: None,
        }
    }
}

/// The FPGA hardware target.
///
/// # Examples
///
/// ```
/// use hardsnap_bus::HwTarget;
/// use hardsnap_fpga::FpgaTarget;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let soc = hardsnap_periph::soc().unwrap();
/// let mut fpga = FpgaTarget::new(soc, &Default::default())?;
/// fpga.reset();
/// let snap = fpga.save_snapshot()?;        // travels the scan chain
/// fpga.step(1000);
/// fpga.restore_snapshot(&snap)?;           // shifts the image back in
/// # Ok(())
/// # }
/// ```
pub struct FpgaTarget {
    sim: Simulator,
    axi: AxiLite,
    chain: ChainMap,
    model: FpgaTimeModel,
    vtime_ns: u64,
    /// The chain map as a snapshot layout: registers in segment order,
    /// memories in collar order, shared by every image of this fabric
    /// and its replicas.
    layout: Arc<SnapshotLayout>,
    readback: bool,
    instrumented_name: String,
    /// IRQ port resolved once at construction: `None` means the design
    /// genuinely has no IRQ output, so a failed peek is never silently
    /// read as "no interrupt".
    irq_net: Option<NetId>,
    /// Golden base image the snapshot controller diffs against when
    /// delta captures are enabled.
    base: Option<Arc<HwSnapshot>>,
    delta_mode: bool,
    /// Content hash of the most recent full capture: the checksum
    /// trailer the scan controller IP computes over the complete chain
    /// as it shifts out, reported via [`HwTarget::capture_checksum`].
    capture_checksum: u64,
    rec: Recorder,
}

impl FpgaTarget {
    /// Instruments `module` with a scan chain and "loads it onto the
    /// fabric" (builds the netlist evaluator for the instrumented
    /// design).
    ///
    /// # Errors
    ///
    /// Propagates instrumentation errors ([`hardsnap_scan::ScanError`]
    /// wrapped as [`SimError::Unsupported`] text) and simulator/port
    /// binding errors.
    pub fn new(module: Module, opts: &FpgaOptions) -> Result<Self, SimError> {
        let (instrumented, chain) = instrument(&module, &opts.scan)
            .map_err(|e| SimError::Unsupported(format!("scan instrumentation failed: {e}")))?;
        let layout = SnapshotLayout::new(
            module.name.clone(),
            chain
                .segments
                .iter()
                .map(|seg| RegSlot {
                    name: seg.name.clone(),
                    width: seg.width,
                })
                .collect(),
            chain
                .mems
                .iter()
                .map(|c| MemSlot {
                    name: c.name.clone(),
                    width: c.width,
                    depth: c.depth as usize,
                })
                .collect(),
        );
        let instrumented_name = instrumented.name.clone();
        let sim = Simulator::new(instrumented)?;
        let axi = AxiLite::bind(&sim)?;
        let irq_net = sim.module().find_net(axi_ports::IRQ);
        Ok(FpgaTarget {
            sim,
            axi,
            chain,
            model: opts.model.unwrap_or_default(),
            vtime_ns: 0,
            layout: Arc::new(layout),
            readback: opts.readback,
            instrumented_name,
            irq_net,
            base: None,
            delta_mode: false,
            capture_checksum: 0,
            rec: Recorder::disabled(),
        })
    }

    /// The scan-chain layout of the instrumented design.
    pub fn chain_map(&self) -> &ChainMap {
        &self.chain
    }

    /// The time model in force.
    pub fn model(&self) -> FpgaTimeModel {
        self.model
    }

    /// Name of the instrumented module loaded on the fabric.
    pub fn instrumented_name(&self) -> &str {
        &self.instrumented_name
    }

    /// Reads a **port** of the design — the only visibility a fabric
    /// offers. Internal nets are unreachable through this API.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownNet`] if the name is not a port of the design.
    pub fn port_peek(&mut self, name: &str) -> Result<u64, SimError> {
        let id = self
            .sim
            .module()
            .find_net(name)
            .filter(|&id| self.sim.module().net(id).port.is_some())
            .ok_or_else(|| SimError::UnknownNet(format!("{name} (not a port)")))?;
        let _ = id;
        Ok(self.sim.peek(name)?.bits())
    }

    /// Drives a **port** of the design; same firewall as
    /// [`FpgaTarget::port_peek`].
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownNet`] if the name is not an input port.
    pub fn port_poke(&mut self, name: &str, value: u64) -> Result<(), SimError> {
        let ok = self
            .sim
            .module()
            .find_net(name)
            .map(|id| self.sim.module().net(id).port == Some(hardsnap_rtl::PortDir::Input))
            .unwrap_or(false);
        if !ok {
            return Err(SimError::UnknownNet(format!("{name} (not an input port)")));
        }
        self.sim.poke(name, value)
    }

    fn charge_cycles(&mut self, cycles: u64) {
        self.vtime_ns = self
            .vtime_ns
            .saturating_add(cycles.saturating_mul(self.model.ns_per_cycle));
    }

    /// Shifts the whole chain once around (out and back in), returning
    /// the observed word stream; state is preserved. One whole
    /// `lanes`-bit word moves per fabric cycle, so the pass costs
    /// `shift_cycles()` cycles, not one per bit.
    fn scan_cycle_preserving(&mut self) -> Vec<u64> {
        let cycles = self.chain.shift_cycles();
        let mut span = self.rec.span("scan", "scan-shift-out");
        span.set_arg(self.chain.shift_plan().cells);
        self.rec.count(Counter::ScanShifts);
        self.rec.observe(Metric::ScanShiftCycles, cycles);
        let mut stream = Vec::with_capacity(cycles as usize);
        self.sim
            .poke(scan_ports::SCAN_ENABLE, 1)
            .expect("scan port exists");
        for _ in 0..cycles {
            let word = self
                .sim
                .peek(scan_ports::SCAN_OUT)
                .expect("scan port")
                .bits();
            stream.push(word);
            // Feeding the observed word straight back rotates the chain
            // by one full turn over the pass: state is preserved.
            self.sim.poke(scan_ports::SCAN_IN, word).expect("scan port");
            self.sim.step(1);
        }
        self.sim
            .poke(scan_ports::SCAN_ENABLE, 0)
            .expect("scan port");
        self.charge_cycles(cycles);
        stream
    }

    /// Shifts `stream` in, one word per cycle (previous state is
    /// discarded).
    fn scan_shift_in(&mut self, stream: &[u64]) {
        let mut span = self.rec.span("scan", "scan-shift-in");
        span.set_arg(self.chain.shift_plan().cells);
        self.rec.count(Counter::ScanShifts);
        self.rec
            .observe(Metric::ScanShiftCycles, stream.len() as u64);
        self.sim
            .poke(scan_ports::SCAN_ENABLE, 1)
            .expect("scan port exists");
        for &word in stream {
            self.sim.poke(scan_ports::SCAN_IN, word).expect("scan port");
            self.sim.step(1);
        }
        self.sim
            .poke(scan_ports::SCAN_ENABLE, 0)
            .expect("scan port");
        self.charge_cycles(stream.len() as u64);
    }

    /// Reads all collared memories through the collar ports.
    fn collar_read_all(&mut self) -> Vec<Vec<u64>> {
        let mut out = Vec::with_capacity(self.chain.mems.len());
        if self.chain.mems.is_empty() {
            return out;
        }
        self.sim.poke(scan_ports::MEM_EN, 1).expect("collar port");
        self.sim.poke(scan_ports::MEM_WE, 0).expect("collar port");
        let mut total_words = 0u64;
        for collar in self.chain.mems.clone() {
            let mut words = Vec::with_capacity(collar.depth as usize);
            self.sim
                .poke(scan_ports::MEM_SEL, collar.sel as u64)
                .expect("collar port");
            for a in 0..collar.depth {
                self.sim
                    .poke(scan_ports::MEM_ADDR, a as u64)
                    .expect("collar port");
                let w = self
                    .sim
                    .peek(scan_ports::MEM_RDATA)
                    .expect("collar port")
                    .bits();
                words.push(w);
                total_words += 1;
            }
            out.push(words);
        }
        self.sim.poke(scan_ports::MEM_EN, 0).expect("collar port");
        self.charge_cycles(total_words);
        out
    }

    /// Writes all collared memories through the collar ports: `mems`
    /// holds each collar's words in collar order (an admitted image's
    /// memories).
    fn collar_write_all(&mut self, mems: &[Vec<u64>]) {
        if self.chain.mems.is_empty() {
            return;
        }
        self.sim.poke(scan_ports::MEM_EN, 1).expect("collar port");
        self.sim.poke(scan_ports::MEM_WE, 1).expect("collar port");
        let mut total_words = 0u64;
        for (collar, words) in self.chain.mems.clone().iter().zip(mems) {
            self.sim
                .poke(scan_ports::MEM_SEL, collar.sel as u64)
                .expect("collar port");
            for (a, w) in words.iter().enumerate() {
                self.sim
                    .poke(scan_ports::MEM_ADDR, a as u64)
                    .expect("collar port");
                self.sim
                    .poke(scan_ports::MEM_WDATA, *w)
                    .expect("collar port");
                self.sim.step(1); // collar writes are clocked
                total_words += 1;
            }
        }
        self.sim.poke(scan_ports::MEM_WE, 0).expect("collar port");
        self.sim.poke(scan_ports::MEM_EN, 0).expect("collar port");
        self.charge_cycles(total_words);
    }

    /// Captures a snapshot via the configuration-readback path instead
    /// of the scan chain. Readback is read-only: there is no restore
    /// counterpart, which is exactly why the scan chain exists.
    ///
    /// # Errors
    ///
    /// [`TargetError::Unsupported`] when the modeled fabric lacks
    /// readback (the default).
    pub fn save_via_readback(&mut self) -> Result<HwSnapshot, TargetError> {
        if !self.readback {
            return Err(TargetError::Unsupported(
                "this fabric has no configuration readback; use the scan chain".into(),
            ));
        }
        // Readback observes flip-flop state directly from the fabric
        // configuration plane: model as a privileged dump with readback
        // costs (no cycles consumed on the user clock).
        let snap = self.capture_via_scan_paths_silently();
        self.vtime_ns +=
            self.model.readback_fixed_ns + snap.state_bits() * self.model.readback_ns_per_bit;
        Ok(snap)
    }

    /// Builds the canonical snapshot through the scan paths without
    /// charging time (shared by the scan save and the readback model,
    /// which charge their own costs).
    fn capture_via_scan_paths_silently(&mut self) -> HwSnapshot {
        let saved_vtime = self.vtime_ns;
        let saved_cycle_cost = self.sim.cycle();
        let stream = self.scan_cycle_preserving();
        let regs = self
            .chain
            .decode_words(&stream)
            .expect("stream length matches chain");
        let mems = self.collar_read_all();
        self.vtime_ns = saved_vtime;
        let _ = saved_cycle_cost;
        HwSnapshot::new(self.layout.clone(), self.sim.cycle(), regs, mems)
    }

    /// Loads an admitted image: its register values shift in as one
    /// chain stream and its memories go in through the collar. Given
    /// `cur`, the state the fabric held before, the transfer is still
    /// exact (modeled silently), but the charge is a partial-chain pass
    /// over the segments and collar words that differ from it.
    fn load(&mut self, want: &HwSnapshot, cur: Option<&HwSnapshot>) -> Result<(), TargetError> {
        let stream = self
            .chain
            .encode_words(&want.regs)
            .map_err(|e| TargetError::CorruptSnapshot(e.to_string()))?;
        let saved_vtime = self.vtime_ns;
        self.scan_shift_in(&stream);
        self.collar_write_all(&want.mems);
        if let Some(cur) = cur {
            self.vtime_ns = saved_vtime;
            let diff = SnapshotDelta::between(cur, want).expect("admitted images fit the chain");
            self.charge_partial(&diff);
        }
        Ok(())
    }

    /// Charges a partial-chain pass over `delta`'s activity: only the
    /// scan segments it changes are clocked, plus one collar cycle per
    /// changed memory word.
    fn charge_partial(&mut self, delta: &SnapshotDelta) {
        let mut dirty_segs = vec![false; self.chain.segments.len()];
        for &(i, _) in &delta.regs {
            dirty_segs[i as usize] = true;
        }
        let cycles = self.chain.partial_shift_cycles(&dirty_segs);
        self.charge_cycles(cycles + delta.mem_words.len() as u64);
    }
}

impl HwTarget for FpgaTarget {
    fn name(&self) -> &str {
        "fpga"
    }

    fn caps(&self) -> TargetCaps {
        TargetCaps {
            kind: TargetKind::Fpga,
            full_visibility: false,
            readback: self.readback,
            clock_hz: 1_000_000_000 / self.model.ns_per_cycle.max(1),
        }
    }

    fn design_name(&self) -> &str {
        self.layout.design()
    }

    fn reset(&mut self) {
        // Power-on / reconfiguration: fabric BRAM and flip-flops come up
        // zeroed, then the synchronous reset sequence runs.
        self.sim.clear_state();
        let _ = self.sim.poke(scan_ports::SCAN_ENABLE, 0);
        let _ = self.sim.poke(scan_ports::SCAN_IN, 0);
        let _ = self.sim.poke(axi_ports::RST, 1);
        self.sim.step(4);
        let _ = self.sim.poke(axi_ports::RST, 0);
        self.sim.step(1);
        self.charge_cycles(5);
    }

    fn step(&mut self, cycles: u64) {
        self.sim.step(cycles);
        self.charge_cycles(cycles);
    }

    fn cycle(&self) -> u64 {
        self.sim.cycle()
    }

    fn bus_read(&mut self, addr: u32) -> Result<u32, BusError> {
        self.rec.count(Counter::BusReads);
        let (v, cycles) = self.axi.read(&mut self.sim, addr)?;
        self.charge_cycles(cycles);
        self.vtime_ns += self.model.usb_latency_ns;
        Ok(v)
    }

    fn bus_write(&mut self, addr: u32, data: u32) -> Result<(), BusError> {
        self.rec.count(Counter::BusWrites);
        let cycles = self.axi.write(&mut self.sim, addr, data)?;
        self.charge_cycles(cycles);
        self.vtime_ns += self.model.usb_latency_ns;
        Ok(())
    }

    fn irq_lines(&mut self) -> u32 {
        // 0 only when the design genuinely has no IRQ port (resolved at
        // construction); for a design that has one, a failed peek is a
        // wiring bug and must be loud, never read as "no interrupt".
        match self.irq_net {
            Some(_) => self
                .sim
                .peek(axi_ports::IRQ)
                .expect("irq port resolved at construction")
                .bits() as u32,
            None => 0,
        }
    }

    fn save_snapshot(&mut self) -> Result<HwSnapshot, TargetError> {
        let span = self.rec.span("snapshot", "capture");
        let vtime_before = self.vtime_ns;
        let stream = self.scan_cycle_preserving();
        let regs = self
            .chain
            .decode_words(&stream)
            .map_err(|e| TargetError::CorruptSnapshot(e.to_string()))?;
        let mems = self.collar_read_all();
        self.vtime_ns += self.model.scan_overhead_ns;
        self.rec.count(Counter::SnapshotsSaved);
        self.rec
            .observe(Metric::CaptureVtimeNs, self.vtime_ns - vtime_before);
        drop(span);
        let snap = HwSnapshot::new(self.layout.clone(), self.sim.cycle(), regs, mems);
        self.capture_checksum = snap.content_hash();
        Ok(snap)
    }

    fn set_delta_snapshots(&mut self, on: bool) {
        if self.delta_mode != on {
            self.delta_mode = on;
            // A mode change invalidates the golden base; the next
            // delta-mode capture ships a fresh full image.
            self.base = None;
        }
    }

    fn save_snapshot_delta(&mut self) -> Result<SnapshotCapture, TargetError> {
        if !self.delta_mode {
            return self
                .save_snapshot()
                .map(|s| SnapshotCapture::Full(Arc::new(s)));
        }
        let base = match &self.base {
            Some(b) => b.clone(),
            None => {
                // First capture establishes the golden base: full pass.
                let snap = Arc::new(self.save_snapshot()?);
                self.base = Some(snap.clone());
                return Ok(SnapshotCapture::Full(snap));
            }
        };
        let span = self.rec.span("snapshot", "capture_delta");
        let vtime_before = self.vtime_ns;
        // The controller observes state against its golden base and
        // ships only dirty segments / collar words; the modeled cost is
        // a partial-chain pass over exactly that activity.
        let cur = self.capture_via_scan_paths_silently();
        let delta = SnapshotDelta::between(&base, &cur).expect("captures share the chain layout");
        if delta.needs_rebase(&base) {
            // The delta stopped paying for itself: promote the current
            // image to a new golden base, charged as a full pass.
            self.charge_cycles(self.chain.shift_cycles() + self.chain.mem_words());
            self.vtime_ns += self.model.scan_overhead_ns;
            let snap = Arc::new(cur);
            self.capture_checksum = snap.content_hash();
            self.base = Some(snap.clone());
            self.rec.count(Counter::SnapshotsSaved);
            self.rec
                .observe(Metric::CaptureVtimeNs, self.vtime_ns - vtime_before);
            drop(span);
            return Ok(SnapshotCapture::Full(snap));
        }
        self.charge_partial(&delta);
        self.vtime_ns += self.model.scan_overhead_ns;
        self.rec.count(Counter::SnapshotsSaved);
        self.rec.count(Counter::DeltaSnapshotsSaved);
        let full = base.byte_size().max(1);
        self.rec.observe(
            Metric::SnapshotDirtyPermille,
            (delta.byte_size().min(full) * 1000 / full) as u64,
        );
        self.rec
            .observe(Metric::CaptureVtimeNs, self.vtime_ns - vtime_before);
        drop(span);
        Ok(SnapshotCapture::Delta { base, delta })
    }

    fn restore_snapshot(&mut self, snap: &HwSnapshot) -> Result<(), TargetError> {
        let span = self.rec.span("snapshot", "restore");
        let vtime_before = self.vtime_ns;
        // Admission first — registers AND memories — so the restore is
        // all-or-nothing: once shifting starts nothing below can fail and
        // leave the fabric half-loaded. In delta mode the loaded state is
        // observed first, so only dirty segments and collar words are
        // charged.
        self.layout.admit(snap)?;
        let cur = self
            .delta_mode
            .then(|| self.capture_via_scan_paths_silently());
        self.load(snap, cur.as_ref())?;
        self.vtime_ns += self.model.scan_overhead_ns;
        self.rec.count(Counter::SnapshotsRestored);
        self.rec
            .observe(Metric::RestoreVtimeNs, self.vtime_ns - vtime_before);
        drop(span);
        Ok(())
    }

    fn restore_snapshot_lazy(&mut self, file: &SnapshotFile) -> Result<LazyRestore, TargetError> {
        let span = self.rec.span("snapshot", "restore_lazy");
        let vtime_before = self.vtime_ns;
        // Once the file's header checks pass, observe the loaded state
        // through the scan paths (modeled silently: the partial cost is
        // charged by `load`) and page in only the sections that differ.
        let layout = Arc::clone(&self.layout);
        let mut cur = HwSnapshot::default();
        let (want, paged) = file.page_onto(&layout, || {
            cur = self.capture_via_scan_paths_silently();
            cur.clone()
        })?;
        // All-or-nothing from here on, exactly like the eager restore.
        layout.admit(&want)?;
        self.load(&want, Some(&cur))?;
        self.vtime_ns += self.model.scan_overhead_ns;
        self.rec.count(Counter::SnapshotsRestored);
        self.rec
            .observe(Metric::RestoreVtimeNs, self.vtime_ns - vtime_before);
        drop(span);
        Ok(paged)
    }

    fn virtual_time_ns(&self) -> u64 {
        self.vtime_ns
    }

    fn fork_clean(&self) -> Result<Box<dyn HwTarget>, TargetError> {
        // Replicating a fabric = loading the same bitstream onto another
        // board: shares the elaborated netlist, starts at power-on.
        let sim = self.sim.fork_clean();
        let axi = AxiLite::bind(&sim)
            .map_err(|e| TargetError::CorruptSnapshot(format!("replica AXI bind: {e}")))?;
        Ok(Box::new(FpgaTarget {
            sim,
            axi,
            chain: self.chain.clone(),
            model: self.model,
            vtime_ns: 0,
            // Same bitstream, same chain map: the replica's images share
            // this fabric's layout.
            layout: self.layout.clone(),
            readback: self.readback,
            instrumented_name: self.instrumented_name.clone(),
            irq_net: self.irq_net,
            // Replicas inherit the capture mode but start from power-on
            // with no golden base.
            base: None,
            delta_mode: self.delta_mode,
            capture_checksum: 0,
            // Replicas go to other workers; each worker attaches its
            // own track's recorder.
            rec: Recorder::disabled(),
        }))
    }

    fn snapshot_shape(&self) -> u64 {
        // The layout `save_snapshot` attaches: registers in chain-segment
        // order, memories in collar order with their declared depths.
        self.layout.shape_hash()
    }

    fn capture_checksum(&self) -> u64 {
        // The scan controller IP checksums the chain as it shifts out;
        // the trailer arrives intact even when payload bits do not.
        self.capture_checksum
    }

    fn attach_recorder(&mut self, rec: &Recorder) {
        self.rec = rec.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardsnap_periph::regs;

    fn fpga() -> FpgaTarget {
        let mut t =
            FpgaTarget::new(hardsnap_periph::soc().unwrap(), &FpgaOptions::default()).unwrap();
        t.reset();
        t
    }

    #[test]
    fn lazy_restore_charges_partial_shift_per_paged_segment() {
        use hardsnap_bus::map::soc as m;
        let mut t = fpga();
        t.bus_write(m::TIMER_BASE + regs::timer::LOAD, 42).unwrap();
        t.step(5);
        let snap = t.save_snapshot().unwrap();
        let file = SnapshotFile::from_bytes(hardsnap_bus::persist::write_full(&snap)).unwrap();

        // Quiescent resume (fabric already holds the file's state): no
        // section is paged in, no segment is dirty, and the charge is
        // the fixed controller overhead alone — far below a full pass.
        t.restore_snapshot(&snap).unwrap();
        let v0 = t.virtual_time_ns();
        let st = t.restore_snapshot_lazy(&file).unwrap();
        assert_eq!(st.sections_loaded, 0);
        assert_eq!(t.virtual_time_ns() - v0, t.model().scan_overhead_ns);

        // Divergent resume: sections page in, dirty segments are shifted
        // partially, and the result is bit-exact against the saved image.
        t.bus_write(m::TIMER_BASE + regs::timer::LOAD, 7).unwrap();
        t.step(50);
        let v1 = t.virtual_time_ns();
        let st2 = t.restore_snapshot_lazy(&file).unwrap();
        assert!(st2.sections_loaded >= 1);
        let full_pass = (t.chain.shift_cycles() + t.chain.mem_words()) * t.model().ns_per_cycle
            + t.model().scan_overhead_ns;
        assert!(
            t.virtual_time_ns() - v1 < full_pass,
            "partial restore must undercut a full scan pass"
        );
        let back = t.save_snapshot().unwrap();
        assert_eq!(back.content_hash(), snap.content_hash());
    }

    #[test]
    fn fpga_runs_the_soc_through_the_bus() {
        use hardsnap_bus::map::soc as m;
        let mut t = fpga();
        t.bus_write(m::TIMER_BASE + regs::timer::LOAD, 7).unwrap();
        assert_eq!(t.bus_read(m::TIMER_BASE + regs::timer::VALUE).unwrap(), 7);
    }

    #[test]
    fn scan_save_preserves_running_state() {
        use hardsnap_bus::map::soc as m;
        let mut t = fpga();
        t.bus_write(m::TIMER_BASE + regs::timer::LOAD, 100_000)
            .unwrap();
        t.bus_write(m::TIMER_BASE + regs::timer::CTRL, regs::timer::CTRL_ENABLE)
            .unwrap();
        let v_before = t.bus_read(m::TIMER_BASE + regs::timer::VALUE).unwrap();
        let snap = t.save_snapshot().unwrap();
        // After the save, the design must still be running correctly
        // from exactly where it was (scan loop-back preserves state).
        let v_after = t.bus_read(m::TIMER_BASE + regs::timer::VALUE).unwrap();
        assert!(v_after < v_before, "timer still counting after save");
        assert!(snap.reg("u_timer.value").is_some());
    }

    #[test]
    fn scan_restore_rewinds_exactly() {
        use hardsnap_bus::map::soc as m;
        let mut t = fpga();
        t.bus_write(m::TIMER_BASE + regs::timer::LOAD, 100_000)
            .unwrap();
        t.bus_write(m::TIMER_BASE + regs::timer::CTRL, regs::timer::CTRL_ENABLE)
            .unwrap();
        t.step(50);
        let snap = t.save_snapshot().unwrap();
        let v_at_snap = snap.reg("u_timer.value").unwrap();
        t.step(5000);
        t.restore_snapshot(&snap).unwrap();
        let snap2 = t.save_snapshot().unwrap();
        assert_eq!(snap2.reg("u_timer.value").unwrap(), v_at_snap);
        // Full equality over every register and memory.
        assert!(
            snap.diff_regs(&snap2).is_empty(),
            "diff: {:?}",
            snap.diff_regs(&snap2)
        );
        assert_eq!(snap.mems, snap2.mems);
    }

    #[test]
    fn snapshot_covers_memories_via_collar() {
        use hardsnap_bus::map::soc as m;
        let mut t = fpga();
        // Load a SHA block: lands in u_sha.w_mem.
        for i in 0..16u32 {
            t.bus_write(m::SHA_BASE + regs::sha256::BLOCK0 + 4 * i, 0x1111_0000 + i)
                .unwrap();
        }
        let snap = t.save_snapshot().unwrap();
        let w = snap.mem("u_sha.w_mem").unwrap();
        assert_eq!(w[0], 0x1111_0000);
        assert_eq!(w[15], 0x1111_000f);
    }

    #[test]
    fn visibility_firewall_blocks_internal_nets() {
        let mut t = fpga();
        assert!(t.port_peek("irq").is_ok());
        assert!(
            t.port_peek("u_timer.value").is_err(),
            "internal net must be invisible"
        );
        assert!(t.port_poke("u_timer.value", 0).is_err());
        assert!(t.port_poke("irq", 1).is_err(), "outputs are not drivable");
    }

    #[test]
    fn readback_requires_highend_fabric() {
        let mut t = fpga();
        assert!(matches!(
            t.save_via_readback(),
            Err(TargetError::Unsupported(_))
        ));
        let mut hi = FpgaTarget::new(
            hardsnap_periph::soc().unwrap(),
            &FpgaOptions {
                readback: true,
                ..Default::default()
            },
        )
        .unwrap();
        hi.reset();
        let scan_snap = hi.save_snapshot().unwrap();
        let rb_snap = hi.save_via_readback().unwrap();
        assert!(
            scan_snap.diff_regs(&rb_snap).is_empty(),
            "readback and scan must agree"
        );
    }

    #[test]
    fn virtual_time_scales_with_shift_cycles() {
        let mut t = fpga();
        let cycles = t.chain_map().shift_cycles();
        let words = t.chain_map().mem_words();
        let m = t.model();
        let t0 = t.virtual_time_ns();
        let _ = t.save_snapshot().unwrap();
        let elapsed = t.virtual_time_ns() - t0;
        let expected = (cycles + words) * m.ns_per_cycle + m.scan_overhead_ns;
        assert_eq!(elapsed, expected);
    }

    #[test]
    fn wide_chain_batches_whole_words_per_cycle() {
        // The same design with a 1-lane and the default 32-lane chain:
        // identical snapshots, ~32x fewer scan cycles per save.
        let mut serial = FpgaTarget::new(
            hardsnap_periph::soc().unwrap(),
            &FpgaOptions {
                scan: ScanOptions {
                    width: 1,
                    ..ScanOptions::default()
                },
                ..FpgaOptions::default()
            },
        )
        .unwrap();
        serial.reset();
        let mut wide = fpga();
        assert_eq!(wide.chain_map().lanes(), 32);
        assert_eq!(
            wide.chain_map().chain_bits(),
            serial.chain_map().chain_bits(),
            "lanes add pad cells, never chain segments"
        );
        assert_eq!(
            wide.chain_map().shift_cycles(),
            wide.chain_map().total_cells() / 32
        );

        use hardsnap_bus::map::soc as m;
        for t in [&mut serial, &mut wide] {
            t.bus_write(m::TIMER_BASE + regs::timer::LOAD, 1234)
                .unwrap();
            t.bus_write(m::TIMER_BASE + regs::timer::CTRL, regs::timer::CTRL_ENABLE)
                .unwrap();
            t.step(17);
        }
        let t0s = serial.virtual_time_ns();
        let t0w = wide.virtual_time_ns();
        let snap_serial = serial.save_snapshot().unwrap();
        let snap_wide = wide.save_snapshot().unwrap();
        assert!(
            snap_serial.diff_regs(&snap_wide).is_empty(),
            "lane count must not change snapshot content: {:?}",
            snap_serial.diff_regs(&snap_wide)
        );
        // Scan portion shrinks by the lane factor (fixed overheads and
        // collar words are unchanged).
        let scan_serial = serial.virtual_time_ns() - t0s;
        let scan_wide = wide.virtual_time_ns() - t0w;
        assert!(
            scan_wide < scan_serial,
            "wide chain must be faster: {scan_wide} vs {scan_serial}"
        );
        let mdl = wide.model();
        let saved = scan_serial - scan_wide;
        let expected_saved = (serial.chain_map().shift_cycles() - wide.chain_map().shift_cycles())
            * mdl.ns_per_cycle;
        assert_eq!(saved, expected_saved);

        // And the wide image restores exactly (pad bits are discarded).
        wide.step(5000);
        wide.restore_snapshot(&snap_wide).unwrap();
        let back = wide.save_snapshot().unwrap();
        assert!(back.diff_regs(&snap_wide).is_empty());
    }

    #[test]
    fn charge_cycles_saturates_instead_of_overflowing() {
        let mut t = FpgaTarget::new(
            hardsnap_periph::soc().unwrap(),
            &FpgaOptions {
                model: Some(FpgaTimeModel {
                    ns_per_cycle: u64::MAX,
                    ..FpgaTimeModel::default()
                }),
                ..FpgaOptions::default()
            },
        )
        .unwrap();
        // reset() charges 5 cycles; 5 * u64::MAX must clamp, not wrap
        // (or panic in debug builds).
        t.reset();
        assert_eq!(t.virtual_time_ns(), u64::MAX);
    }

    #[test]
    fn restore_is_all_or_nothing() {
        use hardsnap_bus::map::soc as m;
        let mut t = fpga();
        t.bus_write(m::TIMER_BASE + regs::timer::LOAD, 4321)
            .unwrap();
        let good = t.save_snapshot().unwrap();
        t.step(100);
        let before = t.save_snapshot().unwrap();

        // An out-of-range register value is rejected up front...
        let mut bad = good.clone();
        let w = bad.layout.regs()[0].width;
        bad.regs[0] = 1u64 << w.min(63);
        assert!(matches!(
            t.restore_snapshot(&bad),
            Err(TargetError::CorruptSnapshot(_))
        ));
        // ...as is a truncated memory image...
        let mut bad2 = good.clone();
        bad2.mems[0].pop();
        assert!(matches!(
            t.restore_snapshot(&bad2),
            Err(TargetError::CorruptSnapshot(_))
        ));
        // ...and in both cases the fabric was left untouched.
        let after = t.save_snapshot().unwrap();
        assert!(after.diff_regs(&before).is_empty());
        assert_eq!(after.mems, before.mems);
    }

    #[test]
    fn delta_mode_shifts_only_dirty_scan_segments() {
        use hardsnap_bus::map::soc as m;
        let mut t = fpga();
        t.set_delta_snapshots(true);
        t.bus_write(m::TIMER_BASE + regs::timer::LOAD, 100_000)
            .unwrap();
        t.bus_write(m::TIMER_BASE + regs::timer::CTRL, regs::timer::CTRL_ENABLE)
            .unwrap();

        // First capture ships the full golden base.
        let first = t.save_snapshot_delta().unwrap();
        assert!(matches!(first, SnapshotCapture::Full(_)));
        let mdl = t.model();
        let full_cost = (t.chain_map().shift_cycles() + t.chain_map().mem_words())
            * mdl.ns_per_cycle
            + mdl.scan_overhead_ns;

        // A few quiet cycles only tick the timer: the next capture is a
        // small delta, and its modeled vtime is a partial-chain pass —
        // far below the full pass.
        t.step(3);
        let v0 = t.virtual_time_ns();
        let cap = t.save_snapshot_delta().unwrap();
        let delta_cost = t.virtual_time_ns() - v0;
        match &cap {
            SnapshotCapture::Delta { delta, .. } => {
                assert!(!delta.regs.is_empty(), "timer ticked, so something changed");
                assert!(
                    delta_cost < full_cost,
                    "partial pass {delta_cost} must beat full pass {full_cost}"
                );
            }
            SnapshotCapture::Full(_) => panic!("3 quiet cycles must not force a rebase"),
        }

        // Materializing the delta is bit-identical to a full save taken
        // at the same point.
        let img = cap.materialize().unwrap();
        let full = t.save_snapshot().unwrap();
        assert!(
            img.diff_regs(&full).is_empty(),
            "diff: {:?}",
            img.diff_regs(&full)
        );
        assert_eq!(img.mems, full.mems);

        // A delta-mode restore from a nearby state also charges a
        // partial pass.
        t.step(50);
        let v1 = t.virtual_time_ns();
        t.restore_snapshot(&img).unwrap();
        assert!(t.virtual_time_ns() - v1 < full_cost);
        let back = t.save_snapshot().unwrap();
        assert!(back.diff_regs(&img).is_empty());
    }

    #[test]
    fn fork_clean_replicates_the_fabric() {
        use hardsnap_bus::map::soc as m;
        let mut t = fpga();
        // Dirty the parent: bus write, step, save, step, restore.
        t.bus_write(m::TIMER_BASE + regs::timer::LOAD, 77).unwrap();
        t.step(5);
        let saved = t.save_snapshot().unwrap();
        t.step(5);
        t.restore_snapshot(&saved).unwrap();
        let mut r = t.fork_clean().unwrap();
        assert_eq!(r.cycle(), 0, "replica starts at power-on");
        // It captures exactly what a cold-built fabric does, before and
        // after reset.
        let mut fresh =
            FpgaTarget::new(hardsnap_periph::soc().unwrap(), &FpgaOptions::default()).unwrap();
        let first = r.save_snapshot().unwrap();
        assert_eq!(first, fresh.save_snapshot().unwrap());
        r.reset();
        fresh.reset();
        let first = r.save_snapshot().unwrap();
        assert_eq!(first, fresh.save_snapshot().unwrap());
        assert_eq!(
            r.bus_read(m::TIMER_BASE + regs::timer::VALUE).unwrap(),
            0,
            "replica state is independent of the parent"
        );
        // Snapshots interchange between parent and replica, which share
        // one chain layout.
        let snap = t.save_snapshot().unwrap();
        assert!(Arc::ptr_eq(&snap.layout, &first.layout));
        assert_eq!(r.snapshot_shape(), t.snapshot_shape());
        r.restore_snapshot(&snap).unwrap();
        assert_eq!(r.bus_read(m::TIMER_BASE + regs::timer::VALUE).unwrap(), 77);
    }

    #[test]
    fn a_foreign_layout_restores_only_in_chain_order() {
        use hardsnap_bus::map::soc as m;
        let mut t = fpga();
        t.bus_write(m::TIMER_BASE + regs::timer::LOAD, 4242)
            .unwrap();
        let snap = t.save_snapshot().unwrap();
        // The same state under a layout listing the registers and the
        // memories in reverse is refused, and the fabric is untouched.
        let l = &snap.layout;
        let reversed = SnapshotLayout::new(
            l.design(),
            l.regs().iter().rev().cloned().collect(),
            l.mems().iter().rev().cloned().collect(),
        );
        let foreign = HwSnapshot::new(
            Arc::new(reversed),
            snap.cycle,
            snap.regs.iter().rev().copied().collect(),
            snap.mems.iter().rev().cloned().collect(),
        );
        let mut r = fpga();
        let before = r.save_snapshot().unwrap();
        assert!(matches!(
            r.restore_snapshot(&foreign),
            Err(TargetError::CorruptSnapshot(_))
        ));
        let after = r.save_snapshot().unwrap();
        assert_eq!((&after.regs, &after.mems), (&before.regs, &before.mems));
        // An equal layout of its own (a decoded copy) still restores.
        let hardsnap_bus::PersistedImage::Full(decoded) =
            hardsnap_bus::PersistedImage::from_bytes(&hardsnap_bus::persist::write_full(&snap))
                .unwrap()
        else {
            panic!("a full image decodes as one");
        };
        assert!(!Arc::ptr_eq(&decoded.layout, &snap.layout));
        r.restore_snapshot(&decoded).unwrap();
        let back = r.save_snapshot().unwrap();
        assert_eq!((&back.regs, &back.mems), (&snap.regs, &snap.mems));
    }

    #[test]
    fn snapshot_interchanges_with_simulator_target() {
        use hardsnap_bus::map::soc as m;
        use hardsnap_bus::transfer_state;
        use hardsnap_sim::SimTarget;
        // Run on the FPGA, transfer to the simulator, continue there.
        let mut f = fpga();
        f.bus_write(m::TIMER_BASE + regs::timer::LOAD, 1000)
            .unwrap();
        f.bus_write(
            m::TIMER_BASE + regs::timer::CTRL,
            regs::timer::CTRL_ENABLE | regs::timer::CTRL_ONESHOT | regs::timer::CTRL_IRQ_EN,
        )
        .unwrap();
        f.step(500);
        let mut s = SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap();
        s.reset();
        let snap = transfer_state(&mut f, &mut s).unwrap();
        assert_eq!(snap.design(), "soc_top");
        // The simulator continues the countdown and raises the IRQ.
        assert_eq!(s.irq_lines(), 0);
        s.step(600);
        assert_eq!(s.irq_lines() & 0b0010, 0b0010);
        // And the reverse direction: simulator -> FPGA.
        let mut f2 = fpga();
        let snap2 = transfer_state(&mut s, &mut f2).unwrap();
        assert_eq!(
            f2.irq_lines() & 0b0010,
            0b0010,
            "irq state transferred back"
        );
        let _ = snap2;
    }
}
