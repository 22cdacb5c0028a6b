//! The simulator-platform [`HwTarget`]: the Verilator-target analogue.
//!
//! Snapshots are taken by direct state serialization — the moral
//! equivalent of the paper's CRIU process checkpoint (flush pending I/O,
//! freeze the simulator process, dump its memory) — so they are exact and
//! independent of the scan chain. The time model charges CRIU-like costs
//! (large fixed freeze overhead plus a per-byte dump cost) to virtual
//! time, and a per-cycle host cost reflecting that HDL simulation is
//! orders of magnitude slower than the FPGA fabric.

use crate::{AxiLite, SimEngine, SimError, Simulator, SnapshotTracker, VcdTrace};
use hardsnap_bus::{
    axi_ports, mem_words_hash, regs_values_hash, BusError, HwSnapshot, HwTarget, ImageKind,
    LazyRestore, SectionTag, SnapshotCapture, SnapshotFile, TargetCaps, TargetError, TargetKind,
};
use hardsnap_rtl::NetId;
use hardsnap_telemetry::{Counter, Metric, Recorder};
use std::sync::Arc;

/// Virtual-time cost model of the simulator platform.
///
/// Defaults are calibrated to the orders of magnitude reported for
/// Verilator-class simulation and CRIU checkpointing (see
/// `EXPERIMENTS.md` for the calibration notes):
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimTimeModel {
    /// Host nanoseconds consumed per simulated cycle (~0.5 MHz effective
    /// simulation speed).
    pub ns_per_cycle: u64,
    /// Per-transaction overhead of the shared-memory remote interface.
    pub io_overhead_ns: u64,
    /// Fixed freeze/checkpoint overhead per snapshot (CRIU analogue).
    pub snapshot_fixed_ns: u64,
    /// Incremental cost per byte of checkpoint image.
    pub snapshot_ns_per_byte: u64,
    /// Fixed overhead of a delta (dirty-page style) capture or restore:
    /// no fork of the full image, just a soft-dirty scan — two orders of
    /// magnitude below the full freeze.
    pub delta_snapshot_fixed_ns: u64,
}

impl Default for SimTimeModel {
    fn default() -> Self {
        SimTimeModel {
            ns_per_cycle: 2_000,           // ~0.5 MHz effective
            io_overhead_ns: 2_000,         // shared-memory hop
            snapshot_fixed_ns: 20_000_000, // 20 ms freeze + fork
            snapshot_ns_per_byte: 100,
            delta_snapshot_fixed_ns: 200_000, // soft-dirty walk, no fork
        }
    }
}

/// The simulator hardware target.
///
/// # Examples
///
/// ```no_run
/// use hardsnap_sim::SimTarget;
/// use hardsnap_bus::HwTarget;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let flat: hardsnap_rtl::Module = unimplemented!();
/// let mut target = SimTarget::new(flat)?;
/// target.reset();
/// target.bus_write(0x4000_0000, 0x55)?;
/// let snap = target.save_snapshot()?;
/// target.step(100);
/// target.restore_snapshot(&snap)?; // exact rewind
/// # Ok(())
/// # }
/// ```
pub struct SimTarget {
    sim: Simulator,
    axi: AxiLite,
    model: SimTimeModel,
    vtime_ns: u64,
    trace: Option<VcdTrace>,
    /// IRQ net resolved once at construction: `None` means the design
    /// genuinely has no IRQ output (id-based peeks cannot fail, so a
    /// raised line is never silently misread as 0).
    irq_net: Option<NetId>,
    tracker: SnapshotTracker,
    delta_mode: bool,
    /// Content hash of the most recent full capture — the checksum the
    /// (modeled) checkpoint engine computes over the complete image,
    /// reported through [`HwTarget::capture_checksum`].
    capture_checksum: u64,
    rec: Recorder,
}

impl SimTarget {
    /// Builds a simulator target for a flat design exposing the standard
    /// AXI4-Lite slave ports.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction errors and missing-port errors.
    pub fn new(module: hardsnap_rtl::Module) -> Result<Self, SimError> {
        Self::with_model_and_engine(module, SimTimeModel::default(), SimEngine::Bytecode)
    }

    /// Builds a target on a specific simulator backend (bit-exact
    /// alternatives; see [`SimEngine`]).
    ///
    /// # Errors
    ///
    /// Same as [`SimTarget::new`].
    pub fn with_engine(module: hardsnap_rtl::Module, engine: SimEngine) -> Result<Self, SimError> {
        Self::with_model_and_engine(module, SimTimeModel::default(), engine)
    }

    /// Builds a target with an explicit time model.
    ///
    /// # Errors
    ///
    /// Same as [`SimTarget::new`].
    pub fn with_model(module: hardsnap_rtl::Module, model: SimTimeModel) -> Result<Self, SimError> {
        Self::with_model_and_engine(module, model, SimEngine::Bytecode)
    }

    /// Builds a target with an explicit time model and engine.
    ///
    /// # Errors
    ///
    /// Same as [`SimTarget::new`].
    pub fn with_model_and_engine(
        module: hardsnap_rtl::Module,
        model: SimTimeModel,
        engine: SimEngine,
    ) -> Result<Self, SimError> {
        let sim = Simulator::with_engine(module, engine)?;
        let axi = AxiLite::bind(&sim)?;
        let irq_net = sim.module().find_net(axi_ports::IRQ);
        let tracker = SnapshotTracker::new(&sim);
        Ok(SimTarget {
            sim,
            axi,
            model,
            vtime_ns: 0,
            trace: None,
            irq_net,
            tracker,
            delta_mode: false,
            capture_checksum: 0,
            rec: Recorder::disabled(),
        })
    }

    /// Enables full-trace recording (the simulator-only capability).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(VcdTrace::new(&mut self.sim));
        }
    }

    /// Takes the recorded trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<String> {
        self.trace.take().map(VcdTrace::into_string)
    }

    /// Full-visibility access to the underlying simulator (peek/poke any
    /// net — this is what "simulator target" buys you).
    pub fn simulator(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// The time model in force.
    pub fn model(&self) -> SimTimeModel {
        self.model
    }

    fn charge_cycles(&mut self, cycles: u64) {
        self.vtime_ns = self
            .vtime_ns
            .saturating_add(cycles.saturating_mul(self.model.ns_per_cycle));
    }

    fn sample_trace(&mut self) {
        if let Some(t) = &mut self.trace {
            t.sample(&mut self.sim);
        }
    }

    /// Builds the canonical snapshot from the simulator's full-visibility
    /// state: all clocked registers plus all memories (ids resolved once
    /// at construction by the tracker).
    fn capture(&mut self) -> HwSnapshot {
        self.tracker.capture_full(&self.sim)
    }
}

impl HwTarget for SimTarget {
    fn name(&self) -> &str {
        "simulator"
    }

    fn caps(&self) -> TargetCaps {
        TargetCaps {
            kind: TargetKind::Simulator,
            full_visibility: true,
            readback: false,
            clock_hz: 1_000_000_000 / self.model.ns_per_cycle.max(1),
        }
    }

    fn design_name(&self) -> &str {
        &self.sim.module().name
    }

    fn reset(&mut self) {
        // Power-on: zero state (registers AND memories — a power cycle
        // clears SRAM), then a proper synchronous reset pulse.
        self.sim.clear_state();
        let _ = self.sim.poke(axi_ports::RST, 1);
        self.sim.step(4);
        let _ = self.sim.poke(axi_ports::RST, 0);
        self.sim.step(1);
        self.charge_cycles(5);
        self.sample_trace();
    }

    fn step(&mut self, cycles: u64) {
        if let Some(_t) = &self.trace {
            for _ in 0..cycles {
                self.sim.step(1);
                self.sample_trace();
            }
        } else {
            self.sim.step(cycles);
        }
        self.charge_cycles(cycles);
    }

    fn cycle(&self) -> u64 {
        self.sim.cycle()
    }

    fn bus_read(&mut self, addr: u32) -> Result<u32, BusError> {
        self.rec.count(Counter::BusReads);
        let (v, cycles) = self.axi.read(&mut self.sim, addr)?;
        self.charge_cycles(cycles);
        self.vtime_ns += self.model.io_overhead_ns;
        self.sample_trace();
        Ok(v)
    }

    fn bus_write(&mut self, addr: u32, data: u32) -> Result<(), BusError> {
        self.rec.count(Counter::BusWrites);
        let cycles = self.axi.write(&mut self.sim, addr, data)?;
        self.charge_cycles(cycles);
        self.vtime_ns += self.model.io_overhead_ns;
        self.sample_trace();
        Ok(())
    }

    fn irq_lines(&mut self) -> u32 {
        // 0 only when the design genuinely has no IRQ output; with the
        // net resolved at construction the peek itself cannot fail, so a
        // raised line can never be silently swallowed as "no IRQ".
        match self.irq_net {
            Some(id) => {
                self.sim.settle_for_trace();
                self.sim.peek_id(id).bits() as u32
            }
            None => 0,
        }
    }

    fn save_snapshot(&mut self) -> Result<HwSnapshot, TargetError> {
        let mut span = self.rec.span("snapshot", "capture");
        let snap = self.capture();
        self.capture_checksum = snap.content_hash();
        let charged = self.model.snapshot_fixed_ns
            + snap.byte_size() as u64 * self.model.snapshot_ns_per_byte;
        self.vtime_ns += charged;
        span.set_arg(snap.byte_size() as u64);
        self.rec.count(Counter::SnapshotsSaved);
        self.rec.observe(Metric::CaptureVtimeNs, charged);
        Ok(snap)
    }

    fn set_delta_snapshots(&mut self, on: bool) {
        if self.delta_mode != on {
            self.delta_mode = on;
            // A mode change invalidates the shared base: the next
            // delta-mode capture starts from a fresh full image.
            self.tracker.reset();
        }
    }

    fn save_snapshot_delta(&mut self) -> Result<SnapshotCapture, TargetError> {
        if !self.delta_mode {
            return self
                .save_snapshot()
                .map(|s| SnapshotCapture::Full(Arc::new(s)));
        }
        let mut span = self.rec.span("snapshot", "capture_delta");
        let cap = self.tracker.capture(&mut self.sim);
        if let SnapshotCapture::Full(s) = &cap {
            self.capture_checksum = s.content_hash();
        }
        let charged = match &cap {
            // A full capture (first, or a rebase) pays the full
            // freeze-and-dump cost.
            SnapshotCapture::Full(s) => {
                self.model.snapshot_fixed_ns
                    + s.byte_size() as u64 * self.model.snapshot_ns_per_byte
            }
            SnapshotCapture::Delta { delta, .. } => {
                self.model.delta_snapshot_fixed_ns
                    + delta.byte_size() as u64 * self.model.snapshot_ns_per_byte
            }
        };
        self.vtime_ns = self.vtime_ns.saturating_add(charged);
        span.set_arg(cap.byte_size() as u64);
        self.rec.count(Counter::SnapshotsSaved);
        if matches!(cap, SnapshotCapture::Delta { .. }) {
            self.rec.count(Counter::DeltaSnapshotsSaved);
        }
        if let Some(full_bytes) = self.tracker.base().map(|b| b.byte_size()) {
            if full_bytes > 0 {
                let permille = (cap.byte_size().min(full_bytes) * 1000 / full_bytes) as u64;
                self.rec.observe(Metric::SnapshotDirtyPermille, permille);
            }
        }
        self.rec.observe(Metric::CaptureVtimeNs, charged);
        Ok(cap)
    }

    fn restore_snapshot(&mut self, snap: &HwSnapshot) -> Result<(), TargetError> {
        let mut span = self.rec.span("snapshot", "restore");
        span.set_arg(snap.byte_size() as u64);
        if snap.design != self.sim.module().name {
            return Err(TargetError::DesignMismatch {
                expected: snap.design.clone(),
                found: self.sim.module().name.clone(),
            });
        }
        // Shape is validated up front (all-or-nothing: a corrupt image
        // leaves the target untouched), then only the registers and
        // memory words that differ from the loaded state are written.
        let stats = self
            .tracker
            .restore_diff(&mut self.sim, snap)
            .map_err(TargetError::CorruptSnapshot)?;
        let charged = if self.delta_mode {
            // Dirty-page restore: fixed soft-dirty walk plus only the
            // bytes that actually differed.
            self.model.delta_snapshot_fixed_ns
                + stats.byte_size() as u64 * self.model.snapshot_ns_per_byte
        } else {
            self.model.snapshot_fixed_ns + snap.byte_size() as u64 * self.model.snapshot_ns_per_byte
        };
        self.vtime_ns = self.vtime_ns.saturating_add(charged);
        self.rec.count(Counter::SnapshotsRestored);
        self.rec.observe(Metric::RestoreVtimeNs, charged);
        self.sample_trace();
        Ok(())
    }

    fn restore_snapshot_lazy(&mut self, file: &SnapshotFile) -> Result<LazyRestore, TargetError> {
        let mut span = self.rec.span("snapshot", "restore_lazy");
        if file.kind() != ImageKind::Full {
            return Err(TargetError::Unsupported(
                "lazy restore needs a full snapshot file; resolve the delta chain first".into(),
            ));
        }
        let corrupt = |e: hardsnap_bus::PersistError| TargetError::CorruptSnapshot(e.to_string());
        let meta = file.meta().map_err(corrupt)?;
        if meta.design != self.sim.module().name {
            return Err(TargetError::DesignMismatch {
                expected: meta.design,
                found: self.sim.module().name.clone(),
            });
        }
        if meta.shape_hash != self.snapshot_shape() {
            return Err(TargetError::CorruptSnapshot(
                "snapshot file shape does not match the running design".into(),
            ));
        }
        // Host-side live image (no virtual-time charge): the section
        // table's content hashes decide which payloads are read at all.
        // Sections that already match the live state are never loaded —
        // the demand-paged part of "demand-paged lazy restore".
        let mut want = self.capture();
        let mut total = 0usize;
        let mut loaded = 0usize;
        let mut bytes = 0u64;
        for entry in file.sections() {
            match entry.tag {
                SectionTag::Regs => {
                    total += 1;
                    if entry.content_hash != regs_values_hash(want.regs.iter().map(|r| r.bits)) {
                        want.regs = file.load_regs().map_err(corrupt)?;
                        loaded += 1;
                        bytes += entry.len;
                    }
                }
                SectionTag::Mem => {
                    total += 1;
                    let idx = entry.index as usize;
                    let live = want.mems.get(idx).ok_or_else(|| {
                        TargetError::CorruptSnapshot(format!(
                            "memory section index {idx} out of range"
                        ))
                    })?;
                    if entry.content_hash != mem_words_hash(&live.words) {
                        want.mems[idx] = file.load_mem(entry.index).map_err(corrupt)?;
                        loaded += 1;
                        bytes += entry.len;
                    }
                }
                _ => {}
            }
        }
        self.tracker
            .restore_diff(&mut self.sim, &want)
            .map_err(TargetError::CorruptSnapshot)?;
        // Paged restore cost: a fixed soft-dirty walk plus only the
        // payload bytes that actually came off disk — time to first
        // quantum scales with *touched* state, not design size.
        let charged = self
            .model
            .delta_snapshot_fixed_ns
            .saturating_add(bytes.saturating_mul(self.model.snapshot_ns_per_byte));
        self.vtime_ns = self.vtime_ns.saturating_add(charged);
        self.rec.count(Counter::SnapshotsRestored);
        self.rec.observe(Metric::RestoreVtimeNs, charged);
        span.set_arg(bytes);
        self.sample_trace();
        Ok(LazyRestore {
            sections_total: total,
            sections_loaded: loaded,
            bytes_loaded: bytes,
        })
    }

    fn virtual_time_ns(&self) -> u64 {
        self.vtime_ns
    }

    fn fork_clean(&self) -> Result<Box<dyn HwTarget>, TargetError> {
        let sim = self.sim.fork_clean();
        let axi = AxiLite::bind(&sim)
            .map_err(|e| TargetError::CorruptSnapshot(format!("replica AXI bind: {e}")))?;
        let tracker = SnapshotTracker::new(&sim);
        Ok(Box::new(SimTarget {
            sim,
            axi,
            model: self.model,
            vtime_ns: 0,
            trace: None,
            irq_net: self.irq_net,
            tracker,
            // Replicas inherit the capture mode (power-on state, fresh
            // base on their first delta capture).
            delta_mode: self.delta_mode,
            // Replicas go to other workers; each worker attaches its
            // own track's recorder.
            rec: Recorder::disabled(),
            capture_checksum: 0,
        }))
    }

    fn snapshot_shape(&self) -> u64 {
        // Must iterate exactly as `capture` does so honest captures
        // always hash equal to the design's own shape.
        let module = self.sim.module();
        let reg_ids = module.clocked_regs();
        hardsnap_bus::shape_hash_parts(
            &module.name,
            reg_ids.iter().map(|&id| {
                let net = module.net(id);
                (net.name.as_str(), net.width)
            }),
            module
                .iter_mems()
                .map(|(id, mem)| (mem.name.as_str(), mem.width, self.sim.mem_words(id).len())),
        )
    }

    fn capture_checksum(&self) -> u64 {
        // The checkpoint engine checksums the complete image as it
        // dumps it; the trailer survives link damage to the payload.
        self.capture_checksum
    }

    fn attach_recorder(&mut self, rec: &Recorder) {
        self.rec = rec.clone();
        // The simulator reports comb-activity counters on its own.
        self.sim.attach_recorder(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardsnap_verilog::parse_design;

    /// A tiny AXI peripheral with internal state: a write to offset 0
    /// starts a countdown; the counter is invisible on the bus until it
    /// reaches zero, then status (offset 4) reads 1. Exercises the fact
    /// that snapshots must capture state *not* reachable via the bus.
    const COUNTDOWN: &str = r#"
    module countdown (
        input wire clk, input wire rst,
        input wire s_axi_awvalid, input wire [31:0] s_axi_awaddr,
        output reg s_axi_awready,
        input wire s_axi_wvalid, input wire [31:0] s_axi_wdata,
        output reg s_axi_wready,
        output reg s_axi_bvalid, output reg [1:0] s_axi_bresp,
        input wire s_axi_bready,
        input wire s_axi_arvalid, input wire [31:0] s_axi_araddr,
        output reg s_axi_arready,
        output reg s_axi_rvalid, output reg [31:0] s_axi_rdata,
        output reg [1:0] s_axi_rresp,
        input wire s_axi_rready,
        output wire irq
    );
        reg [15:0] count;
        reg busy;
        reg aw_got; reg w_got; reg [31:0] waddr; reg [31:0] wdata_l;
        assign irq = busy && (count == 16'd0);
        always @(posedge clk) begin
            if (rst) begin
                count <= 16'd0; busy <= 1'b0;
                s_axi_awready <= 1'b0; s_axi_wready <= 1'b0;
                s_axi_bvalid <= 1'b0; s_axi_bresp <= 2'd0;
                s_axi_arready <= 1'b0; s_axi_rvalid <= 1'b0;
                s_axi_rdata <= 32'd0; s_axi_rresp <= 2'd0;
                aw_got <= 1'b0; w_got <= 1'b0; waddr <= 32'd0; wdata_l <= 32'd0;
            end else begin
                if (busy && count != 16'd0) count <= count - 16'd1;
                s_axi_awready <= 1'b0; s_axi_wready <= 1'b0;
                if (s_axi_awvalid && !aw_got && !s_axi_awready) begin
                    s_axi_awready <= 1'b1; waddr <= s_axi_awaddr; aw_got <= 1'b1;
                end
                if (s_axi_wvalid && !w_got && !s_axi_wready) begin
                    s_axi_wready <= 1'b1; wdata_l <= s_axi_wdata; w_got <= 1'b1;
                end
                if (aw_got && w_got && !s_axi_bvalid) begin
                    s_axi_bvalid <= 1'b1; s_axi_bresp <= 2'd0;
                    if (waddr[7:0] == 8'h00) begin
                        count <= wdata_l[15:0]; busy <= 1'b1;
                    end
                end
                if (s_axi_bvalid && s_axi_bready) begin
                    s_axi_bvalid <= 1'b0; aw_got <= 1'b0; w_got <= 1'b0;
                end
                s_axi_arready <= 1'b0;
                if (s_axi_arvalid && !s_axi_rvalid && !s_axi_arready) begin
                    s_axi_arready <= 1'b1; s_axi_rvalid <= 1'b1; s_axi_rresp <= 2'd0;
                    if (s_axi_araddr[7:0] == 8'h04)
                        s_axi_rdata <= {31'd0, busy && (count == 16'd0)};
                    else s_axi_rdata <= 32'd0;
                end
                if (s_axi_rvalid && s_axi_rready) s_axi_rvalid <= 1'b0;
            end
        end
    endmodule
    "#;

    /// The countdown on `engine`, as built: no reset, no stimulus.
    fn cold(engine: SimEngine) -> SimTarget {
        let d = parse_design(COUNTDOWN).unwrap();
        let flat = hardsnap_rtl::elaborate(&d, "countdown").unwrap();
        SimTarget::with_engine(flat, engine).unwrap()
    }

    fn target() -> SimTarget {
        let mut t = cold(SimEngine::Bytecode);
        t.reset();
        t
    }

    #[test]
    fn countdown_runs_and_raises_irq() {
        let mut t = target();
        t.bus_write(0x00, 10).unwrap();
        assert_eq!(t.irq_lines(), 0);
        t.step(20);
        assert_eq!(t.irq_lines(), 1);
        assert_eq!(t.bus_read(0x04).unwrap(), 1);
    }

    #[test]
    fn snapshot_restores_hidden_state_exactly() {
        let mut t = target();
        t.bus_write(0x00, 1000).unwrap();
        t.step(5);
        let snap = t.save_snapshot().unwrap();
        let count_at_snap = snap.reg("count").unwrap();
        assert!(count_at_snap < 1000 && count_at_snap > 900);

        // Run to completion, then rewind.
        t.step(2000);
        assert_eq!(t.irq_lines(), 1);
        t.restore_snapshot(&snap).unwrap();
        assert_eq!(t.irq_lines(), 0);
        let snap2 = t.save_snapshot().unwrap();
        assert_eq!(snap2.reg("count").unwrap(), count_at_snap);
        // And the countdown continues correctly from the restored point.
        t.step(2000);
        assert_eq!(t.irq_lines(), 1);
    }

    #[test]
    fn virtual_time_charges_cycles_io_and_snapshots() {
        let mut t = target();
        let m = t.model();
        let t0 = t.virtual_time_ns();
        t.step(100);
        assert_eq!(t.virtual_time_ns() - t0, 100 * m.ns_per_cycle);
        let t1 = t.virtual_time_ns();
        t.bus_write(0x00, 5).unwrap();
        assert!(t.virtual_time_ns() - t1 >= m.io_overhead_ns + 2 * m.ns_per_cycle);
        let t2 = t.virtual_time_ns();
        let snap = t.save_snapshot().unwrap();
        let expect = m.snapshot_fixed_ns + snap.byte_size() as u64 * m.snapshot_ns_per_byte;
        assert_eq!(t.virtual_time_ns() - t2, expect);
    }

    #[test]
    fn trace_records_bus_activity() {
        let mut t = target();
        t.enable_trace();
        t.bus_write(0x00, 3).unwrap();
        t.step(10);
        let vcd = t.take_trace().unwrap();
        assert!(vcd.contains("$enddefinitions"));
        assert!(
            vcd.contains("count"),
            "trace should include internal registers"
        );
    }

    #[test]
    fn restore_of_foreign_design_is_rejected() {
        let mut t = target();
        let mut snap = t.save_snapshot().unwrap();
        snap.design = "other_design".into();
        assert!(matches!(
            t.restore_snapshot(&snap),
            Err(TargetError::DesignMismatch { .. })
        ));
    }

    #[test]
    fn fork_clean_replicas_are_independent_and_power_on() {
        for engine in [SimEngine::Bytecode, SimEngine::Interpreter] {
            let mut t = cold(engine);
            t.reset();
            // Dirty the parent: bus write, step, save, step, restore.
            t.bus_write(0x00, 50).unwrap();
            t.step(5);
            let saved = t.save_snapshot().unwrap();
            t.step(5);
            t.restore_snapshot(&saved).unwrap();
            let mut r = t.fork_clean().unwrap();
            // The replica starts from power-on, not from the parent's
            // state: it captures exactly what a cold-built target does,
            // before and after reset.
            assert_eq!(r.cycle(), 0);
            assert_eq!(r.virtual_time_ns(), 0);
            let mut fresh = cold(engine);
            let first = r.save_snapshot().unwrap();
            assert_eq!(first, fresh.save_snapshot().unwrap(), "{engine:?}");
            r.reset();
            fresh.reset();
            let first = r.save_snapshot().unwrap();
            assert_eq!(first, fresh.save_snapshot().unwrap(), "{engine:?}");
            assert_eq!(r.irq_lines(), 0);
            // Driving the replica does not disturb the parent.
            r.bus_write(0x00, 1).unwrap();
            r.step(10);
            assert_eq!(r.irq_lines(), 1);
            let parent_snap = t.save_snapshot().unwrap();
            assert!(parent_snap.reg("count").unwrap() > 40);
            // Snapshots interchange between parent and replica (same design).
            r.restore_snapshot(&parent_snap).unwrap();
            let back = r.save_snapshot().unwrap();
            assert_eq!(back.reg("count"), parent_snap.reg("count"));
        }
    }

    #[test]
    fn charge_cycles_saturates_instead_of_overflowing() {
        let d = parse_design(COUNTDOWN).unwrap();
        let flat = hardsnap_rtl::elaborate(&d, "countdown").unwrap();
        let model = SimTimeModel {
            ns_per_cycle: u64::MAX,
            ..SimTimeModel::default()
        };
        let mut t = SimTarget::with_model(flat, model).unwrap();
        // reset() charges 5 cycles; 5 * u64::MAX must clamp, not wrap
        // (or panic in debug builds).
        t.reset();
        assert_eq!(t.virtual_time_ns(), u64::MAX);
    }

    #[test]
    fn restore_is_all_or_nothing() {
        let mut t = target();
        t.bus_write(0x00, 500).unwrap();
        t.step(5);
        let good = t.save_snapshot().unwrap();
        t.step(50);
        let before = t.capture();

        // A value wider than its register must be rejected up front...
        let mut bad = good.clone();
        let w = bad.regs[0].width;
        bad.regs[0].bits = 1u64 << w.min(63);
        assert!(matches!(
            t.restore_snapshot(&bad),
            Err(TargetError::CorruptSnapshot(_))
        ));
        // ...as must a missing register...
        let mut bad2 = good.clone();
        bad2.regs.remove(0);
        assert!(matches!(
            t.restore_snapshot(&bad2),
            Err(TargetError::CorruptSnapshot(_))
        ));
        // ...and in both cases the failed restore wrote NOTHING.
        assert_eq!(t.capture().content_hash(), before.content_hash());

        // The untampered snapshot still restores fine afterwards.
        t.restore_snapshot(&good).unwrap();
        assert_eq!(t.capture().content_hash(), good.content_hash());
    }

    #[test]
    fn delta_mode_captures_and_restores_are_activity_proportional() {
        let mut t = target();
        let m = t.model();
        t.set_delta_snapshots(true);
        t.bus_write(0x00, 20000).unwrap();

        // First capture in delta mode establishes the full base.
        let first = t.save_snapshot_delta().unwrap();
        assert!(matches!(first, SnapshotCapture::Full(_)));

        // A few quiet cycles only tick the countdown: the capture ships
        // as a small delta and is charged the delta cost exactly.
        t.step(3);
        let v0 = t.virtual_time_ns();
        let cap = t.save_snapshot_delta().unwrap();
        match &cap {
            SnapshotCapture::Delta { delta, .. } => {
                let expect =
                    m.delta_snapshot_fixed_ns + delta.byte_size() as u64 * m.snapshot_ns_per_byte;
                assert_eq!(t.virtual_time_ns() - v0, expect);
                assert!(
                    expect < m.snapshot_fixed_ns,
                    "delta must be cheaper than full"
                );
            }
            SnapshotCapture::Full(_) => panic!("3 quiet cycles must not force a rebase"),
        }

        // Materializing the delta is bit-identical to a direct full scan.
        assert_eq!(
            cap.materialize().unwrap().content_hash(),
            t.capture().content_hash()
        );

        // Restoring it from a later state touches only what changed and
        // charges the delta restore cost (< full fixed cost).
        let img = cap.materialize().unwrap();
        t.step(100);
        let v1 = t.virtual_time_ns();
        t.restore_snapshot(&img).unwrap();
        assert!(t.virtual_time_ns() - v1 < m.snapshot_fixed_ns);
        assert_eq!(t.capture().content_hash(), img.content_hash());

        // And the next delta capture after the restore is still sound.
        let cap2 = t.save_snapshot_delta().unwrap();
        assert_eq!(
            cap2.materialize().unwrap().content_hash(),
            t.capture().content_hash()
        );
    }

    #[test]
    fn lazy_restore_loads_only_differing_sections() {
        let mut t = target();
        t.bus_write(0x00, 300).unwrap();
        t.step(5);
        let snap = t.save_snapshot().unwrap();
        let file = SnapshotFile::from_bytes(hardsnap_bus::persist::write_full(&snap)).unwrap();
        let m = t.model();

        // Quiescent resume: live state already equals the file, so no
        // section is paged in and only the fixed walk is charged.
        t.restore_snapshot(&snap).unwrap();
        let v0 = t.virtual_time_ns();
        let st = t.restore_snapshot_lazy(&file).unwrap();
        assert_eq!(st.sections_total, 1); // countdown has no memories
        assert_eq!(st.sections_loaded, 0);
        assert_eq!(st.bytes_loaded, 0);
        assert_eq!(t.virtual_time_ns() - v0, m.delta_snapshot_fixed_ns);

        // Divergent resume: the register section differs, is loaded, and
        // the restored state is bit-identical to the eager path.
        t.step(123);
        let st2 = t.restore_snapshot_lazy(&file).unwrap();
        assert_eq!(st2.sections_loaded, 1);
        assert!(st2.bytes_loaded > 0);
        assert_eq!(t.capture().content_hash(), snap.content_hash());

        // A wrong-design file is rejected before any state is written.
        let mut foreign = snap.clone();
        foreign.design = "other".into();
        let ffile = SnapshotFile::from_bytes(hardsnap_bus::persist::write_full(&foreign)).unwrap();
        assert!(matches!(
            t.restore_snapshot_lazy(&ffile),
            Err(TargetError::DesignMismatch { .. })
        ));
    }

    #[test]
    fn caps_reflect_simulator_tradeoff() {
        let t = target();
        let caps = t.caps();
        assert_eq!(caps.kind, TargetKind::Simulator);
        assert!(caps.full_visibility);
        assert!(!caps.readback);
    }
}
