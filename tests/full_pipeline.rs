//! Cross-crate pipeline tests: Verilog sources → RTL → instrumentation →
//! re-emitted Verilog → simulation, and simulator/FPGA target lock-step.

use hardsnap_bus::{map::soc, HwTarget};
use hardsnap_fpga::{FpgaOptions, FpgaTarget};
use hardsnap_periph::regs;
use hardsnap_scan::{instrument, ScanOptions};
use hardsnap_sim::SimTarget;
use hardsnap_util::Rng;

/// The instrumented SoC, printed back to Verilog and re-parsed, must
/// behave identically to the in-memory instrumented module (the paper's
/// toolchain hands the instrumented RTL to the FPGA flow as text).
#[test]
fn instrumented_verilog_roundtrip_behaves_identically() {
    let soc = hardsnap_periph::soc().unwrap();
    let (instrumented, _) = instrument(&soc, &ScanOptions::default()).unwrap();
    let printed = hardsnap_verilog::print_module(&instrumented);
    let reparsed_design = hardsnap_verilog::parse_design(&printed).unwrap();
    let reparsed = reparsed_design.iter().next().unwrap().clone();

    let mut a = hardsnap_sim::Simulator::new(instrumented).unwrap();
    let mut b = hardsnap_sim::Simulator::new(reparsed).unwrap();
    // Drive both with a reset and some cycles; compare a few registers.
    for sim in [&mut a, &mut b] {
        sim.poke("rst", 1).unwrap();
        sim.step(2);
        sim.poke("rst", 0).unwrap();
        sim.step(20);
    }
    for name in ["u_timer.value", "u_uart.tx_head", "u_sha.busy"] {
        let mangled = name.replace('.', "__");
        assert_eq!(
            a.peek(name).unwrap().bits(),
            b.peek(&mangled).unwrap().bits(),
            "register {name} diverged after print/reparse"
        );
    }
}

/// The FPGA target (instrumented netlist) and the simulator target
/// (original netlist) must stay in lock-step on random bus stimulus:
/// same read values, same IRQ lines.
#[test]
fn sim_and_fpga_targets_lockstep_under_random_stimulus() {
    let mut sim = SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap();
    let mut fpga =
        FpgaTarget::new(hardsnap_periph::soc().unwrap(), &FpgaOptions::default()).unwrap();
    sim.reset();
    fpga.reset();
    let mut rng = Rng::seed_from_u64(1234);
    let bases = [
        soc::TIMER_BASE,
        soc::SHA_BASE,
        soc::AES_BASE,
        soc::UART_BASE,
    ];
    let offsets = [0u32, 4, 8, 0x0c, 0x10];
    for i in 0..120 {
        let base = bases[rng.gen_range(0..bases.len())];
        let off = offsets[rng.gen_range(0..offsets.len())];
        let addr = base + off;
        if rng.gen_bool(0.5) {
            let v: u32 = rng.gen();
            let ra = sim.bus_write(addr, v);
            let rb = fpga.bus_write(addr, v);
            assert_eq!(ra.is_ok(), rb.is_ok(), "step {i}: write {addr:#x}");
        } else {
            let ra = sim.bus_read(addr);
            let rb = fpga.bus_read(addr);
            assert_eq!(ra.ok(), rb.ok(), "step {i}: read {addr:#x}");
        }
        let n = rng.gen_range(0..20);
        sim.step(n);
        fpga.step(n);
        assert_eq!(sim.irq_lines(), fpga.irq_lines(), "step {i}: irq mismatch");
    }
    // Final states must agree register-for-register.
    let ssnap = sim.save_snapshot().unwrap();
    let fsnap = fpga.save_snapshot().unwrap();
    assert!(
        ssnap.diff_regs(&fsnap).is_empty(),
        "diverged registers: {:?}",
        ssnap.diff_regs(&fsnap)
    );
    assert_eq!(ssnap.mems, fsnap.mems);
}

/// Snapshots taken on one target restore on the other and vice versa,
/// at randomly chosen points of a timer+uart workload.
#[test]
fn cross_target_snapshot_restore_at_random_points() {
    let mut rng = Rng::seed_from_u64(99);
    let mut sim = SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap();
    let mut fpga =
        FpgaTarget::new(hardsnap_periph::soc().unwrap(), &FpgaOptions::default()).unwrap();
    sim.reset();
    fpga.reset();
    sim.bus_write(soc::TIMER_BASE + regs::timer::LOAD, 5000)
        .unwrap();
    sim.bus_write(
        soc::TIMER_BASE + regs::timer::CTRL,
        regs::timer::CTRL_ENABLE,
    )
    .unwrap();
    for round in 0..5 {
        sim.step(rng.gen_range(1..500));
        let snap = sim.save_snapshot().unwrap();
        fpga.restore_snapshot(&snap).unwrap();
        // Both continue for the same number of cycles; values agree.
        let n = rng.gen_range(1..200);
        sim.step(n);
        fpga.step(n);
        let a = sim.bus_read(soc::TIMER_BASE + regs::timer::VALUE).unwrap();
        let b = fpga.bus_read(soc::TIMER_BASE + regs::timer::VALUE).unwrap();
        assert_eq!(a, b, "round {round}: timer diverged after cross-restore");
    }
}

/// Scoped instrumentation: only the chosen subsystem is in the chain,
/// and out-of-scope registers hold during scan.
#[test]
fn scoped_instrumentation_limits_the_chain() {
    let soc = hardsnap_periph::soc().unwrap();
    let (_, full_chain) = instrument(&soc, &ScanOptions::default()).unwrap();
    let (_, timer_chain) = instrument(
        &soc,
        &ScanOptions {
            scope: Some("u_timer.".into()),
            skip_memories: false,
            ..ScanOptions::default()
        },
    )
    .unwrap();
    assert!(timer_chain.chain_bits() < full_chain.chain_bits() / 4);
    assert!(timer_chain
        .segments
        .iter()
        .all(|s| s.name.starts_with("u_timer.")));
    assert!(timer_chain.mems.is_empty(), "timer has no memories");
}

/// Root-cause workflow: trace a clean run and a run corrupted by a
/// conflicting write (the Fig. 1 interleaving), then diff the traces to
/// find the first hardware signal that went wrong.
#[test]
fn trace_diff_pinpoints_the_corrupting_write() {
    use hardsnap_sim::{first_divergence, VcdData};

    fn traced_sha_run(inject_conflict: bool) -> VcdData {
        let mut t = SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap();
        t.reset();
        t.enable_trace();
        // REQ A: block word 0 = 0xAAAA0001.
        t.bus_write(soc::SHA_BASE + regs::sha256::BLOCK0, 0xAAAA_0001)
            .unwrap();
        t.bus_write(soc::SHA_BASE + regs::sha256::CTRL, regs::sha256::CTRL_INIT)
            .unwrap();
        t.step(10);
        if inject_conflict {
            // The interleaved REQ B of the inconsistent schedule.
            t.bus_write(soc::SHA_BASE + regs::sha256::BLOCK0, 0xBBBB_0002)
                .unwrap();
        } else {
            t.step(12); // keep the cycle counts comparable
        }
        t.step(100);
        let _ = t.bus_read(soc::SHA_BASE + regs::sha256::DIGEST0).unwrap();
        VcdData::parse(&t.take_trace().unwrap()).unwrap()
    }

    let clean = traced_sha_run(false);
    let corrupted = traced_sha_run(true);
    let d = first_divergence(&clean, &corrupted).expect("traces must diverge");
    // The first diverging signals are the bus write channel carrying the
    // conflicting block data into the accelerator.
    assert!(
        d.signal.contains("wdata")
            || d.signal.contains("awaddr")
            || d.signal.contains("valid")
            || d.signal.contains("wready")
            || d.signal.contains("awready"),
        "unexpected first divergence: {d:?}"
    );
    // And the corruption propagates into the SHA core's working state.
    let end = clean.end_time().min(corrupted.end_time());
    // (the VCD writer mangles hierarchical dots to `__`)
    let wa_clean = clean.value_at("u_sha__wa", end);
    let wa_corrupt = corrupted.value_at("u_sha__wa", end);
    assert!(
        wa_clean.is_some() && wa_corrupt.is_some(),
        "signal u_sha__wa traced"
    );
    assert_ne!(
        wa_clean, wa_corrupt,
        "working variable must differ at the end"
    );
}

/// `skip_memories` leaves every memory out of the snapshot access paths.
#[test]
fn skip_memories_option_excludes_collars() {
    let soc = hardsnap_periph::soc().unwrap();
    let (m, chain) = instrument(
        &soc,
        &ScanOptions {
            scope: None,
            skip_memories: true,
            ..ScanOptions::default()
        },
    )
    .unwrap();
    assert!(chain.mems.is_empty());
    assert!(
        m.find_net("scan_mem_en").is_none(),
        "no collar ports inserted"
    );
    assert!(m.find_net("scan_enable").is_some());
}

/// Additional Verilog-subset coverage: slice lvalues in continuous
/// assigns, `@*` sensitivity, else-if chains and 64-bit literals.
#[test]
fn verilog_subset_extras_simulate_correctly() {
    let d = hardsnap_verilog::parse_design(
        r#"
        module extras (input wire clk, input wire [7:0] a, output wire [15:0] y,
                       output reg [1:0] cls);
            wire [63:0] wide = 64'hDEAD_BEEF_0123_4567;
            assign y[7:0] = a;
            assign y[15:8] = wide[15:8];
            always @* begin
                if (a == 8'd0) cls = 2'd0;
                else if (a < 8'd16) cls = 2'd1;
                else if (a < 8'd128) cls = 2'd2;
                else cls = 2'd3;
            end
        endmodule
        "#,
    )
    .unwrap();
    let flat = hardsnap_rtl::elaborate(&d, "extras").unwrap();
    let mut sim = hardsnap_sim::Simulator::new(flat).unwrap();
    for (a, want_cls) in [(0u64, 0u64), (5, 1), (64, 2), (200, 3)] {
        sim.poke("a", a).unwrap();
        assert_eq!(sim.peek("cls").unwrap().bits(), want_cls, "a={a}");
        let y = sim.peek("y").unwrap().bits();
        assert_eq!(y & 0xff, a);
        assert_eq!(y >> 8, 0x45, "wide[15:8] of ...4567");
    }
}

/// Runtime evaluation of replication, concatenation and case-default.
#[test]
fn verilog_runtime_repeat_concat_case() {
    let d = hardsnap_verilog::parse_design(
        r#"
        module rcc (input wire clk, input wire [1:0] s, input wire b,
                    output wire [7:0] rep, output reg [3:0] sel);
            assign rep = {8{b}};
            always @(*) begin
                case (s)
                    2'd1: sel = {2'b10, 2'b01};
                    2'd2: sel = {4{1'b1}};
                    default: sel = 4'd0;
                endcase
            end
        endmodule
        "#,
    )
    .unwrap();
    let flat = hardsnap_rtl::elaborate(&d, "rcc").unwrap();
    let mut sim = hardsnap_sim::Simulator::new(flat).unwrap();
    sim.poke("b", 1).unwrap();
    assert_eq!(sim.peek("rep").unwrap().bits(), 0xff);
    sim.poke("b", 0).unwrap();
    assert_eq!(sim.peek("rep").unwrap().bits(), 0);
    for (s, want) in [(0u64, 0u64), (1, 0b1001), (2, 0b1111), (3, 0)] {
        sim.poke("s", s).unwrap();
        assert_eq!(sim.peek("sel").unwrap().bits(), want, "s={s}");
    }
}

/// The snapshot byte image (the CRIU-checkpoint analogue) round-trips a
/// real SoC snapshot through persistent-storage form.
#[test]
fn soc_snapshot_persists_through_bytes() {
    let mut t = SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap();
    t.reset();
    t.bus_write(soc::TIMER_BASE + regs::timer::LOAD, 777)
        .unwrap();
    t.step(13);
    let snap = t.save_snapshot().unwrap();
    let bytes = hardsnap_bus::persist::write_full(&snap);
    let hardsnap_bus::PersistedImage::Full(restored) =
        hardsnap_bus::PersistedImage::from_bytes(&bytes).unwrap()
    else {
        panic!("a full image must decode as one");
    };
    assert_eq!(restored, snap);
    // A fresh target accepts the deserialized image.
    let mut t2 = SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap();
    t2.reset();
    t2.restore_snapshot(&restored).unwrap();
    assert_eq!(
        t2.bus_read(soc::TIMER_BASE + regs::timer::VALUE).unwrap(),
        t.bus_read(soc::TIMER_BASE + regs::timer::VALUE).unwrap()
    );
}

/// One restore-admission rule set on both targets: each damaged copy of
/// a real SoC capture is refused by the simulator and the FPGA with the
/// same typed error, and neither target's state moves. A full file
/// paged onto an identically prepared simulator and FPGA loads the same
/// sections.
#[test]
fn both_targets_admit_the_same_images() {
    use hardsnap_bus::{HwSnapshot, RegSlot, SnapshotFile, SnapshotLayout, TargetError};
    use std::sync::Arc;
    let mut sim = SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap();
    let mut fpga =
        FpgaTarget::new(hardsnap_periph::soc().unwrap(), &FpgaOptions::default()).unwrap();
    let targets: [&mut dyn HwTarget; 2] = [&mut sim, &mut fpga];
    for t in targets {
        t.reset();
        t.bus_write(soc::TIMER_BASE + regs::timer::LOAD, 0x1234)
            .unwrap();
        t.step(7);
    }
    let good = sim.save_snapshot().unwrap();
    let reg = good
        .layout
        .regs()
        .iter()
        .position(|s| s.width < 64)
        .unwrap();
    let mem = good
        .layout
        .mems()
        .iter()
        .position(|s| s.width < 64)
        .unwrap();
    // The image on a layout of its own, its register list edited.
    let relisted = |edit: &dyn Fn(&mut Vec<RegSlot>, &mut Vec<u64>)| {
        let (mut slots, mut values) = (good.layout.regs().to_vec(), good.regs.clone());
        edit(&mut slots, &mut values);
        let l = SnapshotLayout::new("soc_top", slots, good.layout.mems().to_vec());
        HwSnapshot::new(Arc::new(l), good.cycle, values, good.mems.clone())
    };
    let mut rows: Vec<(&str, HwSnapshot)> = Vec::new();
    let mut foreign = good.clone();
    foreign.relabel("other_soc");
    rows.push(("foreign design", foreign));
    rows.push((
        "register dropped",
        relisted(&|s, v| {
            s.remove(0);
            v.remove(0);
        }),
    ));
    rows.push((
        "register added",
        relisted(&|s, v| {
            s.push(RegSlot {
                name: "u_extra.flag".into(),
                width: 1,
            });
            v.push(0);
        }),
    ));
    rows.push((
        "register renamed",
        relisted(&|s, _| s[0].name = "u_x.renamed".into()),
    ));
    rows.push((
        "registers reordered",
        relisted(&|s, v| {
            s.swap(0, 1);
            v.swap(0, 1);
        }),
    ));
    let mut wide = good.clone();
    wide.regs[reg] = 1 << good.layout.regs()[reg].width;
    rows.push(("register value past its width", wide));
    let mut short = good.clone();
    short.mems[0].pop();
    rows.push(("memory one word short", short));
    let mut wide = good.clone();
    wide.mems[mem][0] = 1 << good.layout.mems()[mem].width;
    rows.push(("memory word past its width", wide));

    for (what, img) in &rows {
        let before = (sim.save_snapshot().unwrap(), fpga.save_snapshot().unwrap());
        let on_sim = sim.restore_snapshot(img).unwrap_err();
        let on_fpga = fpga.restore_snapshot(img).unwrap_err();
        assert_eq!(on_sim, on_fpga, "{what}: the targets disagree");
        let design = matches!(on_sim, TargetError::DesignMismatch { .. });
        let corrupt = matches!(on_sim, TargetError::CorruptSnapshot(_));
        assert!(
            if *what == "foreign design" {
                design
            } else {
                corrupt
            },
            "{what}: {on_sim:?}"
        );
        let after = (sim.save_snapshot().unwrap(), fpga.save_snapshot().unwrap());
        for (b, a) in [(&before.0, &after.0), (&before.1, &after.1)] {
            assert_eq!((&a.regs, &a.mems), (&b.regs, &b.mems), "{what} wrote state");
        }
    }

    // Page one full file onto both, after the same divergence.
    let file = SnapshotFile::from_bytes(hardsnap_bus::persist::write_full(&good)).unwrap();
    let targets: [&mut dyn HwTarget; 2] = [&mut sim, &mut fpga];
    let mut paged = Vec::new();
    for t in targets {
        t.bus_write(soc::TIMER_BASE + regs::timer::LOAD, 99)
            .unwrap();
        t.bus_write(soc::SHA_BASE + regs::sha256::BLOCK0, 0x5eed)
            .unwrap();
        t.step(3);
        paged.push(t.restore_snapshot_lazy(&file).unwrap());
        let back = t.save_snapshot().unwrap();
        assert_eq!((&back.regs, &back.mems), (&good.regs, &good.mems));
    }
    assert_eq!(paged[0], paged[1]);
    assert!(paged[0].sections_loaded > 0 && paged[0].sections_loaded < paged[0].sections_total);
}
