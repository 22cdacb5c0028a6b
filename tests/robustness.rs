//! Robustness and guard-rail tests across the stack: wedged hardware,
//! fork bombs, budget cut-offs, and malformed inputs.

use hardsnap::firmware;
use hardsnap::{Engine, EngineConfig, Searcher};
use hardsnap_bus::{BusError, HwTarget};
use hardsnap_sim::{SimTarget, Simulator};

/// A slave that never raises awready/arready wedges the bus; the driver
/// must time out instead of hanging.
#[test]
fn wedged_axi_slave_times_out() {
    let src = r#"
    module wedged (
        input wire clk, input wire rst,
        input wire s_axi_awvalid, input wire [31:0] s_axi_awaddr,
        output wire s_axi_awready,
        input wire s_axi_wvalid, input wire [31:0] s_axi_wdata,
        output wire s_axi_wready,
        output wire s_axi_bvalid, output wire [1:0] s_axi_bresp,
        input wire s_axi_bready,
        input wire s_axi_arvalid, input wire [31:0] s_axi_araddr,
        output wire s_axi_arready,
        output wire s_axi_rvalid, output wire [31:0] s_axi_rdata,
        output wire [1:0] s_axi_rresp,
        input wire s_axi_rready
    );
        assign s_axi_awready = 1'b0;
        assign s_axi_wready = 1'b0;
        assign s_axi_bvalid = 1'b0;
        assign s_axi_bresp = 2'd0;
        assign s_axi_arready = 1'b0;
        assign s_axi_rvalid = 1'b0;
        assign s_axi_rdata = 32'd0;
        assign s_axi_rresp = 2'd0;
    endmodule
    "#;
    let d = hardsnap_verilog::parse_design(src).unwrap();
    let flat = hardsnap_rtl::elaborate(&d, "wedged").unwrap();
    let mut t = SimTarget::new(flat).unwrap();
    t.reset();
    assert!(matches!(t.bus_read(0), Err(BusError::Timeout { .. })));
    assert!(matches!(t.bus_write(0, 1), Err(BusError::Timeout { .. })));
}

/// The fork-bomb guard must cap live states and record the drops.
#[test]
fn engine_fork_bomb_guard() {
    // 10 symbolic branches = 1024 paths; cap at 8 live states.
    let prog = hardsnap_isa::assemble(&firmware::branching_firmware(10)).unwrap();
    let config = EngineConfig {
        max_states: 8,
        quantum: 4,
        max_instructions: 100_000,
        ..Default::default()
    };
    let mut engine = Engine::new(
        Box::new(SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap()),
        config,
    );
    engine.load_firmware(&prog);
    let result = engine.run();
    assert!(result.metrics.states_dropped > 0, "guard must have fired");
    assert!(engine.active_states() <= 8);
}

/// The instruction budget must stop a runaway analysis.
#[test]
fn engine_instruction_budget() {
    let prog =
        hardsnap_isa::assemble(".org 0x100\nentry:\nspin:\n  addi r1, r1, #1\n  j spin\n").unwrap();
    let config = EngineConfig {
        max_instructions: 500,
        ..Default::default()
    };
    let mut engine = Engine::new(
        Box::new(SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap()),
        config,
    );
    engine.load_firmware(&prog);
    let result = engine.run();
    assert!(result.instructions <= 501);
    assert_eq!(result.metrics.paths_completed, 0);
}

/// Coverage accounting: straight-line code covers exactly its PCs.
#[test]
fn engine_reports_pc_coverage() {
    let prog = hardsnap_isa::assemble(
        ".org 0x100\nentry:\n  movi r1, #1\n  movi r2, #2\n  add r3, r1, r2\n  halt\n",
    )
    .unwrap();
    let mut engine = Engine::new(
        Box::new(SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap()),
        EngineConfig::default(),
    );
    engine.load_firmware(&prog);
    let result = engine.run();
    assert_eq!(result.covered_pcs, 4);
}

/// negedge processes are rejected by the simulator with a clear message.
#[test]
fn negedge_is_rejected() {
    let d = hardsnap_verilog::parse_design(
        "module n (input wire clk, output reg q);\n always @(negedge clk) q <= ~q;\nendmodule",
    )
    .unwrap();
    let flat = hardsnap_rtl::elaborate(&d, "n").unwrap();
    match Simulator::new(flat) {
        Err(hardsnap_sim::SimError::Unsupported(m)) => assert!(m.contains("negedge")),
        other => panic!("{other:?}"),
    }
}

/// Restoring a snapshot with a missing register fails cleanly on both
/// targets.
#[test]
fn corrupt_snapshot_rejected_cleanly() {
    use hardsnap_fpga::{FpgaOptions, FpgaTarget};
    let mut sim = SimTarget::new(hardsnap_periph::timer().unwrap()).unwrap();
    sim.reset();
    let mut snap = sim.save_snapshot().unwrap();
    let mut regs = snap.layout.regs().to_vec();
    regs[0].name = "nonexistent_register".into();
    snap.layout = std::sync::Arc::new(hardsnap_bus::SnapshotLayout::new(
        snap.design(),
        regs,
        snap.layout.mems().to_vec(),
    ));
    assert!(matches!(
        sim.restore_snapshot(&snap),
        Err(hardsnap_bus::TargetError::CorruptSnapshot(_))
    ));
    let mut fpga =
        FpgaTarget::new(hardsnap_periph::timer().unwrap(), &FpgaOptions::default()).unwrap();
    fpga.reset();
    let mut snap = fpga.save_snapshot().unwrap();
    snap.regs.remove(0);
    assert!(matches!(
        fpga.restore_snapshot(&snap),
        Err(hardsnap_bus::TargetError::CorruptSnapshot(_))
    ));
}

/// A quantum of 1 (context switch every instruction) still yields a
/// correct analysis under all searchers — the stress case for the
/// snapshot machinery.
#[test]
fn quantum_one_stress() {
    for searcher in [
        Searcher::Dfs,
        Searcher::Bfs,
        Searcher::RoundRobin,
        Searcher::Random(3),
    ] {
        let prog = hardsnap_isa::assemble(&firmware::branching_firmware(2)).unwrap();
        let config = EngineConfig {
            searcher,
            quantum: 1,
            max_instructions: 100_000,
            ..Default::default()
        };
        let mut engine = Engine::new(
            Box::new(SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap()),
            config,
        );
        engine.load_firmware(&prog);
        let result = engine.run();
        assert_eq!(result.metrics.paths_completed, 4, "{searcher:?}");
        assert!(result.bugs.is_empty(), "{searcher:?}: {:?}", result.bugs);
    }
}
