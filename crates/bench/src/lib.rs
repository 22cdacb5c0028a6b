//! # hardsnap-bench
//!
//! Evaluation harness for the HardSnap reproduction: one `exp_*` binary
//! per table/figure of the paper (see `DESIGN.md` §5 for the index) plus
//! Criterion micro-benchmarks. This library holds the shared pieces:
//! synthetic design generation for the size sweeps, and small table
//! formatting helpers so every experiment prints in the same style.

#![warn(missing_docs)]

use hardsnap_rtl::Module;

/// Formats nanoseconds human-readably (ns/µs/ms/s).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str, expectation: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("paper expectation: {expectation}");
    println!("================================================================");
}

/// Prints a table row with fixed column widths.
pub fn row(cols: &[&str], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cols.iter().zip(widths) {
        line.push_str(&format!("{c:>w$}  ", w = w));
    }
    println!("{}", line.trim_end());
}

/// Median (the upper one for an even count), minimum and maximum of a
/// repeated measurement.
pub struct Spread {
    /// The median.
    pub median: f64,
    /// The smallest sample.
    pub min: f64,
    /// The largest sample.
    pub max: f64,
}

impl Spread {
    /// The spread of `xs` (at least one sample).
    pub fn of(mut xs: Vec<f64>) -> Spread {
        xs.sort_by(f64::total_cmp);
        Spread {
            median: xs[xs.len() / 2],
            min: xs[0],
            max: xs[xs.len() - 1],
        }
    }

    /// The spread with `f` applied to each statistic; `min` and `max`
    /// swap if `f` is decreasing.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Spread {
        let (a, b) = (f(self.min), f(self.max));
        Spread {
            median: f(self.median),
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// `{"median": …, "min": …, "max": …}` with `decimals` places.
    pub fn json(&self, decimals: usize) -> String {
        format!(
            "{{\"median\": {:.decimals$}, \"min\": {:.decimals$}, \"max\": {:.decimals$}}}",
            self.median, self.min, self.max
        )
    }
}

/// Generates a synthetic design with `n_regs` 64-bit shift registers
/// (state = 64 * n_regs bits) behind the standard AXI interface, for the
/// snapshot-latency size sweep (E1). The AXI slave answers reads of
/// offset 0 with the last register, so the design is externally
/// observable like a real peripheral.
pub fn synthetic_design(n_regs: u32) -> Module {
    assert!(n_regs >= 1);
    let mut decls = String::new();
    let mut shifts = String::new();
    let mut resets = String::new();
    for i in 0..n_regs {
        decls.push_str(&format!("    reg [63:0] s{i};\n"));
        resets.push_str(&format!("                s{i} <= 64'd0;\n"));
        if i == 0 {
            shifts.push_str("                s0 <= s0 + 64'd1;\n");
        } else {
            shifts.push_str(&format!("                s{i} <= s{};\n", i - 1));
        }
    }
    let last = n_regs - 1;
    let src = format!(
        "
module synth (
    input wire clk, input wire rst,
    input wire s_axi_awvalid, input wire [31:0] s_axi_awaddr, output reg s_axi_awready,
    input wire s_axi_wvalid, input wire [31:0] s_axi_wdata, output reg s_axi_wready,
    output reg s_axi_bvalid, output reg [1:0] s_axi_bresp, input wire s_axi_bready,
    input wire s_axi_arvalid, input wire [31:0] s_axi_araddr, output reg s_axi_arready,
    output reg s_axi_rvalid, output reg [31:0] s_axi_rdata, output reg [1:0] s_axi_rresp,
    input wire s_axi_rready,
    output wire irq
);
{decls}
    reg aw_got; reg w_got;
    assign irq = 1'b0;
    always @(posedge clk) begin
        if (rst) begin
{resets}
            s_axi_awready <= 1'b0; s_axi_wready <= 1'b0;
            s_axi_bvalid <= 1'b0; s_axi_bresp <= 2'd0;
            s_axi_arready <= 1'b0; s_axi_rvalid <= 1'b0;
            s_axi_rdata <= 32'd0; s_axi_rresp <= 2'd0;
            aw_got <= 1'b0; w_got <= 1'b0;
        end else begin
{shifts}
            s_axi_awready <= 1'b0; s_axi_wready <= 1'b0;
            if (s_axi_awvalid && !aw_got && !s_axi_awready) begin
                s_axi_awready <= 1'b1; aw_got <= 1'b1;
            end
            if (s_axi_wvalid && !w_got && !s_axi_wready) begin
                s_axi_wready <= 1'b1; w_got <= 1'b1;
            end
            if (aw_got && w_got && !s_axi_bvalid) s_axi_bvalid <= 1'b1;
            if (s_axi_bvalid && s_axi_bready) begin
                s_axi_bvalid <= 1'b0; aw_got <= 1'b0; w_got <= 1'b0;
            end
            s_axi_arready <= 1'b0;
            if (s_axi_arvalid && !s_axi_rvalid && !s_axi_arready) begin
                s_axi_arready <= 1'b1; s_axi_rvalid <= 1'b1;
                s_axi_rdata <= s{last}[31:0]; s_axi_rresp <= 2'd0;
            end
            if (s_axi_rvalid && s_axi_rready) s_axi_rvalid <= 1'b0;
        end
    end
endmodule
"
    );
    let d = hardsnap_verilog::parse_design(&src).expect("synthetic design parses");
    hardsnap_rtl::elaborate(&d, "synth").expect("synthetic design elaborates")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_design_scales() {
        let m = synthetic_design(4);
        // 4 * 64 data bits plus a handful of AXI handshake flops.
        let stats = hardsnap_rtl::ModuleStats::of(&m);
        assert!(
            stats.state_bits >= 256 && stats.state_bits < 400,
            "{}",
            stats.state_bits
        );
        let m = synthetic_design(16);
        assert!(hardsnap_rtl::ModuleStats::of(&m).state_bits >= 1024);
    }

    #[test]
    fn synthetic_design_simulates_and_snapshots() {
        use hardsnap_bus::HwTarget;
        let mut t = hardsnap_sim::SimTarget::new(synthetic_design(2)).unwrap();
        t.reset();
        t.step(10);
        let v = t.bus_read(0).unwrap();
        // s1 lags s0 by one; after 10+handshake cycles it is nonzero.
        assert!(v > 0);
        let snap = t.save_snapshot().unwrap();
        t.step(100);
        t.restore_snapshot(&snap).unwrap();
        assert_eq!(t.save_snapshot().unwrap().reg("s0"), snap.reg("s0"));
    }

    #[test]
    fn fmt_ns_ranges() {
        assert_eq!(fmt_ns(12), "12 ns");
        assert_eq!(fmt_ns(1_500), "1.5 us");
        assert_eq!(fmt_ns(2_500_000), "2.50 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000 s");
    }
}
