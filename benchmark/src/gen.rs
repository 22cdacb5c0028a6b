//! Seeded input generation. Everything a workload feeds the program is
//! derived here from the workload seed, so the same seed gives the same
//! firmware, the same fuzz campaign seeds, the same arrival schedule and
//! the same job list.

use hardsnap_bus::map::soc::TIMER_BASE;
use hardsnap_serve::JobSpec;
use hardsnap_util::rng::splitmix64;
use hardsnap_util::Rng;
use std::time::Duration;

/// Symbolic branches in the explore firmware: 2^9 = 512 paths.
pub const EXPLORE_BRANCHES: u32 = 9;

/// Fuzz inputs per campaign.
pub const FUZZ_INPUTS: u64 = 5000;

/// Offered load of the served job stream, jobs per second.
pub const SERVE_RATE_PER_S: f64 = 12.0;

/// Firmware every served job runs: `demo:K` is the built-in branching
/// firmware with 2^K paths.
pub const SERVE_FIRMWARE_BRANCHES: u32 = 5;

/// Instructions per checkpointed leg of a served job.
pub const SERVE_LEG_INSTRUCTIONS: u64 = 128;

/// Snapshot-store RAM budget of a served job, bytes. Small enough that
/// every job spills snapshots to disk and pages them back in (at 16 KiB
/// the store of a `demo:5` job never spills).
pub const SERVE_SNAPSHOT_BUDGET: u64 = 4096;

/// A seeded variant of `hardsnap::firmware::branching_firmware`: `k`
/// symbolic branches (2^k paths), every path programs the timer's LOAD
/// register with a path-specific value and asserts the readback. The
/// seed moves the LOAD base and permutes which path-id bit each branch
/// sets; the instruction count and branch structure, and so the work per
/// path, do not depend on it.
pub fn explore_firmware(seed: u64, k: u32) -> String {
    assert!((1..=12).contains(&k), "k branches in 1..=12");
    let mut rng = Rng::seed_from_u64(seed ^ 0xE8F1_0EE5);
    let base: u32 = rng.gen_range(1000..30000);
    let mut bits: Vec<u32> = (0..k).collect();
    for i in (1..bits.len()).rev() {
        bits.swap(i, rng.gen_range(0..=i));
    }
    let mut body = String::new();
    for (i, bit) in bits.iter().enumerate() {
        body.push_str(&format!(
            "    sym r1, #{i}\n    movi r2, #0\n    beq r1, r2, skip{i}\n    ori r10, r10, #{}\nskip{i}:\n",
            1u32 << bit
        ));
    }
    format!(
        "
        .org 0x100
        entry:
            movi r10, #0
{body}
            li r3, {TIMER_BASE:#x}
            addi r4, r10, #{base}
            stw r4, [r3, #0x04]     ; LOAD (also loads VALUE)
            ldw r5, [r3, #0x08]     ; VALUE readback
            sub r6, r5, r4
            movi r7, #1
            beq r6, r0, value_ok
            movi r7, #0
        value_ok:
            assert r7               ; hardware context must be private
            halt
        "
    )
}

/// Seed of fuzz campaign `index` within a run of workload seed `seed`.
pub fn fuzz_campaign_seed(seed: u64, index: u64) -> u64 {
    let mut s = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// Open-loop arrival offsets from the start of the stream: a Poisson
/// process at `rate_per_s` conditioned on `n` arrivals in `n / rate_per_s`
/// seconds, so every seed's stream offers the same load over the same
/// window and only the spacing varies.
pub fn arrival_schedule(seed: u64, rate_per_s: f64, n: usize) -> Vec<Duration> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xA771_7A15);
    // n + 1 exponential gaps; normalising their running sums by the
    // total gives the order statistics of n uniform arrivals.
    let mut t = 0.0f64;
    let sums: Vec<f64> = (0..=n)
        .map(|_| {
            // Uniform in (0, 1]: 53 random bits, never 0, so ln is finite.
            let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            t -= u.ln();
            t
        })
        .collect();
    let window = n as f64 / rate_per_s;
    sums[..n]
        .iter()
        .map(|s| Duration::from_secs_f64(window * s / t))
        .collect()
}

/// The served jobs, one per arrival. Every job runs the same firmware
/// and so has the same digest; the seed picks each job's priority lane.
pub fn job_list(seed: u64, n: usize) -> Vec<JobSpec> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x10B5_11E7);
    (0..n)
        .map(|i| JobSpec {
            name: format!("bench-{i}"),
            firmware: format!("demo:{SERVE_FIRMWARE_BRANCHES}"),
            delta_snapshots: true,
            leg_instructions: SERVE_LEG_INSTRUCTIONS,
            snapshot_mem_budget: SERVE_SNAPSHOT_BUDGET,
            priority: rng.gen_range(0..=7u64),
            ..JobSpec::default()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(explore_firmware(5, 9), explore_firmware(5, 9));
        assert_eq!(
            arrival_schedule(5, 12.0, 300),
            arrival_schedule(5, 12.0, 300)
        );
        assert_eq!(job_list(5, 300), job_list(5, 300));
        assert_eq!(fuzz_campaign_seed(5, 3), fuzz_campaign_seed(5, 3));
    }

    #[test]
    fn seeds_change_inputs() {
        assert_ne!(explore_firmware(5, 9), explore_firmware(6, 9));
        assert_ne!(arrival_schedule(5, 12.0, 50), arrival_schedule(6, 12.0, 50));
        assert_ne!(job_list(5, 50), job_list(6, 50));
        assert_ne!(fuzz_campaign_seed(5, 0), fuzz_campaign_seed(5, 1));
    }

    #[test]
    fn explore_firmware_assembles_for_any_seed() {
        for seed in 0..20 {
            hardsnap_isa::assemble(&explore_firmware(seed, EXPLORE_BRANCHES)).unwrap();
        }
    }

    #[test]
    fn arrivals_increase_and_fill_the_window_at_the_offered_rate() {
        let n = 300;
        for seed in 0..10 {
            let s = arrival_schedule(seed, 12.0, n);
            assert!(s.windows(2).all(|w| w[0] <= w[1]));
            let last = s[n - 1].as_secs_f64();
            assert!(last < 25.0 && last > 24.0, "last arrival at {last} s");
            // Exponential-looking gaps: many short, a few long.
            let short = s
                .windows(2)
                .filter(|w| (w[1] - w[0]).as_secs_f64() < 1.0 / 12.0)
                .count();
            assert!(short > n / 2, "{short} short gaps");
        }
    }
}
