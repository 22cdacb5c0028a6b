//! E-persist — "Do persistent snapshots make resume cheap and memory
//! bounded?"
//!
//! Three claims, each asserted:
//!
//! * **Lazy restore**: resuming a quiescent `soc_top` from a TLV image
//!   loads only the sections whose content hash differs from the live
//!   state — zero on an identical target — so the modeled time to the
//!   first quantum is >= 5x cheaper than an eager full restore (the 5x
//!   bar applies to the simulator target, whose full restore walks the
//!   whole process image; the FPGA's cost is reported alongside).
//! * **RAM budget**: a fork-heavy campaign whose snapshot store is
//!   budgeted at a quarter of its unbudgeted peak (a 4x over-commit)
//!   stays under the budget by spilling cold entries to disk, with the
//!   canonical digest bit-identical to the unbudgeted run.
//! * **Campaign resume**: an instruction-budget-interrupted run saved
//!   to disk and resumed by a fresh engine reports the same canonical
//!   digest as one uninterrupted run; the host-side save/load latency
//!   is measured.
//!
//! Usage: `exp_snapshot_persist [--smoke] [--json PATH]`.

use hardsnap::{
    resume_campaign, snapshot_campaign, ConsistencyMode, Engine, EngineConfig, RunResult, Searcher,
    StoreStats,
};
use hardsnap_bench::{banner, fmt_ns, row};
use hardsnap_bus::persist::write_full;
use hardsnap_bus::{HwTarget, SnapshotFile};
use hardsnap_fpga::{FpgaOptions, FpgaTarget};
use hardsnap_sim::SimTarget;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn make_target(fpga: bool) -> Box<dyn HwTarget> {
    let soc = hardsnap_periph::soc().expect("built-in SoC elaborates");
    if fpga {
        Box::new(FpgaTarget::new(soc, &FpgaOptions::default()).expect("fpga target"))
    } else {
        Box::new(SimTarget::new(soc).expect("sim target"))
    }
}

/// A target warmed to a deterministic point: reset, then `cycles`
/// clock ticks with inputs held. Two targets prepared identically hold
/// bit-identical state, which is exactly the quiescent-resume scenario
/// (a fresh process re-creating the device it saved from).
fn prepared_target(fpga: bool, cycles: u64) -> Box<dyn HwTarget> {
    let mut t = make_target(fpga);
    t.reset();
    t.step(cycles);
    t
}

struct LazyPoint {
    target: &'static str,
    eager_ns: u64,
    lazy_ns: u64,
    sections_total: usize,
    sections_loaded: u64,
    bytes_loaded: u64,
    write_us: u128,
    open_us: u128,
}

/// Quiescent resume on one target flavor: capture at cycle 50, persist,
/// then restore the image into an identically prepared target — once
/// eagerly, once lazily — and compare the modeled virtual-time charge.
fn lazy_vs_eager(fpga: bool, dir: &Path) -> LazyPoint {
    let name = if fpga { "fpga" } else { "sim" };
    let mut origin = prepared_target(fpga, 50);
    let snap = origin.save_snapshot().expect("capture");
    let image = write_full(&snap);
    let path = dir.join(format!("quiescent-{name}.hsnap"));
    let t0 = Instant::now();
    std::fs::write(&path, &image).expect("write image");
    let write_us = t0.elapsed().as_micros();
    let t0 = Instant::now();
    let file = SnapshotFile::open(&path).expect("open image");
    let open_us = t0.elapsed().as_micros();

    let mut eager = prepared_target(fpga, 50);
    let v0 = eager.virtual_time_ns();
    eager.restore_snapshot(&snap).expect("eager restore");
    let eager_ns = eager.virtual_time_ns() - v0;

    let mut lazy = prepared_target(fpga, 50);
    let v0 = lazy.virtual_time_ns();
    let lr = lazy.restore_snapshot_lazy(&file).expect("lazy restore");
    let lazy_ns = lazy.virtual_time_ns() - v0;
    assert_eq!(
        lr.sections_loaded, 0,
        "{name}: an identically prepared target must page in nothing"
    );
    // Both paths must land on the captured state bit-for-bit.
    let check = lazy.save_snapshot().expect("verify capture");
    assert_eq!(
        check.content_hash(),
        snap.content_hash(),
        "{name}: lazy restore diverged from the image"
    );
    LazyPoint {
        target: name,
        eager_ns,
        lazy_ns,
        sections_total: lr.sections_total,
        sections_loaded: 0,
        bytes_loaded: lr.bytes_loaded,
        write_us,
        open_us,
    }
}

/// A divergent resume for the table: the live target scribbled into
/// the SHA block registers before the restore, so only the sections
/// those writes dirtied page in — the untouched peripherals don't.
fn lazy_divergent(fpga: bool, dir: &Path) -> LazyPoint {
    let name = if fpga { "fpga" } else { "sim" };
    let mut origin = prepared_target(fpga, 50);
    let snap = origin.save_snapshot().expect("capture");
    let path = dir.join(format!("divergent-{name}.hsnap"));
    std::fs::write(&path, write_full(&snap)).expect("write image");
    let file = SnapshotFile::open(&path).expect("open image");
    let mut lazy = prepared_target(fpga, 50);
    // SHA-256 is slave 2 in the SoC window, so its block registers sit
    // at 0x4000_2000 + the peripheral-local offset.
    let sha_block0 = 0x4000_2000 + hardsnap_periph::regs::sha256::BLOCK0;
    for i in 0..4u32 {
        lazy.bus_write(sha_block0 + 4 * i, 0xDEAD_0000 | i)
            .expect("dirtying write");
    }
    let v0 = lazy.virtual_time_ns();
    let lr = lazy.restore_snapshot_lazy(&file).expect("lazy restore");
    let lazy_ns = lazy.virtual_time_ns() - v0;
    assert!(
        lr.sections_loaded > 0,
        "{name}: the dirtying writes must force at least one section in"
    );
    let check = lazy.save_snapshot().expect("verify capture");
    assert_eq!(check.content_hash(), snap.content_hash());
    LazyPoint {
        target: name,
        eager_ns: 0,
        lazy_ns,
        sections_total: lr.sections_total,
        sections_loaded: lr.sections_loaded as u64,
        bytes_loaded: lr.bytes_loaded,
        write_us: 0,
        open_us: 0,
    }
}

struct CampaignRun {
    result: RunResult,
    peak_bytes: usize,
    stats: StoreStats,
}

fn engine_for(k: u32, config: EngineConfig) -> Engine {
    let prog = hardsnap_isa::assemble(&hardsnap::firmware::branching_firmware(k))
        .expect("demo firmware assembles");
    let mut e = Engine::new(make_target(false), config);
    e.load_firmware(&prog);
    e
}

fn campaign(k: u32, budget: Option<usize>, max_instructions: Option<u64>) -> (Engine, CampaignRun) {
    let mut config = EngineConfig {
        mode: ConsistencyMode::HardSnap,
        searcher: Searcher::RoundRobin,
        snapshot_mem_budget: budget,
        ..Default::default()
    };
    if let Some(n) = max_instructions {
        config.max_instructions = n;
    }
    let mut e = engine_for(k, config);
    let result = e.run();
    let run = CampaignRun {
        result,
        peak_bytes: e.store.peak_bytes(),
        stats: e.store.stats(),
    };
    (e, run)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut json_path = "BENCH_snapshot_persist.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--json" => {
                i += 1;
                json_path = args.get(i).expect("--json needs a path").clone();
            }
            other => panic!("unknown argument {other:?} (try --smoke / --json PATH)"),
        }
        i += 1;
    }

    banner(
        "E-persist",
        "Persistent snapshots: lazy restore, RAM budget, campaign resume",
        "resuming a quiescent target from disk pages in nothing and beats an \
         eager restore >= 5x; a 4x over-committed store spills to disk and \
         stays under budget with the digest unchanged; an interrupted \
         campaign resumed by a fresh engine reports the uninterrupted digest.",
    );

    let dir: PathBuf =
        std::env::temp_dir().join(format!("hardsnap-exp-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    // --- 1. Lazy vs eager restore -----------------------------------
    let widths = [6, 10, 12, 12, 10, 12, 10, 10];
    row(
        &[
            "target", "resume", "eager", "lazy", "sections", "bytes-in", "write-us", "open-us",
        ],
        &widths,
    );
    let mut lazy_points = Vec::new();
    for fpga in [false, true] {
        let p = lazy_vs_eager(fpga, &dir);
        row(
            &[
                p.target,
                "quiescent",
                &fmt_ns(p.eager_ns),
                &fmt_ns(p.lazy_ns),
                &format!("0/{}", p.sections_total),
                &p.bytes_loaded.to_string(),
                &p.write_us.to_string(),
                &p.open_us.to_string(),
            ],
            &widths,
        );
        if !fpga {
            assert!(
                p.lazy_ns.saturating_mul(5) <= p.eager_ns,
                "sim: lazy quiescent resume {} ns is not >= 5x cheaper than eager {} ns",
                p.lazy_ns,
                p.eager_ns
            );
        }
        let d = lazy_divergent(fpga, &dir);
        row(
            &[
                d.target,
                "divergent",
                "-",
                &fmt_ns(d.lazy_ns),
                &format!("{}/{}", d.sections_loaded, d.sections_total),
                &d.bytes_loaded.to_string(),
                "-",
                "-",
            ],
            &widths,
        );
        lazy_points.push((p, d));
    }

    // --- 2. RAM-budgeted fork-heavy campaign ------------------------
    let k = if smoke { 3 } else { 5 };
    let (_, unbudgeted) = campaign(k, None, None);
    let budget = (unbudgeted.peak_bytes / 4).max(1);
    let (_, budgeted) = campaign(k, Some(budget), None);
    println!();
    println!(
        "fork-heavy (2^{k} paths): unbudgeted peak {} bytes -> budget {budget} bytes (4x over-commit)",
        unbudgeted.peak_bytes
    );
    println!(
        "  budgeted peak {} bytes, {} spills, {} page-ins, digest {}",
        budgeted.peak_bytes,
        budgeted.stats.spills,
        budgeted.stats.page_ins,
        if budgeted.result.canonical_digest() == unbudgeted.result.canonical_digest() {
            "unchanged"
        } else {
            "DIVERGED"
        }
    );
    assert_eq!(
        budgeted.result.canonical_digest(),
        unbudgeted.result.canonical_digest(),
        "RAM budget must not change analysis results"
    );
    assert!(
        budgeted.peak_bytes <= budget,
        "resident peak {} exceeds the {budget}-byte budget",
        budgeted.peak_bytes
    );
    assert!(
        budgeted.stats.spills > 0,
        "a 4x over-commit must actually spill"
    );

    // --- 3. Campaign save -> fresh-engine resume --------------------
    let cut = (unbudgeted.result.instructions / 3).max(1);
    let (mut partial_engine, partial) = campaign(k, None, Some(cut));
    assert!(
        partial.result.metrics.paths_completed < unbudgeted.result.metrics.paths_completed,
        "the instruction cut must actually interrupt the campaign"
    );
    let campaign_dir = dir.join("campaign");
    let t0 = Instant::now();
    snapshot_campaign(&campaign_dir, &mut partial_engine, &partial.result).expect("campaign save");
    let save_us = t0.elapsed().as_micros();
    drop(partial_engine);

    // No load_firmware here: the frontier carries the program state.
    let mut resumed_engine = Engine::new(
        make_target(false),
        EngineConfig {
            mode: ConsistencyMode::HardSnap,
            searcher: Searcher::RoundRobin,
            ..Default::default()
        },
    );
    let t0 = Instant::now();
    resume_campaign(&campaign_dir, &mut resumed_engine).expect("campaign load");
    let load_us = t0.elapsed().as_micros();
    let resumed = resumed_engine.run();
    println!();
    println!(
        "campaign resume: saved in {save_us} us, loaded in {load_us} us, \
         {} -> {} paths, digest {}",
        partial.result.metrics.paths_completed,
        resumed.metrics.paths_completed,
        if resumed.canonical_digest() == unbudgeted.result.canonical_digest() {
            "matches the uninterrupted run"
        } else {
            "DIVERGED"
        }
    );
    assert_eq!(
        resumed.canonical_digest(),
        unbudgeted.result.canonical_digest(),
        "save -> resume must report exactly what one uninterrupted run would"
    );

    // --- JSON --------------------------------------------------------
    let mut lazy_entries = String::new();
    for (i, (q, d)) in lazy_points.iter().enumerate() {
        if i > 0 {
            lazy_entries.push_str(",\n");
        }
        lazy_entries.push_str(&format!(
            "    {{\"target\": \"{}\", \"eager_restore_ns\": {}, \"lazy_quiescent_ns\": {}, \
             \"lazy_divergent_ns\": {}, \"divergent_sections_loaded\": {}, \
             \"sections_total\": {}, \"image_write_us\": {}, \"image_open_us\": {}, \
             \"speedup\": {:.1}}}",
            q.target,
            q.eager_ns,
            q.lazy_ns,
            d.lazy_ns,
            d.sections_loaded,
            q.sections_total,
            q.write_us,
            q.open_us,
            q.eager_ns as f64 / q.lazy_ns.max(1) as f64
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"snapshot_persist\",\n  \
         \"design\": \"soc_top\",\n  \
         \"metric\": \"modeled virtual-time ns (restore), host us (save/load), bytes (budget)\",\n  \
         \"lazy_restore\": [\n{lazy_entries}\n  ],\n  \
         \"budget\": {{\"paths\": {paths}, \"unbudgeted_peak_bytes\": {peak0}, \
         \"budget_bytes\": {budget}, \"budgeted_peak_bytes\": {peak1}, \"spills\": {spills}, \
         \"page_ins\": {pins}, \"digest_unchanged\": true}},\n  \
         \"campaign\": {{\"save_us\": {save_us}, \"load_us\": {load_us}, \
         \"partial_paths\": {ppaths}, \"resumed_paths\": {rpaths}, \
         \"digest\": \"{digest:#018x}\"}}\n}}\n",
        paths = 1u64 << k,
        peak0 = unbudgeted.peak_bytes,
        peak1 = budgeted.peak_bytes,
        spills = budgeted.stats.spills,
        pins = budgeted.stats.page_ins,
        ppaths = partial.result.metrics.paths_completed,
        rpaths = resumed.metrics.paths_completed,
        digest = resumed.canonical_digest(),
    );
    std::fs::write(&json_path, json).unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    println!();
    println!("recorded {json_path}");
}
