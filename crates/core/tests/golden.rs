//! Golden corpus: the engine must reproduce, row for row, what the
//! retired sequential engine (the pre-unification `Engine`, which
//! time-multiplexed one hardware device between all states) computed on
//! the same corpus. Each row pins the canonical digest, the
//! stop reason, completed paths, instructions and the sorted (kind, pc)
//! bug list. Every row must match at one worker; every complete-run
//! HardSnap row must also match at two and four workers, so the retired
//! engine stays the reference the multi-worker path is compared to.
//!
//! Rows were recorded once from that engine and are frozen here; a row
//! changes only with a deliberate, documented semantic change. Each row
//! also pins its one-worker modeled hardware time as this engine
//! computes it, so a change to the cost of a context switch shows.

use hardsnap::firmware::{self, PlantedBug};
use hardsnap::{ConsistencyMode, Engine, EngineConfig, RunResult, Searcher, StopReason};
use hardsnap_sim::SimTarget;

/// One corpus entry: a firmware, a configuration, and whether a budget
/// cuts the run (cut rows are schedule-dependent past one worker).
struct Case {
    name: String,
    asm: String,
    config: EngineConfig,
    cut: bool,
}

fn base(mode: ConsistencyMode, searcher: Searcher, delta: bool) -> EngineConfig {
    EngineConfig {
        mode,
        searcher,
        delta_snapshots: delta,
        quantum: 4,
        max_instructions: 300_000,
        ..EngineConfig::default()
    }
}

fn searchers() -> [(&'static str, Searcher); 3] {
    [
        ("dfs", Searcher::Dfs),
        ("rr", Searcher::RoundRobin),
        ("random", Searcher::Random(0xC0FFEE)),
    ]
}

fn corpus() -> Vec<Case> {
    let mut firmwares = vec![
        ("branching3".to_string(), firmware::branching_firmware(3)),
        ("branching6".to_string(), firmware::branching_firmware(6)),
        (
            "init_heavy".to_string(),
            firmware::init_heavy_firmware(40, 2),
        ),
    ];
    for bug in PlantedBug::all() {
        firmwares.push((bug.name().to_string(), firmware::vulnerable_firmware(bug)));
    }
    let mut cases = Vec::new();
    for (fw, asm) in &firmwares {
        for delta in [false, true] {
            for (sname, searcher) in searchers() {
                cases.push(Case {
                    name: format!("{fw}/delta={delta}/{sname}"),
                    asm: asm.clone(),
                    config: base(ConsistencyMode::HardSnap, searcher, delta),
                    cut: false,
                });
            }
        }
    }
    let modes = [
        ("hardsnap", ConsistencyMode::HardSnap),
        ("reboot", ConsistencyMode::NaiveConsistent),
        ("shared", ConsistencyMode::NaiveInconsistent),
    ];
    for (mname, mode) in modes {
        let mut config = base(mode, Searcher::RoundRobin, false);
        config.max_instructions = 400_000;
        cases.push(Case {
            name: format!("fig1/{mname}"),
            asm: firmware::fig1_firmware(),
            config,
            cut: false,
        });
    }
    for (fw, asm) in &firmwares[..3] {
        for (mname, mode) in &modes[1..] {
            for (sname, searcher) in [("rr", Searcher::RoundRobin), ("dfs", Searcher::Dfs)] {
                cases.push(Case {
                    name: format!("{fw}/{mname}/{sname}"),
                    asm: asm.clone(),
                    config: base(*mode, searcher, false),
                    cut: false,
                });
            }
        }
    }
    let branching6 = firmware::branching_firmware(6);
    // (name, searcher, delta snapshots, the budget that cuts the run)
    type Cut = (&'static str, Searcher, bool, fn(&mut EngineConfig));
    let cuts: [Cut; 6] = [
        (
            "max_instructions=200/rr",
            Searcher::RoundRobin,
            false,
            |c| c.max_instructions = 200,
        ),
        (
            "max_instructions=500/random",
            Searcher::Random(7),
            true,
            |c| c.max_instructions = 500,
        ),
        ("max_paths=5/dfs", Searcher::Dfs, false, |c| c.max_paths = 5),
        ("max_paths=9/rr", Searcher::RoundRobin, true, |c| {
            c.max_paths = 9
        }),
        ("max_states=4/rr", Searcher::RoundRobin, false, |c| {
            c.max_states = 4
        }),
        ("max_states=3/rr", Searcher::RoundRobin, true, |c| {
            c.max_states = 3
        }),
    ];
    for (cname, searcher, delta, cut) in cuts {
        let mut config = base(ConsistencyMode::HardSnap, searcher, delta);
        cut(&mut config);
        cases.push(Case {
            name: format!("branching6/{cname}/delta={delta}"),
            asm: branching6.clone(),
            config,
            cut: true,
        });
    }
    cases
}

/// The sorted (kind, pc) bug list of a run.
fn bug_list(r: &RunResult) -> Vec<(String, u32)> {
    let mut v: Vec<(String, u32)> = r
        .bugs
        .iter()
        .map(|b| (format!("{:?}", b.kind), b.pc))
        .collect();
    v.sort();
    v
}

/// One frozen row of the retired engine's output, plus the row's
/// one-worker modeled time as this engine computes it.
struct Row {
    name: &'static str,
    digest: u64,
    stop: StopReason,
    paths: u64,
    instructions: u64,
    /// `hw_virtual_time_ns` at one worker, recorded from this engine,
    /// not the retired one. Against the retired engine, 40 HardSnap rows
    /// cost less (it saved a fork parent's context again at its next
    /// switch, an image equal to the fork capture; see EXPERIMENTS.md,
    /// E3), the seven reboot rows up to 0.1% more (a fork child replays
    /// up to its own fork-point device age), and the rest the same. Past
    /// one worker, delta captures diff against whichever base the
    /// capturing worker holds, so modeled time is pinned at one worker
    /// only.
    vtime_ns: u64,
    bugs: &'static [(BugKind, u32)],
}

use hardsnap::BugKind::{self, AssertFailed, FailHit, Unmapped};
use StopReason::{Complete, Instructions, Paths};

fn row(
    name: &'static str,
    digest: u64,
    stop: StopReason,
    paths: u64,
    instructions: u64,
    vtime_ns: u64,
    bugs: &'static [(BugKind, u32)],
) -> Row {
    Row {
        name,
        digest,
        stop,
        paths,
        instructions,
        vtime_ns,
        bugs,
    }
}

#[rustfmt::skip]
fn rows() -> Vec<Row> {
    vec![
    row("branching3/delta=false/dfs", 0x5ad607065cea53c4, Complete, 8, 109, 429221800, &[]),
    row("branching3/delta=false/rr", 0x5ad607065cea53c4, Complete, 8, 109, 1061367600, &[]),
    row("branching3/delta=false/random", 0x5ad607065cea53c4, Complete, 8, 109, 1020584000, &[]),
    row("branching3/delta=true/dfs", 0x5ad607065cea53c4, Complete, 8, 109, 25443800, &[]),
    row("branching3/delta=true/rr", 0x5ad607065cea53c4, Complete, 8, 109, 31794600, &[]),
    row("branching3/delta=true/random", 0x5ad607065cea53c4, Complete, 8, 109, 31394200, &[]),
    row("branching6/delta=false/dfs", 0xb07683a994fe9c2e, Complete, 64, 893, 3862100200, &[]),
    row("branching6/delta=false/rr", 0xb07683a994fe9c2e, Complete, 64, 893, 9062009200, &[]),
    row("branching6/delta=false/random", 0xb07683a994fe9c2e, Complete, 64, 893, 8817307600, &[]),
    row("branching6/delta=true/dfs", 0xb07683a994fe9c2e, Complete, 64, 893, 66570200, &[]),
    row("branching6/delta=true/rr", 0xb07683a994fe9c2e, Complete, 64, 893, 118740200, &[]),
    row("branching6/delta=true/random", 0xb07683a994fe9c2e, Complete, 64, 893, 116469800, &[]),
    row("init_heavy/delta=false/dfs", 0xc03505a9de80faa3, Complete, 4, 99, 184648200, &[]),
    row("init_heavy/delta=false/rr", 0xc03505a9de80faa3, Complete, 4, 99, 164256400, &[]),
    row("init_heavy/delta=false/random", 0xc03505a9de80faa3, Complete, 4, 99, 184648200, &[]),
    row("init_heavy/delta=true/dfs", 0xc03505a9de80faa3, Complete, 4, 99, 23120200, &[]),
    row("init_heavy/delta=true/rr", 0xc03505a9de80faa3, Complete, 4, 99, 22919400, &[]),
    row("init_heavy/delta=true/random", 0xc03505a9de80faa3, Complete, 4, 99, 23120200, &[]),
    row("length-overflow/delta=false/dfs", 0xc8d40f38643032dd, Complete, 19, 107, 1102023200, &[(Unmapped, 0x120)]),
    row("length-overflow/delta=false/rr", 0xc8d40f38643032dd, Complete, 19, 107, 734970800, &[(Unmapped, 0x120)]),
    row("length-overflow/delta=false/random", 0xc8d40f38643032dd, Complete, 19, 107, 1305941200, &[(Unmapped, 0x120)]),
    row("length-overflow/delta=true/dfs", 0xc8d40f38643032dd, Complete, 19, 107, 31900200, &[(Unmapped, 0x120)]),
    row("length-overflow/delta=true/rr", 0xc8d40f38643032dd, Complete, 19, 107, 28285800, &[(Unmapped, 0x120)]),
    row("length-overflow/delta=true/random", 0xc8d40f38643032dd, Complete, 19, 107, 33908200, &[(Unmapped, 0x120)]),
    row("magic-command/delta=false/dfs", 0x56d136fef9a1de75, Complete, 2, 14, 61319400, &[(FailHit, 0x130)]),
    row("magic-command/delta=false/rr", 0x56d136fef9a1de75, Complete, 2, 14, 40927600, &[(FailHit, 0x130)]),
    row("magic-command/delta=false/random", 0x56d136fef9a1de75, Complete, 2, 14, 61319400, &[(FailHit, 0x130)]),
    row("magic-command/delta=true/dfs", 0x56d136fef9a1de75, Complete, 2, 14, 20938600, &[(FailHit, 0x130)]),
    row("magic-command/delta=true/rr", 0x56d136fef9a1de75, Complete, 2, 14, 20737800, &[(FailHit, 0x130)]),
    row("magic-command/delta=true/random", 0x56d136fef9a1de75, Complete, 2, 14, 20938600, &[(FailHit, 0x130)]),
    row("irq-gated/delta=false/dfs", 0xc0c94f1bc526cfdf, Complete, 2, 27, 61425400, &[(FailHit, 0x154)]),
    row("irq-gated/delta=false/rr", 0xc0c94f1bc526cfdf, Complete, 2, 27, 41033600, &[(FailHit, 0x154)]),
    row("irq-gated/delta=false/random", 0xc0c94f1bc526cfdf, Complete, 2, 27, 41033600, &[(FailHit, 0x154)]),
    row("irq-gated/delta=true/dfs", 0xc0c94f1bc526cfdf, Complete, 2, 27, 21043400, &[(FailHit, 0x154)]),
    row("irq-gated/delta=true/rr", 0xc0c94f1bc526cfdf, Complete, 2, 27, 20842600, &[(FailHit, 0x154)]),
    row("irq-gated/delta=true/random", 0xc0c94f1bc526cfdf, Complete, 2, 27, 20842600, &[(FailHit, 0x154)]),
    row("fig1/hardsnap", 0xedf59fb910028896, Complete, 2, 61, 530800800, &[]),
    row("fig1/reboot", 0xedf59fb910028896, Complete, 2, 61, 1403024000, &[]),
    row("fig1/shared", 0x4268bfa5dbe25dc2, Complete, 2, 46, 454000, &[]),
    row("branching3/reboot/rr", 0x5ad607065cea53c4, Complete, 8, 109, 3004580000, &[]),
    row("branching3/reboot/dfs", 0x5ad607065cea53c4, Complete, 8, 109, 1502142000, &[]),
    row("branching3/shared/rr", 0xb0af1a0f93dd64e7, Complete, 8, 109, 984000, &[(AssertFailed, 0x158), (AssertFailed, 0x158), (AssertFailed, 0x158), (AssertFailed, 0x158)]),
    row("branching3/shared/dfs", 0x5ad607065cea53c4, Complete, 8, 109, 984000, &[]),
    row("branching6/reboot/rr", 0xb07683a994fe9c2e, Complete, 64, 893, 25458340000, &[]),
    row("branching6/reboot/dfs", 0xb07683a994fe9c2e, Complete, 64, 893, 12727790000, &[]),
    row("branching6/shared/rr", 0x0c1d224af0d2b99b, Complete, 64, 893, 8040000, &[(AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188), (AssertFailed, 0x188)]),
    row("branching6/shared/dfs", 0xb07683a994fe9c2e, Complete, 64, 893, 8040000, &[]),
    row("init_heavy/reboot/rr", 0xc03505a9de80faa3, Complete, 4, 99, 606324000, &[]),
    row("init_heavy/reboot/dfs", 0xc03505a9de80faa3, Complete, 4, 99, 707342000, &[]),
    row("init_heavy/shared/rr", 0xc03505a9de80faa3, Complete, 4, 99, 1112000, &[]),
    row("init_heavy/shared/dfs", 0xc03505a9de80faa3, Complete, 4, 99, 1112000, &[]),
    row("branching6/max_instructions=200/rr/delta=false", 0x02c212f4de383143, Instructions, 0, 200, 2285491600, &[]),
    row("branching6/max_instructions=500/random/delta=true", 0x0968fac63e1cd72d, Instructions, 17, 500, 75741800, &[]),
    row("branching6/max_paths=5/dfs/delta=false", 0xeae5c71ed28b77ff, Paths, 5, 87, 449395600, &[]),
    row("branching6/max_paths=9/rr/delta=true", 0xcf8697e5566220b9, Paths, 9, 755, 106328200, &[]),
    row("branching6/max_states=4/rr/delta=false", 0x265b12be074eca7a, Complete, 4, 101, 1142814800, &[]),
    row("branching6/max_states=3/rr/delta=true", 0xd44d83b94558e3e5, Complete, 3, 78, 29571000, &[]),
    ]
}

fn run(case: &Case, workers: usize) -> RunResult {
    let prog = hardsnap_isa::assemble(&case.asm).unwrap();
    let target = Box::new(SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap());
    let mut engine = Engine::with_workers(target, workers, case.config.clone()).unwrap();
    engine.load_firmware(&prog);
    engine.run()
}

fn check(case: &Case, want: &Row, workers: usize) {
    let r = run(case, workers);
    let ctx = format!("{} workers={workers}", case.name);
    assert_eq!(r.canonical_digest(), want.digest, "{ctx}: digest");
    assert_eq!(r.stop, want.stop, "{ctx}: stop");
    assert_eq!(r.metrics.paths_completed, want.paths, "{ctx}: paths");
    assert_eq!(r.instructions, want.instructions, "{ctx}: instructions");
    let want_bugs: Vec<(String, u32)> = want
        .bugs
        .iter()
        .map(|(k, pc)| (format!("{k:?}"), *pc))
        .collect();
    assert_eq!(bug_list(&r), want_bugs, "{ctx}: bugs");
    if workers == 1 {
        assert_eq!(r.hw_virtual_time_ns, want.vtime_ns, "{ctx}: modeled time");
    }
}

fn corpus_with_rows() -> Vec<(Case, Row)> {
    let cases = corpus();
    let rows = rows();
    assert_eq!(cases.len(), rows.len(), "corpus and rows out of step");
    cases
        .into_iter()
        .zip(rows)
        .map(|(c, r)| {
            assert_eq!(c.name, r.name, "corpus and rows out of step");
            (c, r)
        })
        .collect()
}

#[test]
fn one_worker_reproduces_every_row() {
    for (case, want) in corpus_with_rows() {
        check(&case, &want, 1);
    }
}

#[test]
fn several_workers_reproduce_every_complete_hardsnap_row() {
    for (case, want) in corpus_with_rows() {
        if case.cut || case.config.mode != ConsistencyMode::HardSnap {
            continue;
        }
        for workers in [2, 4] {
            check(&case, &want, workers);
        }
    }
}
