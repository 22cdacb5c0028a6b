//! The timing decorator must not change what the program computes:
//! traced and untraced runs give the same exploration digest (at one
//! and at two workers, which also agree with each other) and the same
//! fuzz fingerprint.

use hardsnap::HwTarget;
use hardsnap_benchmark::timed::{Clock, Op};
use hardsnap_benchmark::workload::set_up;
use hardsnap_benchmark::{explore, fuzz, gen};

#[test]
fn exploration_digest_is_the_same_traced_untraced_and_at_any_worker_count() {
    let (proto, program, _) = set_up(&gen::explore_firmware(7, 6)).unwrap();
    let clock = Clock::new();
    let timed = clock.wrap(proto.fork_clean().unwrap());
    let mut digests = Vec::new();
    for workers in [1, 2] {
        let mut vtimes = Vec::new();
        for target in [&proto as &dyn HwTarget, &timed] {
            let x = explore::explore(target, workers, &program, explore::config()).unwrap();
            assert_eq!(x.result.metrics.paths_completed, 64);
            assert!(x.result.bugs.is_empty(), "{:?}", x.result.bugs);
            assert_eq!(x.solver.is_some(), workers == 1);
            digests.push(x.result.canonical_digest());
            vtimes.push(x.result.hw_virtual_time_ns);
        }
        assert_eq!(
            vtimes[0], vtimes[1],
            "tracing changed modeled time at {workers} workers"
        );
    }
    assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:x?}");
    // The decorator saw both engines: one fork for Engine, one per
    // ParallelEngine worker, and every replica's steps and MMIO.
    let t = clock.totals();
    assert_eq!(t.calls[Op::Fork as usize], 3);
    for op in [Op::Step, Op::Mmio, Op::Capture, Op::Restore] {
        assert!(t.calls[op as usize] > 0, "{op:?} never timed");
    }
}

#[test]
fn fuzz_fingerprint_is_the_same_traced_and_untraced() {
    let (proto, program, _) = set_up(&hardsnap::firmware::uart_parser_firmware()).unwrap();
    let clock = Clock::new();
    let timed = clock.wrap(proto.fork_clean().unwrap());
    for seed in [1, 2] {
        let campaign_seed = gen::fuzz_campaign_seed(seed, 0);
        let dark = fuzz::campaign(&proto, &program, campaign_seed, 1000).unwrap();
        let lit = fuzz::campaign(&timed, &program, campaign_seed, 1000).unwrap();
        assert_eq!(dark.execs, lit.execs);
        assert_eq!(dark.coverage, lit.coverage);
        let inputs = |r: &hardsnap_fuzz::FuzzReport| -> Vec<Vec<u32>> {
            r.crashes.iter().map(|c| c.input.clone()).collect()
        };
        assert_eq!(inputs(&dark), inputs(&lit));
        assert_eq!(fuzz::fingerprint(&dark), fuzz::fingerprint(&lit));
        assert_eq!(fuzz::judge(&lit, 1000), Ok(()));
    }
    assert!(clock.totals().calls[Op::Restore as usize] >= 2000);
}
