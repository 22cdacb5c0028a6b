//! Micro-benchmarks (hardsnap-util bench timers) for E1: host-time cost of snapshot
//! save/restore on both targets over the full SoC.

use hardsnap_bus::HwTarget;
use hardsnap_fpga::{FpgaOptions, FpgaTarget};
use hardsnap_sim::SimTarget;
use hardsnap_util::bench::Criterion;
use hardsnap_util::{criterion_group, criterion_main};

fn bench_snapshot(c: &mut Criterion) {
    let mut sim = SimTarget::new(hardsnap_periph::soc().unwrap()).unwrap();
    sim.reset();
    sim.step(100);
    let sim_snap = sim.save_snapshot().unwrap();
    c.bench_function("sim_save_snapshot_soc", |b| {
        b.iter(|| std::hint::black_box(sim.save_snapshot().unwrap()))
    });
    c.bench_function("sim_restore_snapshot_soc", |b| {
        b.iter(|| {
            sim.restore_snapshot(std::hint::black_box(&sim_snap))
                .unwrap()
        })
    });

    let mut fpga =
        FpgaTarget::new(hardsnap_periph::soc().unwrap(), &FpgaOptions::default()).unwrap();
    fpga.reset();
    fpga.step(100);
    let fpga_snap = fpga.save_snapshot().unwrap();
    c.bench_function("fpga_scan_save_snapshot_soc", |b| {
        b.iter(|| std::hint::black_box(fpga.save_snapshot().unwrap()))
    });
    c.bench_function("fpga_scan_restore_snapshot_soc", |b| {
        b.iter(|| {
            fpga.restore_snapshot(std::hint::black_box(&fpga_snap))
                .unwrap()
        })
    });

    c.bench_function("snapshot_serialize_roundtrip", |b| {
        b.iter(|| {
            let bytes = hardsnap_bus::persist::write_full(&sim_snap);
            std::hint::black_box(hardsnap_bus::PersistedImage::from_bytes(&bytes).unwrap())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_snapshot
}
criterion_main!(benches);
