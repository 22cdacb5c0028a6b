//! Differential tests: the Verilog corpus (simulated RTL) against the
//! golden Rust models, via real AXI4-Lite bus transactions.

use hardsnap_bus::HwTarget;
use hardsnap_periph::golden;
use hardsnap_periph::regs;
use hardsnap_sim::SimTarget;

fn target(m: hardsnap_rtl::Module) -> SimTarget {
    let mut t = SimTarget::new(m).expect("target builds");
    t.reset();
    t
}

// ------------------------------------------------------------------ SHA-256

fn hw_sha256_block(t: &mut SimTarget, block: &[u32; 16], first: bool) -> [u32; 8] {
    for (i, w) in block.iter().enumerate() {
        t.bus_write(regs::sha256::BLOCK0 + 4 * i as u32, *w)
            .unwrap();
    }
    let strobe = if first {
        regs::sha256::CTRL_INIT
    } else {
        regs::sha256::CTRL_NEXT
    };
    t.bus_write(regs::sha256::CTRL, strobe).unwrap();
    // Wait for completion.
    for _ in 0..200 {
        let st = t.bus_read(regs::sha256::STATUS).unwrap();
        if st & regs::sha256::ST_DIGEST_VALID != 0 {
            break;
        }
        t.step(1);
    }
    let mut digest = [0u32; 8];
    for (i, d) in digest.iter_mut().enumerate() {
        *d = t.bus_read(regs::sha256::DIGEST0 + 4 * i as u32).unwrap();
    }
    digest
}

fn pad_one_block(msg: &[u8]) -> [u32; 16] {
    assert!(msg.len() <= 55);
    let mut data = msg.to_vec();
    data.push(0x80);
    while data.len() != 56 {
        data.push(0);
    }
    data.extend_from_slice(&((msg.len() as u64) * 8).to_be_bytes());
    let mut block = [0u32; 16];
    for (i, w) in data.chunks(4).enumerate() {
        block[i] = u32::from_be_bytes(w.try_into().unwrap());
    }
    block
}

#[test]
fn sha256_hw_matches_fips_abc() {
    let mut t = target(hardsnap_periph::sha256().unwrap());
    let digest = hw_sha256_block(&mut t, &pad_one_block(b"abc"), true);
    assert_eq!(digest, golden::sha256(b"abc"));
    assert_eq!(digest[0], 0xba7816bf);
}

#[test]
fn sha256_hw_multi_block_chaining() {
    let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"; // 56 bytes -> 2 blocks
    let mut data = msg.to_vec();
    data.push(0x80);
    while data.len() % 64 != 56 {
        data.push(0);
    }
    data.extend_from_slice(&((msg.len() as u64) * 8).to_be_bytes());
    let mut t = target(hardsnap_periph::sha256().unwrap());
    let mut digest = [0u32; 8];
    for (bi, chunk) in data.chunks(64).enumerate() {
        let mut block = [0u32; 16];
        for (i, w) in chunk.chunks(4).enumerate() {
            block[i] = u32::from_be_bytes(w.try_into().unwrap());
        }
        digest = hw_sha256_block(&mut t, &block, bi == 0);
        // Clear digest_valid between blocks (W1C).
        t.bus_write(regs::sha256::STATUS, regs::sha256::ST_DIGEST_VALID)
            .unwrap();
    }
    assert_eq!(digest, golden::sha256(msg));
}

#[test]
fn sha256_hw_random_blocks_match_golden_compress() {
    let mut rng = hardsnap_util::Rng::seed_from_u64(0xdecafbad);
    let mut t = target(hardsnap_periph::sha256().unwrap());
    for round in 0..4 {
        let block: [u32; 16] = std::array::from_fn(|_| rng.gen());
        let hw = hw_sha256_block(&mut t, &block, true);
        let mut sw = golden::SHA256_IV;
        golden::sha256_compress(&mut sw, &block);
        assert_eq!(hw, sw, "round {round}");
        t.bus_write(regs::sha256::STATUS, regs::sha256::ST_DIGEST_VALID)
            .unwrap();
    }
}

#[test]
fn sha256_irq_follows_enable_and_w1c() {
    let mut t = target(hardsnap_periph::sha256().unwrap());
    t.bus_write(regs::sha256::IRQEN, 1).unwrap();
    let _ = hw_sha256_block(&mut t, &pad_one_block(b"x"), true);
    assert_eq!(t.irq_lines() & 1, 1, "irq raised on completion");
    t.bus_write(regs::sha256::STATUS, regs::sha256::ST_DIGEST_VALID)
        .unwrap();
    assert_eq!(t.irq_lines() & 1, 0, "irq cleared by W1C");
}

// ------------------------------------------------------------------ AES-128

fn hw_aes_encrypt(t: &mut SimTarget, key: &[u8; 16], pt: &[u8; 16]) -> [u8; 16] {
    let kw = golden::words_from_bytes(key);
    let pw = golden::words_from_bytes(pt);
    for i in 0..4u32 {
        t.bus_write(regs::aes128::KEY0 + 4 * i, kw[i as usize])
            .unwrap();
        t.bus_write(regs::aes128::BLOCK0 + 4 * i, pw[i as usize])
            .unwrap();
    }
    t.bus_write(regs::aes128::CTRL, regs::aes128::CTRL_START)
        .unwrap();
    for _ in 0..50 {
        let st = t.bus_read(regs::aes128::STATUS).unwrap();
        if st & regs::aes128::ST_DONE != 0 {
            break;
        }
        t.step(1);
    }
    let mut cw = [0u32; 4];
    for (i, c) in cw.iter_mut().enumerate() {
        *c = t.bus_read(regs::aes128::RESULT0 + 4 * i as u32).unwrap();
    }
    golden::bytes_from_words(&cw)
}

#[test]
fn aes128_hw_matches_fips197() {
    let key: [u8; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0xa, 0xb, 0xc, 0xd, 0xe, 0xf];
    let pt: [u8; 16] = [
        0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee,
        0xff,
    ];
    let mut t = target(hardsnap_periph::aes128().unwrap());
    let ct = hw_aes_encrypt(&mut t, &key, &pt);
    assert_eq!(
        ct,
        [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a
        ]
    );
}

#[test]
fn aes128_hw_random_vectors_match_golden() {
    let mut rng = hardsnap_util::Rng::seed_from_u64(0xaeaeaeae);
    let mut t = target(hardsnap_periph::aes128().unwrap());
    for round in 0..4 {
        let key: [u8; 16] = rng.gen();
        let pt: [u8; 16] = rng.gen();
        let hw = hw_aes_encrypt(&mut t, &key, &pt);
        assert_eq!(hw, golden::aes128_encrypt(&key, &pt), "round {round}");
        t.bus_write(regs::aes128::STATUS, regs::aes128::ST_DONE)
            .unwrap();
    }
}

// --------------------------------------------------------------------- UART

#[test]
fn uart_loopback_roundtrips_bytes() {
    let mut t = target(hardsnap_periph::uart().unwrap());
    t.bus_write(regs::uart::BAUDDIV, 4).unwrap();
    t.bus_write(
        regs::uart::CTRL,
        regs::uart::CTRL_LOOPBACK | regs::uart::CTRL_RX_EN,
    )
    .unwrap();
    for &byte in &[0x55u32, 0x00, 0xff, 0xa7] {
        t.bus_write(regs::uart::TXDATA, byte).unwrap();
        // A frame is 10 bits; give it generous time at div 4 (+sync).
        t.step(150);
        let st = t.bus_read(regs::uart::STATUS).unwrap();
        assert_ne!(
            st & regs::uart::ST_RX_AVAIL,
            0,
            "byte {byte:#x} not received"
        );
        let rx = t.bus_read(regs::uart::RXDATA).unwrap();
        assert_eq!(rx, byte, "loopback corrupted the byte");
    }
}

#[test]
fn uart_fifo_flags_track_occupancy() {
    let mut t = target(hardsnap_periph::uart().unwrap());
    // Huge divisor: transmitter drains at most one entry during the test.
    t.bus_write(regs::uart::BAUDDIV, 0xff00).unwrap();
    let st = t.bus_read(regs::uart::STATUS).unwrap();
    assert_ne!(st & regs::uart::ST_TX_EMPTY, 0);
    for i in 0..17 {
        t.bus_write(regs::uart::TXDATA, i).unwrap();
    }
    let st = t.bus_read(regs::uart::STATUS).unwrap();
    assert_eq!(st & regs::uart::ST_TX_EMPTY, 0);
    assert_ne!(
        st & regs::uart::ST_TX_FULL,
        0,
        "16 queued (+1 shifting) must be full"
    );
}

#[test]
fn uart_rx_irq_fires_when_data_arrives() {
    let mut t = target(hardsnap_periph::uart().unwrap());
    t.bus_write(regs::uart::BAUDDIV, 4).unwrap();
    t.bus_write(
        regs::uart::CTRL,
        regs::uart::CTRL_LOOPBACK | regs::uart::CTRL_RX_EN | regs::uart::CTRL_RX_IRQ_EN,
    )
    .unwrap();
    assert_eq!(t.irq_lines() & 1, 0);
    t.bus_write(regs::uart::TXDATA, 0x42).unwrap();
    t.step(150);
    assert_eq!(t.irq_lines() & 1, 1);
    let _ = t.bus_read(regs::uart::RXDATA).unwrap();
    assert_eq!(t.irq_lines() & 1, 0, "draining RX clears the irq");
}

// -------------------------------------------------------------------- TIMER

#[test]
fn timer_oneshot_counts_down_and_stops() {
    let mut t = target(hardsnap_periph::timer().unwrap());
    t.bus_write(regs::timer::LOAD, 20).unwrap();
    t.bus_write(
        regs::timer::CTRL,
        regs::timer::CTRL_ENABLE | regs::timer::CTRL_IRQ_EN | regs::timer::CTRL_ONESHOT,
    )
    .unwrap();
    assert_eq!(t.irq_lines(), 0);
    t.step(30);
    assert_eq!(t.irq_lines(), 1);
    // One-shot: enable bit cleared itself.
    let ctrl = t.bus_read(regs::timer::CTRL).unwrap();
    assert_eq!(ctrl & regs::timer::CTRL_ENABLE, 0);
    // W1C clears the flag.
    t.bus_write(regs::timer::STATUS, regs::timer::ST_EXPIRED)
        .unwrap();
    assert_eq!(t.irq_lines(), 0);
}

#[test]
fn timer_periodic_reloads() {
    let mut t = target(hardsnap_periph::timer().unwrap());
    t.bus_write(regs::timer::LOAD, 10).unwrap();
    t.bus_write(regs::timer::CTRL, regs::timer::CTRL_ENABLE)
        .unwrap();
    t.step(15);
    let expired = t.bus_read(regs::timer::STATUS).unwrap();
    assert_ne!(expired & regs::timer::ST_EXPIRED, 0);
    // Still enabled and counting (periodic).
    let ctrl = t.bus_read(regs::timer::CTRL).unwrap();
    assert_ne!(ctrl & regs::timer::CTRL_ENABLE, 0);
    let v1 = t.bus_read(regs::timer::VALUE).unwrap();
    t.step(3);
    let v2 = t.bus_read(regs::timer::VALUE).unwrap();
    assert_ne!(v1, v2, "counter keeps moving");
}

#[test]
fn timer_prescaler_slows_counting() {
    let mut t = target(hardsnap_periph::timer().unwrap());
    t.bus_write(regs::timer::PRESCALER, 9).unwrap(); // 10 cycles per tick
    t.bus_write(regs::timer::LOAD, 100).unwrap();
    t.bus_write(regs::timer::CTRL, regs::timer::CTRL_ENABLE)
        .unwrap();
    let v0 = t.bus_read(regs::timer::VALUE).unwrap();
    t.step(50);
    let v1 = t.bus_read(regs::timer::VALUE).unwrap();
    let dropped = v0 - v1;
    assert!(
        (3..=8).contains(&dropped),
        "expected ~5 ticks in 50 cycles, got {dropped}"
    );
}

// ------------------------------------------------------------------ SoC top

#[test]
fn soc_routes_all_four_peripherals() {
    use hardsnap_bus::map::soc as m;
    let mut t = target(hardsnap_periph::soc().unwrap());
    // Timer through the interconnect.
    t.bus_write(m::TIMER_BASE + regs::timer::LOAD, 5).unwrap();
    assert_eq!(t.bus_read(m::TIMER_BASE + regs::timer::VALUE).unwrap(), 5);
    // UART status through the interconnect.
    let st = t.bus_read(m::UART_BASE + regs::uart::STATUS).unwrap();
    assert_ne!(st & regs::uart::ST_TX_EMPTY, 0);
    // SHA ready.
    let st = t.bus_read(m::SHA_BASE + regs::sha256::STATUS).unwrap();
    assert_ne!(st & regs::sha256::ST_READY, 0);
    // AES ready.
    let st = t.bus_read(m::AES_BASE + regs::aes128::STATUS).unwrap();
    assert_ne!(st & regs::aes128::ST_READY, 0);
}

#[test]
fn soc_bad_address_gets_slverr() {
    let mut t = target(hardsnap_periph::soc().unwrap());
    assert!(matches!(
        t.bus_read(0x4000_8000),
        Err(hardsnap_bus::BusError::SlaveError { .. })
    ));
    assert!(matches!(
        t.bus_write(0x5000_0000, 1),
        Err(hardsnap_bus::BusError::SlaveError { .. })
    ));
    // And the bus still works afterwards.
    let st = t
        .bus_read(hardsnap_bus::map::soc::UART_BASE + regs::uart::STATUS)
        .unwrap();
    assert_ne!(st & regs::uart::ST_TX_EMPTY, 0);
}

#[test]
fn soc_irq_lines_are_independent() {
    use hardsnap_bus::map::soc as m;
    let mut t = target(hardsnap_periph::soc().unwrap());
    assert_eq!(t.irq_lines(), 0);
    // Timer expiry on line 1.
    t.bus_write(m::TIMER_BASE + regs::timer::LOAD, 3).unwrap();
    t.bus_write(
        m::TIMER_BASE + regs::timer::CTRL,
        regs::timer::CTRL_ENABLE | regs::timer::CTRL_IRQ_EN | regs::timer::CTRL_ONESHOT,
    )
    .unwrap();
    t.step(10);
    assert_eq!(t.irq_lines(), 0b0010);
    // AES completion on line 3.
    t.bus_write(m::AES_BASE + hardsnap_periph::regs::aes128::IRQEN, 1)
        .unwrap();
    t.bus_write(m::AES_BASE + regs::aes128::CTRL, regs::aes128::CTRL_START)
        .unwrap();
    t.step(20);
    assert_eq!(t.irq_lines(), 0b1010);
}

#[test]
fn soc_aes_end_to_end_matches_golden() {
    use hardsnap_bus::map::soc as m;
    let mut t = target(hardsnap_periph::soc().unwrap());
    let key = [0x2bu8; 16];
    let pt = *b"attack at dawn!!";
    let kw = golden::words_from_bytes(&key);
    let pw = golden::words_from_bytes(&pt);
    for i in 0..4u32 {
        t.bus_write(m::AES_BASE + regs::aes128::KEY0 + 4 * i, kw[i as usize])
            .unwrap();
        t.bus_write(m::AES_BASE + regs::aes128::BLOCK0 + 4 * i, pw[i as usize])
            .unwrap();
    }
    t.bus_write(m::AES_BASE + regs::aes128::CTRL, regs::aes128::CTRL_START)
        .unwrap();
    t.step(15);
    let mut cw = [0u32; 4];
    for (i, c) in cw.iter_mut().enumerate() {
        *c = t
            .bus_read(m::AES_BASE + regs::aes128::RESULT0 + 4 * i as u32)
            .unwrap();
    }
    assert_eq!(
        golden::bytes_from_words(&cw),
        golden::aes128_encrypt(&key, &pt)
    );
}

// ------------------------------------------------------------ DMA engine

#[test]
fn dma_copies_words_and_raises_irq() {
    let mut t = target(hardsnap_periph::dma().unwrap());
    // Fill 8 source words through the SRAM window.
    for i in 0..8u32 {
        t.bus_write(regs::dma::SRAM + 4 * i, 0xD000_0000 + i)
            .unwrap();
    }
    t.bus_write(regs::dma::SRC, 0).unwrap();
    t.bus_write(regs::dma::DST, 100).unwrap();
    t.bus_write(regs::dma::LEN, 8).unwrap();
    t.bus_write(regs::dma::IRQEN, 1).unwrap();
    t.bus_write(regs::dma::CTRL, regs::dma::CTRL_START).unwrap();
    t.step(20);
    assert_eq!(t.irq_lines() & 1, 1, "completion irq");
    for i in 0..8u32 {
        let v = t.bus_read(regs::dma::SRAM + 4 * (100 + i)).unwrap();
        assert_eq!(v, 0xD000_0000 + i, "word {i}");
    }
    // W1C clears the irq.
    t.bus_write(regs::dma::STATUS, regs::dma::ST_DONE).unwrap();
    assert_eq!(t.irq_lines() & 1, 0);
}

#[test]
fn dma_overlapping_forward_copy_semantics() {
    // Overlapping src < dst forward copy: one-word-per-cycle engines
    // read the already-copied words (memmove this is not). The golden
    // semantics: word-by-word sequential copy.
    let mut t = target(hardsnap_periph::dma().unwrap());
    for i in 0..4u32 {
        t.bus_write(regs::dma::SRAM + 4 * i, i + 1).unwrap(); // 1,2,3,4
    }
    t.bus_write(regs::dma::SRC, 0).unwrap();
    t.bus_write(regs::dma::DST, 2).unwrap();
    t.bus_write(regs::dma::LEN, 4).unwrap();
    t.bus_write(regs::dma::CTRL, regs::dma::CTRL_START).unwrap();
    t.step(20);
    // Sequential semantics: sram[2]=sram[0]=1, sram[3]=sram[1]=2,
    // sram[4]=sram[2]=1 (already overwritten), sram[5]=sram[3]=2.
    let expect = [1u32, 2, 1, 2];
    for (i, e) in expect.iter().enumerate() {
        let v = t.bus_read(regs::dma::SRAM + 4 * (2 + i as u32)).unwrap();
        assert_eq!(v, *e, "word {i}");
    }
}

#[test]
fn dma_snapshot_covers_the_sram() {
    use hardsnap_fpga::{FpgaOptions, FpgaTarget};
    let mut t = FpgaTarget::new(hardsnap_periph::dma().unwrap(), &FpgaOptions::default()).unwrap();
    t.reset();
    for i in 0..16u32 {
        t.bus_write(regs::dma::SRAM + 4 * i, 0xCAFE_0000 + i)
            .unwrap();
    }
    let snap = t.save_snapshot().unwrap();
    let sram = snap.mem("sram").expect("sram collared");
    assert_eq!(sram.len(), 256);
    assert_eq!(sram[5], 0xCAFE_0005);
    // Trash the SRAM, restore, verify.
    for i in 0..16u32 {
        t.bus_write(regs::dma::SRAM + 4 * i, 0).unwrap();
    }
    t.restore_snapshot(&snap).unwrap();
    assert_eq!(t.bus_read(regs::dma::SRAM + 4 * 5).unwrap(), 0xCAFE_0005);
}
