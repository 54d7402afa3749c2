//! Threads and I/O devices time-sharing one coherent machine — the
//! workstation actually at work: a user computes in the foreground, the
//! display paints, the disk streams, and everything stays coherent.

use firefly::core::check::CoherenceChecker;
use firefly::core::{Addr, PortId};
use firefly::io::rqdx3::DiskRequest;
use firefly::io::IoSystem;
use firefly::topaz::ultrix::syscall_comparison;
use firefly::topaz::{Script, ThreadOp, TopazConfig, TopazMachine};

/// Topaz threads on CPUs 0..2, DMA on port 2: both make progress and
/// the memory system stays coherent.
#[test]
fn threads_and_devices_share_the_machine() {
    let mut m = TopazMachine::with_io(TopazConfig::microvax(2), IoSystem::on_port);
    let mx = m.create_mutex();
    for _ in 0..4 {
        m.spawn(Script::new(vec![
            ThreadOp::Compute { instructions: 120 },
            ThreadOp::Lock(mx),
            ThreadOp::TouchShared { words: 16, write_fraction: 0.5 },
            ThreadOp::Unlock(mx),
            ThreadOp::Yield,
        ]));
    }

    let io = m.io_mut().unwrap();
    for lba in 0..3 {
        io.disk_mut().submit(DiskRequest::Read { lba, addr: Addr::new(0x0050_0000 + lba * 512) });
    }
    io.deqna_mut().enqueue_tx(Addr::new(0x0052_0000), 256);

    for _ in 0..2_500_000 {
        // Footnote 2: a CPU kicks the I/O processor once, early.
        if m.cycle() == 1_000 {
            m.memory_mut().post_interrupt(PortId::new(0)).unwrap();
        }
        m.run(1);
        let io = m.io().unwrap();
        if io.disk().stats().reads == 3 && io.deqna().stats().tx_packets == 1 {
            break;
        }
    }
    let io = m.io().unwrap();
    assert_eq!(io.disk().stats().reads, 3, "disk streamed");
    assert_eq!(io.deqna().stats().tx_packets, 1, "network transmitted after the kick");
    assert!(io.mdc().stats().polls > 100, "display kept polling");
    assert!(m.stats().lock_acquires > 20, "threads kept synchronizing: {:?}", m.stats());
}

/// The combined machine leaves coherent memory behind, and DMA data is
/// CPU-visible.
#[test]
fn dma_results_visible_to_threads_coherently() {
    let mut m = TopazMachine::with_io(TopazConfig::microvax(2), IoSystem::on_port);
    m.spawn(Script::new(vec![ThreadOp::Compute { instructions: 3_000 }, ThreadOp::Exit]));

    let io = m.io_mut().unwrap();
    let buf = Addr::new(0x0070_0000);
    io.deqna_mut().post_rx_buffer(buf, 16);
    let mut pkt = firefly::io::deqna::Packet::zeroed(8);
    pkt.words = vec![0xaa55_aa55, 0x1234_0000];
    io.deqna_mut().deliver(pkt);

    for _ in 0..400_000 {
        m.run(1);
        if m.all_exited() && m.io().unwrap().deqna().stats().rx_packets == 1 {
            break;
        }
    }
    assert_eq!(m.io().unwrap().deqna().stats().rx_packets, 1);
    assert!(m.memory().is_quiescent());
    CoherenceChecker::new().check(m.memory()).unwrap();
    // The packet data reached coherent memory.
    assert_eq!(m.memory().peek_memory_word(buf), 0xaa55_aa55);
    assert_eq!(m.memory().peek_memory_word(buf.add_words(1)), 0x1234_0000);
}

/// The footnote-5 syscall economics hold end to end through the public
/// API (smoke test for the ultrix module from outside).
#[test]
fn ultrix_emulation_overhead_visible() {
    let c = syscall_comparison(TopazConfig::microvax(1), 10, 60, 40);
    assert!(c.slowdown() > 1.2, "emulated syscalls cost: {:.2}x", c.slowdown());
}
