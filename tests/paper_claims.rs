//! The paper's headline quantitative claims, asserted end to end.
//!
//! Each test quotes the claim it pins. Where the claim is analytic
//! (Table 1) the match is exact; where it is a measurement the
//! documented *shape* must hold (see EXPERIMENTS.md for the philosophy).

use firefly::core::ProtocolKind;
use firefly::model::Params;
use firefly::sim::fleet::run_rpc_transfer;
use firefly::sim::harness::run_jobs;
use firefly::sim::sweep::scaling_sweep;
use firefly::sim::FireflyBuilder;

/// Table 1, every printed cell (§5.2).
#[test]
fn table1_exact() {
    let rows = Params::microvax().table1();
    let tp: Vec<f64> = rows.iter().map(|r| r.total_performance).collect();
    for (got, want) in tp.iter().zip([1.77, 3.43, 4.93, 6.23, 7.29, 8.07]) {
        assert!((got - want).abs() < 0.005, "TP {got:.3} vs paper {want}");
    }
    let l: Vec<f64> = rows.iter().map(|r| r.load).collect();
    for (got, want) in l.iter().skip(1).zip([0.33, 0.47, 0.60, 0.70, 0.78]) {
        assert!((got - want).abs() < 0.005, "L {got:.3} vs paper {want}");
    }
}

/// "It is clear that the Firefly MBus can support perhaps nine
/// processors before the marginal improvement achieved by adding
/// another processor becomes unattractive." (§5.2)
#[test]
fn nine_processor_knee() {
    assert_eq!(Params::microvax().knee(0.5), 9);
}

/// "The standard five-processor configuration delivers somewhat more
/// than four times the performance of a single processor ... The
/// average bus load on the standard machine is 0.4 and each processor
/// runs at about 85% of a no-wait-state system." (§5.2)
#[test]
fn standard_machine_simulated() {
    let mut m = FireflyBuilder::microvax(5).seed(42).build();
    let r = m.measure(200_000, 400_000);
    assert!(
        (0.30..0.50).contains(&r.bus_load),
        "five-CPU simulated load {:.2}, paper model says 0.40",
        r.bus_load
    );
    let rp = r.relative_performance(11.9);
    assert!((0.78..0.97).contains(&rp), "RP {:.2}, paper says ~0.85", rp);
}

/// The simulated scaling curve has the model's shape: monotone rising
/// TP with diminishing returns and rising load.
#[test]
fn scaling_shape_matches_model() {
    let pts = scaling_sweep(&[2, 6, 10], ProtocolKind::Firefly, 42, 120_000, 250_000);
    let model = Params::microvax();
    for p in &pts {
        let est = model.estimate(p.cpus);
        assert!(
            (p.load - est.load).abs() < 0.12,
            "NP={}: simulated L {:.2} vs model {:.2}",
            p.cpus,
            p.load,
            est.load
        );
    }
    assert!(pts[2].total_performance > pts[1].total_performance);
    let g1 = pts[1].total_performance - pts[0].total_performance;
    let g2 = pts[2].total_performance - pts[1].total_performance;
    assert!(g2 < g1, "diminishing returns");
}

/// "The remote server can sustain a bandwidth of 4.6 megabits per
/// second using an average of three concurrent threads." (§6)
///
/// On the cycle-level fleet: one thread is latency-bound, a second
/// overlaps its wire time with the other's service, and from three on
/// the serial server holds the plateau.
#[test]
fn rpc_bandwidth_claim() {
    let threads: Vec<usize> = (1..=8).collect();
    let sweep = run_jobs(&threads, |&t| run_rpc_transfer(t, 1_000, 0x000f_1ee7));
    let mbps: Vec<f64> = sweep.iter().map(|run| run.goodput_mbps).collect();
    assert!((4.1..5.1).contains(&mbps[2]), "3-thread RPC bandwidth {:.2} Mb/s", mbps[2]);
    assert!(mbps[0] < 3.0, "one thread reaches {:.2} Mb/s", mbps[0]);
    assert!(mbps[1] >= 1.3 * mbps[0], "a second thread gives only {:.2} Mb/s", mbps[1]);
    let plateau = mbps[7];
    for (t, w) in (3..=8).zip(mbps[1..].windows(2)) {
        assert!(
            (w[1] - plateau).abs() <= 0.05 * plateau,
            "{t} threads: {:.2} Mb/s vs plateau {plateau:.2}",
            w[1]
        );
        assert!(w[1] >= 0.98 * w[0], "{t} threads: {:.2} Mb/s after {:.2}", w[1], w[0]);
    }
}

/// "On our benchmarks, the upgrade has improved execution speeds by
/// factors of 2.0 to 2.5." (§5.3)
#[test]
fn cvax_upgrade_claim() {
    let rate = |cvax: bool| {
        let mut m = if cvax {
            FireflyBuilder::cvax(1).seed(42).build()
        } else {
            FireflyBuilder::microvax(1).seed(42).build()
        };
        m.measure(200_000, 400_000).instructions_per_cpu_k
    };
    let speedup = rate(true) / rate(false);
    assert!((1.9..2.7).contains(&speedup), "CVAX speedup {speedup:.2}");
}

/// Write-through-invalidate "is not a practical protocol for more than
/// a few processors, because the substantial write traffic will rapidly
/// saturate the bus." (§5.1)
#[test]
fn write_through_saturates_first() {
    let load = |kind| {
        let mut m = FireflyBuilder::microvax(6).protocol(kind).seed(42).build();
        m.measure(100_000, 200_000).bus_load
    };
    let firefly = load(ProtocolKind::Firefly);
    let wt = load(ProtocolKind::WriteThrough);
    assert!(
        wt > firefly + 0.15,
        "write-through load {wt:.2} should far exceed Firefly {firefly:.2}"
    );
}

/// Figure 1's structure: the builder produces the advertised topology.
#[test]
fn figure1_topology() {
    let m = FireflyBuilder::microvax(5).with_io().build();
    let inv = m.inventory();
    for needle in ["5 processor(s)", "16 KB", "4096 x 4-byte lines", "10 MB/s", "16 MB", "QBus"] {
        assert!(inv.contains(needle), "inventory missing {needle:?}:\n{inv}");
    }
}
