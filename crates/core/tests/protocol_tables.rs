//! Pins every protocol decision the engine, the reference simulator and
//! the model checker read, as one golden text
//! (`tests/golden/protocol_tables.txt`):
//!
//! * the printed transition table of all seven protocols (hit rules,
//!   read fills, write-miss policy, the full snoop table);
//! * the exclusive-fill state and the write-through-allocate fill state
//!   (`MShared` false and true) of every protocol, including the ones
//!   whose write-miss policy never reaches them;
//! * the five Tardis timestamp rules on a `(pts, g_rts)` grid that
//!   reaches both ends of `u64`, at the default lease and at the
//!   one-tick lease the model checker uses.
//!
//! Only `render_tables`, `fills` and `ts_rules` read the protocol API;
//! everything else is the golden comparison. On a mismatch the test
//! prints the full rendering so the difference can be read with `diff`.

use firefly_core::protocol::{transition_table, LineState, ProtocolKind, TsRules};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/protocol_tables.txt");

/// Timestamp values probed by the grid: both ends of `u64`, the lease
/// boundaries of the one-tick and default leases, and a large middle.
const GRID: [u64; 8] = [0, 1, 2, 8, 9, 1 << 32, u64::MAX - 1, u64::MAX];

/// The printed transition table of `kind`.
fn render_tables(kind: ProtocolKind) -> String {
    transition_table(&kind.table())
}

/// `kind`'s exclusive-fill state and its write-through-allocate fill
/// states, indexed by `MShared`.
fn fills(kind: ProtocolKind) -> (LineState, [LineState; 2]) {
    let t = kind.table();
    (t.exclusive_fill, t.write_through_fill)
}

/// The Tardis rules at `lease` for `(a, b)`: can-serve and grant and
/// write order and read advance at `(pts, g_rts) = (a, b)`, and the
/// fill at `(wts, rts) = (a, b)`.
fn ts_rules(lease: u64, a: u64, b: u64) -> (bool, u64, u64, (u64, u64), u64) {
    let t = TsRules { lease, ..ProtocolKind::Tardis.table().ts.unwrap() };
    (
        (t.can_serve)(a, b),
        (t.grant)(lease, a, b),
        (t.write_order)(a, b),
        (t.fill)(a, b),
        (t.read_advance)(a, b),
    )
}

fn render() -> String {
    let mut out = String::new();
    for kind in ProtocolKind::ALL {
        out.push_str(&render_tables(kind));
        let (exclusive, wt) = fills(kind);
        let _ = writeln!(
            out,
            "exclusive fill -> {}; write-through fill -> {}(shared)/{}(not)",
            exclusive.short(),
            wt[1].short(),
            wt[0].short()
        );
        let _ = writeln!(out);
    }
    for lease in [8, 1] {
        let _ = writeln!(
            out,
            "Tardis rules, lease {lease}: a b -> serve grant write_order fill advance"
        );
        for a in GRID {
            for b in GRID {
                let (serve, grant, write, fill, advance) = ts_rules(lease, a, b);
                let _ = writeln!(
                    out,
                    "  {a} {b} -> {serve} {grant} {write} ({}, {}) {advance}",
                    fill.0, fill.1
                );
            }
        }
        let _ = writeln!(out);
    }
    out
}

#[test]
fn protocol_tables_match_the_golden_text() {
    let got = render();
    if got != GOLDEN {
        eprintln!("---- rendered protocol tables ----\n{got}---- end ----");
        panic!("protocol tables differ from tests/golden/protocol_tables.txt");
    }
}
