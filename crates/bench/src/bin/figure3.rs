//! Regenerates Figure 3: the cache-line states and transitions of the
//! Firefly protocol — plus the same table for every baseline protocol,
//! which is what makes the §5.1 design discussion concrete.
//!
//! Prints the Firefly table first, then the six baselines in protocol
//! order.

use firefly_core::protocol::{transition_table, ProtocolKind};

fn main() {
    println!("Figure 3: Cache Line States (Firefly protocol)\n");
    println!("{}", transition_table(&ProtocolKind::Firefly.table()));
    println!("legend: I=Invalid V=Valid(clean,excl) S=Shared(clean) D=Dirty(excl) SD=Shared-Dirty");
    println!(
        "        sh=asserts MShared  sup=supplies data  fl=flushes to memory  abs=absorbs data\n"
    );

    println!("the baselines of the §5.1 discussion:\n");
    for kind in ProtocolKind::ALL.into_iter().filter(|&k| k != ProtocolKind::Firefly) {
        println!("{}", transition_table(&kind.table()));
    }
}
