//! Regenerates Table 1: Firefly Estimated Performance (§5.2).
//!
//! The analytic model is exact: every cell must match the paper to
//! table rounding (the model-crate tests pin this).

#![deny(unsafe_code)]

use firefly_model::{format_table1, Params};

fn main() {
    println!("Table 1: Firefly Estimated Performance\n");
    let p = Params::microvax();
    println!("{}", format_table1(&p.table1()));
    println!(
        "inputs: IR=.95 DR=.78 DW=.40 (TR=2.13), M=.2, D=.25, S=.1, N=2 ticks/op, 11.9 base TPI"
    );
    println!("terms at L: SM=1.065/(1-L)  SW=.08/(1-L)  SP=.852*L\n");
    println!(
        "knee: marginal processor falls below half its worth after NP={} \
         (\"perhaps nine processors\")",
        p.knee(0.5)
    );
    let five = p.estimate(5);
    println!(
        "standard machine: NP=5 -> L={:.2}, RP={:.0}%, TP={:.2} \
         (\"somewhat more than four times\")",
        five.load,
        five.relative_performance * 100.0,
        five.total_performance
    );
}
