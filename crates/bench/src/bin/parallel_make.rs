//! The §6 parallel make: "we have implemented a parallel version of the
//! Unix make utility, which forks multiple compilations in parallel
//! when possible" — the coarse-grained parallelism the machine was
//! built for.

#![deny(unsafe_code)]

use firefly_topaz::workloads::parallel_make_speedup;

fn main() {
    println!("parallel make: 12 compilations of ~2000 instructions each\n");
    println!("{:>6} {:>10}", "CPUs", "speedup");
    println!("{:>6} {:>10.2}", 1, 1.0);
    for (cpus, speedup) in parallel_make_speedup(12, 2_000, &[2, 3, 4, 6]) {
        let bar = "#".repeat((speedup * 8.0) as usize);
        println!("{cpus:>6} {speedup:>10.2}  {bar}");
    }
    println!(
        "\nthe curve bends below linear for the §5.2 reasons: bus contention, shared\n\
         scheduler and object-file traffic, and the fixed dispatch overhead per job."
    );
}
