//! Ablation B: the cost of free thread migration under conditional
//! write-through.
//!
//! §5.1: "If processes are allowed to move freely between processors,
//! the number of unnecessary writes could be significant, since most of
//! the writeable data for a process will be in both the old and the new
//! cache until the data is displaced ... For this reason, the Topaz
//! scheduler goes to some effort to avoid process migration."

#![deny(unsafe_code)]

use firefly_topaz::exerciser::{run_exerciser, ExerciserConfig};
use firefly_topaz::MigrationPolicy;

fn main() {
    println!("Ablation B: scheduler migration policy (4-CPU exerciser)\n");
    println!(
        "{:<18} {:>11} {:>13} {:>12} {:>10} {:>9}",
        "policy", "migrations", "wt+MShared/s", "bus load", "miss rate", "K refs/s"
    );
    for policy in [MigrationPolicy::AvoidMigration, MigrationPolicy::FreeMigration] {
        let mut cfg = ExerciserConfig::table2(4);
        cfg.topaz.migration = policy;
        let r = run_exerciser(&cfg, 300_000, 800_000);
        println!(
            "{:<18} {:>11} {:>13.0} {:>12.2} {:>10.2} {:>9.0}",
            format!("{policy:?}"),
            r.runtime.migrations,
            r.wt_shared_k,
            r.bus_load,
            r.miss_rate,
            r.total_k,
        );
    }
    println!(
        "\nreading: free migration replicates each thread's writable working set in two\n\
         caches, so more writes find a (stale) sharer and the conditional write-through\n\
         keeps paying; Taos's affinity scheduling avoids those unnecessary writes."
    );
}
