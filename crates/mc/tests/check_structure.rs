//! `CoherenceChecker::check` holds the Tardis timestamp structure
//! itself, so every caller of `check` (quiescent soak checks, property
//! tests, the model checker's reset check) sees a broken lease without
//! a separate timestamp call. The mutant tables live here, in
//! `firefly-mc`.

use firefly_core::check::CoherenceChecker;
use firefly_core::config::SystemConfig;
use firefly_core::protocol::ProtocolKind;
use firefly_core::system::{MemSystem, Request};
use firefly_core::{Addr, PortId};
use firefly_mc::Mutation;

/// One read fill under the swapped-fill mutant installs a copy whose
/// write timestamp lies past its read timestamp; `check` rejects that
/// state, and the same fill under the clean table passes.
#[test]
fn check_rejects_a_fill_with_wts_past_rts() {
    let mut mutant = ProtocolKind::Tardis.table();
    Mutation::TsSwapFill.apply(&mut mutant);
    for (table, broken) in [(ProtocolKind::Tardis.table(), false), (mutant, true)] {
        let mut sys = MemSystem::with_table(SystemConfig::microvax(2), table).unwrap();
        let r = sys.run_to_completion(PortId::new(0), Request::read(Addr::new(0x40))).unwrap();
        assert!(!r.hit, "the read must fill");
        let verdict = CoherenceChecker::new().check(&sys);
        if broken {
            let err = verdict.expect_err("check passed a copy with wts > rts");
            let msg = err.to_string();
            assert!(msg.contains("timestamp order") && msg.contains("> rts"), "{msg}");
        } else {
            verdict.expect("the clean fill is coherent");
        }
    }
}
