//! The agents a driver advances: every owner of memory-system ports
//! implements [`Agent`].

use crate::system::MemSystem;

/// One owner of memory-system ports that a driver advances
/// (`firefly_cpu::processor::{drive, drive_events}`): a processor, an I/O
/// system's DMA engine, or a Topaz CPU set whose engines share one
/// scheduler. Each port has at most one agent; one agent may own several
/// ports.
///
/// An agent answers the three questions the event engine asks: tick now,
/// which cycle next needs a real tick ([`wake`](Agent::wake)), and how to
/// credit a span of pure bookkeeping ticks in one add
/// ([`advance_idle`](Agent::advance_idle)).
pub trait Agent {
    /// The ports whose accesses this agent issues and polls.
    fn ports(&self) -> std::ops::Range<usize>;

    /// Whether the drivers leave this agent untouched, neither ticked nor
    /// credited: a processor whose port has been machine-checked offline
    /// ([`MemSystem::offline_cpu`]). Never, by default.
    fn frozen(&self, _sys: &MemSystem) -> bool {
        false
    }

    /// Advances the agent one bus cycle. The drivers call it once per
    /// [`MemSystem::step`], before the step.
    fn tick(&mut self, sys: &mut MemSystem);

    /// The first cycle at or after `from` whose [`tick`](Agent::tick) is
    /// more than bookkeeping, for an agent settled to `from`; `u64::MAX`
    /// while it waits for an access whose completion cycle the memory
    /// system has not yet fixed (it reports one through
    /// [`MemSystem::take_notified`] on one of the agent's ports).
    /// Reporting an earlier cycle is never wrong, only slower.
    fn wake(&self, from: u64, sys: &MemSystem) -> u64;

    /// Credits `n` pure-bookkeeping ticks in one add: exactly their state
    /// change. Afterwards the agent is settled to `sys.cycle()`. `n` must
    /// not pass the agent's [`wake`](Agent::wake) cycle.
    fn advance_idle(&mut self, n: u64, sys: &MemSystem);
}

/// Drives agents of several types in one call, for a machine whose
/// processors (or Topaz CPU set) share the bus with an I/O system.
impl<T: Agent + ?Sized> Agent for &mut T {
    fn ports(&self) -> std::ops::Range<usize> {
        (**self).ports()
    }

    fn frozen(&self, sys: &MemSystem) -> bool {
        (**self).frozen(sys)
    }

    fn tick(&mut self, sys: &mut MemSystem) {
        (**self).tick(sys);
    }

    fn wake(&self, from: u64, sys: &MemSystem) -> u64 {
        (**self).wake(from, sys)
    }

    fn advance_idle(&mut self, n: u64, sys: &MemSystem) {
        (**self).advance_idle(n, sys);
    }
}
