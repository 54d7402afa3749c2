//! Identifier newtypes for threads and synchronization objects.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
        pub struct $name(u32);

        impl $name {
            /// Creates an id from its index.
            pub const fn new(index: u32) -> Self {
                $name(index)
            }

            /// The raw index, usable for table lookups.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        firefly_core::snap_struct!($name(0));

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies one Topaz thread.
    ThreadId,
    "t"
);
id_type!(
    /// Identifies one Mutex (the Modula-2+ `LOCK` object).
    MutexId,
    "m"
);
id_type!(
    /// Identifies one condition variable.
    CondId,
    "c"
);
id_type!(
    /// Identifies one counting semaphore (Birrell's synchronization
    /// primitives, SRC Report 20 — cited by the paper).
    SemId,
    "s"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_and_display() {
        let t = ThreadId::new(7);
        assert_eq!(t.index(), 7);
        assert_eq!(t.to_string(), "t7");
        assert_eq!(format!("{:?}", MutexId::new(1)), "m1");
        assert_eq!(CondId::new(0).to_string(), "c0");
    }

    #[test]
    fn ids_are_ordered() {
        assert!(ThreadId::new(1) < ThreadId::new(2));
        assert_eq!(MutexId::new(3), MutexId::new(3));
    }
}
