//! Virtual time for the discrete-event simulation.

use std::fmt;
use std::ops::Add;

/// A point in simulated time, in abstract ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(pub u64);

impl VirtualTime {
    /// The simulation epoch.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// Raw tick count.
    pub fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating difference between two times.
    pub fn since(self, earlier: VirtualTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for VirtualTime {
    type Output = VirtualTime;

    fn add(self, delta: u64) -> VirtualTime {
        VirtualTime(self.0 + delta)
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = VirtualTime::ZERO + 5;
        assert_eq!(t.ticks(), 5);
        assert_eq!((t + 3).since(t), 3);
        assert_eq!(t.since(t + 3), 0, "saturating");
        assert!(t < t + 1);
        assert_eq!(t.to_string(), "t5");
    }
}
