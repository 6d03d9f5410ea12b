//! Event ordering classes.
//!
//! When several events are scheduled for the same instant, the order in
//! which they are *delivered* matters to a scheduler: a completion that
//! frees processors at time `t` must be visible to the scheduling decision
//! made at `t`, and the periodic preemption tick should observe the final
//! state of the instant. [`EventClass`] encodes that delivery priority;
//! within a class, events are delivered in insertion order (FIFO), which
//! makes the whole simulation deterministic.

/// Delivery priority for simultaneous events (lower fires first).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum EventClass {
    /// A job finished and its processors are being released.
    Completion = 0,
    /// A suspension drain finished; processors become free.
    ProcsFreed = 1,
    /// A processor failed or came back from repair. After completions (a
    /// job finishing at the failure instant was lucky — its result is
    /// already out) but before arrivals and the scheduling decision, which
    /// must observe the post-fault machine.
    Fault = 2,
    /// A new job entered the system.
    Arrival = 3,
    /// Periodic scheduler activity (e.g. the preemption routine).
    Tick = 4,
    /// Anything that must run after all state changes of the instant.
    Epilogue = 5,
}

impl EventClass {
    /// All classes, in delivery order.
    pub const ALL: [EventClass; 6] = [
        EventClass::Completion,
        EventClass::ProcsFreed,
        EventClass::Fault,
        EventClass::Arrival,
        EventClass::Tick,
        EventClass::Epilogue,
    ];

    /// Numeric delivery rank (lower fires first).
    #[inline]
    pub const fn rank(self) -> u8 {
        self as u8
    }

    /// The class with delivery rank `rank`. Panics on a rank no class has.
    #[inline]
    pub const fn from_rank(rank: u8) -> Self {
        match rank {
            0 => EventClass::Completion,
            1 => EventClass::ProcsFreed,
            2 => EventClass::Fault,
            3 => EventClass::Arrival,
            4 => EventClass::Tick,
            5 => EventClass::Epilogue,
            _ => panic!("no event class has this rank"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_strictly_increasing() {
        let ranks: Vec<u8> = EventClass::ALL.iter().map(|c| c.rank()).collect();
        for w in ranks.windows(2) {
            assert!(w[0] < w[1], "ranks must be strictly increasing: {ranks:?}");
        }
    }

    #[test]
    fn ranks_round_trip() {
        for c in EventClass::ALL {
            assert_eq!(EventClass::from_rank(c.rank()), c);
        }
    }

    #[test]
    fn completion_fires_before_arrival_before_tick() {
        assert!(EventClass::Completion < EventClass::Arrival);
        assert!(EventClass::Arrival < EventClass::Tick);
        assert!(EventClass::ProcsFreed < EventClass::Arrival);
        assert!(EventClass::Tick < EventClass::Epilogue);
    }

    #[test]
    fn faults_fire_after_completions_but_before_arrivals() {
        assert!(EventClass::Completion < EventClass::Fault);
        assert!(EventClass::ProcsFreed < EventClass::Fault);
        assert!(EventClass::Fault < EventClass::Arrival);
    }
}
