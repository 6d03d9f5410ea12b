//! Periodic activity helper.
//!
//! The paper's schedulers invoke the preemption routine "periodically
//! (after every minute)". Keeping an event in the queue for every future
//! minute of a months-long trace would be wasteful, so [`Ticker`] schedules
//! exactly one pending tick at a time and re-arms itself whenever the
//! simulation still has work outstanding.
//!
//! A simulation that can prove the next few ticks would do nothing may arm
//! further ahead ([`Ticker::arm_not_before`]) and keep a [`TickShadow`] of
//! the every-period schedule it skipped, so each delivered instant still
//! knows whether the un-skipped run would have ticked there.

use crate::time::{Secs, SimTime};

/// Generates an unbounded series of aligned periodic instants, one at a
/// time. The caller pushes the returned instant into its event queue and
/// calls [`Ticker::fired`] when it is delivered.
#[derive(Clone, Debug)]
pub struct Ticker {
    period: Secs,
    /// The single outstanding tick, if armed.
    pending: Option<SimTime>,
}

impl Ticker {
    /// A ticker firing every `period` seconds. `period` must be positive.
    pub fn new(period: Secs) -> Self {
        assert!(period > 0, "tick period must be positive, got {period}");
        Ticker {
            period,
            pending: None,
        }
    }

    /// The tick period in seconds.
    pub fn period(&self) -> Secs {
        self.period
    }

    /// Arm the ticker if idle: returns the next tick instant strictly after
    /// `now`, aligned to multiples of the period, or `None` when a tick is
    /// already outstanding (so callers can arm opportunistically from any
    /// event handler without flooding the queue).
    pub fn arm(&mut self, now: SimTime) -> Option<SimTime> {
        if self.pending.is_some() {
            return None;
        }
        let next = self.next_after(now);
        self.pending = Some(next);
        Some(next)
    }

    /// Arm the first period multiple at or after `at` (callers pass an
    /// instant strictly after the current one). An outstanding tick no
    /// later than that multiple is kept and `None` returned; a later one is
    /// *superseded*: the new instant is returned for the caller to push,
    /// and the old event, still queued, is rejected by [`Ticker::fired`]
    /// when it is delivered.
    pub fn arm_not_before(&mut self, at: SimTime) -> Option<SimTime> {
        let next = self.next_at_or_after(at);
        if self.pending.is_some_and(|p| p <= next) {
            return None;
        }
        self.pending = Some(next);
        Some(next)
    }

    /// Record that the tick scheduled for `at` was delivered, disarming the
    /// ticker. Stale ticks (not matching the outstanding one, including
    /// ones superseded by [`Ticker::arm_not_before`]) return `false` and
    /// should be ignored by the caller.
    pub fn fired(&mut self, at: SimTime) -> bool {
        if self.pending == Some(at) {
            self.pending = None;
            true
        } else {
            false
        }
    }

    /// Whether a tick is outstanding.
    pub fn is_armed(&self) -> bool {
        self.pending.is_some()
    }

    /// Whether the outstanding tick is the one at `at`: a tick event
    /// delivered at `at` is live, and [`Ticker::fired`] would accept it,
    /// exactly when this holds.
    pub fn is_armed_at(&self, at: SimTime) -> bool {
        self.pending == Some(at)
    }

    /// First multiple of the period strictly after `now`.
    fn next_after(&self, now: SimTime) -> SimTime {
        let p = self.period;
        let s = now.secs();
        let next = (s.div_euclid(p) + 1) * p;
        SimTime::new(next)
    }

    /// First multiple of the period at or after `at`.
    fn next_at_or_after(&self, at: SimTime) -> SimTime {
        self.next_after(at - 1)
    }
}

/// A run of tick instants the full schedule delivers and a skipping
/// simulation did not: `count` instants from `first`, `period` apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TickGrid {
    /// The first skipped instant (meaningless when `count` is zero).
    pub first: SimTime,
    /// Spacing of consecutive instants.
    pub period: Secs,
    /// Number of instants.
    pub count: u64,
}

impl TickGrid {
    /// A grid of no instants.
    pub const EMPTY: TickGrid = TickGrid {
        first: SimTime::ZERO,
        period: 1,
        count: 0,
    };

    /// The `i`-th instant (`i < count`).
    #[inline]
    pub fn at(&self, i: u64) -> SimTime {
        self.first + i as Secs * self.period
    }

    /// The last instant, if any.
    pub fn last(&self) -> Option<SimTime> {
        (self.count > 0).then(|| self.at(self.count - 1))
    }
}

/// The schedule a [`Ticker`] re-armed after every instant with work
/// outstanding would follow, replayed lazily by a simulation that armed
/// its real ticker further ahead.
///
/// Such a ticker fires at every period multiple after an instant that
/// ended with work pending, until an instant ends without work; its ticks
/// change nothing by assumption (that is what allowed skipping them), so
/// the outstanding-work flag of the last delivered instant decides the
/// whole skipped stretch. [`TickShadow::catch_up`] replays the stretch up
/// to the next delivered instant and reports whether the full schedule
/// ticks *at* that instant, which is what the instant's tick flag must
/// say for the skipped run to match the full one.
#[derive(Clone, Debug)]
pub struct TickShadow {
    period: Secs,
    /// The full schedule's outstanding tick, if armed.
    pending: Option<SimTime>,
    /// Whether the last delivered instant ended with work pending.
    work: bool,
}

impl TickShadow {
    /// A shadow of a ticker firing every `period` seconds.
    pub fn new(period: Secs) -> Self {
        assert!(period > 0, "tick period must be positive, got {period}");
        TickShadow {
            period,
            pending: None,
            work: false,
        }
    }

    /// Advance to the delivered instant `now`. Returns whether the full
    /// schedule ticks at `now` and the grid of its ticks that fell
    /// strictly between the previous delivered instant and `now`.
    pub fn catch_up(&mut self, now: SimTime) -> (bool, TickGrid) {
        let Some(k) = self.pending.filter(|&k| k <= now) else {
            return (false, TickGrid::EMPTY);
        };
        if !self.work {
            // The armed tick fires once; ending without work, it does not
            // re-arm.
            self.pending = None;
            return (k == now, self.grid(k, u64::from(k < now)));
        }
        let p = self.period;
        let gap = now - k;
        let skipped = (gap + p - 1) / p;
        let on_now = gap % p == 0;
        self.pending = (!on_now).then(|| k + skipped * p);
        (on_now, self.grid(k, skipped as u64))
    }

    /// Close the instant at `now`: with work pending, the full schedule
    /// arms the next multiple strictly after `now` (if none is armed).
    pub fn settle(&mut self, now: SimTime, work_pending: bool) {
        self.work = work_pending;
        if work_pending && self.pending.is_none() {
            let p = self.period;
            self.pending = Some(SimTime::new((now.secs().div_euclid(p) + 1) * p));
        }
    }

    /// The ticks the full schedule still delivers at or before `end`
    /// after the last delivered instant (the run's final tally). Without
    /// work pending only the armed tick remains; with work pending every
    /// multiple up to `end` does.
    pub fn tail_until(&self, end: SimTime) -> TickGrid {
        match self.pending {
            Some(k) if k <= end => {
                let count = if self.work {
                    ((end - k) / self.period + 1) as u64
                } else {
                    1
                };
                self.grid(k, count)
            }
            _ => TickGrid::EMPTY,
        }
    }

    fn grid(&self, first: SimTime, count: u64) -> TickGrid {
        TickGrid {
            first,
            period: self.period,
            count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: i64) -> SimTime {
        SimTime::new(s)
    }

    #[test]
    fn ticks_align_to_period_multiples() {
        let mut k = Ticker::new(60);
        assert_eq!(k.arm(t(0)), Some(t(60)));
        assert!(k.fired(t(60)));
        assert_eq!(k.arm(t(60)), Some(t(120)));
        assert!(k.fired(t(120)));
        assert_eq!(k.arm(t(121)), Some(t(180)));
    }

    #[test]
    fn only_one_outstanding_tick() {
        let mut k = Ticker::new(60);
        assert!(k.arm(t(0)).is_some());
        assert!(k.arm(t(0)).is_none());
        assert!(k.arm(t(30)).is_none());
        assert!(k.is_armed());
        assert!(k.fired(t(60)));
        assert!(!k.is_armed());
        assert!(k.arm(t(60)).is_some());
    }

    #[test]
    fn stale_fires_are_rejected() {
        let mut k = Ticker::new(60);
        k.arm(t(0));
        assert!(!k.fired(t(30)));
        assert!(k.is_armed());
        assert!(k.fired(t(60)));
        assert!(!k.fired(t(60)), "double fire must be rejected");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_panics() {
        let _ = Ticker::new(0);
    }

    #[test]
    fn mid_period_arm_rounds_up() {
        let mut k = Ticker::new(100);
        assert_eq!(k.arm(t(250)), Some(t(300)));
    }

    #[test]
    fn armed_ahead_ticks_land_at_or_after_the_target() {
        let mut k = Ticker::new(60);
        // An aligned target is kept as is; a mid-period one rounds up.
        assert_eq!(k.arm_not_before(t(600)), Some(t(600)));
        assert!(k.fired(t(600)));
        assert_eq!(k.arm_not_before(t(601)), Some(t(660)));
        // An earlier or equal outstanding tick is kept.
        assert_eq!(k.arm_not_before(t(700)), None);
        assert_eq!(k.arm_not_before(t(650)), None);
        assert!(k.fired(t(660)));
    }

    #[test]
    fn superseded_ticks_are_ignored() {
        let mut k = Ticker::new(60);
        assert_eq!(k.arm_not_before(t(1_200)), Some(t(1_200)));
        // A nearer target supersedes the outstanding tick.
        assert_eq!(k.arm_not_before(t(130)), Some(t(180)));
        assert!(k.fired(t(180)));
        assert!(!k.is_armed_at(t(1_200)));
        assert!(!k.fired(t(1_200)), "the superseded tick is stale");
        // Re-arming on the superseded instant revives it exactly once.
        assert_eq!(k.arm_not_before(t(1_200)), Some(t(1_200)));
        assert!(k.is_armed_at(t(1_200)));
        assert!(k.fired(t(1_200)));
        assert!(!k.fired(t(1_200)));
    }

    #[test]
    fn shadow_replays_the_full_schedule() {
        let mut s = TickShadow::new(60);
        s.settle(t(10), true); // full ticker armed for 60
        let grid = |first, count| TickGrid {
            first: t(first),
            period: 60,
            count,
        };
        assert_eq!(
            s.catch_up(t(200)),
            (false, grid(60, 3)),
            "60, 120, 180 skipped"
        );
        s.settle(t(200), true);
        assert_eq!(
            s.catch_up(t(300)),
            (true, grid(240, 1)),
            "240 skipped, 300 ticks"
        );
        s.settle(t(300), true);
        assert_eq!(s.catch_up(t(330)), (false, TickGrid::EMPTY));
        // Work ends at 330: the armed tick at 360 still fires, once.
        s.settle(t(330), false);
        assert_eq!(s.catch_up(t(1_000)), (false, grid(360, 1)));
        s.settle(t(1_000), false);
        assert_eq!(
            s.catch_up(t(5_000)),
            (false, TickGrid::EMPTY),
            "no work, no ticks"
        );
    }

    #[test]
    fn shadow_matches_a_continuously_rearmed_ticker() {
        // Delivered instants and the work flag at each one; the full run
        // delivers its ticks as instants of their own.
        let events = [
            (5, true),
            (61, true),
            (400, false),
            (430, true),
            (600, true),
            (900, false),
        ];
        let mut full = Ticker::new(60);
        let mut full_ticks = Vec::new();
        let mut work = false;
        let mut ev = events.iter().peekable();
        let mut now = 0;
        while now <= 2_000 {
            let real = ev.peek().is_some_and(|e| e.0 == now);
            let fired = full.fired(t(now));
            if fired {
                full_ticks.push(now);
            }
            if real {
                work = ev.next().unwrap().1;
            }
            if (real || fired) && work {
                full.arm(t(now));
            }
            now += 1;
        }
        let mut shadow = TickShadow::new(60);
        let (mut on, mut skipped) = (Vec::new(), Vec::new());
        let mut take = |grid: TickGrid| skipped.extend((0..grid.count).map(|i| grid.at(i).secs()));
        for &(at, w) in &events {
            let (tick, grid) = shadow.catch_up(t(at));
            take(grid);
            if tick {
                on.push(at);
            }
            shadow.settle(t(at), w);
        }
        take(shadow.tail_until(t(2_000)));
        assert_eq!(on, vec![600, 900], "aligned event instants are ticks");
        // The delivered ticks and the skipped grids partition the full
        // schedule instant for instant.
        let mut all = [on, skipped].concat();
        all.sort_unstable();
        assert_eq!(all, full_ticks);
    }

    #[test]
    fn grid_indexing() {
        let g = TickGrid {
            first: t(120),
            period: 60,
            count: 5,
        };
        assert_eq!((g.at(0), g.at(2)), (t(120), t(240)));
        assert_eq!(g.last(), Some(t(360)));
        assert_eq!(TickGrid::EMPTY.last(), None);
    }
}
