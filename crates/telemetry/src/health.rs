//! Online scheduler health detectors.
//!
//! Each detector folds observations as the simulation emits them — no
//! post-hoc trace scan — and produces typed [`HealthEvent`]s plus an
//! end-of-run [`HealthReport`]. Detectors consume **simulation-time**
//! signals only (never wall-clock), so their findings are bit-stable
//! run-to-run and across worker-thread counts.
//!
//! Three detectors ship:
//!
//! * **Starvation watch** — a queued job whose expansion factor
//!   `(wait + est) / est` crosses a threshold opens a starvation episode,
//!   recorded with its time of onset. Dispatch, completion, or kill closes
//!   the episode; episodes still open at end-of-run count as unresolved.
//! * **Thrash detector** — counts suspensions per job inside a sliding
//!   window; `cycles` suspensions within `window` seconds is the
//!   suspend/resume ping-pong that TSS's disable limits exist to prevent.
//! * **Capacity leak** — integrates claimed-but-idle processor-seconds
//!   (processors held by suspended jobs' claims while sitting in the free
//!   set). One event fires when the integral crosses a threshold; the
//!   final integral is always reported.

use std::collections::{HashMap, VecDeque};

/// Detector thresholds. Defaults are tuned for the paper's workloads
/// (SDSC/CTC-scale traces, seconds-granularity simulation time).
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// A queued job with xfactor at or above this opens a starvation episode.
    pub starvation_xfactor: f64,
    /// Number of suspensions within `thrash_window` that counts as thrash.
    pub thrash_cycles: u32,
    /// Sliding-window width for the thrash detector, in sim seconds.
    pub thrash_window: i64,
    /// Claimed-but-idle processor-seconds at which the leak event fires.
    pub leak_procsecs: i64,
    /// Cap on retained `HealthEvent`s (counters keep counting past it).
    pub max_events: usize,
    /// Warmup cutoff in sim seconds: detector inputs before this instant
    /// are discarded, so transient startup churn (an open-system run's
    /// fill phase) cannot open or feed steady-state episodes. Zero — the
    /// default — gates nothing and reproduces the pre-warmup findings
    /// bit for bit.
    pub warmup: i64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            starvation_xfactor: 10.0,
            thrash_cycles: 3,
            thrash_window: 4 * 3600,
            leak_procsecs: 128 * 3600,
            max_events: 1024,
            warmup: 0,
        }
    }
}

/// What a detector saw.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HealthKind {
    /// A queued job crossed the starvation xfactor threshold.
    StarvationOnset,
    /// A job was suspended `value` times within the sliding window.
    Thrash,
    /// Claimed-but-idle processor-seconds crossed the configured budget.
    CapacityLeak,
}

impl HealthKind {
    pub fn name(&self) -> &'static str {
        match self {
            HealthKind::StarvationOnset => "starvation",
            HealthKind::Thrash => "thrash",
            HealthKind::CapacityLeak => "capacity_leak",
        }
    }

    pub fn from_name(name: &str) -> Option<HealthKind> {
        match name {
            "starvation" => Some(HealthKind::StarvationOnset),
            "thrash" => Some(HealthKind::Thrash),
            "capacity_leak" => Some(HealthKind::CapacityLeak),
            _ => None,
        }
    }
}

/// One typed detector firing, stamped with simulation time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthEvent {
    /// Simulation time of the firing (for starvation: time of onset).
    pub t: i64,
    pub kind: HealthKind,
    /// The job involved, if the finding is job-scoped.
    pub job: Option<u32>,
    /// Kind-specific magnitude: xfactor at onset, suspensions in window,
    /// or leaked processor-seconds.
    pub value: f64,
}

/// Fixed-size roll-up of detector activity; cheap to copy into results and
/// compare bit-for-bit in golden tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthSummary {
    /// Starvation episodes opened.
    pub starvation_onsets: u32,
    /// Episodes still open at end-of-run.
    pub unresolved_starvation: u32,
    /// Thrash firings (a job can fire more than once).
    pub thrash_events: u32,
    /// Distinct jobs that ever thrashed.
    pub thrashed_jobs: u32,
    /// Final claimed-but-idle integral, in processor-seconds.
    pub capacity_leak_procsecs: i64,
}

impl HealthSummary {
    /// True when no detector found anything.
    pub fn is_clean(&self) -> bool {
        self.starvation_onsets == 0 && self.thrash_events == 0
    }
}

/// Full end-of-run detector findings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HealthReport {
    pub summary: HealthSummary,
    /// Largest xfactor the starvation watch observed: the maximum over
    /// every sample of a queued job at or above the threshold, onset or
    /// not (zero when none was).
    pub worst_starvation_xf: f64,
    /// Largest in-window suspension count seen by the thrash detector.
    pub worst_thrash_count: u32,
    /// Retained events, in emission order (capped at `max_events`).
    pub events: Vec<HealthEvent>,
    /// True when the event log hit the retention cap.
    pub truncated: bool,
}

impl HealthReport {
    /// Multi-line human-readable rendering (also valid Markdown).
    pub fn render(&self) -> String {
        let s = &self.summary;
        let mut out = String::new();
        if s.is_clean() && s.capacity_leak_procsecs == 0 {
            out.push_str("health: clean (no detector findings)\n");
            return out;
        }
        out.push_str(&format!(
            "health: {} starvation onset(s) ({} unresolved, worst xf {:.2}), \
             {} thrash event(s) across {} job(s) (worst {} suspensions in window), \
             claimed-idle {} proc-s\n",
            s.starvation_onsets,
            s.unresolved_starvation,
            self.worst_starvation_xf,
            s.thrash_events,
            s.thrashed_jobs,
            self.worst_thrash_count,
            s.capacity_leak_procsecs,
        ));
        let shown = self.events.len().min(12);
        for ev in &self.events[..shown] {
            let job = ev.job.map(|j| format!(" job {j}")).unwrap_or_default();
            out.push_str(&format!(
                "  - t={}{} {}: {:.2}\n",
                ev.t,
                job,
                ev.kind.name(),
                ev.value
            ));
        }
        if self.events.len() > shown || self.truncated {
            out.push_str(&format!(
                "  ... ({} events retained{})\n",
                self.events.len(),
                if self.truncated {
                    ", log truncated"
                } else {
                    ""
                }
            ));
        }
        out
    }
}

/// Starvation watch: tracks open episodes per job.
#[derive(Default)]
pub(crate) struct StarvationWatch {
    active: HashMap<u32, f64>, // job -> worst xf this episode
    pub onsets: u32,
    pub worst_xf: f64,
}

impl StarvationWatch {
    /// A queued job was seen at or above the threshold. Returns an event on
    /// episode onset only.
    pub fn observe(&mut self, job: u32, t: i64, xf: f64) -> Option<HealthEvent> {
        if xf > self.worst_xf {
            self.worst_xf = xf;
        }
        match self.active.get_mut(&job) {
            Some(worst) => {
                if xf > *worst {
                    *worst = xf;
                }
                None
            }
            None => {
                self.active.insert(job, xf);
                self.onsets += 1;
                Some(HealthEvent {
                    t,
                    kind: HealthKind::StarvationOnset,
                    job: Some(job),
                    value: xf,
                })
            }
        }
    }

    /// The job left the queue (dispatch, completion, or kill).
    pub fn resolve(&mut self, job: u32) {
        self.active.remove(&job);
    }

    pub fn unresolved(&self) -> u32 {
        self.active.len() as u32
    }
}

/// Thrash detector: suspensions per job in a sliding window.
pub(crate) struct ThrashDetector {
    cycles: u32,
    window: i64,
    recent: HashMap<u32, VecDeque<i64>>,
    thrashed: HashMap<u32, ()>, // HashSet without an extra import
    pub events: u32,
    pub worst_count: u32,
}

impl ThrashDetector {
    pub fn new(cycles: u32, window: i64) -> Self {
        ThrashDetector {
            cycles: cycles.max(1),
            window,
            recent: HashMap::new(),
            thrashed: HashMap::new(),
            events: 0,
            worst_count: 0,
        }
    }

    pub fn on_suspend(&mut self, job: u32, t: i64) -> Option<HealthEvent> {
        let q = self.recent.entry(job).or_default();
        q.push_back(t);
        while let Some(&front) = q.front() {
            if front <= t - self.window {
                q.pop_front();
            } else {
                break;
            }
        }
        let n = q.len() as u32;
        if n >= self.cycles {
            q.clear(); // re-arm: a sustained ping-pong fires repeatedly, not per-suspend
            self.events += 1;
            if n > self.worst_count {
                self.worst_count = n;
            }
            self.thrashed.insert(job, ());
            Some(HealthEvent {
                t,
                kind: HealthKind::Thrash,
                job: Some(job),
                value: n as f64,
            })
        } else {
            None
        }
    }

    pub fn thrashed_jobs(&self) -> u32 {
        self.thrashed.len() as u32
    }
}

/// Capacity-leak integral over claimed-but-idle processors.
pub(crate) struct CapacityLeak {
    threshold: i64,
    prev_t: Option<i64>,
    prev_claimed_idle: u32,
    pub total: i64,
    fired: bool,
}

impl CapacityLeak {
    pub fn new(threshold: i64) -> Self {
        CapacityLeak {
            threshold,
            prev_t: None,
            prev_claimed_idle: 0,
            total: 0,
            fired: false,
        }
    }

    /// Step-function integration: the previous sample's level holds until
    /// this instant. Exact because claims only change inside observed
    /// instants.
    pub fn observe(&mut self, t: i64, claimed_idle: u32) -> Option<HealthEvent> {
        if let Some(pt) = self.prev_t {
            if t > pt {
                self.total += self.prev_claimed_idle as i64 * (t - pt);
            }
        }
        self.prev_t = Some(t);
        self.prev_claimed_idle = claimed_idle;
        self.check(t)
    }

    /// Close the integral at end-of-run.
    pub fn finish(&mut self, t_end: i64) -> Option<HealthEvent> {
        if let Some(pt) = self.prev_t {
            if t_end > pt {
                self.total += self.prev_claimed_idle as i64 * (t_end - pt);
            }
        }
        self.prev_t = Some(t_end);
        self.prev_claimed_idle = 0;
        self.check(t_end)
    }

    fn check(&mut self, t: i64) -> Option<HealthEvent> {
        if !self.fired && self.total >= self.threshold {
            self.fired = true;
            Some(HealthEvent {
                t,
                kind: HealthKind::CapacityLeak,
                job: None,
                value: self.total as f64,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starvation_fires_once_per_episode() {
        let mut w = StarvationWatch::default();
        let e1 = w.observe(7, 100, 10.5);
        assert!(e1.is_some());
        assert_eq!(e1.unwrap().t, 100);
        assert!(w.observe(7, 200, 12.0).is_none()); // same episode
        assert_eq!(w.onsets, 1);
        assert_eq!(w.worst_xf, 12.0);
        w.resolve(7);
        assert_eq!(w.unresolved(), 0);
        assert!(w.observe(7, 300, 11.0).is_some()); // new episode
        assert_eq!(w.onsets, 2);
    }

    #[test]
    fn thrash_needs_cycles_within_window() {
        let mut d = ThrashDetector::new(3, 1000);
        assert!(d.on_suspend(1, 0).is_none());
        assert!(d.on_suspend(1, 100).is_none());
        let e = d.on_suspend(1, 200);
        assert!(e.is_some());
        assert_eq!(e.unwrap().value, 3.0);
        assert_eq!(d.events, 1);
        assert_eq!(d.thrashed_jobs(), 1);
        // re-armed: needs three fresh suspensions again
        assert!(d.on_suspend(1, 300).is_none());
    }

    #[test]
    fn thrash_window_expires_old_suspensions() {
        let mut d = ThrashDetector::new(3, 1000);
        assert!(d.on_suspend(1, 0).is_none());
        assert!(d.on_suspend(1, 100).is_none());
        // 1200 is outside the window of both earlier suspensions
        assert!(d.on_suspend(1, 1200).is_none());
        assert_eq!(d.events, 0);
    }

    #[test]
    fn capacity_leak_integrates_step_function() {
        let mut c = CapacityLeak::new(100);
        assert!(c.observe(0, 10).is_none()); // level 10 holds from t=0
        assert!(c.observe(5, 0).is_none()); // 10 procs * 5 s = 50 < 100
        assert_eq!(c.total, 50);
        assert!(c.finish(50).is_none()); // level 0 adds nothing
        assert_eq!(c.total, 50);
    }

    #[test]
    fn capacity_leak_fires_at_threshold() {
        let mut c = CapacityLeak::new(100);
        assert!(c.observe(0, 10).is_none());
        let e = c.observe(10, 0); // 10 procs * 10 s = 100 >= threshold
        assert!(e.is_some());
        assert_eq!(e.unwrap().value, 100.0);
        assert!(c.finish(20).is_none()); // fires only once
        assert_eq!(c.total, 100);
    }

    #[test]
    fn capacity_leak_finish_closes_integral() {
        let mut c = CapacityLeak::new(i64::MAX);
        c.observe(0, 4);
        c.finish(25);
        assert_eq!(c.total, 100);
    }

    #[test]
    fn report_render_clean_and_dirty() {
        let clean = HealthReport::default();
        assert!(clean.render().contains("clean"));
        let dirty = HealthReport {
            summary: HealthSummary {
                thrash_events: 2,
                thrashed_jobs: 1,
                ..Default::default()
            },
            worst_thrash_count: 4,
            events: vec![HealthEvent {
                t: 5,
                kind: HealthKind::Thrash,
                job: Some(9),
                value: 4.0,
            }],
            ..Default::default()
        };
        let text = dirty.render();
        assert!(text.contains("2 thrash event(s)"));
        assert!(text.contains("t=5 job 9 thrash"));
    }

    #[test]
    fn kind_names_round_trip() {
        for k in [
            HealthKind::StarvationOnset,
            HealthKind::Thrash,
            HealthKind::CapacityLeak,
        ] {
            assert_eq!(HealthKind::from_name(k.name()), Some(k));
        }
        assert_eq!(HealthKind::from_name("nope"), None);
    }
}
