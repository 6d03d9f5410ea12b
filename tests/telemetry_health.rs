//! Telemetry and health-detector guarantees:
//!
//! * the observability layer is strictly read-only — an instrumented run
//!   is bit-identical to a plain run of the same configuration;
//! * detector findings are a pure function of sim time, so a pinned seed
//!   yields a *golden* `HealthReport`, stable run-to-run and across
//!   sweep worker-thread counts;
//! * the thrash detector separates schedulers that churn suspensions
//!   (Immediate Service) from the paper's TSS at the same workload;
//! * tick elision leaves the findings alone: an instrumented elided run
//!   replays its skipped ticks into the detectors, so its `HealthReport`
//!   equals the un-elided run's event for event.

use selective_preemption::prelude::*;
use selective_preemption::telemetry::{EventClass, HealthEvent, HealthKind};
use selective_preemption::workload::traces::SDSC;

/// The pinned golden run: SS at sf 2 on an overloaded SDSC trace with
/// processor faults — busy enough to trip all three detectors.
fn golden_config() -> ExperimentConfig {
    ExperimentConfig::new(SDSC, SchedulerKind::Ss { sf: 2.0 })
        .with_jobs(600)
        .with_seed(11)
        .with_load_factor(1.1)
        .with_faults(FaultModel::proc_faults(400_000, 3_600, 5))
}

#[test]
fn golden_health_report_is_bit_stable() {
    let run = || {
        let mut tel = Telemetry::new();
        let r = golden_config().runner().telemetry(&mut tel).run();
        (
            r.sim.health.expect("instrumented run has health"),
            tel.health_report(),
        )
    };
    let (summary, report) = run();
    let (summary2, report2) = run();
    assert_eq!(summary, summary2, "health summary must be deterministic");
    assert_eq!(report, report2, "full event log must be deterministic");

    // Golden counts for this seed. A change here means detector
    // *behavior* changed (thresholds, episode bookkeeping, or the
    // sampling cadence) — re-pin only if that change is intentional.
    assert_eq!(summary.starvation_onsets, 306);
    assert_eq!(summary.unresolved_starvation, 0);
    assert_eq!(summary.thrash_events, 13);
    assert_eq!(summary.thrashed_jobs, 12);
    assert_eq!(summary.capacity_leak_procsecs, 31_382_583);
    assert_eq!(report.summary, summary);
    assert!(report.events.len() <= HealthConfig::default().max_events);
}

#[test]
fn health_summaries_identical_across_sweep_threads() {
    // Detectors fold sim-time signals only (never wall-clock), so the
    // sweep's health columns cannot depend on worker interleaving.
    let spec = SweepSpec::new(SDSC)
        .with_schedulers(vec![SchedulerKind::Easy, SchedulerKind::Ss { sf: 2.0 }])
        .with_loads(vec![0.9, 1.1])
        .with_jobs(250)
        .with_seed(11)
        .with_reps(2)
        .with_telemetry(true);
    let serial = run_sweep(&spec, 1).expect("valid spec");
    let parallel = run_sweep(&spec, 4).expect("valid spec");
    assert_eq!(serial.cells.len(), parallel.cells.len());
    for (a, b) in serial.cells.iter().zip(&parallel.cells) {
        assert!(a.health.is_some(), "telemetry sweep populates health");
        assert_eq!(a.health, b.health, "{} @ {}", a.scheduler, a.load_factor);
        assert_eq!(a.mean_slowdown, b.mean_slowdown);
    }
}

#[test]
fn thrash_detector_separates_is_from_tss() {
    // Immediate Service preempts on every arrival it can serve, cycling
    // the same jobs in and out; TSS's suspension-factor guard blocks
    // exactly that churn. Same trace, same thresholds, opposite verdict.
    let health = |kind: SchedulerKind| {
        let cfg = ExperimentConfig::new(SDSC, kind)
            .with_jobs(800)
            .with_seed(9)
            .with_load_factor(1.1);
        let mut tel = Telemetry::new();
        cfg.runner().telemetry(&mut tel).run().sim.health.unwrap()
    };
    let is = health(SchedulerKind::ImmediateService);
    let tss = health(SchedulerKind::Tss { sf: 2.0 });
    assert!(
        is.thrash_events >= 1,
        "IS must thrash on this workload, got {is:?}"
    );
    assert_eq!(
        tss.thrash_events, 0,
        "TSS must not thrash on the same workload, got {tss:?}"
    );
}

#[test]
fn health_warmup_window_gates_transient_findings() {
    // Open-system-style steady-state analysis discards the cold-start
    // transient: a HealthConfig warmup suppresses every detector finding
    // whose sim-time stamp falls inside the window, without touching
    // anything after it. Run the same golden workload at three windows.
    let health_at = |warmup: i64| {
        let mut tel = Telemetry::with_config(HealthConfig {
            warmup,
            ..HealthConfig::default()
        });
        let r = golden_config().runner().telemetry(&mut tel).run();
        (
            r.sim.health.expect("instrumented run has health"),
            r.sim.makespan,
        )
    };

    // warmup 0 is the default: the golden counts reproduce exactly.
    let (cold, makespan) = health_at(0);
    assert_eq!(cold.starvation_onsets, 306);
    assert_eq!(cold.thrash_events, 13);
    assert_eq!(cold.thrashed_jobs, 12);
    assert_eq!(cold.capacity_leak_procsecs, 31_382_583);

    // A warmup past the horizon suppresses every windowed finding. The
    // capacity-leak detector integrates leaked proc-seconds over the
    // whole run from episode onset, so only the onset gating applies —
    // but on this workload the leak episodes all *start* inside the
    // horizon too, so a full-horizon warmup silences it as well.
    let (quiet, _) = health_at(makespan + 1);
    assert_eq!(quiet.starvation_onsets, 0, "no onsets past the horizon");
    assert_eq!(quiet.unresolved_starvation, 0);
    assert_eq!(quiet.thrash_events, 0);
    assert_eq!(quiet.thrashed_jobs, 0);
    assert_eq!(quiet.capacity_leak_procsecs, 0);

    // An eighth-horizon warmup lands strictly between the two: the
    // cold-start onsets (and with them every thrash burst and leak
    // episode, which cluster early on this trace) are gone, but the
    // backlog keeps starving jobs well past the window.
    let (warm, _) = health_at(makespan / 8);
    assert!(
        warm.starvation_onsets > 0 && warm.starvation_onsets < cold.starvation_onsets,
        "expected a strict subset of onsets, got {warm:?}"
    );
    assert_eq!(warm.thrash_events, 0);
    assert_eq!(warm.capacity_leak_procsecs, 0);
}

#[test]
fn telemetry_never_perturbs_a_run() {
    let cfg = golden_config();
    let plain = cfg.run();
    let mut tel = Telemetry::new();
    let instrumented = cfg.runner().telemetry(&mut tel).run();
    assert_eq!(plain.sim.outcomes, instrumented.sim.outcomes);
    assert_eq!(plain.sim.makespan, instrumented.sim.makespan);
    assert_eq!(plain.sim.preemptions, instrumented.sim.preemptions);
    assert_eq!(plain.sim.utilization, instrumented.sim.utilization);
    assert_eq!(
        plain.sim.faults.proc_failures,
        instrumented.sim.faults.proc_failures
    );
    assert!(plain.sim.health.is_none());
    assert!(instrumented.sim.health.is_some());
}

/// A [`Telemetry`] that also remembers which instants the run delivered
/// and which skipped ticks it replayed.
struct Recording {
    inner: Telemetry,
    delivered: Vec<i64>,
    skipped: Vec<i64>,
}

impl Recording {
    fn new(cfg: HealthConfig) -> Self {
        Recording {
            inner: Telemetry::with_config(cfg),
            delivered: Vec::new(),
            skipped: Vec::new(),
        }
    }
}

impl TelemetrySink for Recording {
    fn record(&mut self, obs: &Obs) {
        match *obs {
            Obs::Instant { t, .. } => self.delivered.push(t),
            Obs::TickElided { t, .. } => self.skipped.push(t),
            _ => {}
        }
        self.inner.record(obs);
    }

    fn poll_health(&mut self) -> Option<HealthEvent> {
        self.inner.poll_health()
    }

    fn finish(&mut self, t_end: i64) {
        self.inner.finish(t_end)
    }

    fn health_summary(&self) -> Option<HealthSummary> {
        self.inner.health_summary()
    }

    fn starvation_threshold(&self) -> f64 {
        self.inner.starvation_threshold()
    }
}

/// Run `cfg` under `health` to `until`, with or without tick elision.
fn observed(
    cfg: &ExperimentConfig,
    health: HealthConfig,
    until: RunUntil,
    elide: bool,
) -> (Recording, SimResult) {
    let mut rec = Recording::new(health);
    let sim = cfg
        .runner()
        .until(until)
        .tick_elision(elide)
        .telemetry(&mut rec)
        .simulate();
    (rec, sim)
}

/// The elided run's full `HealthReport` — event order, worst xfactor and
/// truncation included — equals the un-elided run's. Returns the elided
/// run's recording for case-specific checks.
fn assert_same_health(
    cfg: &ExperimentConfig,
    health: HealthConfig,
    until: RunUntil,
    label: &str,
) -> (Recording, HealthReport) {
    let (with, with_sim) = observed(cfg, health, until, true);
    let (without, without_sim) = observed(cfg, health, until, false);
    assert!(with_sim.kernel.ticks_elided > 0, "{label}: nothing elided");
    assert!(
        with_sim.kernel.decide_calls < without_sim.kernel.decide_calls,
        "{label}: no decides saved"
    );
    assert_eq!(with_sim.health, without_sim.health, "{label}: summary");
    let (a, b) = (with.inner.health_report(), without.inner.health_report());
    assert_eq!(
        a.worst_starvation_xf.to_bits(),
        b.worst_starvation_xf.to_bits(),
        "{label}: worst starvation xfactor"
    );
    assert_eq!(a, b, "{label}: health report");
    (with, a)
}

#[test]
fn elided_runs_reproduce_the_golden_health_report() {
    let (_, report) = assert_same_health(
        &golden_config(),
        HealthConfig::default(),
        RunUntil::Drained,
        "golden",
    );
    assert_eq!(report.summary.starvation_onsets, 306);
    assert_eq!(report.summary.capacity_leak_procsecs, 31_382_583);
}

#[test]
fn elided_runs_reproduce_health_under_a_warmup() {
    // Off the tick grid, so the first detector sample after the warmup
    // is a tick inside a skipped stretch.
    for warmup in [86_400 + 17, 500_017] {
        let health = HealthConfig {
            warmup,
            ..HealthConfig::default()
        };
        let (_, report) = assert_same_health(
            &golden_config(),
            health,
            RunUntil::Drained,
            &format!("warmup {warmup}"),
        );
        assert!(report.summary.starvation_onsets > 0, "warmup {warmup}");
    }
}

#[test]
fn elided_runs_replay_the_skipped_tail_before_a_horizon() {
    // Both inside stretches the elided run skips.
    for horizon in [938_017, 1_400_000] {
        let label = format!("horizon {horizon}");
        let (rec, report) = assert_same_health(
            &golden_config(),
            HealthConfig::default(),
            RunUntil::SimTime(SimTime::new(horizon)),
            &label,
        );
        // The last tick replayed is in the tail after the last delivered
        // instant, which the un-elided run ticks through to the horizon.
        let tail = rec.skipped.last().expect("ticks were skipped");
        assert!(
            tail > rec.delivered.last().expect("instants were delivered"),
            "{label}: no skipped tail"
        );
        assert!(report.summary.unresolved_starvation > 0, "{label}");
    }
}

#[test]
fn elided_runs_place_a_leak_crossing_and_an_onset_in_one_skipped_stretch() {
    // Job 599's starvation onset at t = 1 377 480 falls on a tick inside
    // the skipped stretch after the instant at 1 375 484, whose claimed-
    // idle level is 46 processors. These leak thresholds put the crossing
    // on the onset's own tick (starvation must come first) and one tick
    // earlier.
    for (leak_procsecs, same_tick) in [(18_916_585, true), (18_916_585 - 46 * 60, false)] {
        let label = format!("leak threshold {leak_procsecs}");
        let health = HealthConfig {
            leak_procsecs,
            ..HealthConfig::default()
        };
        let (rec, report) = assert_same_health(&golden_config(), health, RunUntil::Drained, &label);
        let leak = report
            .events
            .iter()
            .position(|e| e.kind == HealthKind::CapacityLeak)
            .expect("the leak fires");
        let onset = report
            .events
            .iter()
            .position(|e| e.kind == HealthKind::StarvationOnset && e.job == Some(599))
            .expect("job 599 starves");
        let (leak_t, onset_t) = (report.events[leak].t, report.events[onset].t);
        let stretch = |t: i64| {
            assert!(
                rec.delivered.binary_search(&t).is_err(),
                "{label}: {t} delivered"
            );
            rec.delivered.partition_point(|&d| d < t)
        };
        assert_eq!(stretch(leak_t), stretch(onset_t), "{label}: one stretch");
        assert_eq!(leak_t == onset_t, same_tick, "{label}");
        // By tick; within one tick, starvation before the leak.
        assert_eq!(onset < leak, same_tick, "{label}: event order");
    }
}

#[test]
fn elided_runs_truncate_the_event_log_identically() {
    let health = HealthConfig {
        max_events: 40,
        ..HealthConfig::default()
    };
    let (_, report) = assert_same_health(&golden_config(), health, RunUntil::Drained, "max 40");
    assert!(report.truncated);
    assert_eq!(report.events.len(), 40);
}

/// `sps_events_tick_total` counts the tick instants the kernel ran and
/// `sps_ticks_elided_total` the ones elision skipped; together they are
/// the un-elided run's tick instants, as in `KernelStats`.
#[test]
fn elided_tick_counter_accounts_for_every_skipped_tick() {
    let ticks = |rec: &Recording| {
        let (reg, m) = (rec.inner.registry(), rec.inner.metrics());
        (
            reg.counter(m.events[EventClass::Tick as usize]),
            reg.counter(m.ticks_elided),
        )
    };
    for until in [
        RunUntil::Drained,
        RunUntil::SimTime(SimTime::new(1_400_000)),
    ] {
        let health = HealthConfig::default();
        let (with, with_sim) = observed(&golden_config(), health, until, true);
        let (without, without_sim) = observed(&golden_config(), health, until, false);
        let (delivered, elided) = ticks(&with);
        assert_eq!(delivered, with_sim.kernel.ticks, "{until:?}");
        assert_eq!(elided, with_sim.kernel.ticks_elided, "{until:?}");
        assert!(elided > 0, "{until:?}");
        assert_eq!(ticks(&without), (without_sim.kernel.ticks, 0), "{until:?}");
        assert_eq!(delivered + elided, without_sim.kernel.ticks, "{until:?}");
    }
}
