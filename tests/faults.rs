//! End-to-end fault-injection scenarios: determinism with the model off,
//! graceful degradation with it on, recovery-policy comparisons, replay
//! validation of fault-injected logs, and the run-harness watchdog.
//!
//! MTBF values are sized against the trace: the largest SDSC job in the
//! seed-7 trace is ~3.4M processor-seconds, and a kill loses *all*
//! accumulated work, so per-processor MTBFs below a few million seconds
//! make wide long jobs effectively uncompletable.

use selective_preemption::prelude::*;
use selective_preemption::simcore::Watchdog;
use selective_preemption::trace::{validate_records, JobEvent, ProcEvent, ReplayOptions};
use selective_preemption::workload::traces::SDSC;
use sps_core::policy::{Action, DecideCtx, Policy};
use sps_core::SimState;

fn base(kind: SchedulerKind) -> ExperimentConfig {
    ExperimentConfig::new(SDSC, kind)
        .with_jobs(400)
        .with_seed(7)
        .with_load_factor(1.2)
}

fn faulty(kind: SchedulerKind, mtbf: i64, recovery: RecoveryPolicy) -> ExperimentConfig {
    base(kind).with_faults(FaultModel::proc_faults(mtbf, 3_600, 13).with_recovery(recovery))
}

#[test]
fn disabled_fault_model_changes_nothing() {
    // `FaultModel::none()` must be indistinguishable from never calling
    // `with_faults` at all — including the trace byte stream.
    let cfg = base(SchedulerKind::Ss { sf: 2.0 });
    let mut plain_sink = MemorySink::new();
    let plain = cfg.runner().trace_sink(&mut plain_sink).run();
    let mut none_sink = MemorySink::new();
    let none = cfg
        .clone()
        .with_faults(FaultModel::none())
        .runner()
        .trace_sink(&mut none_sink)
        .run();
    assert_eq!(plain_sink.records(), none_sink.records());
    assert!(!plain.sim.faults.any());
    assert!(!none.sim.faults.any());
    assert_eq!(plain.sim.status, RunStatus::Completed);
    assert_eq!(
        plain.report.overall.mean_turnaround,
        none.report.overall.mean_turnaround
    );
}

#[test]
fn fault_injection_is_deterministic() {
    let cfg = faulty(
        SchedulerKind::Ss { sf: 2.0 },
        5_000_000,
        RecoveryPolicy::WaitForRepair,
    );
    let mut a_sink = MemorySink::new();
    let a = cfg.runner().trace_sink(&mut a_sink).run();
    let mut b_sink = MemorySink::new();
    let b = cfg.runner().trace_sink(&mut b_sink).run();
    assert_eq!(a_sink.records(), b_sink.records());
    assert_eq!(a.sim.faults, b.sim.faults);
    assert!(
        a.sim.faults.proc_failures > 0,
        "the model must inject faults"
    );
}

#[test]
fn faulty_run_completes_with_consistent_accounting() {
    let r = faulty(
        SchedulerKind::Ss { sf: 2.0 },
        5_000_000,
        RecoveryPolicy::WaitForRepair,
    )
    .run();
    let f = &r.sim.faults;
    assert_eq!(r.sim.status, RunStatus::Completed);
    assert_eq!(r.sim.unfinished, 0);
    assert_eq!(
        r.report.overall.count, 400,
        "kills resubmit, never lose jobs"
    );
    assert!(f.proc_failures > 0);
    assert!(
        f.proc_repairs <= f.proc_failures,
        "repairs only follow failures"
    );
    assert!(f.jobs_killed > 0, "a held processor failing kills its job");
    assert!(f.lost_work > 0);
    assert!(f.downtime > 0);
    // Goodput divides the same useful work by *available* capacity
    // (downtime removed), so it sits at or above raw utilization but
    // stays a fraction.
    let g = goodput(&r.sim.outcomes, SDSC.procs, f.downtime);
    assert!(
        g >= r.sim.utilization - 1e-9 && g <= 1.0,
        "goodput {g} vs util {}",
        r.sim.utilization
    );
    // Kills are visible on the outcomes and distinct from suspensions.
    assert!(r.sim.outcomes.iter().any(|o| o.kills > 0));
    let killed_total: u64 = r.sim.outcomes.iter().map(|o| o.kills as u64).sum();
    assert_eq!(killed_total, f.jobs_killed + f.job_crashes);
}

#[test]
fn ns_baseline_survives_faults_too() {
    // EASY has no suspend path at all; failure recovery must still requeue
    // killed jobs and finish the trace.
    let r = faulty(
        SchedulerKind::Easy,
        5_000_000,
        RecoveryPolicy::WaitForRepair,
    )
    .run();
    assert_eq!(r.sim.status, RunStatus::Completed);
    assert_eq!(r.report.overall.count, 400);
    assert!(r.sim.faults.proc_failures > 0);
}

#[test]
fn wait_for_repair_strands_jobs_where_remap_recovers_them() {
    // Under identical seeds, WaitForRepair leaves suspended jobs pinned to
    // a dead processor for the whole repair, while Remap restarts them
    // elsewhere — so only WaitForRepair accumulates stranded job-seconds,
    // and its interrupted jobs wait longer.
    let mut stranded_wait = 0;
    let mut stranded_remap = 0;
    for mtbf in [10_000_000, 5_000_000, 2_000_000] {
        let wait = faulty(
            SchedulerKind::Ss { sf: 2.0 },
            mtbf,
            RecoveryPolicy::WaitForRepair,
        )
        .run();
        let remap = faulty(SchedulerKind::Ss { sf: 2.0 }, mtbf, RecoveryPolicy::Remap).run();
        assert_eq!(wait.sim.status, RunStatus::Completed);
        assert_eq!(remap.sim.status, RunStatus::Completed);
        stranded_wait += wait.sim.faults.stranded_secs;
        stranded_remap += remap.sim.faults.stranded_secs;
    }
    assert_eq!(stranded_remap, 0, "remapped jobs never sit stranded");
    assert!(
        stranded_wait > 0,
        "WaitForRepair must strand preempted jobs whose processors died"
    );
}

#[test]
fn wait_for_repair_turnaround_suffers_where_stranding_bites() {
    // At the MTBF where failures repeatedly land on suspended jobs'
    // processors (seeded, deterministic), waiting out the repair costs
    // turnaround that remapping avoids.
    let wait = faulty(
        SchedulerKind::Ss { sf: 2.0 },
        10_000_000,
        RecoveryPolicy::WaitForRepair,
    )
    .run();
    let remap = faulty(
        SchedulerKind::Ss { sf: 2.0 },
        10_000_000,
        RecoveryPolicy::Remap,
    )
    .run();
    assert!(wait.sim.faults.stranded_secs > 0);
    assert!(
        wait.report.overall.mean_turnaround > remap.report.overall.mean_turnaround,
        "wait {} vs remap {}",
        wait.report.overall.mean_turnaround,
        remap.report.overall.mean_turnaround
    );
}

#[test]
fn denser_failures_degrade_service() {
    let clean = base(SchedulerKind::Ss { sf: 2.0 }).run();
    let light = faulty(
        SchedulerKind::Ss { sf: 2.0 },
        20_000_000,
        RecoveryPolicy::WaitForRepair,
    )
    .run();
    let heavy = faulty(
        SchedulerKind::Ss { sf: 2.0 },
        2_000_000,
        RecoveryPolicy::WaitForRepair,
    )
    .run();
    assert!(heavy.sim.faults.proc_failures > light.sim.faults.proc_failures);
    assert!(
        heavy.report.overall.mean_turnaround > clean.report.overall.mean_turnaround,
        "lost work must show up in turnaround: faulty {} vs clean {}",
        heavy.report.overall.mean_turnaround,
        clean.report.overall.mean_turnaround
    );
}

#[test]
fn fault_traces_validate_under_every_recovery_policy() {
    for recovery in RecoveryPolicy::ALL {
        for kind in [
            SchedulerKind::Ss { sf: 2.0 },
            SchedulerKind::Tss { sf: 2.0 },
        ] {
            let cfg = faulty(kind, 2_000_000, recovery);
            let mut sink = MemorySink::new();
            let r = cfg.runner().trace_sink(&mut sink).run();
            assert_eq!(r.sim.status, RunStatus::Completed);
            let opts = ReplayOptions {
                allow_migration: recovery == RecoveryPolicy::Remap,
            };
            let stats = validate_records(sink.records(), opts)
                .unwrap_or_else(|v| panic!("{kind:?}/{recovery}: {v:?}"));
            assert_eq!(stats.completions, 400);
            assert_eq!(stats.proc_failures, r.sim.faults.proc_failures as usize);
            assert_eq!(
                stats.kills,
                (r.sim.faults.jobs_killed + r.sim.faults.job_crashes) as usize
            );
        }
    }
}

#[test]
fn job_crash_faults_kill_and_resubmit() {
    let cfg = base(SchedulerKind::Easy)
        .with_faults(FaultModel::none().with_job_crash(0.10).with_fault_seed(99));
    let r = cfg.run();
    assert_eq!(r.sim.status, RunStatus::Completed);
    assert_eq!(r.report.overall.count, 400);
    assert!(r.sim.faults.job_crashes > 0, "10% crash rate must fire");
    assert_eq!(r.sim.faults.proc_failures, 0);
    assert_eq!(r.sim.faults.downtime, 0);
}

/// A broken policy: asks for ticks, never starts anything. With queued
/// jobs forever pending, the tick chain re-arms indefinitely — the
/// classic livelock the watchdog exists for.
struct DeadPolicy;
impl Policy for DeadPolicy {
    fn name(&self) -> String {
        "dead-policy".into()
    }
    fn needs_tick(&self) -> bool {
        true
    }
    fn decide(&mut self, _: &SimState, _: &DecideCtx<'_>, _: &mut Vec<Action>) {}
}

#[test]
fn watchdog_turns_livelock_into_aborted_result() {
    let jobs = base(SchedulerKind::Easy).with_jobs(20).trace();
    let sim = Simulator::new(jobs, SDSC.procs, Box::new(DeadPolicy)).with_watchdog(Watchdog {
        max_batches: Some(5_000),
        max_events: None,
        max_wall_ms: None,
    });
    let result = sim.run();
    assert!(result.status.is_aborted(), "got {:?}", result.status);
    assert_eq!(result.unfinished, 20, "partial metrics report the backlog");
    assert!(result.outcomes.is_empty());
}

#[test]
fn event_budget_also_trips_the_watchdog() {
    let jobs = base(SchedulerKind::Easy).with_jobs(20).trace();
    let sim = Simulator::new(jobs, SDSC.procs, Box::new(DeadPolicy)).with_watchdog(Watchdog {
        max_batches: None,
        max_events: Some(2_000),
        max_wall_ms: None,
    });
    let result = sim.run();
    assert_eq!(result.status, RunStatus::Aborted(AbortReason::EventLimit));
}

/// Repairs that released one of a suspended job's processors while
/// another of its processors was still down, split by whether the
/// repaired processor was the lower- or the higher-numbered of the two.
/// Such a job stays stranded until its second processor is back.
fn double_strandings(records: &[TraceRecord]) -> (usize, usize) {
    let mut down = std::collections::BTreeSet::new();
    let mut claims: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
    let (mut low_first, mut high_first) = (0, 0);
    for r in records {
        match r {
            TraceRecord::Proc { proc, event, .. } => {
                if *event == ProcEvent::Failed {
                    down.insert(*proc);
                    continue;
                }
                down.remove(proc);
                for set in claims.values().filter(|s| s.contains(proc)) {
                    if let Some(other) = set.iter().find(|q| down.contains(*q)) {
                        if proc < other {
                            low_first += 1;
                        } else {
                            high_first += 1;
                        }
                    }
                }
            }
            TraceRecord::Job {
                job, event, procs, ..
            } => match event {
                JobEvent::Suspend => {
                    claims.insert(*job, procs.clone().expect("suspend names its set"));
                }
                JobEvent::Restart | JobEvent::Kill | JobEvent::Complete => {
                    claims.remove(job);
                }
                _ => {}
            },
            _ => {}
        }
    }
    (low_first, high_first)
}

#[test]
fn wait_for_repair_stranded_seconds_are_pinned() {
    // Stranded job-seconds of seeded WaitForRepair runs, pinned to the
    // values of the job-table scan the claims-list walk replaced. Long
    // repairs make failures overlap, so some suspended jobs are stranded
    // on two processors at once and released only by the later repair,
    // whichever of the two that is.
    let cases = [
        (SchedulerKind::Ss { sf: 2.0 }, 2_000_000, 278_764),
        (SchedulerKind::Tss { sf: 2.0 }, 2_000_000, 278_764),
        (SchedulerKind::ImmediateService, 2_000_000, 1_876_841),
        (SchedulerKind::Ss { sf: 2.0 }, 1_000_000, 1_570_014),
    ];
    let (mut low_first, mut high_first) = (0, 0);
    for (kind, mtbf, stranded) in cases {
        let cfg = base(kind).with_faults(
            FaultModel::proc_faults(mtbf, 40_000, 29).with_recovery(RecoveryPolicy::WaitForRepair),
        );
        let plain = cfg.run();
        let mut sink = MemorySink::new();
        let traced = cfg.runner().trace_sink(&mut sink).run();
        assert_eq!(plain.sim.status, RunStatus::Completed, "{kind}");
        assert_eq!(
            plain.sim.faults.stranded_secs, stranded,
            "{kind} mtbf {mtbf}"
        );
        assert_eq!(traced.sim.faults.stranded_secs, stranded, "{kind} traced");
        let (low, high) = double_strandings(sink.records());
        low_first += low;
        high_first += high;
    }
    assert!(
        low_first > 0 && high_first > 0,
        "double strandings: {low_first} released low first, {high_first} high first"
    );
}
