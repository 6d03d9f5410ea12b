//! Sweep-engine equivalence: the fast path (shared trace cache, quiescent
//! and crossing-time tick elision, streaming per-run folds) must be
//! *bit-identical* to the naive path it replaced — same traces, same
//! simulation results, same per-cell statistics.

use selective_preemption::cluster::{SpeedMap, SpeedSpec};
use selective_preemption::core::sched::{SelectiveSuspension, SsConfig};
use selective_preemption::core::sim::{Simulator, DEFAULT_TICK_PERIOD};
use selective_preemption::core::sweep::{run_sweep, CellStats, RunSummary, SweepSpec};
use selective_preemption::prelude::*;
use sps_simcore::Watchdog;
use sps_workload::traces::{CTC, SDSC};

/// FNV-1a, 64-bit (stable across platforms, unlike `DefaultHasher`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for &b in &v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn trace_hash(jobs: &[Job]) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(jobs.len() as u64);
    for j in jobs {
        h.write_u64(j.id.0 as u64);
        h.write_u64(j.submit.secs() as u64);
        h.write_u64(j.run as u64);
        h.write_u64(j.estimate as u64);
        h.write_u64(u64::from(j.procs));
        h.write_u64(u64::from(j.mem_mb));
    }
    h.0
}

fn grid() -> SweepSpec {
    SweepSpec::new(SDSC)
        .with_schedulers(vec![
            SchedulerKind::Easy,
            SchedulerKind::Ss { sf: 2.0 },
            SchedulerKind::Tss { sf: 1.5 },
            SchedulerKind::ImmediateService,
        ])
        .with_loads(vec![0.8, 1.0])
        .with_jobs(250)
        .with_seed(17)
        .with_reps(2)
}

/// Cached traces are byte-for-byte the traces each config would have
/// generated for itself; configs differing only in scheduler share one.
#[test]
fn shared_traces_match_per_config_regeneration() {
    let spec = grid();
    let cache = TraceCache::new();
    let mut shared_by_key = std::collections::HashMap::new();
    for cfg in spec.expand() {
        let shared = cfg.trace_shared(&cache);
        let fresh = cfg.trace();
        assert_eq!(
            trace_hash(&shared),
            trace_hash(&fresh),
            "cached trace diverges from regeneration for {} seed {} load {}",
            cfg.scheduler,
            cfg.seed,
            cfg.load_factor
        );
        // One Arc per key: scheduler-only variation must not re-generate.
        let prev = shared_by_key.insert(cfg.trace_key(), std::sync::Arc::clone(&shared));
        if let Some(prev) = prev {
            assert!(std::sync::Arc::ptr_eq(&prev, &shared));
        }
    }
    // 2 loads × 2 seeds distinct; 4 schedulers share each.
    assert_eq!(cache.len(), 4);
    assert_eq!(cache.misses(), 4);
    assert_eq!(cache.hits(), 12);
}

/// The naive path: per-run regeneration, idle ticks processed, every
/// `SimResult` retained, folded at the end — with identical arithmetic.
fn naive_cells(spec: &SweepSpec) -> Vec<CellStats> {
    let results: Vec<(ExperimentConfig, SimResult)> = spec
        .expand()
        .into_iter()
        .map(|cfg| {
            let sim = Simulator::with_overhead_and_tick(
                cfg.trace(),
                cfg.system.procs,
                cfg.scheduler.build(),
                cfg.overhead,
                cfg.tick_period,
            )
            .with_watchdog(Watchdog::generous())
            .with_tick_elision(false);
            let res = sim.run();
            (cfg, res)
        })
        .collect();
    let mut cells = Vec::new();
    let mut chunks = results.chunks_exact(spec.reps);
    for &scheduler in &spec.schedulers {
        for &load in &spec.loads {
            let chunk = chunks.next().expect("cell-major expansion");
            let summaries: Vec<RunSummary> = chunk
                .iter()
                .map(|(cfg, sim)| RunSummary::fold(cfg, sim))
                .collect();
            cells.push(CellStats::from_summaries(scheduler, load, &summaries, 0));
        }
    }
    cells
}

/// The golden equivalence: every per-cell statistic of the cached,
/// elided, streaming sweep equals the naive path bit-for-bit.
#[test]
fn sweep_cells_are_bit_identical_to_naive_path() {
    let spec = grid();
    let report = run_sweep(&spec, 2).expect("valid spec");
    assert!(report.failures.is_empty());
    let naive = naive_cells(&spec);
    assert_eq!(report.cells.len(), naive.len());
    for (fast, slow) in report.cells.iter().zip(&naive) {
        assert_eq!(
            fast, slow,
            "cell {} @ load {} diverged between sweep and naive paths",
            slow.scheduler, slow.load_factor
        );
    }
}

/// The fast no-op decide certifications (SS's placement-width +
/// SF×min-running-xfactor bound, IS's empty-waiting exact-fit bound) must
/// be *provably equivalent* shortcuts: a run with them active and a run
/// forced onto the exhaustive reference scan must be bit-identical.
#[test]
fn reference_and_fast_decides_agree_end_to_end() {
    for system in [SDSC, CTC] {
        for spec in ["ss:1.5", "ss:2", "ss:10", "tss:1.5", "tss:2", "is"] {
            let kind: SchedulerKind = spec.parse().expect("spec parses");
            let cfg = ExperimentConfig::new(system, kind)
                .with_jobs(160)
                .with_seed(11)
                .with_overhead(OverheadModel::paper());
            let run = |reference: bool| {
                let sim = Simulator::with_overhead_and_tick(
                    cfg.trace(),
                    cfg.system.procs,
                    cfg.scheduler.build(),
                    cfg.overhead,
                    cfg.tick_period,
                )
                .with_watchdog(Watchdog::generous())
                // Elision off so every tick actually reaches `decide`,
                // exercising the fast path at maximum frequency.
                .with_tick_elision(false);
                if reference {
                    sim.with_reference_decides()
                } else {
                    sim
                }
                .run()
            };
            let (r, f) = (run(true), run(false));
            let label = format!("{} on {}", spec, system.name);
            assert_eq!(r.makespan, f.makespan, "{label}: makespan");
            assert_eq!(r.preemptions, f.preemptions, "{label}: preemptions");
            assert_eq!(
                r.dropped_actions, f.dropped_actions,
                "{label}: dropped actions"
            );
            assert_eq!(
                r.utilization.to_bits(),
                f.utilization.to_bits(),
                "{label}: utilization"
            );
            for (a, b) in r.outcomes.iter().zip(&f.outcomes) {
                assert_eq!(
                    (a.id, a.first_start, a.completion, a.suspensions),
                    (b.id, b.first_start, b.completion, b.suspensions),
                    "{label}: outcome {:?}",
                    a.id
                );
            }
        }
    }
}

/// Tick elision must not change *any* observable simulation output, for
/// every policy that certifies quiescent decides as no-ops — and gang
/// (which doesn't) must behave identically too, because the gate reads
/// `Policy::quiescent_noop`. Two passes: at load 0.5 the workload has long
/// quiescent stretches, and at load 1.3 jobs wait nearly all the time, so
/// the ticks skipped are the ones before `Policy::next_tick_action`. SF 1
/// puts a qualification crossing on almost every tick, and an arrival on
/// a tick-aligned instant after a skipped stretch must still be decided
/// as a tick.
#[test]
fn tick_elision_preserves_simulation_results() {
    for load in [0.5, 1.3] {
        for system in [SDSC, CTC] {
            for spec in [
                "ns", "cons", "fcfs", "flex:3", "is", "ss:1", "ss:2", "tss:1", "tss:1.5", "gang",
            ] {
                let kind: SchedulerKind = spec.parse().expect("spec parses");
                let cfg = ExperimentConfig::new(system, kind)
                    .with_jobs(180)
                    .with_seed(9)
                    .with_load_factor(load)
                    .with_overhead(OverheadModel::paper());
                let (with, without) = (elided_run(&cfg, true), elided_run(&cfg, false));
                let label = format!("{} on {} at load {load}", spec, system.name);
                let policy = kind.build();
                let certified = policy.quiescent_noop() && policy.needs_tick();
                assert_elision_exact(&label, &with, &without, certified);
            }
        }
    }
}

fn elided_run(cfg: &ExperimentConfig, elide: bool) -> SimResult {
    Simulator::with_overhead_and_tick(
        cfg.trace(),
        cfg.system.procs,
        cfg.scheduler.build(),
        cfg.overhead,
        cfg.tick_period,
    )
    .with_watchdog(Watchdog::generous())
    .with_tick_elision(elide)
    .run()
}

/// The elided run `with` schedules exactly as the un-elided `without`.
/// Elision only ever removes work: never more events than the un-elided
/// run, and strictly fewer for the `certified` tick policies (IS, SS,
/// TSS).
fn assert_elision_exact(label: &str, with: &SimResult, without: &SimResult, certified: bool) {
    assert_eq!(with.makespan, without.makespan, "{label}: makespan");
    assert_eq!(
        with.preemptions, without.preemptions,
        "{label}: preemptions"
    );
    assert_eq!(
        with.dropped_actions, without.dropped_actions,
        "{label}: dropped actions"
    );
    assert_eq!(
        with.utilization.to_bits(),
        without.utilization.to_bits(),
        "{label}: utilization"
    );
    assert_eq!(with.outcomes.len(), without.outcomes.len(), "{label}: jobs");
    for (a, b) in with.outcomes.iter().zip(&without.outcomes) {
        assert_eq!(
            (a.id, a.first_start, a.completion, a.suspensions),
            (b.id, b.first_start, b.completion, b.suspensions),
            "{label}: outcome {:?}",
            a.id
        );
    }
    assert!(
        with.kernel.events <= without.kernel.events,
        "{label}: elision added events"
    );
    if certified {
        assert!(
            with.kernel.events < without.kernel.events,
            "{label}: no ticks elided"
        );
    }
}

/// The SS ablations no scheduler spec names take the certificate's other
/// branches: with migration no suspended claim is pinned, without the
/// width rule every qualified victim counts, and TSS on mixed processor
/// speeds places speed-aware. Each elides exactly.
#[test]
fn tick_elision_preserves_ss_ablations() {
    let migration = SsConfig {
        migration: true,
        ..SsConfig::ss(2.0)
    };
    let no_width_rule = SsConfig {
        width_restriction: false,
        ..SsConfig::ss(1.5)
    };
    let speeds: SpeedSpec = "lognormal:7".parse().expect("speed spec parses");
    let ablations = [
        ("migration", migration, None),
        ("no width rule", no_width_rule, None),
        (
            "tss:2 on lognormal speeds",
            SsConfig::tss(2.0),
            Some(speeds),
        ),
    ];
    for load in [0.5, 1.3] {
        for system in [SDSC, CTC] {
            let trace = ExperimentConfig::new(system, SchedulerKind::Ss { sf: 2.0 })
                .with_jobs(180)
                .with_seed(9)
                .with_load_factor(load)
                .trace();
            for (name, cfg, speeds) in &ablations {
                let run = |elide: bool| {
                    let sim = Simulator::with_overhead_and_tick(
                        trace.clone(),
                        system.procs,
                        Box::new(SelectiveSuspension::new(cfg.clone())),
                        OverheadModel::paper(),
                        DEFAULT_TICK_PERIOD,
                    )
                    .with_watchdog(Watchdog::generous())
                    .with_tick_elision(elide);
                    match speeds {
                        Some(spec) => sim.with_speed(SpeedMap::from_spec(spec, system.procs)),
                        None => sim,
                    }
                    .run()
                };
                let label = format!("{name} on {} at load {load}", system.name);
                assert_elision_exact(&label, &run(true), &run(false), true);
            }
        }
    }
}

/// Paper scale: the benchmark's `paper_grid` schedulers at loads 0.7, 1.0
/// and 1.3 on two seeds of 5 000-job SDSC traces, where the certificate
/// skips the long stretches of no-op ticks small runs never reach. Run it
/// in release: `cargo test --release --test sweep_equivalence -- --ignored`.
#[test]
#[ignore = "paper scale; run in release with --ignored"]
fn tick_elision_preserves_the_paper_grid_at_scale() {
    let specs = [
        "ns", "is", "ss:1.5", "ss:2", "ss:5", "tss:1.5", "tss:2", "tss:5",
    ];
    for spec in specs {
        for load in [0.7, 1.0, 1.3] {
            for seed in [1, 2] {
                let kind: SchedulerKind = spec.parse().expect("spec parses");
                let cfg = ExperimentConfig::new(SDSC, kind)
                    .with_jobs(5_000)
                    .with_seed(seed)
                    .with_load_factor(load);
                let label = format!("{spec} at load {load}, seed {seed}");
                let policy = kind.build();
                let certified = policy.quiescent_noop() && policy.needs_tick();
                assert_elision_exact(
                    &label,
                    &elided_run(&cfg, true),
                    &elided_run(&cfg, false),
                    certified,
                );
            }
        }
    }
}

/// `KernelStats::ticks_elided` counts exactly the ticks elision skipped:
/// an elided run's tick instants plus its elided ticks equal the tick
/// instants of the un-elided run, through a drained end and through a
/// horizon stop alike.
#[test]
fn elided_ticks_account_for_every_skipped_tick() {
    for spec in ["is", "ss:2", "tss:1.5", "ns", "gang"] {
        for load in [0.5, 1.3] {
            let kind: SchedulerKind = spec.parse().expect("spec parses");
            let cfg = ExperimentConfig::new(SDSC, kind)
                .with_jobs(150)
                .with_seed(4)
                .with_load_factor(load);
            let (with, without) = (elided_run(&cfg, true), elided_run(&cfg, false));
            let label = format!("{spec} at load {load}");
            assert_eq!(without.kernel.ticks_elided, 0, "{label}: nothing elided");
            assert_eq!(
                with.kernel.ticks + with.kernel.ticks_elided,
                without.kernel.ticks,
                "{label}: tick instants"
            );
            let policy = kind.build();
            if policy.quiescent_noop() && policy.needs_tick() {
                assert!(with.kernel.ticks_elided > 0, "{label}: nothing elided");
            }
            // A horizon halfway through the run: the ticks the un-elided
            // run delivers up to the horizon after the last event count
            // too.
            let horizon = SimTime::new(without.makespan / 2);
            let stopped = |elide: bool| {
                Simulator::with_overhead_and_tick(
                    cfg.trace(),
                    cfg.system.procs,
                    cfg.scheduler.build(),
                    cfg.overhead,
                    cfg.tick_period,
                )
                .with_tick_elision(elide)
                .with_until(RunUntil::SimTime(horizon))
                .run()
            };
            let (with, without) = (stopped(true), stopped(false));
            assert_eq!(
                with.kernel.ticks + with.kernel.ticks_elided,
                without.kernel.ticks,
                "{label}: tick instants up to the horizon"
            );
        }
    }
}

/// The fault/admission differential grid: every combination of these axes
/// over `jobs`-job workloads, at each processor MTBF in `mtbfs`. Closed
/// runs stop at a 30-day horizon: at MTBF 400 k s a CTC job spanning the
/// whole machine sees a failure every ~15 minutes, so without checkpoints
/// it never finishes, and a horizon (unlike a watchdog) stops the elided
/// and un-elided runs at the same instant.
fn fault_admission_grid(jobs: usize, mtbfs: &[i64]) -> Vec<(ExperimentConfig, RunUntil)> {
    let mut grid = Vec::new();
    for &mtbf in mtbfs {
        for spec in ["ss:1", "ss:2", "tss:1.5", "is", "ns"] {
            for recovery in [
                RecoveryPolicy::WaitForRepair,
                RecoveryPolicy::Resubmit,
                RecoveryPolicy::Remap,
            ] {
                for mode in [
                    PreemptionMode::InPlace,
                    PreemptionMode::Checkpoint,
                    PreemptionMode::Migrate,
                ] {
                    for crash in [0.0, 0.1] {
                        for admission in [false, true] {
                            for open in [false, true] {
                                for system in [SDSC, CTC] {
                                    let faults = FaultModel::proc_faults(mtbf, 3_600, 13)
                                        .with_recovery(recovery)
                                        .with_job_crash(crash);
                                    let mut cfg = ExperimentConfig::new(
                                        system,
                                        spec.parse().expect("spec parses"),
                                    )
                                    .with_jobs(jobs)
                                    .with_seed(21)
                                    .with_load_factor(1.2)
                                    .with_faults(faults)
                                    .with_preemption(mode)
                                    .with_checkpoint(CheckpointModel::paper().with_interval(1_800));
                                    if admission {
                                        cfg = cfg.with_admission(AdmissionModel::load_adaptive(
                                            4.0 * 3_600.0,
                                            1.0,
                                        ));
                                    }
                                    let until = if open {
                                        cfg = cfg.with_arrivals(ArrivalSpec::Mmpp {
                                            load: Some(0.9),
                                            burst: 3.0,
                                            dwell: 4 * 3_600,
                                        });
                                        RunUntil::Jobs(jobs)
                                    } else {
                                        RunUntil::SimTime(SimTime::new(30 * 24 * HOUR))
                                    };
                                    grid.push((cfg, until));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    grid
}

/// Run each config elided and un-elided and require the same schedule:
/// per-job outcomes, fault accounting, rejections and status, with
/// strictly fewer events whenever the policy's ticks can be elided.
fn assert_faulty_elision_equivalent(grid: &[(ExperimentConfig, RunUntil)]) {
    for (cfg, until) in grid {
        let run = |elide: bool| cfg.runner().until(*until).tick_elision(elide).simulate();
        let (with, without) = (run(true), run(false));
        let label = format!(
            "{} on {}, {:?}, {:?}, crash {}, admission {}, {}",
            cfg.scheduler,
            cfg.system.name,
            cfg.faults.recovery,
            cfg.preemption,
            cfg.faults.job_crash,
            cfg.admission.enabled(),
            if cfg.arrivals.is_trace() {
                "closed"
            } else {
                "open"
            },
        );
        assert_eq!(with.status, without.status, "{label}: status");
        assert_eq!(with.faults, without.faults, "{label}: faults");
        assert_eq!(with.rejections, without.rejections, "{label}: rejections");
        assert_eq!(
            with.preemptions, without.preemptions,
            "{label}: preemptions"
        );
        assert_eq!(with.outcomes.len(), without.outcomes.len(), "{label}: jobs");
        for (a, b) in with.outcomes.iter().zip(&without.outcomes) {
            assert_eq!(
                (a.id, a.first_start, a.completion, a.suspensions),
                (b.id, b.first_start, b.completion, b.suspensions),
                "{label}: outcome {:?}",
                a.id
            );
        }
        assert!(
            with.kernel.events <= without.kernel.events,
            "{label}: elision added events"
        );
        let policy = cfg.scheduler.build();
        if policy.quiescent_noop() && policy.needs_tick() {
            assert!(
                with.kernel.events < without.kernel.events,
                "{label}: no ticks elided"
            );
        }
    }
}

/// Tick elision stays exact under fault injection, admission control and
/// open arrivals: a strided sample of the full grid below (every axis
/// value appears), small enough for a debug build.
#[test]
fn tick_elision_preserves_faulty_and_admitted_runs() {
    let grid = fault_admission_grid(150, &[400_000]);
    let sample: Vec<_> = grid.into_iter().step_by(7).collect();
    assert_eq!(sample.len(), 103);
    assert_faulty_elision_equivalent(&sample);
}

/// The full fault/admission grid: 1 440 configs of 300 jobs at MTBF 1 M
/// and 400 k seconds. Run it in release:
/// `cargo test --release --test sweep_equivalence -- --ignored`.
#[test]
#[ignore = "full grid; run in release with --ignored"]
fn tick_elision_preserves_the_full_fault_admission_grid() {
    let grid = fault_admission_grid(300, &[1_000_000, 400_000]);
    assert_eq!(grid.len(), 1_440);
    assert_faulty_elision_equivalent(&grid);
}
