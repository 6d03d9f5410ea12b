//! Kernel invariant properties: after *any* event sequence — arrivals,
//! completions, suspensions, drains, faults, kills — the incrementally
//! maintained kernel structures must equal their from-scratch recounts.
//!
//! [`validate_kernel`](sps_core::sim::SimState::validate_kernel) recounts
//! the occupancy index, per-processor claims, draining set, and the
//! availability ledger from the job table, and checks that the ledger
//! snapshot is bit-identical to the pre-incremental profile rebuild. A
//! wrapper policy invokes it at every decision instant, so the checks run
//! against the machine state produced by every prefix of the event
//! sequence, not just the final state.
//!
//! The event queue under all of it is checked the same way: a seeded
//! interleaving of pushes, peeks, pops and batch pops must match a naive
//! stable-sort oracle step for step.

use std::cell::Cell;
use std::rc::Rc;

use selective_preemption::prelude::*;
use sps_core::policy::{Action, DecideCtx, Policy};
use sps_core::sim::SimState;
use sps_simcore::{EventClass, EventQueue, SimRng};
use sps_workload::traces::SDSC;

/// Decorator that validates every kernel invariant before each decision.
/// It forwards the elision hooks, so the validated runs skip exactly the
/// ticks and decides an undecorated run skips, and the recount runs
/// against the state sequence elided runs actually produce.
struct Validating {
    inner: Box<dyn Policy>,
    checks: Rc<Cell<u64>>,
}

impl Policy for Validating {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn needs_tick(&self) -> bool {
        self.inner.needs_tick()
    }

    fn quiescent_noop(&self) -> bool {
        self.inner.quiescent_noop()
    }

    fn next_tick_action(&mut self, state: &SimState) -> Option<SimTime> {
        self.inner.next_tick_action(state)
    }

    fn decide(&mut self, state: &SimState, ctx: &DecideCtx<'_>, actions: &mut Vec<Action>) {
        state.validate_kernel();
        self.checks.set(self.checks.get() + 1);
        self.inner.decide(state, ctx, actions);
    }

    fn on_completion(&mut self, outcome: &JobOutcome) {
        self.inner.on_completion(outcome);
    }
}

/// A policy that takes deterministic pseudo-random actions: greedy starts
/// and resumes for progress, plus occasional arbitrary suspensions. This
/// exercises event interleavings (e.g. suspending a job that is mid-drain
/// at the next tick, resuming into a just-failed set) that the real
/// policies rarely produce. With `migrate` set it also resumes remappable
/// jobs onto arbitrary free sets instead of their original processors.
struct Chaos {
    rng: u64,
    migrate: bool,
}

impl Chaos {
    fn next(&mut self) -> u64 {
        // xorshift64* — deterministic across platforms.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

impl Policy for Chaos {
    fn name(&self) -> String {
        "Chaos".into()
    }

    fn needs_tick(&self) -> bool {
        true
    }

    fn decide(&mut self, state: &SimState, ctx: &DecideCtx<'_>, actions: &mut Vec<Action>) {
        // Occasionally suspend one running job (possible drain under the
        // overhead model), but only on ticks so progress dominates.
        if ctx.tick && !state.running().is_empty() && self.next().is_multiple_of(8) {
            let victims = state.running();
            let v = victims[(self.next() % victims.len() as u64) as usize];
            actions.push(Action::Suspend(v));
        }
        // Resume whatever fits (shuffled order), then start queued jobs.
        let mut free = state.free_set().clone();
        let mut suspended = state.suspended().to_vec();
        if suspended.len() > 1 {
            let k = (self.next() % suspended.len() as u64) as usize;
            suspended.rotate_left(k);
        }
        for id in suspended {
            // Remappable jobs occasionally restart on an arbitrary free
            // set — the migration path the in-place resume never takes.
            if self.migrate && state.can_remap(id) && self.next().is_multiple_of(2) {
                let need = state.job(id).procs;
                if need <= free.count() {
                    let set = free.take_lowest(need).expect("count checked");
                    free.subtract(&set);
                    actions.push(Action::ResumeOn(id, set));
                }
                continue;
            }
            let set = state.assigned_set(id).expect("suspended job keeps a set");
            if set.is_subset(&free) {
                free.subtract(set);
                actions.push(Action::Resume(id));
            }
        }
        for &id in state.queued() {
            let need = state.job(id).procs;
            if need <= free.count() {
                let set = free.take_lowest(need).expect("count checked");
                free.subtract(&set);
                actions.push(Action::Start(id));
            }
        }
    }
}

/// Run `policy` over a synthetic workload with validation at every
/// decision; returns the number of validated instants.
fn run_validated(
    policy: Box<dyn Policy>,
    jobs: usize,
    seed: u64,
    overhead: OverheadModel,
    faults: FaultModel,
) -> u64 {
    run_validated_with(
        policy,
        jobs,
        seed,
        overhead,
        faults,
        PreemptionMode::InPlace,
        true,
    )
}

/// [`run_validated`] with an explicit preemption mode (checkpoint model
/// fixed to a short contended interval so image costs actually fire) and
/// tick elision setting.
fn run_validated_with(
    policy: Box<dyn Policy>,
    jobs: usize,
    seed: u64,
    overhead: OverheadModel,
    faults: FaultModel,
    pmode: PreemptionMode,
    elide: bool,
) -> u64 {
    let checks = Rc::new(Cell::new(0));
    let wrapped = Box::new(Validating {
        inner: policy,
        checks: Rc::clone(&checks),
    });
    let ckpt = CheckpointModel::paper()
        .with_interval(900)
        .with_contention(true);
    let jobs = SyntheticConfig::new(SDSC, seed).with_jobs(jobs).generate();
    let res = Simulator::with_overhead(jobs, SDSC.procs, wrapped, overhead)
        .with_faults(faults)
        .with_preemption(pmode, ckpt)
        .with_tick_elision(elide)
        .run();
    assert!(!res.status.is_aborted(), "run must complete");
    assert_eq!(res.unfinished, 0);
    checks.get()
}

#[test]
fn invariants_hold_under_selective_suspension_with_drain() {
    // Un-elided, every tick's decide is validated; elided, the run skips
    // most ticks and the recount follows the states it does visit.
    let policy: SchedulerKind = "ss:2".parse().unwrap();
    let validate = |elide| {
        run_validated_with(
            policy.build(),
            250,
            3,
            OverheadModel::MemoryDrain { mb_per_sec: 2.0 },
            FaultModel::none(),
            PreemptionMode::InPlace,
            elide,
        )
    };
    let every_tick = validate(false);
    assert!(every_tick > 1_000, "validated {every_tick} instants");
    let elided = validate(true);
    assert!(
        elided > 100 && elided < every_tick,
        "validated {elided} instants of an elided run"
    );
}

#[test]
fn invariants_hold_under_immediate_service() {
    let policy: SchedulerKind = "is".parse().unwrap();
    run_validated(
        policy.build(),
        250,
        9,
        OverheadModel::None,
        FaultModel::none(),
    );
}

#[test]
fn invariants_hold_under_faults_and_every_recovery_policy() {
    // MTBF sized as in tests/faults.rs: a kill loses all accumulated
    // work, so per-processor MTBFs below a few million seconds make wide
    // long jobs uncompletable (the run would never terminate).
    for (seed, recovery) in [
        (21, RecoveryPolicy::WaitForRepair),
        (22, RecoveryPolicy::Resubmit),
        (23, RecoveryPolicy::Remap),
    ] {
        let policy: SchedulerKind = "ss:2".parse().unwrap();
        let faults = FaultModel::proc_faults(5_000_000, 3_600, seed)
            .with_recovery(recovery)
            .with_job_crash(0.02);
        run_validated(
            policy.build(),
            200,
            seed,
            OverheadModel::MemoryDrain { mb_per_sec: 2.0 },
            faults,
        );
    }
}

#[test]
fn invariants_hold_under_random_action_sequences() {
    for seed in 1..=4u64 {
        let chaos = Box::new(Chaos {
            rng: 0x9e37_79b9_7f4a_7c15 ^ seed,
            migrate: false,
        });
        let overhead = if seed.is_multiple_of(2) {
            OverheadModel::MemoryDrain { mb_per_sec: 2.0 }
        } else {
            OverheadModel::None
        };
        let checks = run_validated(chaos, 150, seed, overhead, FaultModel::none());
        assert!(checks > 100, "validated {checks} instants");
    }
}

#[test]
fn invariants_hold_under_chaos_with_faults() {
    let chaos = Box::new(Chaos {
        rng: 0xdead_beef_cafe_f00d,
        migrate: false,
    });
    let faults = FaultModel::proc_faults(5_000_000, 3_600, 77).with_recovery(RecoveryPolicy::Remap);
    run_validated(
        chaos,
        150,
        17,
        OverheadModel::MemoryDrain { mb_per_sec: 1.0 },
        faults,
    );
}

#[test]
fn invariants_hold_under_chaos_with_migration() {
    // Migrate mode makes every suspended job remappable, so the chaos
    // policy's arbitrary ResumeOn placements — plus checkpoint restores
    // and fault kills — must keep every incremental structure honest.
    for seed in [17u64, 23] {
        let chaos = Box::new(Chaos {
            rng: 0x0123_4567_89ab_cdef ^ seed,
            migrate: true,
        });
        let faults = FaultModel::proc_faults(5_000_000, 3_600, seed)
            .with_recovery(RecoveryPolicy::Resubmit)
            .with_job_crash(0.02);
        let checks = run_validated_with(
            chaos,
            150,
            seed,
            OverheadModel::MemoryDrain { mb_per_sec: 2.0 },
            faults,
            PreemptionMode::Migrate,
            true,
        );
        assert!(checks > 100, "validated {checks} instants");
    }
}

#[test]
fn invariants_hold_under_checkpoint_mode_schedulers() {
    // The real SS policy under checkpoint-restart: restore stalls stretch
    // remaining runtimes, kills roll back to the last image.
    let policy: SchedulerKind = "ss:2".parse().unwrap();
    let faults =
        FaultModel::proc_faults(5_000_000, 3_600, 41).with_recovery(RecoveryPolicy::Resubmit);
    run_validated_with(
        policy.build(),
        200,
        19,
        OverheadModel::MemoryDrain { mb_per_sec: 2.0 },
        faults,
        PreemptionMode::Checkpoint,
        true,
    );
}

/// An event time drawn to hit the queue's edge cases: ties with the last
/// popped instant, pushes earlier than it, time 0, negative times (the
/// key's sign flip) and times next to both ends of the `i64` range.
fn oracle_time(rng: &mut SimRng, last_pop: i64) -> i64 {
    match rng.index(8) {
        0 => 0,
        1 => last_pop,
        2 => last_pop.saturating_add(rng.range_i64(0, 180)),
        3 => last_pop.saturating_sub(rng.range_i64(1, 180)),
        4 => rng.range_i64(-600, 600),
        5 => i64::MAX - rng.range_i64(0, 2),
        6 => i64::MIN + rng.range_i64(0, 2),
        _ => rng.range_i64(0, 20) * 60,
    }
}

/// The event queue against a naive oracle: the pending pushes, stably
/// sorted by `(time, class rank)`, so push order breaks the remaining
/// ties. Every `push`/`peek`/`pop`/`pop_batch` of a seeded random
/// interleaving must agree with it.
#[test]
fn event_queue_matches_a_stable_sort_oracle() {
    let mut batches = 0;
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(0x0E0E_0000 ^ seed);
        let mut queue = EventQueue::new();
        // (time, class, payload); the payload is the push index.
        let mut pending: Vec<(i64, EventClass, usize)> = Vec::new();
        let mut pushed = 0usize;
        let mut last_pop = 0i64;
        let sorted = |pending: &[(i64, EventClass, usize)]| {
            let mut order = pending.to_vec();
            order.sort_by_key(|&(t, c, _)| (t, c.rank()));
            order
        };
        for step in 0..800 {
            let ctx = format!("seed {seed} step {step}");
            match rng.index(10) {
                0..=5 => {
                    let t = oracle_time(&mut rng, last_pop);
                    let class = EventClass::ALL[rng.index(EventClass::ALL.len())];
                    queue.push(SimTime::new(t), class, pushed);
                    pending.push((t, class, pushed));
                    pushed += 1;
                }
                6 | 7 => {
                    let want = sorted(&pending).first().copied();
                    assert_eq!(
                        queue.peek(),
                        want.map(|(t, c, _)| (SimTime::new(t), c)),
                        "{ctx}: peek"
                    );
                    let got = queue.pop().map(|(t, c, p)| (t.secs(), c, p));
                    assert_eq!(got, want, "{ctx}: pop");
                    if let Some((t, _, p)) = got {
                        pending.retain(|e| e.2 != p);
                        last_pop = t;
                    }
                }
                _ => {
                    let order = sorted(&pending);
                    let mut batch = Vec::new();
                    let instant = queue.pop_batch(&mut batch);
                    let Some(&(t, _, _)) = order.first() else {
                        assert_eq!(instant, None, "{ctx}: empty pop_batch");
                        assert!(batch.is_empty(), "{ctx}: empty batch");
                        continue;
                    };
                    let want: Vec<usize> =
                        order.iter().take_while(|e| e.0 == t).map(|e| e.2).collect();
                    assert_eq!(instant, Some(SimTime::new(t)), "{ctx}: batch instant");
                    assert_eq!(batch, want, "{ctx}: batch");
                    pending.retain(|e| !want.contains(&e.2));
                    last_pop = t;
                    batches += usize::from(want.len() > 1);
                }
            }
            assert_eq!(queue.len(), pending.len(), "{ctx}: len");
            assert_eq!(queue.is_empty(), pending.is_empty(), "{ctx}: is_empty");
        }
        let rest: Vec<usize> = sorted(&pending).iter().map(|e| e.2).collect();
        let drained: Vec<usize> = std::iter::from_fn(|| queue.pop()).map(|e| e.2).collect();
        assert_eq!(drained, rest, "seed {seed}: drain");
    }
    assert!(
        batches > 100,
        "only {batches} multi-event batches exercised"
    );
}
