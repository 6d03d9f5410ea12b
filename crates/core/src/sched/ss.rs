//! Selective Suspension (SS) and Tunable Selective Suspension (TSS) —
//! the paper's contribution (Section IV).
//!
//! An idle job may preempt running jobs whose suspension priority (the
//! expansion factor) is lower by at least the **suspension factor** SF:
//! preemption requires `xfactor(idle) ≥ SF × xfactor(victim)`. Queued and
//! suspended jobs are served in descending priority; because any waiting
//! job's xfactor grows without bound, it eventually out-prioritizes some
//! running job — so SS runs **backfilling without reservation guarantees**
//! and is still starvation-free (Section IV-B).
//!
//! Rules implemented from the paper's pseudocode:
//!
//! * the preemption routine is invoked periodically (every minute); plain
//!   starts/resumes onto free processors happen at every event instant,
//! * **width restriction**: a fresh idle job may only suspend victims at
//!   most twice its own width ("the number of processors requested by a
//!   suspending job should be at least half of the number of processors
//!   requested by the job that it suspends"), preventing narrow jobs from
//!   evicting wide ones,
//! * **re-entry**: a previously suspended job must reacquire exactly its
//!   original processors; for re-entry the width restriction is dropped,
//!   and every running job overlapping the needed set must qualify (and is
//!   suspended) for the re-entry to proceed,
//! * victims are suspended in decreasing width until enough processors
//!   accumulate,
//! * **TSS**: with limits enabled, a running job whose priority exceeds
//!   `1.5 × average slowdown of its category` cannot be chosen as a victim
//!   (Section IV-E), bounding worst-case slowdown/turnaround.

use sps_cluster::ProcSet;
use sps_metrics::JobOutcome;
use sps_simcore::{Secs, SimTime};
use sps_telemetry::Obs;
use sps_trace::Reason;
use sps_workload::{Category, JobId};

use crate::policy::{Action, DecideCtx, Policy};
use crate::sched::planner::{self, DecideArena};
use crate::sched::tss::TssLimits;
use crate::sim::SimState;

/// Configuration for the SS/TSS family.
#[derive(Clone, Debug)]
pub struct SsConfig {
    /// Suspension factor: minimum priority ratio for preemption
    /// (the paper evaluates 1.5, 2, and 5).
    pub sf: f64,
    /// Enforce the ½-width suspend rule for fresh jobs (paper default:
    /// on; the ablation bench switches it off).
    pub width_restriction: bool,
    /// Allow suspended jobs to restart on *any* processors (process
    /// migration). The paper's distributed-memory model forbids this;
    /// the `ablation_migration` experiment turns it on to price the
    /// local-restart constraint.
    pub migration: bool,
    /// TSS per-category preemption-disable limits; `None` is plain SS.
    pub limits: Option<TssLimits>,
}

impl SsConfig {
    /// Plain SS with the given suspension factor.
    pub fn ss(sf: f64) -> Self {
        assert!(
            sf >= 1.0,
            "a suspension factor below 1 thrashes unconditionally"
        );
        SsConfig {
            sf,
            width_restriction: true,
            migration: false,
            limits: None,
        }
    }

    /// TSS: SS plus running-average category limits.
    pub fn tss(sf: f64) -> Self {
        SsConfig {
            limits: Some(TssLimits::new()),
            ..Self::ss(sf)
        }
    }
}

/// The SS/TSS dispatcher.
#[derive(Clone, Debug)]
pub struct SelectiveSuspension {
    cfg: SsConfig,
    /// Per-decide scratch. The preemption routine runs every minute for
    /// the whole length of a run, so the planning mirror (idle list,
    /// free/blocked/reserved sets, victim table, index lists) is rebuilt
    /// tens of thousands of times per simulation; reusing one arena keeps
    /// the entire decide path off the allocator.
    arena: DecideArena,
    /// The instant of the last decide if it ran the preemption routine
    /// and acted on nothing. At that instant the state is the one the
    /// no-op decide saw, which [`Policy::next_tick_action`] exploits.
    settled: Option<SimTime>,
}

impl SelectiveSuspension {
    /// Build from a config.
    pub fn new(cfg: SsConfig) -> Self {
        SelectiveSuspension {
            cfg,
            arena: DecideArena::default(),
            settled: None,
        }
    }

    /// Plain SS with suspension factor `sf`.
    pub fn ss(sf: f64) -> Self {
        Self::new(SsConfig::ss(sf))
    }

    /// Tunable SS with suspension factor `sf`.
    pub fn tss(sf: f64) -> Self {
        Self::new(SsConfig::tss(sf))
    }

    /// If `victim` is protected from preemption (TSS limit exceeded),
    /// the category, the victim's xfactor, and the limit it exceeds.
    fn protection(&self, state: &SimState, victim: JobId) -> Option<(Category, f64, f64)> {
        let limits = self.cfg.limits.as_ref()?;
        let job = state.job(victim);
        let cat = Category::classify(job.estimate, job.procs);
        let limit = limits.limit_for(cat);
        let xf = state.xfactor(victim);
        (xf > limit).then_some((cat, xf, limit))
    }

    /// Whether some idle job is no wider than the working pool (free ∪
    /// draining): necessary for any placement or victim-free re-entry,
    /// since both need `procs` processors out of that pool.
    fn may_place(state: &SimState) -> bool {
        let wf = state.free_count() + state.draining_set().count();
        state
            .queued()
            .iter()
            .chain(state.suspended())
            .any(|&id| state.width(id) <= wf)
    }

    /// The earliest instant at which some idle job's qualified-victim
    /// prefix could grow: the first crossing of an idle xfactor with a
    /// bar SF × a running xfactor that it does not reach yet. Running
    /// xfactors are frozen and idle ones grow along
    /// [`SimState::xfactor_line`], so each crossing has a closed form; it
    /// is rounded down, less a second of margin for the decide's
    /// floating-point comparison, so the answer is never late.
    ///
    /// Unsettled, a job that already reaches the cheapest bar may preempt
    /// now, so the answer is `now`. Settled, the decide has seen every
    /// victim each job qualifies against and taken none (the width rule,
    /// TSS limits and overlap checks only remove candidates), so only
    /// each job's next bar counts. `None` when no job has a bar left.
    fn next_qualification(&mut self, state: &SimState, settled: bool) -> Option<SimTime> {
        let now = state.now();
        let sf = self.cfg.sf;
        let bars = &mut self.arena.bars;
        bars.clear();
        let running = state.running().iter().map(|&id| sf * state.xfactor(id));
        if settled {
            bars.extend(running);
            bars.sort_unstable_by(f64::total_cmp);
        } else {
            // Unsettled, only the cheapest bar counts.
            bars.extend(running.min_by(f64::total_cmp));
        }
        let mut first: Option<Secs> = None;
        for &id in state.queued().iter().chain(state.suspended()) {
            let xf = state.xfactor(id);
            let reached = bars.partition_point(|&bar| bar <= xf);
            if reached > 0 && !settled {
                return Some(now);
            }
            let Some(&bar) = bars.get(reached) else {
                continue;
            };
            // (wait + d + est) / est >= bar  ⇔  d >= bar·est − est − wait.
            let (wait, est) = state.xfactor_line(id);
            let d = (bar * est as f64 - (est + wait) as f64).floor() as Secs - 1;
            first = Some(first.map_or(d, |f| f.min(d)));
        }
        first.map(|d| now + d.max(1))
    }

    /// The earliest instant at which a fresh job (queued, or suspended
    /// and free to restart anywhere) could overtake a pinned suspended
    /// job ranked above it; `now` if, unsettled, a placement without
    /// victims can already happen. A fresh job may use the pool (free ∪
    /// draining) minus the claims of the pinned jobs ahead of it in
    /// priority order (the decide's `blocked` set), and that set only
    /// shrinks when the job overtakes one of them: the first crossing of
    /// two xfactor lines, rounded down like [`Self::next_qualification`].
    /// Resuming in place needs no time at all: the claim is inside the
    /// pool or it is not.
    ///
    /// Unsettled, only placements count: the claims that meet the pool
    /// and the fresh jobs no wider than it. Settled, every pair counts,
    /// because a smaller `blocked` set also raises the victim scan's
    /// usable widths.
    fn next_overtake(&mut self, state: &SimState, settled: bool) -> Option<SimTime> {
        let now = state.now();
        let migration = self.cfg.migration;
        let pinned = |id: JobId| !migration && !state.can_remap(id);
        let arena = &mut self.arena;
        planner::working_free_set_into(state, &mut arena.free);
        let pool = arena.free.count();
        // `idle` holds the pinned suspended jobs that count, in decide
        // order.
        arena.idle.clear();
        for &sid in state.suspended() {
            if !pinned(sid) {
                continue;
            }
            let claim = state
                .assigned_set(sid)
                .expect("suspended job keeps its set");
            if !state.is_stranded(sid) && claim.is_subset(&arena.free) {
                return Some(now);
            }
            if settled || claim.overlaps(&arena.free) {
                arena.idle.push((state.xfactor(sid), sid));
            }
        }
        arena
            .idle
            .sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        // `indices[k]`: pool processors outside the first `k` claims.
        arena.indices.clear();
        arena.indices.push(pool as usize);
        arena.missing.copy_from(&arena.free);
        for &(_, sid) in &arena.idle {
            arena.missing.subtract(
                state
                    .assigned_set(sid)
                    .expect("suspended job keeps its set"),
            );
            arena.indices.push(arena.missing.count() as usize);
        }
        let fresh = state
            .queued()
            .iter()
            .chain(state.suspended().iter().filter(|&&id| !pinned(id)));
        let mut first: Option<Secs> = None;
        for &id in fresh {
            let need = state.width(id);
            if need > pool && !settled {
                continue;
            }
            let xf = state.xfactor(id);
            let ahead = arena
                .idle
                .partition_point(|&(sx, sid)| sx.total_cmp(&xf).then(id.cmp(&sid)).is_gt());
            if need as usize <= arena.indices[ahead] {
                return Some(now);
            }
            let (wj, ej) = state.xfactor_line(id);
            for &(_, sid) in &arena.idle[..ahead] {
                let (ws, es) = state.xfactor_line(sid);
                if ej >= es {
                    continue; // grows no faster: never catches up
                }
                // (wj + d) / ej = (ws + d) / es  ⇔  d = (ws·ej − wj·es) / (es − ej).
                let num = i128::from(ws) * i128::from(ej) - i128::from(wj) * i128::from(es);
                let d = num.div_euclid(i128::from(es - ej)) as Secs - 1;
                first = Some(first.map_or(d, |f| f.min(d)));
            }
        }
        first.map(|d| now + d.max(1))
    }
}

/// The earlier of two optional instants, `None` meaning never.
fn earliest(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

impl Policy for SelectiveSuspension {
    fn name(&self) -> String {
        let kind = if self.cfg.limits.is_some() {
            "TSS"
        } else {
            "SS"
        };
        let mut name = format!("{kind} (SF={}", self.cfg.sf);
        if !self.cfg.width_restriction {
            name.push_str(", no width rule");
        }
        if self.cfg.migration {
            name.push_str(", migration");
        }
        name.push(')');
        name
    }

    fn needs_tick(&self) -> bool {
        true
    }

    // The preemption routine only acts on idle (queued + suspended) jobs;
    // with none, the loop body never runs. The only mutable state — the
    // TSS per-category limits — changes in `on_completion`, not here.
    fn quiescent_noop(&self) -> bool {
        true
    }

    // Between events only time moves: idle xfactors grow linearly and
    // running ones are frozen, as are the TSS limits (they change on
    // completion), the width rule and the free and draining sets. A tick
    // decide on an unchanged state can therefore first act when a victim
    // first qualifies or a placement first fits. After a no-op tick
    // decide on this very state, it depends on time only through two
    // monotone things: each idle job's qualified-victim prefix, and which
    // pinned claims rank above each fresh job (a pinned job overtaking a
    // fresh one only blocks more). So the next tick that can act is the
    // first at which a prefix grows or a fresh job overtakes a pinned one.
    fn next_tick_action(&mut self, state: &SimState) -> Option<SimTime> {
        let settled = self.settled == Some(state.now());
        let qualify = self.next_qualification(state, settled);
        if qualify == Some(state.now()) || !(settled || Self::may_place(state)) {
            return qualify;
        }
        earliest(qualify, self.next_overtake(state, settled))
    }

    fn decide(&mut self, state: &SimState, ctx: &DecideCtx<'_>, actions: &mut Vec<Action>) {
        // Fast certification of the common no-op decide: with no idle job
        // fitting the working pool and (on a tick) no victim qualifying,
        // the decide provably produces nothing — skip the idle sort, the
        // mirror, and every per-decide allocation. Traced runs take the
        // full path — the scan can emit `BlockedByDisableLimit` records
        // without acting — as do runs that ask for the reference scan
        // outright.
        if !ctx.reference
            && !ctx.trace.enabled()
            && !Self::may_place(state)
            && (!ctx.tick || self.next_qualification(state, false) != Some(state.now()))
        {
            self.settled = ctx.tick.then_some(state.now());
            return;
        }
        let acted_before = actions.len();

        // All per-decide scratch lives in the policy-owned arena: taking
        // it out of `self` lets the loop borrow its fields independently
        // while `self.protection` is still callable.
        let mut arena = std::mem::take(&mut self.arena);
        arena.reset(state.total_procs());

        // Idle jobs (queued + suspended) in descending priority; ids break
        // ties deterministically.
        arena.idle.extend(
            state
                .queued()
                .iter()
                .chain(state.suspended().iter())
                .map(|&id| (state.xfactor(id), id)),
        );
        arena
            .idle
            .sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

        // Plan against free processors *plus* those whose suspension
        // drain is already in flight (see [`planner::working_free_set_into`]).
        planner::working_free_set_into(state, &mut arena.free);

        // `arena.blocked` — the processor claims of higher-priority
        // suspended jobs that could not be placed yet. A suspended job can
        // only ever restart on its original processors, so its claim acts
        // as a priority-ordered reservation: lower-priority fresh jobs
        // must not be placed on it, or the suspended job starves while
        // squatters rotate through its set (very long suspended jobs,
        // whose xfactor grows slowly, would otherwise wait practically
        // forever under sustained load).
        //
        // `arena.reserved` — all suspended claims, used only as a
        // placement *preference* for procs not strictly blocked. With
        // migration, suspended jobs can restart anywhere, so no claims
        // need protecting.
        if !self.cfg.migration {
            planner::pinned_claims_into(state, &mut arena.reserved);
        }

        // The processor set of a planned victim, fetched from simulator
        // state on demand (the mirror entries are plain data).
        let vset = |vid: JobId| state.assigned_set(vid).expect("running job has a set");

        // The running mirror is only consulted on ticks (the paper's
        // once-a-minute preemption routine); between ticks only free
        // processors are handed out. Built lazily, sorted by ascending
        // victim priority as in the pseudocode's first sort: most tick
        // decides place or skip every idle job without a victim scan, so
        // the xfactor sweep over the running set is deferred until one
        // actually starts.
        let mut table_built = false;
        macro_rules! ensure_table {
            () => {
                if !table_built {
                    table_built = true;
                    arena.table.fill_running(state, |vid| state.xfactor(vid));
                    arena.table.sort_ascending();
                    if ctx.metrics.enabled() {
                        ctx.metrics.emit(&Obs::VictimScan {
                            scanned: arena.table.entries.len() as u32,
                        });
                    }
                }
            };
        }

        for &(prio_i, id) in &arena.idle {
            if state.is_suspended(id) && !self.cfg.migration && !state.can_remap(id) {
                // Re-entry: needs exactly its original processors.
                let needed = state.assigned_set(id).expect("suspended job keeps its set");
                if state.is_stranded(id) {
                    // A reserved processor is down: re-entry cannot succeed
                    // no matter how many victims are suspended, so skip the
                    // victim scan but keep the claim protected for the
                    // repair instant.
                    arena.blocked.union_with(needed);
                    continue;
                }
                arena.missing.copy_from(needed);
                arena.missing.subtract(&arena.free);
                if arena.missing.is_empty() {
                    arena.free.subtract(needed);
                    arena.reserved.subtract(needed);
                    actions.push(Action::Resume(id));
                    if ctx.trace.enabled() {
                        ctx.trace.decision(
                            state.now().secs(),
                            Reason::ReentryOnOriginalProcs {
                                job: id.0,
                                victims: 0,
                            },
                        );
                    }
                    continue;
                }
                if !ctx.tick {
                    arena.blocked.union_with(needed);
                    continue;
                }
                // Preemption routine: every running job overlapping the
                // needed set must qualify as a victim (no width
                // restriction for re-entry).
                ensure_table!();
                arena.indices.clear();
                arena.covered.clear();
                for (idx, r) in arena.table.entries.iter().enumerate() {
                    let rset = vset(r.id);
                    if !rset.overlaps(needed) {
                        continue;
                    }
                    // Re-entry is exempt from the TSS limit: the suspended
                    // job is the one whose variance the limit exists to
                    // bound, and a protected squatter on its processors
                    // would otherwise pin it out indefinitely.
                    if prio_i >= self.cfg.sf * r.prio {
                        arena.indices.push(idx);
                        arena.covered.union_with(rset);
                    }
                }
                if !arena.missing.is_subset(&arena.covered) {
                    // Some needed processor is held by a non-preemptible
                    // job; keep the claim blocked and try again later.
                    arena.blocked.union_with(needed);
                    continue;
                }
                // Suspend every overlapping candidate (they all sit on
                // needed processors) and re-enter.
                let victim_count = arena.indices.len() as u32;
                let (table, indices) = (&mut arena.table, &mut arena.indices);
                table.remove_all(indices, |r| {
                    let rset = vset(r.id);
                    arena.free.union_with(rset);
                    arena.reserved.union_with(rset); // victims will want these back
                    if ctx.trace.enabled() {
                        ctx.trace.decision(
                            state.now().secs(),
                            Reason::PreemptedVictim {
                                victim: r.id.0,
                                suspender: id.0,
                                victim_xf: r.prio,
                                suspender_xf: prio_i,
                            },
                        );
                    }
                    actions.push(Action::Suspend(r.id));
                });
                arena.table.sort_ascending();
                debug_assert!(needed.is_subset(&arena.free));
                arena.free.subtract(needed);
                arena.reserved.subtract(needed);
                actions.push(Action::Resume(id));
                if ctx.trace.enabled() {
                    ctx.trace.decision(
                        state.now().secs(),
                        Reason::ReentryOnOriginalProcs {
                            job: id.0,
                            victims: victim_count,
                        },
                    );
                }
            } else {
                // Fresh job (or, with migration enabled, a suspended job
                // restarting anywhere): may use free processors outside
                // the claims of higher-priority suspended jobs.
                let dispatch = |set: ProcSet| {
                    if state.is_suspended(id) {
                        Action::ResumeOn(id, set)
                    } else {
                        Action::StartOn(id, set)
                    }
                };
                let need = state.width(id);
                // Usable width: processors inside `blocked` belong to a
                // higher-priority suspended job and do not count.
                let allowed = arena.free.count_excluding(&arena.blocked);
                if need <= allowed {
                    let set = planner::alloc_avoiding_in(
                        &arena.free,
                        &arena.blocked,
                        &arena.reserved,
                        need,
                        state.speed_map(),
                        &mut arena.alloc,
                    )
                    .expect("count checked");
                    arena.free.subtract(&set);
                    actions.push(dispatch(set));
                    continue;
                }
                if !ctx.tick {
                    continue;
                }
                // Preemption routine: accumulate qualifying victims until
                // enough unblocked processors exist, then suspend the
                // widest first.
                ensure_table!();
                arena.indices.clear();
                let mut gain = allowed;
                for (idx, r) in arena.table.entries.iter().enumerate() {
                    if gain >= need {
                        break;
                    }
                    if prio_i < self.cfg.sf * r.prio {
                        // running is sorted by ascending priority: nothing
                        // further qualifies either.
                        break;
                    }
                    if self.cfg.width_restriction && r.procs > 2 * need {
                        continue;
                    }
                    if let Some((cat, xf, limit)) = self.protection(state, r.id) {
                        if ctx.trace.enabled() {
                            ctx.trace.decision(
                                state.now().secs(),
                                Reason::BlockedByDisableLimit {
                                    victim: r.id.0,
                                    category: cat.name(),
                                    xfactor: xf,
                                    limit,
                                },
                            );
                        }
                        continue;
                    }
                    arena.indices.push(idx);
                    gain += vset(r.id).count_excluding(&arena.blocked);
                }
                if gain < need {
                    continue;
                }
                // Suspend in decreasing usable width until the job fits.
                {
                    let (table, blocked) = (&arena.table, &arena.blocked);
                    arena.indices.sort_unstable_by(|&a, &b| {
                        vset(table.entries[b].id)
                            .count_excluding(blocked)
                            .cmp(&vset(table.entries[a].id).count_excluding(blocked))
                    });
                }
                arena.chosen.clear();
                let mut have = allowed;
                for &idx in &arena.indices {
                    if have >= need {
                        break;
                    }
                    have += vset(arena.table.entries[idx].id).count_excluding(&arena.blocked);
                    arena.chosen.push(idx);
                }
                let (table, chosen) = (&mut arena.table, &mut arena.chosen);
                table.remove_all(chosen, |r| {
                    let rset = vset(r.id);
                    arena.free.union_with(rset);
                    arena.reserved.union_with(rset); // victims will want these back
                    if ctx.trace.enabled() {
                        ctx.trace.decision(
                            state.now().secs(),
                            Reason::PreemptedVictim {
                                victim: r.id.0,
                                suspender: id.0,
                                victim_xf: r.prio,
                                suspender_xf: prio_i,
                            },
                        );
                    }
                    actions.push(Action::Suspend(r.id));
                });
                arena.table.sort_ascending();
                debug_assert!(arena.free.count_excluding(&arena.blocked) >= need);
                let set = planner::alloc_avoiding_in(
                    &arena.free,
                    &arena.blocked,
                    &arena.reserved,
                    need,
                    state.speed_map(),
                    &mut arena.alloc,
                )
                .expect("gain accounted");
                arena.free.subtract(&set);
                actions.push(dispatch(set));
            }
        }
        self.arena = arena;
        self.settled = (ctx.tick && actions.len() == acted_before).then_some(state.now());
    }

    fn on_completion(&mut self, outcome: &JobOutcome) {
        if let Some(limits) = &mut self.cfg.limits {
            limits.record(outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionModel;
    use crate::overhead::OverheadModel;
    use crate::sim::{Event, Simulator};
    use sps_simcore::EventQueue;
    use sps_telemetry::TelemetryCtx;
    use sps_trace::TraceCtx;
    use sps_workload::Job;

    fn run_ss(jobs: Vec<Job>, procs: u32, sf: f64) -> crate::sim::SimResult {
        Simulator::new(jobs, procs, Box::new(SelectiveSuspension::ss(sf))).run()
    }

    /// A hand-driven state for certificate checks: jobs arrive, start on
    /// chosen processors and are suspended at chosen instants, with no
    /// policy in the loop until [`Bench::tick`].
    struct Bench {
        state: SimState,
        queue: EventQueue<Event>,
    }

    impl Bench {
        fn new(jobs: Vec<Job>, procs: u32) -> Self {
            Bench {
                state: SimState::new(jobs, procs, OverheadModel::None),
                queue: EventQueue::with_capacity(16),
            }
        }

        fn at(&mut self, t: i64) -> &mut Self {
            self.state.now = SimTime::new(t);
            self
        }

        fn arrive(&mut self, id: u32) -> &mut Self {
            self.state.arrive(JobId(id));
            self
        }

        fn start(&mut self, id: u32, procs: std::ops::Range<u32>) -> &mut Self {
            let mut set = ProcSet::empty(self.state.total_procs());
            procs.for_each(|p| set.insert(p));
            assert!(self.state.start_on(JobId(id), &set, &mut self.queue));
            self
        }

        fn suspend(&mut self, id: u32) -> &mut Self {
            assert!(self.state.suspend(JobId(id), &mut self.queue));
            self
        }

        /// A tick decide on the current state, then the policy's answer
        /// for the next tick that can act.
        fn tick(&self, policy: &mut SelectiveSuspension) -> (Vec<Action>, Option<SimTime>) {
            let (trace, metrics) = (TraceCtx::disabled(), TelemetryCtx::disabled());
            let admission = AdmissionModel::none();
            let ctx = DecideCtx {
                arrivals: &[],
                tick: true,
                failures: &[],
                repairs: &[],
                trace: &trace,
                metrics: &metrics,
                reference: false,
                admission: &admission,
            };
            let mut actions = Vec::new();
            policy.decide(&self.state, &ctx, &mut actions);
            (actions, policy.next_tick_action(&self.state))
        }
    }

    #[test]
    fn width_blocked_qualification_certifies_a_future_tick() {
        // B (4p, xf 1.01) and C (4p, xf 1.5) fill the machine; D (1p,
        // est 60) arrives at 110. By 180 D reaches 1.5 × xf(B) but the
        // width rule (4 > 2 × 1) keeps B, so the tick is a no-op, and
        // nothing changes until D reaches 1.5 × xf(C) = 2.25 at 185.
        let jobs = vec![
            Job::new(0, 0, 10_000, 10_000, 4),
            Job::new(1, 0, 200, 200, 4),
            Job::new(2, 0, 60, 60, 1),
        ];
        let mut b = Bench::new(jobs, 8);
        b.at(0)
            .arrive(0)
            .arrive(1)
            .at(100)
            .start(0, 0..4)
            .start(1, 4..8);
        b.at(110).arrive(2).at(180);
        let mut ss = SelectiveSuspension::ss(1.5);
        assert!(b.state.xfactor(JobId(2)) >= 1.5 * b.state.xfactor(JobId(0)));
        assert_eq!(
            ss.next_tick_action(&b.state),
            Some(b.state.now()),
            "unsettled, a qualified job may preempt now"
        );
        let (actions, next) = b.tick(&mut ss);
        assert!(actions.is_empty(), "the width rule blocks both victims");
        let next = next.expect("C's bar is still ahead").secs();
        assert!((181..=185).contains(&next), "got {next}");
        // Past every bar, with nothing to overtake, no tick can act.
        b.at(240);
        assert_eq!(b.tick(&mut ss), (Vec::new(), None));
    }

    #[test]
    fn overtaking_a_pinned_claim_certifies_the_preemption_it_enables() {
        // S (4p, est 1 000) ran on {0..3} from 1 980 and was suspended at
        // 2 100, when V (2p) and U (2p) took its claim and W (4p) held
        // {4..7}. F (1p, est 60) arrives at 2 100. By 2 220 F qualifies
        // against V, but V sits inside S's claim, which blocks F while S
        // ranks above it, and S cannot re-enter past U. F overtakes S at
        // 2 226.4, and then V's processors count.
        let jobs = vec![
            Job::new(0, 0, 1_000, 1_000, 4),     // S
            Job::new(1, 0, 10_000, 10_000, 2),   // V
            Job::new(2, 0, 1_000, 1_000, 2),     // U
            Job::new(3, 0, 100_000, 100_000, 4), // W
            Job::new(4, 0, 60, 60, 1),           // F
        ];
        let mut b = Bench::new(jobs, 8);
        b.at(0).arrive(0).arrive(1).arrive(2).arrive(3);
        b.at(1_980).start(0, 0..4).start(3, 4..8);
        b.at(2_100)
            .suspend(0)
            .start(1, 0..2)
            .start(2, 2..4)
            .arrive(4);
        b.at(2_220);
        let mut ss = SelectiveSuspension::ss(2.0);
        let (actions, next) = b.tick(&mut ss);
        assert!(actions.is_empty(), "V's processors are S's claim");
        let next = next.expect("F overtakes S").secs();
        assert!((2_221..=2_226).contains(&next), "got {next}");
        // The early answer is an exact re-check ...
        b.at(next);
        assert!(b.tick(&mut ss).0.is_empty());
        // ... and once F is ahead of S, it preempts V.
        b.at(2_227);
        let (actions, _) = b.tick(&mut ss);
        assert_eq!(actions.len(), 2, "{actions:?}");
        assert_eq!(actions[0], Action::Suspend(JobId(1)));
        assert!(matches!(actions[1], Action::StartOn(JobId(4), _)));
    }

    #[test]
    fn short_job_preempts_long_after_priority_gap() {
        // Long job (est 100 000 s) hogs the machine; a short job (est
        // 600 s) arrives at t=1000. xfactor(short) reaches SF=2 after
        // waiting 600 s; the next minute tick then preempts the long job.
        let jobs = vec![
            Job::new(0, 0, 100_000, 100_000, 8),
            Job::new(1, 1_000, 600, 600, 8),
        ];
        let res = run_ss(jobs, 8, 2.0);
        let short = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        // Needs xfactor ≥ 2 × 1.0 → wait ≥ 600 → earliest tick at 1620.
        assert_eq!(short.first_start.secs(), 1_620);
        assert_eq!(short.wait(), 620);
        let long = res.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        assert_eq!(long.suspensions, 1);
        // Long resumes when the short finishes and completes with its full
        // work done.
        assert_eq!(long.completion.secs(), 1_620 + 600 + (100_000 - 1_620));
        assert_eq!(res.preemptions, 1);
        assert_eq!(res.dropped_actions, 0);
    }

    #[test]
    fn higher_sf_waits_longer() {
        let jobs = |_: ()| {
            vec![
                Job::new(0, 0, 100_000, 100_000, 8),
                Job::new(1, 1_000, 600, 600, 8),
            ]
        };
        let w2 = run_ss(jobs(()), 8, 2.0)
            .outcomes
            .iter()
            .find(|o| o.id == JobId(1))
            .unwrap()
            .wait();
        let w5 = run_ss(jobs(()), 8, 5.0)
            .outcomes
            .iter()
            .find(|o| o.id == JobId(1))
            .unwrap()
            .wait();
        assert!(
            w5 > w2,
            "SF=5 ({w5}) must delay preemption past SF=2 ({w2})"
        );
        // SF=5 needs wait ≥ 4 × 600 = 2400 s.
        assert!(w5 >= 2_400);
    }

    #[test]
    fn width_restriction_blocks_narrow_suspending_wide() {
        // A 1-proc job cannot suspend an 8-proc job (8 > 2×1) no matter
        // how high its priority grows; it must wait for a natural hole.
        let jobs = vec![
            Job::new(0, 0, 10_000, 10_000, 8),
            Job::new(1, 10, 60, 60, 1),
        ];
        let res = run_ss(jobs, 8, 1.5);
        let narrow = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        assert_eq!(narrow.first_start.secs(), 10_000, "no preemption allowed");
        assert_eq!(res.preemptions, 0);
    }

    #[test]
    fn without_width_restriction_narrow_preempts() {
        let jobs = vec![
            Job::new(0, 0, 10_000, 10_000, 8),
            Job::new(1, 10, 60, 60, 1),
        ];
        let mut cfg = SsConfig::ss(1.5);
        cfg.width_restriction = false;
        let res = Simulator::new(jobs, 8, Box::new(SelectiveSuspension::new(cfg))).run();
        let narrow = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        assert!(narrow.first_start.secs() < 10_000);
        assert_eq!(res.preemptions, 1);
    }

    #[test]
    fn wide_job_preempts_multiple_narrow_victims() {
        // Four 2-proc long jobs fill the machine; an 8-proc short job must
        // suspend all of them at once.
        let mut jobs: Vec<Job> = (0..4).map(|i| Job::new(i, 0, 50_000, 50_000, 2)).collect();
        jobs.push(Job::new(4, 10, 300, 300, 8));
        let res = run_ss(jobs, 8, 2.0);
        let wide = res.outcomes.iter().find(|o| o.id == JobId(4)).unwrap();
        assert!(
            wide.first_start.secs() < 50_000,
            "wide job got service via preemption"
        );
        assert_eq!(res.preemptions, 4, "all four narrow victims suspended");
        // All victims eventually resume and finish.
        assert_eq!(res.outcomes.len(), 5);
    }

    #[test]
    fn reentry_reclaims_exact_processors_by_preemption() {
        // j0 (all 8 procs, 2000 s) is preempted at the t=1260 tick by j1
        // (6 procs, est 1200: xfactor (1250+1200)/1200 ≈ 2.04 ≥ SF=2; the
        // 8-proc victim passes the width rule, 8 ≤ 2×6). In the same tick
        // j2 (2 procs, est 50000, arrived 1255, frozen xfactor ≈ 1.0001)
        // starts on the two processors j1 left over — squatting on part of
        // j0's original set. After j1 completes (t=2460), j0 still cannot
        // re-enter until its own xfactor reaches 2 × 1.0001, i.e. wait ≥
        // ~2000 s past its suspension: the t=3300 tick. Re-entry then
        // suspends the squatter and restores j0 on its exact processors.
        let jobs = vec![
            Job::new(0, 0, 2_000, 2_000, 8),
            Job::new(1, 10, 1_200, 1_200, 6),
            Job::new(2, 1_255, 50_000, 50_000, 2),
        ];
        let res = run_ss(jobs, 8, 2.0);
        assert_eq!(res.outcomes.len(), 3);
        let j0 = res.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        let j2 = res.outcomes.iter().find(|o| o.id == JobId(2)).unwrap();
        assert_eq!(j0.suspensions, 1);
        assert_eq!(j2.suspensions, 1, "re-entry suspended the squatter");
        // j0 resumed at 3300 with 740 s left (it had run [0, 1260)).
        assert_eq!(j0.completion.secs(), 3_300 + 740);
        // The squatter resumes once j0 is done.
        assert_eq!(j2.completion.secs(), 4_040 + (50_000 - (3_300 - 1_260)));
    }

    #[test]
    fn no_starvation_under_stream_of_short_jobs() {
        // A very long wide job plus a stream of short jobs: the long job's
        // growing xfactor protects it from endless preemption (each short
        // job must reach SF × its frozen priority), and it completes.
        let mut jobs = vec![Job::new(0, 0, 20_000, 20_000, 6)];
        for i in 0..40u32 {
            jobs.push(Job::new(1 + i, 100 + 500 * i as i64, 400, 400, 4));
        }
        let res = run_ss(jobs, 8, 2.0);
        assert_eq!(res.outcomes.len(), 41, "everyone finishes");
    }

    #[test]
    fn tss_limit_blocks_preemption_of_high_priority_victim() {
        // Prime the TSS limits with a completion giving the VL-Seq... use
        // static limits for determinism: category of the victim gets a
        // tiny average, so the victim becomes unpreemptible as soon as its
        // priority exceeds 1.5 × avg.
        let victim_cat = Category::classify(100_000, 8);
        let mut avgs = [f64::INFINITY; 16];
        avgs[victim_cat.index()] = 0.5; // limit = 0.75 < any xfactor (≥1)
        let cfg = SsConfig {
            sf: 2.0,
            width_restriction: true,
            migration: false,
            limits: Some(TssLimits::with_static_averages(avgs, 1.5)),
        };
        let jobs = vec![
            Job::new(0, 0, 100_000, 100_000, 8),
            Job::new(1, 1_000, 600, 600, 8),
        ];
        let res = Simulator::new(jobs, 8, Box::new(SelectiveSuspension::new(cfg))).run();
        assert_eq!(res.preemptions, 0, "limit shields the victim");
        let short = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        assert_eq!(short.first_start.secs(), 100_000);
    }

    #[test]
    fn tss_behaves_like_ss_before_any_completion() {
        // Running-average limits are infinite until a completion lands, so
        // the first preemption happens exactly as under SS.
        let jobs = vec![
            Job::new(0, 0, 100_000, 100_000, 8),
            Job::new(1, 1_000, 600, 600, 8),
        ];
        let ss = run_ss(jobs.clone(), 8, 2.0);
        let tss = Simulator::new(jobs, 8, Box::new(SelectiveSuspension::tss(2.0))).run();
        let s = |r: &crate::sim::SimResult| {
            r.outcomes
                .iter()
                .find(|o| o.id == JobId(1))
                .unwrap()
                .first_start
        };
        assert_eq!(s(&ss), s(&tss));
    }

    #[test]
    fn migration_relaxes_reentry() {
        // j0 (all 8 procs) is preempted by j1; j2 (2 procs) squats on part
        // of j0's set. Under local preemption j0 must wait or preempt the
        // squatter; with migration it cannot help here (it needs 8 of 8),
        // so use a narrower j0: 6 procs. After suspension, 6 procs are
        // free elsewhere? Machine is 12: j0 on {0..5}; j1 (12p est 1200)
        // preempts everything at its tick; j2 (4p, long) then lands on
        // {0..3} when j1 finishes (higher xfactor than j0)... With
        // migration j0 simply restarts on the 8 free processors
        // {4..11} instead of waiting for {0..5}.
        let jobs = vec![
            Job::new(0, 0, 4_000, 4_000, 6),
            Job::new(1, 10, 1_200, 1_200, 12),
            Job::new(2, 1_255, 50_000, 50_000, 4),
        ];
        let mut local_cfg = SsConfig::ss(2.0);
        local_cfg.width_restriction = false; // let j1 (12p) evict j0 (6p)
        let mut mig_cfg = local_cfg.clone();
        mig_cfg.migration = true;
        let local = Simulator::new(
            jobs.clone(),
            12,
            Box::new(SelectiveSuspension::new(local_cfg)),
        )
        .run();
        let migr = Simulator::new(jobs, 12, Box::new(SelectiveSuspension::new(mig_cfg))).run();
        let j0_local = local.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        let j0_migr = migr.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        assert!(
            j0_migr.completion <= j0_local.completion,
            "migration can only help the suspended job: migr {} vs local {}",
            j0_migr.completion.secs(),
            j0_local.completion.secs()
        );
        assert_eq!(migr.dropped_actions, 0);
        assert_eq!(migr.outcomes.len(), 3);
    }

    #[test]
    fn names_reflect_configuration() {
        assert_eq!(SelectiveSuspension::ss(2.0).name(), "SS (SF=2)");
        assert_eq!(SelectiveSuspension::tss(1.5).name(), "TSS (SF=1.5)");
        let mut cfg = SsConfig::ss(5.0);
        cfg.width_restriction = false;
        assert!(SelectiveSuspension::new(cfg)
            .name()
            .contains("no width rule"));
        let mut cfg = SsConfig::ss(2.0);
        cfg.migration = true;
        assert!(SelectiveSuspension::new(cfg).name().contains("migration"));
    }
}
