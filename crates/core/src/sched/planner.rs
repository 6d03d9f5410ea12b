//! The shared preemption planner: the machinery every policy's `decide`
//! re-implemented before it lived here.
//!
//! Policies plan against a *mirror* of machine state so several decisions
//! in one instant stay consistent: a planned start consumes mirrored free
//! processors, a planned suspension returns the victim's. This module
//! provides the pieces of that mirror that were duplicated across SS, TSS,
//! IS, EASY, conservative, and flex, all driven by the incremental kernel
//! structures ([`crate::sim::SchedIndex`] and the simulator's availability
//! ledger) instead of per-decide job-table scans:
//!
//! * [`DecideArena`] — policy-owned scratch buffers so the decide path
//!   performs no transient heap allocation (the only allocations left are
//!   the `ProcSet`s handed out inside emitted actions),
//! * [`working_free_set_into`] — the planning free pool (free ∪ draining),
//! * [`pinned_claims_into`] — the re-entry reservations of suspended jobs,
//! * [`VictimTable`] — a reusable POD mirror of the running jobs for
//!   victim scans (processor sets are fetched from simulator state on
//!   demand — the entries carry no borrows, so the table persists across
//!   decides inside the arena),
//! * [`alloc_avoiding_in`] — claim-aware placement for fresh dispatches,
//! * [`ReservationLadder`] — the anchor-search/backfill view of the
//!   availability profile shared by the reservation-based baselines,
//!   rebuilt in place each decide.

use sps_cluster::{ProcSet, Profile, SpeedMap};
use sps_simcore::SimTime;
use sps_workload::{Job, JobId};

use crate::sim::SimState;

/// Fill `dst` with the planning free pool: processors free now *plus*
/// those whose suspension drain is already in flight. Draining processors
/// are promised back within one drain time, and a planner that ignores
/// them re-suspends a fresh victim at every tick of a long drain (the
/// simulator drops actions that race a pending drain; the policy
/// re-decides at the drain-done instant).
pub(crate) fn working_free_set_into(state: &SimState, dst: &mut ProcSet) {
    dst.copy_from(state.free_set());
    dst.union_with(state.draining_set());
}

/// The owned form of [`working_free_set_into`], for callers without an
/// arena.
pub(crate) fn working_free_set(state: &SimState) -> ProcSet {
    let mut free = state.free_set().clone();
    free.union_with(state.draining_set());
    free
}

/// Fill `dst` with the union of the processor claims of suspended jobs
/// that are pinned to their original processors (local preemption). A
/// suspended job can only restart on its claimed set, so the union acts
/// as a placement reservation for fresh dispatches. Jobs the
/// fault-recovery policy marked for remapping claim nothing — they may
/// restart anywhere. `dst` must already be cleared to the machine
/// universe.
pub(crate) fn pinned_claims_into(state: &SimState, dst: &mut ProcSet) {
    debug_assert!(dst.is_empty() && dst.universe() == state.total_procs());
    for &sid in state.suspended() {
        if state.can_remap(sid) {
            continue;
        }
        dst.union_with(
            state
                .assigned_set(sid)
                .expect("suspended job keeps its set"),
        );
    }
}

/// One running job in a policy's planning mirror — plain data (no borrow
/// of the job's processor set), so tables of victims can persist across
/// decides. Callers needing the set fetch it through
/// [`SimState::assigned_set`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Victim {
    pub id: JobId,
    /// The policy's suspension priority for this job (xfactor for SS/TSS,
    /// instantaneous xfactor for IS), frozen at mirror construction.
    pub prio: f64,
    pub procs: u32,
}

/// The running-job mirror used for victim scans. Entries start in
/// dispatch order (the simulator's running-queue order); policies that
/// scan cheapest-victim-first call [`VictimTable::sort_ascending`].
#[derive(Clone, Debug, Default)]
pub(crate) struct VictimTable {
    pub entries: Vec<Victim>,
}

impl VictimTable {
    /// Mirror every running job into the reused entry buffer, with `prio`
    /// as its suspension priority.
    pub fn fill_running(&mut self, state: &SimState, prio: impl Fn(JobId) -> f64) {
        self.entries.clear();
        self.entries
            .extend(state.running().iter().map(|&id| Victim {
                id,
                prio: prio(id),
                procs: state.width(id),
            }));
    }

    /// Order by ascending priority (ids break ties deterministically):
    /// the cheapest victims come first, and a scan may stop at the first
    /// entry whose priority disqualifies it.
    pub fn sort_ascending(&mut self) {
        self.entries
            .sort_by(|a, b| a.prio.total_cmp(&b.prio).then(a.id.cmp(&b.id)));
    }

    /// Remove the entries at `indices` (any order), feeding each removed
    /// victim to `f`; `indices` is drained for reuse. Uses
    /// descending-index `swap_remove`, so surviving entries may be
    /// reordered — callers that rely on a sorted mirror re-sort
    /// afterwards.
    pub fn remove_all(&mut self, indices: &mut Vec<usize>, mut f: impl FnMut(Victim)) {
        indices.sort_unstable_by(|a, b| b.cmp(a));
        for idx in indices.drain(..) {
            f(self.entries.swap_remove(idx));
        }
    }
}

/// Scratch sets for [`alloc_avoiding_in`], reused across calls. The
/// sets self-size on first use ([`ProcSet::copy_from`] adopts the source
/// universe), so the zero-universe default is fine.
#[derive(Clone, Debug)]
pub(crate) struct AllocScratch {
    avoid: ProcSet,
    preferred: ProcSet,
    rest: ProcSet,
}

impl Default for AllocScratch {
    fn default() -> Self {
        AllocScratch {
            avoid: ProcSet::empty(0),
            preferred: ProcSet::empty(0),
            rest: ProcSet::empty(0),
        }
    }
}

/// Policy-owned scratch for the decide path. Everything a decide
/// allocates transiently — the planning free pool, the blocked/reserved
/// claim sets, the victim mirror, index lists, the idle priority list —
/// lives here and is reused across calls, so steady-state decides touch
/// the allocator only for the `ProcSet`s they emit inside actions.
///
/// [`DecideArena::reset`] re-clears every buffer for a new decide and
/// re-sizes the processor sets if the machine universe changed (it never
/// does mid-run; the check makes the arena safe to carry across runs on
/// different machines).
#[derive(Clone, Debug)]
pub(crate) struct DecideArena {
    /// The mirrored planning free pool (free ∪ draining).
    pub free: ProcSet,
    /// Claims of higher-priority suspended jobs not yet placeable.
    pub blocked: ProcSet,
    /// All suspended claims — a placement *preference*, not a bar.
    pub reserved: ProcSet,
    /// Re-entry scan: needed processors not currently free.
    pub missing: ProcSet,
    /// Re-entry scan: processors covered by qualifying victims.
    pub covered: ProcSet,
    /// Victim/candidate index list (dead between loop iterations).
    pub indices: Vec<usize>,
    /// Chosen-victim index list (alive together with `indices`).
    pub chosen: Vec<usize>,
    /// The (priority, id) idle list, rebuilt every decide.
    pub idle: Vec<(f64, JobId)>,
    /// Victim-qualification bars (SF × running xfactor), ascending.
    pub bars: Vec<f64>,
    /// The running-job victim mirror.
    pub table: VictimTable,
    /// Scratch for claim-aware placement.
    pub alloc: AllocScratch,
}

impl Default for DecideArena {
    fn default() -> Self {
        DecideArena {
            free: ProcSet::empty(0),
            blocked: ProcSet::empty(0),
            reserved: ProcSet::empty(0),
            missing: ProcSet::empty(0),
            covered: ProcSet::empty(0),
            indices: Vec::new(),
            chosen: Vec::new(),
            idle: Vec::new(),
            bars: Vec::new(),
            table: VictimTable::default(),
            alloc: AllocScratch::default(),
        }
    }
}

impl DecideArena {
    /// Clear every buffer for a fresh decide against a `total`-processor
    /// machine.
    pub fn reset(&mut self, total: u32) {
        for set in [
            &mut self.free,
            &mut self.blocked,
            &mut self.reserved,
            &mut self.missing,
            &mut self.covered,
        ] {
            if set.universe() != total {
                *set = ProcSet::empty(total);
            } else {
                set.clear();
            }
        }
        self.indices.clear();
        self.chosen.clear();
        self.idle.clear();
        self.table.entries.clear();
    }
}

/// Choose `need` processors out of `free ∖ blocked`, preferring ones
/// outside `reserved`.
///
/// * `blocked` is a hard constraint: the claims of higher-priority
///   suspended jobs that could not be placed this instant. Handing those
///   out would let lower-priority squatters rotate through the claim and
///   starve its owner.
/// * `reserved` is a soft preference: all suspended claims. A suspended
///   job can only restart on its original processors, so giving them to
///   fresh arrivals forces a reassembly preemption later — under backlog
///   that cascades into suspension storms and a serialized tail.
///
/// Returns `None` if fewer than `need` unblocked processors exist. The
/// returned set is the only allocation: intermediate set algebra runs in
/// `scratch`, and the common case (enough unreserved processors) carves
/// the answer in one word-level pass with no intermediate set
/// materialized at all.
///
/// On a heterogeneous machine with a speed-aware [`SpeedMap`] the picks
/// within each preference class are fastest-first rather than
/// lowest-index-first: the job's gang rate is the minimum speed of its
/// set, so maximizing that minimum shortens the dispatch. A uniform (or
/// placement-blind) map degenerates to the homogeneous order exactly.
pub(crate) fn alloc_avoiding_in(
    free: &ProcSet,
    blocked: &ProcSet,
    reserved: &ProcSet,
    need: u32,
    speed: &SpeedMap,
    scratch: &mut AllocScratch,
) -> Option<ProcSet> {
    // Fast path: enough processors that are neither blocked nor reserved.
    scratch.avoid.copy_from(blocked);
    scratch.avoid.union_with(reserved);
    if let Some(set) = speed.take_fastest_excluding(free, &scratch.avoid, need) {
        return Some(set);
    }
    // Not enough unreserved processors: take all of them plus the fewest
    // possible reserved (but never blocked) ones.
    scratch.preferred.copy_from(free);
    scratch.preferred.subtract(&scratch.avoid);
    let have = scratch.preferred.count();
    scratch.rest.copy_from(free);
    scratch.rest.subtract(blocked);
    scratch.rest.subtract(&scratch.preferred);
    let mut set = speed.take_fastest(&scratch.rest, need - have)?;
    set.union_with(&scratch.preferred);
    Some(set)
}

/// The anchor-search view of the availability profile shared by the
/// reservation-based baselines (conservative, EASY, flex): reservations
/// are booked in priority order against a profile that starts from the
/// simulator's incrementally-maintained release ledger. The ladder is
/// policy-owned and [`rebuilt`](ReservationLadder::rebuild) in place each
/// decide, reusing the profile's breakpoint buffer.
#[derive(Clone, Debug)]
pub(crate) struct ReservationLadder {
    profile: Profile,
    now: SimTime,
}

impl Default for ReservationLadder {
    fn default() -> Self {
        ReservationLadder {
            profile: Profile::empty(),
            now: SimTime::new(0),
        }
    }
}

impl ReservationLadder {
    /// Rematerialize the ladder over the current availability profile,
    /// reusing the breakpoint buffer.
    pub fn rebuild(&mut self, state: &SimState) {
        state.profile_into(&mut self.profile);
        self.now = state.now();
    }

    /// Book the earliest reservation for `job` consistent with everything
    /// booked so far; returns its guaranteed start time (`now` means the
    /// job can start immediately).
    pub fn reserve(&mut self, job: &Job) -> SimTime {
        self.profile
            .reserve_earliest(job.procs, job.estimate, self.now)
            .expect("every job fits an empty machine eventually")
            .start
    }

    /// Whether `job` can start *now* without delaying any booked
    /// reservation — i.e. its earliest anchor against the current profile
    /// is the present instant. If so, its occupancy is booked.
    pub fn try_backfill_now(&mut self, job: &Job) -> bool {
        if self.profile.find_anchor(job.procs, job.estimate, self.now) == Some(self.now) {
            self.profile.reserve(self.now, job.estimate, job.procs);
            true
        } else {
            false
        }
    }

    /// Book the occupancy of a start decided earlier this instant (EASY's
    /// phase-1 starts occupy processors until their estimates).
    pub fn book_start_now(&mut self, job: &Job) {
        self.profile.reserve(self.now, job.estimate, job.procs);
    }

    /// EASY's shadow computation for the blocked head job: the earliest
    /// time `job` fits (its reservation anchor) and the *extra*
    /// processors — those free at the shadow beyond what the head needs,
    /// available to arbitrarily long backfillers.
    pub fn shadow(&self, job: &Job) -> Option<(SimTime, u32)> {
        let shadow = self
            .profile
            .find_anchor(job.procs, job.estimate, self.now)?;
        let extra = self.profile.avail_at(shadow).saturating_sub(job.procs);
        Some((shadow, extra))
    }
}
