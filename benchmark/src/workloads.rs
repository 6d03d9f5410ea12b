//! The three workloads: what each sweeps, how its inputs derive from the
//! seed, and how one of its runs is rebuilt from public parts.
//!
//! * `paper_grid` — the paper's own Section VI experiment: closed SDSC
//!   synthetic traces, {NS, IS, SS 1.5/2/5, TSS 1.5/2/5} × loads
//!   {0.7, 1.0, 1.3} × 5 seeds through [`run_sweep`]. The kernel does
//!   nearly all the work; the trace cache serves most trace requests.
//! * `swf_stream` — [`run_mega_sweep`] over a chunk-written SDSC SWF log,
//!   {NS, SS 2} × loads {0.7, 1.0}, paper-mixture estimates, lean and
//!   streaming: the only workload carried by the SWF parser, source
//!   shaping and slot trimming. The cache is bypassed.
//! * `open_faults` — MMPP open arrivals (mean load 0.6, 3× bursts, 4 h
//!   dwell) until a completed-job count, 6 h warmup, processor faults
//!   with resubmit, checkpoint preemption and telemetry on,
//!   {SS 2, TSS 2, NS} × 4 reps: the only workload running the open
//!   generator, fault delivery, checkpoint accounting, the windowed fold
//!   and the health detectors.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use sps_core::checkpoint::{CheckpointModel, PreemptionMode};
use sps_core::experiment::{ConfigError, ExperimentConfig, SchedulerKind};
use sps_core::faults::{FaultModel, RecoveryPolicy};
use sps_core::sweep::{run_sweep, RunSummary, SweepReport, SweepSpec};
use sps_core::{run_mega_sweep, MegaSweepSpec, RunBuilder, RunUntil, SimResult};
use sps_telemetry::{SpanProfiler, Telemetry};
use sps_workload::traces::{SystemPreset, SDSC};
use sps_workload::{
    swf, ArrivalSpec, EstimateModel, JobSource, ShapedSource, StreamingSwfSource, TraceCache,
};

/// Which workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    PaperGrid,
    SwfStream,
    OpenFaults,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PaperGrid, Kind::SwfStream, Kind::OpenFaults];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperGrid => "paper_grid",
            Kind::SwfStream => "swf_stream",
            Kind::OpenFaults => "open_faults",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input size. `Full` is what the benchmark measures; `Tiny` keeps every
/// axis and mechanism but shrinks the inputs, for the self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Spacing of the base seeds of consecutive benchmark seeds; larger than
/// any grid's replication count.
const SEED_STRIDE: u64 = 64;
/// Jobs per synthetic `paper_grid` trace.
const GRID_JOBS: [usize; 2] = [5_000, 200];
/// Jobs in the `swf_stream` log.
const LOG_JOBS: [usize; 2] = [600_000, 3_000];
/// Jobs per `write_chunked` batch when writing the log.
const LOG_CHUNK: usize = 10_000;
/// Completed jobs after which each `open_faults` run stops.
const OPEN_JOBS: [usize; 2] = [8_000, 400];
/// Seed replications per `open_faults` cell.
const OPEN_REPS: [usize; 2] = [4, 1];
/// `open_faults` warmup window: 6 h.
const OPEN_WARMUP: i64 = 6 * 3_600;

fn pick<T: Copy>(size: Size, v: [T; 2]) -> T {
    match size {
        Size::Full => v[0],
        Size::Tiny => v[1],
    }
}

/// The processor-fault model of `open_faults`: per-processor MTBF of
/// 1 M s (dense enough to bite within a run), 1 h repair, resubmit.
fn open_faults_model(seed: u64) -> FaultModel {
    FaultModel::proc_faults(1_000_000, 3_600, seed).with_recovery(RecoveryPolicy::Resubmit)
}

/// The `mmpp:0.6,3,4h` arrival process of `open_faults`: bursts offer
/// 0.9 of the machine. At a mean load of 1.0 the bursts, faults and
/// checkpoint traffic overload it, the backlog grows without bound, and
/// the cost per job swings with each seed's burst history (throughput
/// varied 1.6x across seeds), which no benchmark run can hold steady.
pub fn open_arrivals() -> ArrivalSpec {
    ArrivalSpec::Mmpp {
        load: Some(0.6),
        burst: 3.0,
        dwell: 4 * 3_600,
    }
}

/// One workload's sweep, built and validated.
pub enum Plan {
    /// A synthetic or open-system grid through [`run_sweep`].
    Sweep(Box<SweepSpec>),
    /// A streaming SWF grid through [`run_mega_sweep`].
    Mega(MegaSweepSpec),
}

/// Everything a workload needs before its timed call.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub plan: Plan,
    /// The configuration of every run, cell-major (the order sweeps
    /// expand and regroup in).
    pub configs: Vec<Arc<ExperimentConfig>>,
    /// Jobs each run completes (the trace length, the log length, or the
    /// open-system stop count).
    pub jobs_per_run: usize,
}

impl Workload {
    /// Build and validate the workload. For `swf_stream` this writes the
    /// log to `log` first — the set-up the metric `setup_s` times.
    pub fn prepare(kind: Kind, seed: u64, size: Size, log: &Path) -> Result<Workload, String> {
        // Replication `r` of a grid runs on `base + r`; spacing the bases
        // keeps the runs of two benchmark seeds from sharing inputs.
        let base = seed.wrapping_mul(SEED_STRIDE);
        let (plan, jobs_per_run) = match kind {
            Kind::PaperGrid => {
                let jobs = pick(size, GRID_JOBS);
                let spec = SweepSpec::new(SDSC)
                    .with_schedulers(vec![
                        SchedulerKind::Easy,
                        SchedulerKind::ImmediateService,
                        SchedulerKind::Ss { sf: 1.5 },
                        SchedulerKind::Ss { sf: 2.0 },
                        SchedulerKind::Ss { sf: 5.0 },
                        SchedulerKind::Tss { sf: 1.5 },
                        SchedulerKind::Tss { sf: 2.0 },
                        SchedulerKind::Tss { sf: 5.0 },
                    ])
                    .with_loads(vec![0.7, 1.0, 1.3])
                    .with_jobs(jobs)
                    .with_seed(base)
                    .with_reps(5);
                (Plan::Sweep(Box::new(spec)), jobs)
            }
            Kind::SwfStream => {
                let jobs = pick(size, LOG_JOBS);
                swf::write_chunked(log, SDSC, base, jobs, LOG_CHUNK)
                    .map_err(|e| format!("cannot write SWF log {}: {e}", log.display()))?;
                let spec = MegaSweepSpec::new(log, SDSC.procs)
                    .with_schedulers(vec![SchedulerKind::Easy, SchedulerKind::Ss { sf: 2.0 }])
                    .with_loads(vec![0.7, 1.0])
                    .with_seed(base)
                    .with_reps(1)
                    .with_estimates(Some(EstimateModel::paper_mixture()));
                (Plan::Mega(spec), jobs)
            }
            Kind::OpenFaults => {
                let jobs = pick(size, OPEN_JOBS);
                let spec = SweepSpec::new(SDSC)
                    .with_schedulers(vec![
                        SchedulerKind::Ss { sf: 2.0 },
                        SchedulerKind::Tss { sf: 2.0 },
                        SchedulerKind::Easy,
                    ])
                    .with_arrivals(open_arrivals())
                    .with_until(RunUntil::Jobs(jobs))
                    .with_warmup(OPEN_WARMUP)
                    .with_faults(open_faults_model(base ^ 0x5eed))
                    .with_preemption(PreemptionMode::Checkpoint)
                    .with_checkpoint(CheckpointModel::paper())
                    .with_telemetry(true)
                    .with_estimates(EstimateModel::paper_mixture())
                    .with_seed(base)
                    .with_reps(pick(size, OPEN_REPS));
                (Plan::Sweep(Box::new(spec)), jobs)
            }
        };
        plan.validate()
            .map_err(|e| format!("invalid {} grid: {e}", kind.name()))?;
        let configs = plan.expand().into_iter().map(Arc::new).collect();
        Ok(Workload {
            kind,
            seed,
            plan,
            configs,
            jobs_per_run,
        })
    }

    /// Runs per sweep.
    pub fn runs(&self) -> usize {
        self.configs.len()
    }

    /// Whether this workload's runs carry a telemetry sink.
    pub fn telemetry(&self) -> bool {
        matches!(&self.plan, Plan::Sweep(s) if s.telemetry)
    }

    /// The timed call: one whole sweep on `threads` workers.
    pub fn sweep(&self, threads: usize) -> Result<SweepReport, ConfigError> {
        match &self.plan {
            Plan::Sweep(spec) => run_sweep(spec, threads),
            Plan::Mega(spec) => run_mega_sweep(spec, threads),
        }
    }

    /// The SWF log, for the streaming workload.
    pub fn log(&self) -> Option<&Path> {
        match &self.plan {
            Plan::Mega(spec) => Some(&spec.swf),
            Plan::Sweep(_) => None,
        }
    }

    /// A builder for one run of this workload, wired exactly as the sweep
    /// engine wires it: closed cells pull their trace through `cache`,
    /// open cells build their generator inside the builder, streaming
    /// cells open the log and shape it.
    pub fn builder(&self, cfg: &Arc<ExperimentConfig>, cache: &TraceCache) -> RunBuilder {
        match &self.plan {
            Plan::Sweep(spec) => {
                let mut b = RunBuilder::new(Arc::clone(cfg))
                    .until(spec.until)
                    .warmup(spec.warmup)
                    .lean(spec.lean);
                if cfg.arrivals.is_trace() {
                    b = b.source(Box::new(cache.source(cfg.trace_key(), || cfg.trace())));
                }
                b
            }
            Plan::Mega(spec) => RunBuilder::new(Arc::clone(cfg))
                .source(self.stream_source(cfg, spec))
                .lean(true),
        }
    }

    fn stream_source(&self, cfg: &ExperimentConfig, spec: &MegaSweepSpec) -> Box<dyn JobSource> {
        let log = StreamingSwfSource::open(&spec.swf)
            .unwrap_or_else(|e| panic!("cannot open {}: {e}", spec.swf.display()))
            .with_readahead(spec.readahead);
        Box::new(ShapedSource::new(
            log,
            cfg.load_factor,
            spec.estimates,
            cfg.seed,
            spec.procs,
        ))
    }

    /// One run of this workload as the sweep runs it. `telemetry` turns
    /// the telemetry sink on or off, `profiler` attaches the span
    /// profiler.
    pub fn simulate(
        &self,
        cfg: &Arc<ExperimentConfig>,
        cache: &TraceCache,
        telemetry: bool,
        profiler: bool,
    ) -> SimResult {
        let mut b = self.builder(cfg, cache);
        if profiler {
            b = b.profiler(SpanProfiler::new());
        }
        if telemetry {
            let mut tel = Telemetry::new();
            b.telemetry(&mut tel).simulate()
        } else {
            b.simulate()
        }
    }
}

impl Plan {
    fn validate(&self) -> Result<(), ConfigError> {
        match self {
            Plan::Sweep(s) => s.validate(),
            Plan::Mega(s) => s.validate(),
        }
    }

    /// Cell-major expansion. The mega spec keeps its own private; this
    /// rebuilds it from the spec's public fields the same way, and the
    /// digest checks prove the two agree.
    fn expand(&self) -> Vec<ExperimentConfig> {
        match self {
            Plan::Sweep(s) => s.expand(),
            Plan::Mega(s) => {
                let preset = SystemPreset {
                    name: "SWF",
                    procs: s.procs,
                    max_width: s.procs,
                    ..SDSC
                };
                let mut out = Vec::with_capacity(s.runs());
                for &scheduler in &s.schedulers {
                    for &load in &s.loads {
                        for rep in 0..s.reps {
                            out.push(
                                ExperimentConfig::new(preset, scheduler)
                                    .with_jobs(1)
                                    .with_seed(s.base_seed + rep as u64)
                                    .with_load_factor(load)
                                    .with_overhead(s.overhead)
                                    .with_tick_period(s.tick_period),
                            );
                        }
                    }
                }
                out
            }
        }
    }

    /// Grid axes: schedulers, loads, replications.
    pub fn axes(&self) -> (&[SchedulerKind], &[f64], usize) {
        match self {
            Plan::Sweep(s) => (&s.schedulers, &s.loads, s.reps),
            Plan::Mega(s) => (&s.schedulers, &s.loads, s.reps),
        }
    }
}

/// Jobs a finished run completed, whether it kept outcomes or folded
/// them lean.
pub fn completed(sim: &SimResult) -> usize {
    sim.lean
        .as_ref()
        .map_or(sim.outcomes.len(), |fold| fold.count())
}

/// Runs of a sweep that count as failed: panicked, invalid,
/// budget-skipped (all in `failures`) and watchdog-aborted.
pub fn failed_runs(report: &SweepReport) -> usize {
    report.failures.len() + report.cells.iter().map(|c| c.aborted).sum::<usize>()
}

/// Digest of a sweep's per-cell results: FNV-1a over the cells' debug
/// rendering, which prints every float in full (shortest round-trip
/// form). Wall-clock fields live outside the cells, so equal inputs give
/// equal digests on any thread count.
pub fn digest(report: &SweepReport) -> u64 {
    fnv1a(format!("{:?}", report.cells).as_bytes())
}

/// Rebuild a sweep report's cells from per-run summaries in cell-major
/// order, the way the sweep engine regroups them.
pub fn cells_from_summaries(plan: &Plan, summaries: &[RunSummary]) -> SweepReport {
    let (schedulers, loads, reps) = plan.axes();
    let mut chunks = summaries.chunks_exact(reps);
    let mut cells = Vec::new();
    for &scheduler in schedulers {
        for &load in loads {
            let chunk = chunks.next().expect("one summary per run");
            cells.push(sps_core::sweep::CellStats::from_summaries(
                scheduler, load, chunk, 0,
            ));
        }
    }
    SweepReport {
        cells,
        runs: summaries.len(),
        failures: Vec::new(),
        skipped: 0,
        panicked: 0,
        unique_traces: 0,
        trace_hits: 0,
        wall_micros: 0,
        workers: Vec::new(),
        worker_spans: Vec::new(),
        run_spans: Vec::new(),
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Scratch directory for this process's files (the SWF log, the JSONL
/// trace), inside the directory the benchmark runs from.
pub fn work_dir() -> PathBuf {
    PathBuf::from(WORK_ROOT).join(std::process::id().to_string())
}

/// Parent of every run's scratch directory.
pub const WORK_ROOT: &str = ".bench_work";
