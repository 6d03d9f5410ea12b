//! The traced pass: a per-layer ledger of one workload.
//!
//! The ledger adds no tracing inside the program. It times calls into
//! each layer's public functions from here — spans around trace
//! generation, `RunBuilder::simulate`, `RunSummary::fold` and the report
//! renderers — and turns on the program's own `SpanProfiler` for the
//! kernel's phase totals. Every layer is measured on the workload's own
//! inputs; where the workload's timed sweep does not run a layer, the
//! ledger says so next to the number.
//!
//! Each per-layer metric names the end-to-end metric it should move, on
//! which workload, and where it should not move ([`NOTES`]).

use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sps_core::checkpoint::PreemptionMode;
use sps_core::experiment::{ExperimentConfig, SchedulerKind};
use sps_core::sweep::{RunSummary, SweepReport};
use sps_telemetry::SpanPhase;
use sps_workload::traces::SDSC;
use sps_workload::{
    swf, EstimateModel, Job, JobSource, ShapedSource, StreamingSwfSource, SyntheticConfig,
    TraceCache, TraceSource,
};

use crate::workloads::{
    cells_from_summaries, completed, digest, failed_runs, open_arrivals, Kind, Size, Workload,
};
use crate::{
    host_cores, median, no_failures, quantile, same_digests, set_up, trace_check, Metric, Outcome,
    THREADS,
};

/// Plain sweeps timed for the ledger's wall-clock denominators.
const SWEEP_REPS: usize = 3;
/// Repetitions of each isolated layer timing (median reported).
const LAYER_REPS: usize = 3;

/// Where a layer sits relative to a workload's timed sweep.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Runs inside the timed sweep.
    Timed,
    /// Runs in the workload's set-up, before the timed call.
    Setup,
    /// Not run by this workload; measured on its inputs in isolation.
    Bypassed(&'static str),
}

/// The layer→end-to-end map: for each per-layer metric, its layer, the
/// end-to-end metric it should move and on which workload, and where it
/// should not move.
const NOTES: &[(&str, &str, &str)] = &[
    ("workload.swf_parse_ns_per_job", "workload", "jobs_per_s on swf_stream; no change elsewhere"),
    ("workload.shape_ns_per_job", "workload", "jobs_per_s on swf_stream; no change elsewhere"),
    ("workload.synthetic_ns_per_job", "workload", "jobs_per_s on paper_grid (below 1% of its wall today); setup_s on swf_stream"),
    ("workload.cache_hit_ratio", "workload", "jobs_per_s on paper_grid (base: workload.trace_requests); bypassed elsewhere"),
    ("workload.trace_requests", "workload", "base of workload.cache_hit_ratio"),
    ("workload.open_ns_per_job", "workload", "jobs_per_s on open_faults; no change elsewhere"),
    ("sim.events", "sim", "exact count; jobs_per_s on every workload"),
    ("sim.decides", "sim", "exact count; fewer decides raise jobs_per_s on paper_grid; no change on NS cells of swf_stream"),
    ("sim.decides_per_event", "sim", "jobs_per_s on paper_grid (ROADMAP item 5)"),
    ("sim.preemptions", "sim", "exact count; schedule-defining, moves with the policy only"),
    ("sim.reclaimed_slots", "sim", "peak_rss_mb on swf_stream; zero on non-lean workloads"),
    ("sim.events_per_s", "sim", "jobs_per_s on every workload"),
    ("sim.run_ms_p50", "sim", "jobs_per_s on every workload"),
    ("sim.run_ms_p90", "sim", "jobs_per_s on swf_stream (stragglers decide its wall)"),
    ("sim.run_samples", "sim", "sample count of the run-time quantiles"),
    ("sim.event_drain_s", "sim", "jobs_per_s on every workload"),
    ("sim.decide_s", "sim", "jobs_per_s on paper_grid; no change on NS cells of swf_stream"),
    ("sim.dispatch_s", "sim", "jobs_per_s on every workload"),
    ("sim.lifecycle_s", "sim", "jobs_per_s on swf_stream and open_faults (source pulls)"),
    ("sim.checkpoint_io_s", "sim", "jobs_per_s on open_faults only"),
    ("sim.profiler_overhead", "sim", "no end-to-end metric (profiler is off in timed sweeps); ROADMAP item 1 wants <= 0.15"),
    ("metrics.fold_ns_per_run", "metrics", "jobs_per_s on paper_grid; ~1% of kernel time, so merging the fold paths should move no end-to-end metric"),
    ("sweep.worker_busy_share", "sweep", "jobs_per_s on swf_stream (few long runs, stragglers); less on paper_grid"),
    ("sweep.steal_success_ratio", "sweep", "jobs_per_s on swf_stream; less on paper_grid (base: sweep.steals_attempted)"),
    ("sweep.steals_attempted", "sweep", "base of sweep.steal_success_ratio"),
    ("sweep.render_ms", "sweep", "jobs_per_s on every workload, negligibly"),
    ("sweep.unattributed_share", "sweep", "share of sweep wall x workers not covered by the layer spans"),
    ("sweep.scaling_2w", "sweep", "measured 1-worker wall / 2-worker wall; jobs_per_s on every workload"),
    ("telemetry.overhead", "telemetry", "jobs_per_s on open_faults only"),
    ("trace.records", "trace", "size of the validated JSONL cell"),
    ("trace.validate_ms", "trace", "no end-to-end metric (output check only)"),
    ("trace.overhead", "trace", "benchmark-side spans: traced harness wall / plain sweep wall - 1"),
];

/// One run of the harness, with the benchmark-side span durations.
struct RunSpans {
    gen_ns: u64,
    gen_jobs: usize,
    sim_ns: u64,
    fold_ns: u64,
    summary: RunSummary,
    completed: usize,
    events: u64,
    decides: u64,
    preemptions: u64,
    reclaimed: u64,
}

/// Map `f` over `0..n` on `threads` scoped workers pulling indices from a
/// shared counter; results come back in index order.
fn par_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, T)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.clamp(1, n.max(1)))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("ledger worker panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, t)| t).collect()
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Median nanoseconds per item of `LAYER_REPS` runs of `f`, which
/// returns how many items it processed.
fn ns_per_item(mut f: impl FnMut() -> usize) -> f64 {
    let per: Vec<f64> = (0..LAYER_REPS)
        .map(|_| {
            let t = Instant::now();
            let n = f();
            ns(t) as f64 / n.max(1) as f64
        })
        .collect();
    median(&per)
}

/// Pull every job out of `src`, returning the count.
fn drain(mut src: impl JobSource) -> usize {
    let mut n = 0;
    while let Some(job) = src.next_job() {
        std::hint::black_box(job);
        n += 1;
    }
    n
}

/// Jobs pulled from the open generator per timing.
const OPEN_PULLS: [usize; 2] = [20_000, 2_000];

/// The workload layer on this workload's inputs: synthetic generation,
/// SWF parsing, source shaping and open-arrival generation, in ns per
/// job. `grid_gen` is the in-path generation time and job count the
/// harness measured (paper_grid only).
fn feed_layers(w: &Workload, size: Size, grid_gen: (u64, usize)) -> [f64; 4] {
    let gen_jobs = match size {
        Size::Full => 5_000,
        Size::Tiny => 200,
    };
    let generate = || {
        SyntheticConfig::new(SDSC, w.seed)
            .with_jobs(gen_jobs)
            .generate()
    };
    let synthetic = if w.kind == Kind::PaperGrid {
        grid_gen.0 as f64 / grid_gen.1.max(1) as f64
    } else {
        ns_per_item(|| generate().len())
    };

    // SWF parse: the workload's own log, or its synthetic trace rendered
    // as SWF text and parsed from memory.
    let (swf_parse, parsed): (f64, Vec<Job>) = match w.log() {
        Some(log) => {
            let open = || StreamingSwfSource::open(log).expect("log written at set-up");
            let per = ns_per_item(|| drain(open()));
            let mut src = open();
            (per, std::iter::from_fn(|| src.next_job()).collect())
        }
        None => {
            let jobs = if w.kind == Kind::PaperGrid {
                w.configs[0].trace()
            } else {
                generate()
            };
            let text = swf::write(&jobs);
            let reader = || StreamingSwfSource::from_reader(Cursor::new(text.as_bytes()), "bench");
            let per = ns_per_item(|| drain(reader()));
            let mut src = reader();
            (per, std::iter::from_fn(|| src.next_job()).collect())
        }
    };

    // Shaping alone, over the parsed jobs held in memory.
    let cfg = &w.configs[0];
    let shape = ns_per_item(|| {
        drain(ShapedSource::new(
            TraceSource::new(parsed.clone()),
            cfg.load_factor,
            Some(EstimateModel::paper_mixture()),
            cfg.seed,
            SDSC.procs,
        ))
    });

    // The open generator: the workload's own, or the open_faults process
    // seeded from this workload's seed.
    let pulls = match size {
        Size::Full => OPEN_PULLS[0],
        Size::Tiny => OPEN_PULLS[1],
    };
    // Only the pulls are timed: construction calibrates the arrival rate
    // once per run and is not a per-job cost.
    let per: Vec<f64> = (0..LAYER_REPS)
        .map(|_| {
            let mut src = cfg.open_source().unwrap_or_else(|| {
                open_arrivals()
                    .build(SDSC, w.seed, 1.0, EstimateModel::paper_mixture())
                    .expect("mmpp is an open process")
            });
            let t = Instant::now();
            for _ in 0..pulls {
                std::hint::black_box(src.next_job());
            }
            ns(t) as f64 / pulls as f64
        })
        .collect();
    let open = median(&per);
    [synthetic, swf_parse, shape, open]
}

/// A profiled run of `cfg` under checkpoint preemption: the checkpoint
/// phase total of a workload that does not checkpoint itself.
fn checkpoint_probe(w: &Workload, cfg: &Arc<ExperimentConfig>) -> f64 {
    let probe = Arc::new((**cfg).clone().with_preemption(PreemptionMode::Checkpoint));
    let sim = w.simulate(&probe, &TraceCache::new(), w.telemetry(), true);
    sim.kernel
        .phases
        .map_or(0.0, |p| p.total_ns(SpanPhase::CheckpointIo) as f64 * 1e-9)
}

fn path_of(kind: Kind, metric: &str) -> Path {
    let layer = metric.split('.').next().unwrap_or("");
    match (metric, kind) {
        ("workload.swf_parse_ns_per_job" | "workload.shape_ns_per_job", Kind::SwfStream) => {
            Path::Timed
        }
        ("workload.swf_parse_ns_per_job" | "workload.shape_ns_per_job", _) => {
            Path::Bypassed("no SWF log; measured on this workload's trace rendered as SWF")
        }
        ("workload.synthetic_ns_per_job", Kind::PaperGrid) => Path::Timed,
        ("workload.synthetic_ns_per_job", Kind::SwfStream) => Path::Setup,
        ("workload.synthetic_ns_per_job", Kind::OpenFaults) => {
            Path::Bypassed("open arrivals; measured on a closed SDSC trace of this seed")
        }
        ("workload.cache_hit_ratio" | "workload.trace_requests", Kind::PaperGrid) => Path::Timed,
        ("workload.cache_hit_ratio" | "workload.trace_requests", _) => {
            Path::Bypassed("no closed synthetic traces, so no trace cache")
        }
        ("workload.open_ns_per_job", Kind::OpenFaults) => Path::Timed,
        ("workload.open_ns_per_job", _) => {
            Path::Bypassed("closed workload; measured on the open_faults generator at this seed")
        }
        ("sim.checkpoint_io_s", Kind::OpenFaults) => Path::Timed,
        ("sim.checkpoint_io_s", _) => {
            Path::Bypassed("no checkpointing; value from one SS 2 cell rerun with checkpoints")
        }
        ("sim.reclaimed_slots", Kind::PaperGrid | Kind::OpenFaults) => {
            Path::Bypassed("runs are not lean, so slots are never trimmed")
        }
        ("telemetry.overhead", Kind::OpenFaults) => Path::Timed,
        ("telemetry.overhead", _) => {
            Path::Bypassed("telemetry is off in this workload; value is the cost of turning it on")
        }
        ("sim.profiler_overhead", _) => Path::Bypassed("profiler is off in timed sweeps"),
        ("trace.overhead", _) => Path::Bypassed("benchmark-side spans; timed sweeps carry none"),
        _ if layer == "trace" => Path::Bypassed("output check, outside the timed region"),
        _ => Path::Timed,
    }
}

/// Run the traced pass for one workload.
pub fn run(kind: Kind, seed: u64, size: Size) -> Result<Outcome, String> {
    let (w, _) = set_up(kind, seed, size)?;
    let mut out = Outcome {
        metrics: Vec::new(),
        checks: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    println!(
        "ledger {} seed {}: {} runs per sweep, {THREADS} workers, host cores {}",
        kind.name(),
        seed,
        w.runs(),
        host_cores()
    );
    let mut digests = Vec::new();
    let mut sweep = |threads: usize, out: &mut Outcome| -> Result<(SweepReport, f64), String> {
        let t = Instant::now();
        let report = w
            .sweep(threads)
            .map_err(|e| format!("sweep rejected: {e}"))?;
        let wall = t.elapsed().as_secs_f64();
        out.attempted += report.runs;
        out.failed += failed_runs(&report);
        digests.push(digest(&report));
        Ok((report, wall))
    };

    // Plain sweeps: the wall-clock the layers must account for, and the
    // engine's own worker and cache counters.
    let mut walls2 = Vec::new();
    let mut report = None;
    for _ in 0..SWEEP_REPS {
        let (r, wall) = sweep(THREADS, &mut out)?;
        walls2.push(wall);
        report = Some(r);
    }
    let report = report.expect("at least one sweep");
    let (_, wall1) = sweep(1, &mut out)?;
    let wall2 = median(&walls2);
    println!("plain sweep wall: 2 workers p50 {wall2:.4} s of {SWEEP_REPS}; 1 worker {wall1:.4} s");

    // Harness pass A: each run as the sweep runs it, with spans around
    // trace generation, simulate and fold.
    let cache = TraceCache::new();
    let t_a = Instant::now();
    let runs: Vec<RunSpans> = par_map(w.runs(), THREADS, |i| {
        let cfg = &w.configs[i];
        let (mut gen_ns, mut gen_jobs) = (0, 0);
        if cfg.arrivals.is_trace() && w.log().is_none() {
            cache.get_or_generate(cfg.trace_key(), || {
                let t = Instant::now();
                let jobs = cfg.trace();
                gen_ns = ns(t);
                gen_jobs = jobs.len();
                jobs
            });
        }
        let t = Instant::now();
        let sim = w.simulate(cfg, &cache, w.telemetry(), false);
        let sim_ns = ns(t);
        let t = Instant::now();
        let summary = RunSummary::fold(cfg, &sim);
        let fold_ns = ns(t);
        RunSpans {
            gen_ns,
            gen_jobs,
            sim_ns,
            fold_ns,
            summary,
            completed: completed(&sim),
            events: sim.kernel.events,
            decides: sim.kernel.decide_calls,
            preemptions: sim.preemptions,
            reclaimed: sim.kernel.reclaimed_slots,
        }
    });
    let wall_a = t_a.elapsed().as_secs_f64();

    // Pass B: the same runs under the program's span profiler.
    let profiled: Vec<(u64, RunSummary, sps_telemetry::PhaseProfile)> =
        par_map(w.runs(), THREADS, |i| {
            let cfg = &w.configs[i];
            let t = Instant::now();
            let sim = w.simulate(cfg, &cache, w.telemetry(), true);
            let wall = ns(t);
            let phases = sim.kernel.phases.expect("profiled run carries phases");
            (wall, RunSummary::fold(cfg, &sim), phases)
        });
    // Pass C: the same runs with the telemetry sink toggled.
    let toggled: Vec<u64> = par_map(w.runs(), THREADS, |i| {
        let t = Instant::now();
        w.simulate(&w.configs[i], &cache, !w.telemetry(), false);
        ns(t)
    });

    // Output checks of the traced pass.
    out.check("zero failed runs", no_failures(out.failed, out.attempted));
    let plain_summaries: Vec<RunSummary> = runs.iter().map(|r| r.summary.clone()).collect();
    let prof_summaries: Vec<RunSummary> = profiled.iter().map(|p| p.1.clone()).collect();
    digests.push(digest(&cells_from_summaries(&w.plan, &plain_summaries)));
    digests.push(digest(&cells_from_summaries(&w.plan, &prof_summaries)));
    out.check(
        "digest identical: 2-worker, 1-worker sweeps, harness and profiled runs",
        same_digests(&digests),
    );
    println!("digest {:016x}", digests[0]);
    out.check(
        "every run completes the expected jobs",
        runs.iter()
            .try_for_each(|r| crate::completed_ok(&w, r.completed)),
    );
    let (records, validate_ms) = trace_check(&w, &mut out)?;

    // Layer totals.
    let sum = |f: fn(&RunSpans) -> u64| runs.iter().map(f).sum::<u64>();
    let (gen_ns, sim_ns, fold_ns) = (sum(|r| r.gen_ns), sum(|r| r.sim_ns), sum(|r| r.fold_ns));
    let gen_jobs: usize = runs.iter().map(|r| r.gen_jobs).sum();
    let (events, decides) = (sum(|r| r.events), sum(|r| r.decides));
    let run_ms: Vec<f64> = runs.iter().map(|r| r.sim_ns as f64 * 1e-6).collect();
    let mut phases = sps_telemetry::PhaseProfile::default();
    for p in &profiled {
        phases.merge(&p.2);
    }
    let phase_s = |ph: SpanPhase| phases.total_ns(ph) as f64 * 1e-9;
    let profiled_ns: u64 = profiled.iter().map(|p| p.0).sum();
    let toggled_ns: u64 = toggled.iter().sum();
    let (tel_on, tel_off) = if w.telemetry() {
        (sim_ns, toggled_ns)
    } else {
        (toggled_ns, sim_ns)
    };
    let checkpoint_io_s = if w.configs[0].preemption.checkpoints() {
        phase_s(SpanPhase::CheckpointIo)
    } else {
        let ss = w
            .configs
            .iter()
            .find(|c| c.scheduler == SchedulerKind::Ss { sf: 2.0 })
            .expect("every workload has an SS 2 cell");
        checkpoint_probe(&w, ss)
    };

    let [synthetic, swf_parse, shape, open] = feed_layers(&w, size, (gen_ns, gen_jobs));

    let render: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(report.to_csv());
            std::hint::black_box(report.to_json().render());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let render_ms = median(&render);

    let workers = &report.workers;
    let busy: u64 = workers.iter().map(|s| s.busy_ns).sum();
    let idle: u64 = workers.iter().map(|s| s.idle_ns).sum();
    let steals: u64 = workers.iter().map(|s| s.steals_attempted).sum();
    let stolen: u64 = workers.iter().map(|s| s.steals_succeeded).sum();
    let requests = if kind == Kind::PaperGrid {
        report.runs
    } else {
        0
    };
    // Only closed synthetic runs generate traces, so `gen_ns` is zero on
    // the other workloads.
    let covered_s = (gen_ns + sim_ns + fold_ns) as f64 * 1e-9 + render_ms * 1e-3;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    out.metrics = vec![
        m("workload.swf_parse_ns_per_job", swf_parse, "ns/job"),
        m("workload.shape_ns_per_job", shape, "ns/job"),
        m("workload.synthetic_ns_per_job", synthetic, "ns/job"),
        m(
            "workload.cache_hit_ratio",
            ratio(report.trace_hits as f64, requests as f64),
            "ratio",
        ),
        m("workload.trace_requests", requests as f64, "count"),
        m("workload.open_ns_per_job", open, "ns/job"),
        m("sim.events", events as f64, "count"),
        m("sim.decides", decides as f64, "count"),
        m(
            "sim.decides_per_event",
            ratio(decides as f64, events as f64),
            "ratio",
        ),
        m("sim.preemptions", sum(|r| r.preemptions) as f64, "count"),
        m("sim.reclaimed_slots", sum(|r| r.reclaimed) as f64, "count"),
        m(
            "sim.events_per_s",
            ratio(events as f64, sim_ns as f64 * 1e-9),
            "events/s",
        ),
        m("sim.run_ms_p50", median(&run_ms), "ms"),
        m("sim.run_ms_p90", quantile(&run_ms, 0.9), "ms"),
        m("sim.run_samples", run_ms.len() as f64, "count"),
        m("sim.event_drain_s", phase_s(SpanPhase::EventDrain), "s"),
        m("sim.decide_s", phase_s(SpanPhase::Decide), "s"),
        m("sim.dispatch_s", phase_s(SpanPhase::Dispatch), "s"),
        m("sim.lifecycle_s", phase_s(SpanPhase::Lifecycle), "s"),
        m("sim.checkpoint_io_s", checkpoint_io_s, "s"),
        m(
            "sim.profiler_overhead",
            ratio(profiled_ns as f64, sim_ns as f64) - 1.0,
            "ratio",
        ),
        m(
            "metrics.fold_ns_per_run",
            fold_ns as f64 / runs.len() as f64,
            "ns/run",
        ),
        m(
            "sweep.worker_busy_share",
            ratio(busy as f64, (busy + idle) as f64),
            "ratio",
        ),
        m(
            "sweep.steal_success_ratio",
            ratio(stolen as f64, steals as f64),
            "ratio",
        ),
        m("sweep.steals_attempted", steals as f64, "count"),
        m("sweep.render_ms", render_ms, "ms"),
        m(
            "sweep.unattributed_share",
            1.0 - covered_s / (wall2 * THREADS as f64),
            "ratio",
        ),
        m("sweep.scaling_2w", wall1 / wall2, "ratio"),
        m(
            "telemetry.overhead",
            ratio(tel_on as f64, tel_off as f64) - 1.0,
            "ratio",
        ),
        m("trace.records", records as f64, "count"),
        m("trace.validate_ms", validate_ms, "ms"),
        m("trace.overhead", wall_a / wall2 - 1.0, "ratio"),
    ];

    println!(
        "ledger: plain sweep {wall2:.4} s x {THREADS} workers = {:.4} worker-s; \
         spans cover {covered_s:.4} s (generation {:.4}, simulate {:.4}, fold {:.4}, render {:.4}); \
         traced harness wall {wall_a:.4} s",
        wall2 * THREADS as f64,
        gen_ns as f64 * 1e-9,
        sim_ns as f64 * 1e-9,
        fold_ns as f64 * 1e-9,
        render_ms * 1e-3,
    );
    if kind == Kind::SwfStream {
        let jobs = (w.runs() * w.jobs_per_run) as f64;
        println!(
            "ledger: inside simulate, parsing ~{:.4} s and shaping ~{:.4} s of {:.4} s (isolated ns/job x jobs)",
            swf_parse * jobs * 1e-9,
            shape * jobs * 1e-9,
            sim_ns as f64 * 1e-9
        );
    }
    println!("scaling (measured, not modeled): 1 worker {wall1:.4} s / 2 workers {wall2:.4} s");
    for metric in &out.metrics {
        let (layer, moves) = NOTES
            .iter()
            .find(|n| n.0 == metric.name)
            .map_or(("?", "?"), |n| (n.1, n.2));
        let path = match path_of(kind, metric.name) {
            Path::Timed => "timed path".to_string(),
            Path::Setup => "set-up path".to_string(),
            Path::Bypassed(why) => format!("bypassed: {why}"),
        };
        println!("layer {layer:9} {:32} [{path}] -> {moves}", metric.name);
    }
    Ok(out)
}
