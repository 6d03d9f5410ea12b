//! Benchmark of the sweep engine, run from outside the program through
//! its public entry points.
//!
//! ```text
//! sps-benchmark --workload paper_grid|swf_stream|open_faults
//!               --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` times whole sweeps back to back (closed loop, one sweep at
//! a time, 2 workers) for `--seconds` and prints the end-to-end metrics.
//! `--trace 1` prints the per-layer ledger instead: benchmark-side spans
//! around calls into each layer, plus the program's own span profiler.
//! Both passes check the outputs outside the timed region, and the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod ledger;
mod procfs;
mod workloads;

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sps_core::experiment::SchedulerKind;
use sps_core::RunUntil;
use sps_telemetry::Telemetry;
use sps_trace::{validate_jsonl, JsonlSink, ReplayOptions};
use sps_workload::TraceCache;

use workloads::{completed, digest, failed_runs, work_dir, Kind, Size, Workload};

/// Sweep workers. The host this benchmark was defined on has two cores.
pub const THREADS: usize = 2;

/// Jobs after which the JSONL-traced `swf_stream` cell stops; the full
/// log would write a trace of several hundred megabytes.
const TRACE_CELL_JOBS: usize = 5_000;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn usage() -> String {
    "usage: sps-benchmark --workload paper_grid|swf_stream|open_faults \
     --seed N --seconds S --trace 0|1 [--size full|tiny]"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = Size::Full;
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}\n{}", usage()))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("--size takes full or tiny, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}\n{}", usage())),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{}", usage());
    Ok(Args {
        kind: kind.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        size,
    })
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a pass hands back for printing.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub checks: Vec<(String, Result<(), String>)>,
    pub attempted: usize,
    pub failed: usize,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, result: Result<(), String>) {
        self.checks.push((name.into(), result));
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values` (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Build the workload repeatedly, timing the builds, and keep the last.
/// Returns the workload and the set-up time in seconds: the median over
/// `SETUP_BATCHES` batches of the mean build time within a batch. A batch
/// repeats the build until it has taken `SETUP_BATCH` — one build for the
/// SWF log, thousands for a grid spec that builds in microseconds.
pub fn set_up(kind: Kind, seed: u64, size: Size) -> Result<(Workload, f64), String> {
    let dir = work_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let log = dir.join("log.swf");
    let mut per_build = Vec::with_capacity(SETUP_BATCHES);
    let mut last = None;
    for _ in 0..SETUP_BATCHES {
        let t = Instant::now();
        let mut builds = 0u32;
        while builds == 0 || t.elapsed() < SETUP_BATCH {
            last = Some(Workload::prepare(kind, seed, size, &log)?);
            builds += 1;
        }
        per_build.push(t.elapsed().as_secs_f64() / builds as f64);
    }
    Ok((last.expect("at least one set-up"), median(&per_build)))
}

/// Set-up batches timed per run.
const SETUP_BATCHES: usize = 5;
/// Minimum wall time of one set-up batch.
const SETUP_BATCH: Duration = Duration::from_millis(20);

/// Whether a run's completed-job count is the expected one: every job of
/// a closed trace or log, at least the stop count of an open run.
pub fn completed_ok(w: &Workload, n: usize) -> Result<(), String> {
    let ok = match w.kind {
        Kind::OpenFaults => n >= w.jobs_per_run,
        Kind::PaperGrid | Kind::SwfStream => n == w.jobs_per_run,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("completed {n} jobs, expected {}", w.jobs_per_run))
    }
}

/// The end-to-end pass: set up, warm up, then time whole sweeps back to
/// back for `seconds`.
fn measure(args: &Args) -> Result<Outcome, String> {
    let (w, setup_s) = set_up(args.kind, args.seed, args.size)?;
    let mut out = Outcome {
        metrics: Vec::new(),
        checks: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    println!(
        "workload {} seed {}: {} runs per sweep, {} jobs per run, {THREADS} workers, \
         host cores {}",
        w.kind.name(),
        w.seed,
        w.runs(),
        w.jobs_per_run,
        host_cores()
    );

    // Warm-up run: lets lazy set-up (code pages, allocator arenas) finish
    // before timing, and checks one run's completed-job count.
    let warm = w.simulate(&w.configs[0], &TraceCache::new(), w.telemetry(), false);
    out.check(
        "warm-up run completes the expected jobs",
        completed_ok(&w, completed(&warm)),
    );
    drop(warm);

    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut cpu_rates = Vec::new();
    let (mut total_jobs, mut total_cpu) = (0usize, 0.0f64);
    let mut digests = Vec::new();
    let deadline = args.seconds;
    let start = Instant::now();
    // Start another sweep only while it should end no more than half a
    // sweep past the deadline.
    let mut last_wall = 0.0;
    while walls.is_empty() || start.elapsed().as_secs_f64() + last_wall / 2.0 < deadline {
        let cpu0 = procfs::cpu_seconds().map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let report = w
            .sweep(THREADS)
            .map_err(|e| format!("sweep rejected: {e}"))?;
        let wall = t0.elapsed().as_secs_f64();
        let cpu = procfs::cpu_seconds().map_err(|e| e.to_string())? - cpu0;
        let failed = failed_runs(&report);
        out.attempted += report.runs;
        out.failed += failed;
        let jobs = (report.runs - failed) * w.jobs_per_run;
        total_jobs += jobs;
        total_cpu += cpu;
        walls.push(wall);
        last_wall = wall;
        rates.push(jobs as f64 / wall);
        // CPU time ticks in 10 ms steps; a sweep shorter than one tick
        // says nothing about its CPU rate.
        if cpu > 0.0 {
            cpu_rates.push(jobs as f64 / cpu);
        }
        digests.push(digest(&report));
        println!(
            "sweep {}: wall {wall:.4} s, cpu {cpu:.2} s, {jobs} jobs",
            walls.len()
        );
    }
    let rss_kb = procfs::peak_rss_kb().map_err(|e| e.to_string())?;
    println!(
        "{} sweeps in {:.3} s; sweep wall p50 {:.4} s (min {:.4}, max {:.4})",
        walls.len(),
        start.elapsed().as_secs_f64(),
        median(&walls),
        quantile(&walls, 0.0),
        quantile(&walls, 1.0)
    );
    let jobs_per_cpu_s = if cpu_rates.is_empty() {
        total_jobs as f64 / total_cpu.max(0.01)
    } else {
        median(&cpu_rates)
    };

    out.check("zero failed runs", no_failures(out.failed, out.attempted));
    out.check(
        "digest identical across repeated sweeps",
        same_digests(&digests),
    );
    println!("digest {:016x}", digests[0]);
    trace_check(&w, &mut out)?;

    out.metrics = vec![
        Metric {
            name: "jobs_per_s",
            value: median(&rates),
            unit: "jobs/s",
        },
        Metric {
            name: "jobs_per_cpu_s",
            value: jobs_per_cpu_s,
            unit: "jobs/cpu-s",
        },
        Metric {
            name: "peak_rss_mb",
            value: rss_kb as f64 / 1024.0,
            unit: "MiB",
        },
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "succeeded_share",
            value: (out.attempted - out.failed) as f64 / out.attempted as f64,
            unit: "ratio",
        },
    ];
    Ok(out)
}

pub fn no_failures(failed: usize, attempted: usize) -> Result<(), String> {
    if failed == 0 {
        Ok(())
    } else {
        Err(format!("{failed} of {attempted} runs failed"))
    }
}

pub fn same_digests(digests: &[u64]) -> Result<(), String> {
    match digests.iter().find(|&&d| d != digests[0]) {
        None => Ok(()),
        Some(d) => Err(format!("{:016x} != {:016x}", d, digests[0])),
    }
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Trace one preempting cell of the workload to JSONL and run the replay
/// validator over it. Returns the record count and the validation time in
/// milliseconds, and records the check.
pub fn trace_check(w: &Workload, out: &mut Outcome) -> Result<(usize, f64), String> {
    let cfg = w
        .configs
        .iter()
        .find(|c| c.scheduler == SchedulerKind::Ss { sf: 2.0 })
        .expect("every workload has an SS 2 cell");
    let path = work_dir().join("cell.jsonl");
    let mut sink =
        JsonlSink::create(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut builder = w.builder(cfg, &TraceCache::new()).trace_sink(&mut sink);
    if w.log().is_some() {
        builder = builder.until(RunUntil::Jobs(TRACE_CELL_JOBS));
    }
    if w.telemetry() {
        let mut tel = Telemetry::new();
        builder.telemetry(&mut tel).simulate();
    } else {
        builder.simulate();
    }
    sink.finish()
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let file = File::open(&path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let t = Instant::now();
    let result = validate_jsonl(BufReader::new(file), ReplayOptions::default());
    let validate_ms = t.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_file(&path);
    let name = format!(
        "replay validator accepts the JSONL trace of {} load {}",
        cfg.scheduler, cfg.load_factor
    );
    match result {
        Ok(stats) => {
            println!(
                "trace cell: {} records validated in {validate_ms:.3} ms",
                stats.records
            );
            out.check(name, Ok(()));
            Ok((stats.records, validate_ms))
        }
        Err(violations) => {
            let first = violations.first().map_or(String::new(), |v| v.to_string());
            out.check(
                name,
                Err(format!("{} violations, first: {first}", violations.len())),
            );
            Ok((0, validate_ms))
        }
    }
}

/// Render a number for the JSON line: full precision, and never a bare
/// NaN or infinity, which JSON cannot hold.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn print_outcome(out: &Outcome) {
    for (name, result) in &out.checks {
        match result {
            Ok(()) => println!("check ok: {name}"),
            Err(why) => println!("check FAILED: {name}: {why}"),
        }
    }
    for m in &out.metrics {
        println!("{} {} {}", m.name, json_number(m.value), m.unit);
    }
    let correct = out.checks.iter().all(|(_, r)| r.is_ok());
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        ledger::run(args.kind, args.seed, args.size)
    } else {
        measure(&args)
    };
    let _ = std::fs::remove_dir_all(work_dir());
    // Removes the parent too when no other run is using it.
    let _ = std::fs::remove_dir(workloads::WORK_ROOT);
    match result {
        Ok(out) => {
            print_outcome(&out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
