//! One process of a perfbench workload. `run.py` starts these, one per
//! sample, and aggregates what each prints as its last stdout line.
//!
//! ```text
//! smartmem-perfbench zoo   --cache-dir DIR --seed N [--sample K] [--fill [--reference]]
//!                          [--trace-out FILE]
//! smartmem-perfbench serve --work-dir DIR --seed N --seconds S [--setup-only] [--trace-out FILE]
//! ```
//!
//! `zoo` runs the Table 8 matrix (18 models × 6 frameworks on the
//! Snapdragon 8 Gen 2), each job a compile through a session over
//! `--cache-dir` followed by an estimate. `--sample K` (the sample's index
//! in its run) picks which sixth of the jobs is re-estimated as a check,
//! so consecutive samples cover the whole matrix. With `--fill` it only
//! compiles, filling the cache; `--reference` then estimates untimed to
//! produce the reference reports, re-estimating every job as a check.
//! `serve` is the `serve-zipf` process. `--trace-out` records spans around
//! every layer call, writes them there as Chrome trace JSON and reports
//! the per-layer metrics.

mod matrix;
mod report;
mod serve;

use report::{digest, peak_rss_mb, Obj};
use smartmem_baselines::all_mobile_frameworks;
use smartmem_core::{CacheStats, CompileSession, ModelReport};
use smartmem_sim::DeviceConfig;
use smartmem_telemetry::{render_chrome, Trace, Tracer};
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Args {
    command: String,
    dir: PathBuf,
    seed: u64,
    seconds: f64,
    sample: u64,
    fill: bool,
    reference: bool,
    setup_only: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command: zoo or serve")?;
    let mut args = Args {
        command,
        dir: PathBuf::new(),
        seed: 0,
        seconds: 0.0,
        sample: 0,
        fill: false,
        reference: false,
        setup_only: false,
        trace_out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--cache-dir" | "--work-dir" => args.dir = PathBuf::from(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--sample" => args.sample = value()?.parse().map_err(|e| format!("--sample: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--fill" => args.fill = true,
            "--reference" => args.reference = true,
            "--setup-only" => args.setup_only = true,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.dir.as_os_str().is_empty() {
        return Err("missing --cache-dir / --work-dir".into());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("smartmem-perfbench: {e}");
        std::process::exit(2);
    });
    let tracer = match args.trace_out {
        Some(_) => Tracer::new(SPAN_CAPACITY, 1),
        None => Tracer::disabled(),
    };
    let (out, mut trace) = match args.command.as_str() {
        "zoo" => (zoo(&args, &tracer), Trace::default()),
        "serve" => {
            if args.seconds.is_nan() || args.seconds <= 0.0 {
                eprintln!("smartmem-perfbench: serve needs --seconds > 0");
                std::process::exit(2);
            }
            let opts = serve::Opts {
                work_dir: &args.dir,
                seed: args.seed,
                seconds: args.seconds,
                setup_only: args.setup_only,
                tracer: &tracer,
            };
            serve::run(opts)
        }
        other => {
            eprintln!("smartmem-perfbench: unknown command {other}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.trace_out {
        // The benchmark's spans and the server's share one clock.
        let own = tracer.drain();
        trace.spans.extend(own.spans);
        trace.dropped += own.dropped;
        trace.spans.sort_by_key(|s| s.start_ns);
        std::fs::write(path, render_chrome(&trace)).expect("write the span file");
    }
    println!("{}", out.finish());
}

/// Spans each recording thread keeps: enough for every request of a
/// 60-second serve-zipf replay.
const SPAN_CAPACITY: usize = 1 << 16;

/// One pass over the Table 8 matrix in a fresh process.
fn zoo(args: &Args, tracer: &Tracer) -> Obj {
    let start = Instant::now();
    let models = matrix::build_models(None, tracer);
    let frameworks = all_mobile_frameworks();
    let devices = vec![DeviceConfig::snapdragon_8gen2()];
    let session = CompileSession::with_cache_dir(&args.dir).expect("open the cache directory");
    let warm = session.disk_len() > 0;
    let setup_s = start.elapsed().as_secs_f64();
    let order = matrix::order(models.names.len(), frameworks.len(), devices.len(), args.seed);
    let (mut jobs, loop_ns) =
        matrix::run(&session, &models, &frameworks, &devices, &order, !args.fill, tracer);
    let cache = session.stats();
    let artifacts = session.disk_len();
    drop(session); // flushes the memo and group cache to disk
    let rss = peak_rss_mb();
    let mut out = Obj::new();
    if args.fill {
        out = out.num("setup_s", start.elapsed().as_secs_f64());
        // The reference reports, estimated after the timed fill.
        for job in jobs.iter_mut().filter(|_| args.reference) {
            if let Ok(o) = &job.output {
                let fw = frameworks[job.framework].as_ref();
                match matrix::estimate_fitting(o, fw, &devices[job.device]) {
                    Ok(r) => job.report = Some(r),
                    Err(e) => job.output = Err(e),
                }
            }
        }
    } else {
        out = out
            .num("setup_s", setup_s)
            .num("zoo_s", loop_ns as f64 / 1e9)
            .num("compile_s", jobs.iter().map(|j| j.compile_ns).sum::<u64>() as f64 / 1e9)
            .num("peak_rss_mb", rss)
            .nums("job_ms", jobs.iter().map(|j| j.job_ns as f64 / 1e6));
    }

    // Checks: every job, plus a bit-exact re-estimate of every job of
    // the reference fill and of one sixth of the jobs of a sample (all
    // would double the sample), a different sixth in each of 6
    // consecutive samples.
    let mut failures = Vec::new();
    let mut job_ok = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let id = (job.model * frameworks.len() + job.framework) as u64;
        let reestimate = match args.fill {
            true => args.reference,
            false => (id + args.seed + args.sample).is_multiple_of(6),
        };
        let mut f = matrix::check(job, &models, &frameworks, &devices, reestimate);
        if warm && !job.cache_hit && job.output.is_ok() {
            f.push(format!("{}: compiled cold from a filled cache", models.names[job.model]));
        }
        job_ok.push(f64::from(u8::from(f.is_empty())));
        failures.extend(f);
    }

    let mut digests = Obj::new();
    let mut latency = Obj::new();
    for job in &jobs {
        let (model, fw) = (models.names[job.model], frameworks[job.framework].name());
        if let Some(r) = &job.report {
            digests = digests.str(&format!("{model}/{fw}"), &digest(r));
            latency = latency.num(&format!("{model}/{fw}"), r.latency_ms);
        }
    }
    out = out
        .int("ops", jobs.len() as u64)
        .nums("job_ok", job_ok)
        .strs("failures", failures.iter().map(String::as_str))
        .obj("digests", digests)
        .obj("latency_ms", latency);
    if tracer.is_enabled() {
        let mut layers = matrix::layers(&jobs, &frameworks, loop_ns)
            .num("models.build_ms", models.build_ns as f64 / 1e6)
            .int("persist.artifacts", artifacts as u64)
            .int("persist.bytes", dir_bytes(&args.dir));
        layers = cache_stats(layers, cache);
        for job in jobs.iter().filter(|j| frameworks[j.framework].name() == "SmartMem") {
            if let ("Swin" | "ResNext", Some(r)) = (models.names[job.model], &job.report) {
                layers = decomposition(layers, models.names[job.model], r);
            }
        }
        out = out.obj("layers", layers);
    }
    out
}

/// Launch / compute / memory / index milliseconds of a report, summed
/// over its kernel groups.
fn decomposition(layers: Obj, model: &str, r: &ModelReport) -> Obj {
    let sum = |f: fn(&smartmem_core::GroupReport) -> f64| r.groups.iter().map(f).sum::<f64>() / 1e6;
    layers
        .num(&format!("sim.{model}.launch_ms"), sum(|g| g.cost.launch_ns))
        .num(&format!("sim.{model}.compute_ms"), sum(|g| g.cost.compute_ns))
        .num(&format!("sim.{model}.memory_ms"), sum(|g| g.cost.memory_ns))
        .num(&format!("sim.{model}.index_ms"), sum(|g| g.cost.index_ns))
}

fn cache_stats(layers: Obj, c: CacheStats) -> Obj {
    let groups = c.group_hits + c.group_misses;
    layers
        .int("session.hits", c.hits as u64)
        .int("session.misses", c.misses as u64)
        .int("session.disk_hits", c.disk_hits as u64)
        .int("session.group_hits", c.group_hits as u64)
        .int("session.group_misses", c.group_misses as u64)
        .num("session.group_hit_pct", 100.0 * c.group_hits as f64 / groups.max(1) as f64)
}

/// Total size of the files in a cache directory.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}
