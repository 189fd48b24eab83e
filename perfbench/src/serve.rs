//! The `serve-zipf` process: set up a two-device `Server` from a warm
//! artifact cache, then replay a seeded open-loop Poisson schedule with
//! Zipf model popularity from one generator thread.

use crate::matrix::{self, Models};
use crate::report::{nanos, peak_rss_mb, Obj};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartmem_core::{CompileSession, Framework, SmartMemPipeline};
use smartmem_serve::{
    batch_exec_ms, histogram_mean, InferenceRequest, ModelSpec, Priority, ServeConfig, Server,
    TelemetryConfig,
};
use smartmem_sim::DeviceConfig;
use smartmem_telemetry::{Trace, TraceId, Tracer};
use std::path::Path;
use std::time::{Duration, Instant};

/// The ten served models of `serve_bench`, most popular first.
pub const MODELS: [&str; 10] = [
    "AutoFormer",
    "CrossFormer",
    "EfficientVit",
    "Swin",
    "ViT",
    "SD-TextEncoder",
    "ConvNext",
    "RegNet",
    "ResNext",
    "Yolo-V8",
];

/// Wall-clock throttle of the workers: they sleep `exec_ms × scale`.
const EXEC_TIME_SCALE: f64 = 0.15;

/// Requests per second, and how long a request may wait for a batch to
/// form. Tuned together on a 2-core host: batching stays active (mean
/// batch above 1.2) short of the 25 ms Interactive deadline, with no
/// growing backlog. At 3 ms the mean batch stayed at or below 1.16 under
/// 400 rps, and at 400 rps p99 ranged 64–95 ms across seeds.
const RATE: f64 = 250.0;
const MAX_DELAY: Duration = Duration::from_millis(12);

pub fn devices() -> Vec<DeviceConfig> {
    vec![DeviceConfig::snapdragon_8gen2(), DeviceConfig::apple_m1()]
}

/// One request of the seeded schedule.
struct Arrival {
    due: Duration,
    model: usize,
    class: Priority,
}

/// Uniform in `(0, 1]`.
fn unit(rng: &mut StdRng) -> f64 {
    ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// Open-loop Poisson arrivals at [`RATE`] per second over `seconds`, Zipf
/// (weight `1/(i+1)`) over the models, 60/25/15 Interactive/Batch/BestEffort.
fn schedule(seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let weights: Vec<f64> = (0..MODELS.len()).map(|i| 1.0 / (i + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -unit(&mut rng).ln() / RATE;
        if t >= seconds {
            return out;
        }
        let mut x = unit(&mut rng) * total;
        let model = weights.iter().position(|w| {
            x -= w;
            x <= 0.0
        });
        let class = match rng.random_range(0..100) {
            0..=59 => Priority::Interactive,
            60..=84 => Priority::Batch,
            _ => Priority::BestEffort,
        };
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            model: model.unwrap_or(MODELS.len() - 1),
            class,
        });
    }
}

pub struct Opts<'a> {
    pub work_dir: &'a Path,
    pub seed: u64,
    pub seconds: f64,
    pub setup_only: bool,
    pub tracer: &'a Tracer,
}

/// Returns the process's output and, when traced, the server's own spans.
pub fn run(o: Opts<'_>) -> (Obj, Trace) {
    let start = Instant::now();
    let devices = devices();
    let framework: Vec<Box<dyn Framework>> = vec![Box::new(SmartMemPipeline::new())];
    let models = matrix::build_models(Some(&MODELS), o.tracer);

    // Compile and estimate every (model, device) pair into the cache
    // directory the server then opens, so every compile on the serve
    // path is a cache hit.
    let cache_dir = o.work_dir.join("cache");
    let session = CompileSession::with_cache_dir(&cache_dir).expect("open the cache directory");
    let order = matrix::order(MODELS.len(), 1, devices.len(), o.seed);
    let (jobs, loop_ns) =
        matrix::run(&session, &models, &framework, &devices, &order, true, o.tracer);
    let artifacts = session.disk_len();
    drop(session);
    let mut failures: Vec<String> =
        jobs.iter().flat_map(|j| matrix::check(j, &models, &framework, &devices, false)).collect();
    // `ref_ms[model][device]`: the simulated latency set-up estimated.
    let mut ref_ms = vec![vec![f64::NAN; devices.len()]; MODELS.len()];
    for j in &jobs {
        ref_ms[j.model][j.device] = j.report.as_ref().map_or(f64::NAN, |r| r.latency_ms);
    }

    let Models { names, graphs, build_ns } = models;
    let specs: Vec<ModelSpec> =
        names.iter().zip(graphs).map(|(n, g)| ModelSpec::new(*n, g)).collect();
    let arrivals = schedule(o.seed, o.seconds);
    let config = ServeConfig {
        // Big enough that the open loop never blocks on submit.
        queue_capacity: arrivals.len() + 64,
        max_batch: 8,
        max_delay: MAX_DELAY,
        exec_time_scale: EXEC_TIME_SCALE,
        cache_dir: Some(cache_dir.clone()),
        telemetry: if o.tracer.is_enabled() {
            TelemetryConfig::tracing()
        } else {
            TelemetryConfig::default()
        },
        ..ServeConfig::default()
    };
    let deadlines = config.deadlines;
    let server = Server::start(specs, devices.clone(), config);
    // Warm every worker's report memo: one pinned request per pair.
    let warm: Vec<_> = (0..MODELS.len())
        .flat_map(|m| (0..devices.len()).map(move |d| InferenceRequest::new(m).on_device(d)))
        .map(|r| server.submit(r).expect("warm-up submit"))
        .collect();
    for t in warm {
        if let Some(e) = t.wait().error {
            failures.push(format!("warm-up request failed: {e}"));
        }
    }
    let setup_s = start.elapsed().as_secs_f64();

    let sim_ms: Vec<f64> = ref_ms.iter().flatten().copied().collect();
    let slugs: Vec<String> = devices.iter().map(DeviceConfig::slug).collect();
    let mut out = Obj::new()
        .num("setup_s", setup_s)
        .num("zoo_s", loop_ns as f64 / 1e9)
        .num("compile_s", jobs.iter().map(|j| j.compile_ns).sum::<u64>() as f64 / 1e9)
        .nums("sim_ms", sim_ms)
        .strs("slugs", slugs.iter().map(String::as_str));
    let mut layers = matrix::layers(&jobs, &framework, loop_ns)
        .num("models.build_ms", build_ns as f64 / 1e6)
        .int("persist.artifacts", artifacts as u64)
        .int("persist.bytes", crate::dir_bytes(&cache_dir));
    for (m, name) in names.iter().enumerate() {
        layers = layers.num(&format!("sim.{name}.latency_ms"), ref_ms[m][0]);
    }
    for j in jobs.iter().filter(|j| j.device == 0) {
        if let ("Swin" | "ResNext", Some(r)) = (names[j.model], &j.report) {
            layers = crate::decomposition(layers, names[j.model], r);
        }
    }
    if o.setup_only {
        drop(server);
        let out = out.obj("layers", layers).strs("failures", failures.iter().map(String::as_str));
        return (out, Trace::default());
    }

    let warm_stats = server.stats();
    let replay = Instant::now();
    let mut tickets = Vec::with_capacity(arrivals.len());
    let mut sent_ms = Vec::with_capacity(arrivals.len());
    let mut submit_us = Vec::with_capacity(arrivals.len());
    for a in &arrivals {
        if let Some(wait) = a.due.checked_sub(replay.elapsed()) {
            std::thread::sleep(wait);
        }
        let mut span = o.tracer.span("submit", "perfbench", TraceId::NONE);
        span.arg("model", a.model as f64);
        let t = Instant::now();
        let ticket = server.submit(InferenceRequest::new(a.model).with_priority(a.class));
        submit_us.push(nanos(t.elapsed()) as f64 / 1e3);
        drop(span);
        sent_ms.push((t - replay).as_secs_f64() * 1e3);
        tickets.push(ticket);
    }
    let mut responses = Vec::with_capacity(tickets.len());
    let mut ids = Vec::with_capacity(tickets.len());
    for (i, ticket) in tickets.into_iter().enumerate() {
        match ticket {
            Ok(t) => {
                let mut span = o.tracer.span("wait", "perfbench", TraceId::NONE);
                span.arg("model", arrivals[i].model as f64);
                ids.push(t.id());
                responses.push(Some(t.wait()));
            }
            Err(e) => {
                failures.push(format!("submit refused: {e}"));
                responses.push(None);
            }
        }
    }
    let replay_s = replay.elapsed().as_secs_f64();
    let server_spans = server.telemetry().tracer;
    let stats = server.shutdown();
    let rss = peak_rss_mb();

    // Every sent request gets exactly one response, and the server's
    // books balance.
    let mut seen: Vec<u64> = responses.iter().flatten().map(|r| r.request_id).collect();
    seen.sort_unstable();
    ids.sort_unstable();
    if seen != ids {
        failures.push("responses do not match the submitted requests one to one".into());
    }
    if stats.submitted != stats.completed + stats.failed + stats.cancelled {
        failures.push(format!(
            "books do not balance: submitted {} != completed {} + failed {} + cancelled {}",
            stats.submitted, stats.completed, stats.failed, stats.cancelled
        ));
    }
    let mut ok = Vec::with_capacity(responses.len());
    for r in &responses {
        let good = r.as_ref().is_some_and(|r| {
            let model = MODELS.iter().position(|m| *m == r.model);
            let device = devices.iter().position(|d| d.name == r.device);
            let expect = model.zip(device).map(|(m, d)| batch_exec_ms(ref_ms[m][d], r.batch_size));
            r.error.is_none() && !r.cancelled && expect == Some(r.exec_ms)
        });
        if !good {
            if let Some(r) = r {
                failures.push(format!(
                    "request {} ({} on {}): error {:?}, exec {} ms for a batch of {}",
                    r.request_id, r.model, r.device, r.error, r.exec_ms, r.batch_size
                ));
            }
        }
        ok.push(f64::from(u8::from(good)));
    }

    let field = |f: fn(&smartmem_serve::InferenceResponse) -> f64| {
        responses.iter().map(move |r| r.as_ref().map_or(f64::NAN, f))
    };
    let replay_hist: Vec<u64> =
        stats.batch_histogram.iter().zip(&warm_stats.batch_histogram).map(|(a, b)| a - b).collect();
    let class_deadline_ms = arrivals.iter().map(|a| deadlines.budget(a.class).as_secs_f64() * 1e3);
    out = out
        .num("peak_rss_mb", rss)
        .num("replay_s", replay_s)
        .num("exec_time_scale", EXEC_TIME_SCALE)
        .nums("due_ms", arrivals.iter().map(|a| a.due.as_secs_f64() * 1e3))
        .nums("sent_ms", sent_ms)
        .nums("deadline_ms", class_deadline_ms)
        .nums("ok", ok)
        .nums("submit_us", submit_us)
        .nums("wall_ms", field(|r| r.wall_ms))
        .nums("queue_ms", field(|r| r.queue_ms))
        .nums("exec_ms", field(|r| r.exec_ms))
        .nums("batch_size", field(|r| r.batch_size as f64))
        .nums("retries", field(|r| f64::from(r.retries)))
        .nums("compile_hit", field(|r| f64::from(u8::from(r.compile_cache_hit))))
        .nums(
            "device",
            responses.iter().map(|r| {
                r.as_ref()
                    .and_then(|r| devices.iter().position(|d| d.name == r.device))
                    .map_or(f64::NAN, |d| d as f64)
            }),
        )
        .int("batches", stats.batches - warm_stats.batches)
        .num("mean_batch", histogram_mean(&replay_hist));
    // On this workload the session counters are those of the server's
    // own session, the one on the serve path.
    let layers = crate::cache_stats(layers, stats.cache);
    let out = out.obj("layers", layers).strs("failures", failures.iter().map(String::as_str));
    (out, server_spans.drain())
}
