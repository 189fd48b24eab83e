//! Open-loop serving benchmark: replays a synthetic, priority-mixed
//! request trace over the model zoo through `smartmem-serve` and
//! reports throughput, per-class latency and queue-wait percentiles,
//! SLO violations, per-device batch-size histograms, cancellation
//! accounting, and the compilation cache's steady-state hit rate.
//!
//! ```text
//! cargo run -p smartmem-bench --release --bin serve_bench            # full trace
//! cargo run -p smartmem-bench --release --bin serve_bench -- --smoke # CI-sized
//! ```
//!
//! The run has three modes: the pool replay (the default), the fleet
//! replay (`--replicas N` above 1 or `--fault-rate R` above 0) and the
//! decode A/B (`--decode`). A flag that the selected mode does not
//! honour fails the run at startup, naming the mode.
//!
//! Every mode takes `--smoke` (the CI-sized trace), `--seed S`,
//! `--cut-policy pull|deadline` (A/B the pull-mode batcher against the
//! fixed-window baseline), `--cache-dir DIR` (persistent artifact
//! cache: cold compiles write through, rerunning against the same
//! directory warm-starts from disk), `--fresh-cache` (delete the
//! `--cache-dir` directory before the run, so a CI cold step measures
//! real cold compiles instead of inheriting a previous job's artifacts;
//! it requires `--cache-dir`), and `--json PATH` (machine-readable
//! records for CI artifacts and the `bench_diff` regression gate).
//!
//! Pool mode also takes `--cancel-rate P` (probability a request is
//! cancelled ~one arrival after submission, racing the batch cut),
//! `--expect-warm` (assert the run performed *zero* cold compiles — pair
//! it with a second run over an already-populated `--cache-dir`),
//! `--trace-out PATH` (enable the span recorder and export the replay
//! as Chrome `trace_event` JSON — load it in `chrome://tracing` or
//! Perfetto, or digest it with the `trace_view` binary) and
//! `--sample-every N` (trace 1-in-N requests; 1 = all). With `--json`
//! the replay runs a *second* time with the opposite telemetry setting
//! and emits `telemetry_overhead_pct` — the throughput cost of leaving
//! the span recorder on, gated against `bench/baseline.json` so
//! instrumenting the hot path stays honest.
//!
//! Fleet mode routes the same replay onto the replica [`Router`] with a
//! seeded deterministic `FaultPlan` injecting transient execute/compile
//! faults. With more than one replica the run kills one a third of the
//! way through the trace and warm-restarts it (from `--cache-dir`, when
//! given) at two thirds, then gates on the fleet conservation law:
//! every request completes somewhere within the retry/reroute budget,
//! zero lost. The records land under the `serve_chaos` bench name so
//! `bench_diff` can gate `recovered_requests`/`shed_requests` without
//! colliding with the pool run's keys.
//!
//! Decode mode replays a mixed prefill + multi-step decode workload over
//! the bucketed `pythia_decode` models twice — once with continuous
//! batching (each generation re-enters the batcher one `DecodeSession`
//! step at a time) and once with whole-request batching (one
//! `decode_steps = n` request per generation) — at equal offered load,
//! and gates on continuous beating whole-request tokens/s.
//!
//! The pool serves six devices — four mobile GPUs (including the
//! AFBC-compressed Mali-G710), Apple silicon, and a server-class NPU —
//! so placement has genuinely heterogeneous latency classes to choose
//! between.
//!
//! The trace is open-loop: arrivals follow exponential inter-arrival
//! times at a fixed rate (2000 rps over 600 requests; 3000 rps over 60
//! under `--smoke`) and are submitted on schedule, whether or not the
//! server has caught up — the standard way to expose queueing
//! behaviour. Model popularity is Zipf-distributed, so hot models
//! exercise batching while the tail exercises cache breadth; priorities
//! are drawn 60 % `Interactive` / 25 % `Batch` / 15 % `BestEffort`.
//! Under `--smoke` the run additionally gates on zero `Interactive` SLO
//! violations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartmem_bench::json::{write_json, BenchRecord};
use smartmem_bench::{render_table, Args};
use smartmem_serve::{
    histogram_mean, CancelHandle, CutPolicy, DecodeSession, InferenceRequest, InferenceResponse,
    ModelSpec, Priority, Router, ServeConfig, ServeStats, Server, TelemetryConfig,
};
use smartmem_sim::{DeviceConfig, FaultKind, FaultPlan, FaultRates};
use smartmem_telemetry::{render_chrome, Telemetry};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load of the pool and fleet replays.
struct Load {
    /// Requests in the replayed trace.
    requests: usize,
    /// Mean arrival rate, in requests per second.
    rate_rps: f64,
    /// Wall-clock throttle of simulated device time
    /// (`ServeConfig::exec_time_scale`).
    exec_time_scale: f64,
}

const FULL_LOAD: Load = Load { requests: 600, rate_rps: 2000.0, exec_time_scale: 0.15 };
const SMOKE_LOAD: Load = Load { requests: 60, rate_rps: 3000.0, exec_time_scale: 0.02 };

/// The flags only the pool replay honours.
struct PoolOpts {
    cancel_rate: f64,
    expect_warm: bool,
    trace_out: Option<PathBuf>,
    sample_every: u64,
}

/// The flags only the fleet replay honours.
struct FleetOpts {
    replicas: usize,
    fault_rate: f64,
}

enum Mode {
    Pool(PoolOpts),
    Fleet(FleetOpts),
    Decode,
}

/// The command line, checked against the mode it selects.
struct Opts {
    smoke: bool,
    /// The pool and fleet replays' offered load: [`SMOKE_LOAD`] under
    /// `--smoke`, else [`FULL_LOAD`].
    load: &'static Load,
    seed: u64,
    cut_policy: CutPolicy,
    cache_dir: Option<PathBuf>,
    fresh_cache: bool,
    json: Option<PathBuf>,
    mode: Mode,
}

fn parse_args() -> Opts {
    let mut args = Args::from_env();
    let smoke = args.flag("--smoke");
    let seed = args.value("--seed").unwrap_or(42);
    let cut_policy = match args.value::<String>("--cut-policy").as_deref() {
        None | Some("pull") => CutPolicy::Pull,
        Some("deadline") => CutPolicy::Deadline,
        Some(other) => panic!("--cut-policy must be pull or deadline, got {other}"),
    };
    let cache_dir: Option<PathBuf> = args.value("--cache-dir");
    let fresh_cache = args.flag("--fresh-cache");
    let json = args.value("--json");
    let decode = args.flag("--decode");
    let replicas: Option<usize> = args.value("--replicas");
    let fault_rate: Option<f64> = args.value("--fault-rate");
    let cancel_rate: Option<f64> = args.value("--cancel-rate");
    let expect_warm = args.flag("--expect-warm");
    let trace_out: Option<PathBuf> = args.value("--trace-out");
    let sample_every: Option<u64> = args.value("--sample-every");
    args.finish();

    let fleet_flags = [("--replicas", replicas.is_some()), ("--fault-rate", fault_rate.is_some())];
    let pool_flags = [
        ("--cancel-rate", cancel_rate.is_some()),
        ("--expect-warm", expect_warm),
        ("--trace-out", trace_out.is_some()),
        ("--sample-every", sample_every.is_some()),
    ];
    let fleet = replicas.unwrap_or(1) > 1 || fault_rate.unwrap_or(0.0) > 0.0;
    let (mode, unhonoured) = if decode {
        ("decode", [&fleet_flags[..], &pool_flags].concat())
    } else if fleet {
        ("fleet", pool_flags.to_vec())
    } else {
        ("pool", Vec::new())
    };
    for (flag, given) in unhonoured {
        assert!(!given, "{flag} is not supported in {mode} mode");
    }
    assert!(
        !expect_warm || cache_dir.is_some(),
        "--expect-warm requires --cache-dir (a warm start needs persisted artifacts)"
    );
    assert!(
        !fresh_cache || cache_dir.is_some(),
        "--fresh-cache requires --cache-dir (without it the artifact cache lives in memory)"
    );
    let replicas = replicas.unwrap_or(1);
    let fault_rate = fault_rate.unwrap_or(0.0);
    let cancel_rate = cancel_rate.unwrap_or(0.0);
    let sample_every = sample_every.unwrap_or(1);
    assert!(replicas >= 1, "--replicas must be at least 1");
    assert!((0.0..=1.0).contains(&fault_rate), "--fault-rate must be in [0, 1]");
    assert!((0.0..=1.0).contains(&cancel_rate), "--cancel-rate must be in [0, 1]");
    assert!(sample_every >= 1, "--sample-every must be at least 1");
    let mode = if decode {
        Mode::Decode
    } else if fleet {
        Mode::Fleet(FleetOpts { replicas, fault_rate })
    } else {
        Mode::Pool(PoolOpts { cancel_rate, expect_warm, trace_out, sample_every })
    };
    let load = if smoke { &SMOKE_LOAD } else { &FULL_LOAD };
    Opts { smoke, load, seed, cut_policy, cache_dir, fresh_cache, json, mode }
}

/// The served subset of the zoo: transformer-heavy and conv models of
/// Table 7 that compile in milliseconds (the SD/Pythia giants are left
/// to the figure binaries; a serving tier would shard them anyway).
fn zoo(smoke: bool) -> Vec<ModelSpec> {
    let names: &[&str] = if smoke {
        &["ConvNext", "RegNet"]
    } else {
        &[
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
        ]
    };
    names
        .iter()
        .map(|n| {
            let entry = smartmem_models::by_name(n).unwrap_or_else(|| panic!("no model {n}"));
            ModelSpec::new(entry.name, entry.graph())
        })
        .collect()
}

fn devices() -> Vec<DeviceConfig> {
    vec![
        DeviceConfig::snapdragon_8gen2(),
        DeviceConfig::snapdragon_835(),
        DeviceConfig::dimensity_700(),
        DeviceConfig::mali_g710(),
        DeviceConfig::apple_m1(),
        DeviceConfig::server_npu(),
    ]
}

/// Percentile over a sorted slice (nearest-rank).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
    sorted[rank.min(sorted.len() - 1)]
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The server settings every mode shares.
fn serve_config(opts: &Opts, queue_capacity: usize, exec_time_scale: f64) -> ServeConfig {
    ServeConfig {
        queue_capacity,
        max_batch: 8,
        max_delay: Duration::from_millis(3),
        exec_time_scale,
        cut_policy: opts.cut_policy,
        cache_dir: opts.cache_dir.clone(),
        ..ServeConfig::default()
    }
}

/// The server settings of the pool and fleet replays.
fn replay_config(opts: &Opts) -> ServeConfig {
    let load = opts.load;
    // Big enough that the open loop never blocks on submit: arrivals
    // stay on schedule whether or not the server has caught up.
    let mut config = serve_config(opts, load.requests + 64, load.exec_time_scale);
    // The per-class budgets the trace is gated against. Smoke keeps a
    // CI-safe Interactive budget (shared runners hiccup); the full
    // trace uses the tighter production default.
    if opts.smoke {
        config.deadlines.interactive = Duration::from_millis(100);
    }
    config
}

/// The seeded open-loop schedule of the pool and fleet replays. Model,
/// class and arrival gap each come from their own seeded stream, so
/// every replay of one seed (e.g. the telemetry-overhead A/B pair)
/// issues the identical requests at the identical offsets.
struct Schedule {
    model_rng: StdRng,
    class_rng: StdRng,
    arrival_rng: StdRng,
    /// Zipf popularity: model `i` is drawn with weight `1/(i+1)`.
    weights: Vec<f64>,
    total_weight: f64,
    rate_rps: f64,
    arrival: Instant,
}

impl Schedule {
    /// A schedule whose first gap starts now.
    fn start(seed: u64, model_count: usize, rate_rps: f64) -> Self {
        let weights: Vec<f64> = (0..model_count).map(|i| 1.0 / (i + 1) as f64).collect();
        Schedule {
            model_rng: StdRng::seed_from_u64(seed),
            class_rng: StdRng::seed_from_u64(seed ^ 0x5bf0_3635),
            arrival_rng: StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15),
            total_weight: weights.iter().sum(),
            weights,
            rate_rps,
            arrival: Instant::now(),
        }
    }

    /// Sleeps until the next arrival is due, then returns its request.
    fn next(&mut self) -> InferenceRequest {
        let u = (self.arrival_rng.next_u64().max(1)) as f64 / u64::MAX as f64;
        self.arrival += Duration::from_secs_f64(-u.ln() / self.rate_rps);
        if let Some(wait) = self.arrival.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let mut x = (self.model_rng.next_u64() as f64 / u64::MAX as f64) * self.total_weight;
        let model = self
            .weights
            .iter()
            .position(|w| {
                x -= w;
                x <= 0.0
            })
            .unwrap_or(self.weights.len() - 1);
        // 60 % Interactive / 25 % Batch / 15 % BestEffort.
        let class = match self.class_rng.next_u64() % 100 {
            0..=59 => Priority::Interactive,
            60..=84 => Priority::Batch,
            _ => Priority::BestEffort,
        };
        InferenceRequest::new(model).with_priority(class)
    }
}

/// Compile-on-first-use, ahead of the measured traffic: submits
/// `request(m, d)` pinned to device `d` for every (model, device) pair
/// of `server` and waits for all of them. Returns how many it
/// submitted.
fn warm_up(
    server: &Server,
    model_count: usize,
    request: impl Fn(usize, usize) -> InferenceRequest,
) -> u64 {
    let tickets: Vec<_> = (0..model_count)
        .flat_map(|m| (0..server.pool().len()).map(move |d| (m, d)))
        .map(|(m, d)| server.submit(request(m, d).on_device(d)).expect("warmup submit"))
        .collect();
    let count = tickets.len() as u64;
    for t in tickets {
        let r = t.wait();
        assert!(r.error.is_none(), "warmup compile failed: {:?}", r.error);
    }
    count
}

/// Writes `records` for `--json`, dropping non-finite values: a class
/// with zero served requests has NaN percentiles, and JSON has no NaN.
fn write_records(path: &Path, mut records: Vec<BenchRecord>) {
    records.retain(|r| r.value.is_finite());
    write_json(path, &records).expect("write --json output");
    println!("\nwrote {} records to {}", records.len(), path.display());
}

/// A table cell: integers as such, anything else to two decimals.
fn cell(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// Renders `records` as a metric/value table.
fn records_table(title: &str, records: &[BenchRecord]) -> String {
    let rows: Vec<Vec<String>> =
        records.iter().map(|r| vec![r.metric.clone(), cell(r.value)]).collect();
    render_table(title, &["metric", "value"], &rows)
}

/// Everything one warmup-plus-replay pool run produces.
struct RunOutcome {
    responses: Vec<InferenceResponse>,
    stats: ServeStats,
    warm_stats: ServeStats,
    warmup_requests: u64,
    wall_s: f64,
    cancels_attempted: u64,
    cancels_won: u64,
    telemetry: Telemetry,
}

/// Latency and SLO figures of one priority class over the replayed
/// (post-warmup) requests.
struct ClassSummary {
    class: Priority,
    served: usize,
    cancelled: u64,
    e2e_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    slo_violations: u64,
}

impl ClassSummary {
    /// Its latency percentiles and SLO violations, by `--json` metric
    /// name.
    fn metrics(&self) -> [(&'static str, f64); 5] {
        [
            ("p50_e2e_ms", percentile(&self.e2e_ms, 50.0)),
            ("p99_e2e_ms", percentile(&self.e2e_ms, 99.0)),
            ("p50_queue_ms", percentile(&self.queue_ms, 50.0)),
            ("p99_queue_ms", percentile(&self.queue_ms, 99.0)),
            ("slo_violations", self.slo_violations as f64),
        ]
    }
}

impl RunOutcome {
    /// Served (non-cancelled) responses per second of replay wall time.
    fn throughput_rps(&self) -> f64 {
        self.responses.iter().filter(|r| !r.cancelled).count() as f64 / self.wall_s
    }

    /// Per-class figures, in [`Priority::ALL`] order. Queue wait is
    /// submit → batch claim — the time the scheduler, not the device,
    /// is responsible for.
    fn classes(&self) -> Vec<ClassSummary> {
        Priority::ALL
            .iter()
            .map(|&class| {
                let served: Vec<&InferenceResponse> =
                    self.responses.iter().filter(|r| !r.cancelled && r.priority == class).collect();
                let (cs, warm_cs) = (self.stats.class(class), self.warm_stats.class(class));
                ClassSummary {
                    class,
                    served: served.len(),
                    cancelled: cs.cancelled - warm_cs.cancelled,
                    e2e_ms: sorted(served.iter().map(|r| r.e2e_ms()).collect()),
                    queue_ms: sorted(served.iter().map(|r| r.queue_ms).collect()),
                    slo_violations: cs.slo_violations - warm_cs.slo_violations,
                }
            })
            .collect()
    }

    /// Each device's post-warmup batch-size histogram.
    fn device_histograms(&self) -> Vec<Vec<u64>> {
        let (all, warm) =
            (&self.stats.per_device_batch_histogram, &self.warm_stats.per_device_batch_histogram);
        all.iter().zip(warm).map(|(a, w)| a.iter().zip(w).map(|(a, b)| a - b).collect()).collect()
    }
}

/// One pool run: start a server, warm the caches, replay the
/// deterministic open-loop schedule, shut down.
fn run_replay(opts: &Opts, pool: &PoolOpts, telemetry_on: bool) -> RunOutcome {
    let load = opts.load;
    let models = zoo(opts.smoke);
    let model_count = models.len();
    let config = ServeConfig {
        telemetry: TelemetryConfig {
            enabled: telemetry_on,
            sample_every: pool.sample_every,
            ..TelemetryConfig::default()
        },
        ..replay_config(opts)
    };
    let server = Server::start(models, devices(), config);
    let telemetry = server.telemetry();

    let warm_start = Instant::now();
    let warmup_requests = warm_up(&server, model_count, |m, _| InferenceRequest::new(m));
    println!(
        "warmup: compiled {} (model, device) artifacts in {:.2}s",
        warmup_requests,
        warm_start.elapsed().as_secs_f64()
    );
    let warm_stats = server.stats();

    // Cancellations are issued ~one arrival after submission, so they
    // genuinely race the batcher's cut instead of always winning.
    let mut cancel_rng = StdRng::seed_from_u64(opts.seed ^ 0xc0ff_ee00);
    let mut schedule = Schedule::start(opts.seed, model_count, load.rate_rps);
    let replay_start = Instant::now();
    let mut tickets = Vec::with_capacity(load.requests);
    let mut pending_cancels: VecDeque<CancelHandle> = VecDeque::new();
    let mut cancels_attempted = 0u64;
    let mut cancels_won = 0u64;
    let mut cancel = |handle: CancelHandle| {
        cancels_attempted += 1;
        cancels_won += u64::from(handle.cancel());
    };
    for _ in 0..load.requests {
        let req = schedule.next();
        if let Some(handle) = pending_cancels.pop_front() {
            cancel(handle);
        }
        let ticket = server.submit(req).expect("submit");
        if pool.cancel_rate > 0.0
            && (cancel_rng.next_u64() as f64 / u64::MAX as f64) < pool.cancel_rate
        {
            pending_cancels.push_back(ticket.cancel_handle());
        }
        tickets.push(ticket);
    }
    pending_cancels.into_iter().for_each(cancel);
    let responses: Vec<InferenceResponse> = tickets.into_iter().map(|t| t.wait()).collect();
    let wall_s = replay_start.elapsed().as_secs_f64();
    let stats = server.shutdown();
    RunOutcome {
        responses,
        stats,
        warm_stats,
        warmup_requests,
        wall_s,
        cancels_attempted,
        cancels_won,
        telemetry,
    }
}

/// The pool replay: one server over the six-device pool, with optional
/// cancellation and tracing.
fn run_pool(opts: &Opts, pool: &PoolOpts) {
    let load = opts.load;
    // The span recorder is on when a trace was asked for; metrics are
    // always on (single atomic ops).
    let trace_run = pool.trace_out.is_some();
    println!(
        "serve_bench: {} requests over {} devices \
         (open loop, {:.0} rps, seed {}, {:?} cuts, cancel rate {:.0}%, tracing {})",
        load.requests,
        devices().len(),
        load.rate_rps,
        opts.seed,
        opts.cut_policy,
        pool.cancel_rate * 100.0,
        if trace_run { "on" } else { "off" },
    );
    let run = run_replay(opts, pool, trace_run);
    let RunOutcome { responses, stats, warm_stats, wall_s, .. } = &run;
    let wall_s = *wall_s;
    let deadlines = replay_config(opts).deadlines;

    // --- Report -------------------------------------------------------
    let served: Vec<&InferenceResponse> = responses.iter().filter(|r| !r.cancelled).collect();
    let cancelled_responses = responses.len() - served.len();
    let e2e = sorted(served.iter().map(|r| r.e2e_ms()).collect());
    let queue = sorted(served.iter().map(|r| r.queue_ms).collect());
    let failed = served.iter().filter(|r| r.error.is_some()).count();

    // Trace-only batching statistics (warmup batches subtracted).
    let trace_batches = stats.batches - warm_stats.batches;
    let hist: Vec<u64> =
        stats.batch_histogram.iter().zip(&warm_stats.batch_histogram).map(|(a, b)| a - b).collect();
    let mean_batch = histogram_mean(&hist);
    let steady = steady_hit_rate(warm_stats, stats);
    let classes = run.classes();
    let device_hists = run.device_histograms();

    let rec = |metric: &str, value: f64| BenchRecord::new("serve_bench", "pool", metric, value);
    let mut records = vec![
        rec("served", served.len() as f64),
        rec("cancelled", cancelled_responses as f64),
        rec("failed", failed as f64),
        rec("throughput_rps", served.len() as f64 / wall_s),
        rec("p50_e2e_ms", percentile(&e2e, 50.0)),
        rec("p99_e2e_ms", percentile(&e2e, 99.0)),
        rec("p50_queue_ms", percentile(&queue, 50.0)),
        rec("p99_queue_ms", percentile(&queue, 99.0)),
        rec("batches", trace_batches as f64),
        rec("mean_batch", mean_batch),
        rec("cache_hit_rate", stats.cache_hit_rate()),
        rec("steady_hit_rate", steady),
    ];
    let cache = [
        rec("compiled_artifacts", stats.compiled as f64),
        rec("cache_hits", stats.cache.hits as f64),
        rec("cache_misses", stats.cache.misses as f64),
        rec("disk_hits", stats.cache.disk_hits as f64),
    ];
    print!("{}", records_table("serve_bench summary", &[&records[..], &cache].concat()));

    let class_rows: Vec<Vec<String>> = classes
        .iter()
        .map(|c| {
            let head = [
                c.class.name().to_string(),
                format!("{}", c.served),
                format!("{}", c.cancelled),
                format!("{:.0}", deadlines.budget(c.class).as_secs_f64() * 1e3),
            ];
            head.into_iter().chain(c.metrics().map(|(_, v)| cell(v))).collect()
        })
        .collect();
    let headers: Vec<&str> = ["class", "served", "cancelled", "deadline_ms"]
        .into_iter()
        .chain(classes[0].metrics().map(|(metric, _)| metric))
        .collect();
    print!("{}", render_table("per-class latency (traced requests)", &headers, &class_rows));

    // Per-device batch histograms: pull-based growth shows up as big
    // batches on backlogged devices while idle ones keep cutting small.
    let device_rows: Vec<Vec<String>> = devices()
        .iter()
        .zip(&device_hists)
        .map(|(device, hist)| {
            let spark: Vec<String> = hist
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| format!("{}:{c}", i + 1))
                .collect();
            vec![
                device.name.clone(),
                format!("{}", hist.iter().sum::<u64>()),
                format!("{:.2}", histogram_mean(hist)),
                spark.join(" "),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "batches per device (size:count)",
            &["device", "batches", "mean", "histogram"],
            &device_rows,
        )
    );

    // --- Chrome-trace export ------------------------------------------
    if let Some(path) = &pool.trace_out {
        let trace = run.telemetry.tracer.drain();
        let requests =
            trace.spans.iter().filter(|s| s.name == smartmem_telemetry::REQUEST_SPAN).count();
        std::fs::write(path, render_chrome(&trace)).expect("write --trace-out file");
        println!(
            "\nwrote {} spans ({requests} request spans, {} dropped) to {} — load it in \
             chrome://tracing or https://ui.perfetto.dev, or run `trace_view {}`",
            trace.spans.len(),
            trace.dropped,
            path.display(),
            path.display(),
        );
        assert!(requests > 0, "a traced run must export at least one complete request span");
    }

    // Machine-readable records (written before the gates below, so CI
    // keeps the artifact even when a gate trips).
    if let Some(path) = &opts.json {
        // --- Telemetry overhead ---------------------------------------
        // The schedule replays once more with the opposite telemetry
        // setting; comparing throughputs prices the span recorder.
        // Clamped at zero: open-loop throughput is schedule-bound, so
        // negative noise just means "unmeasurable".
        println!(
            "\nmeasuring telemetry overhead (second replay, tracing {})...",
            if trace_run { "off" } else { "on" }
        );
        let other = run_replay(opts, pool, !trace_run);
        let (on_rps, off_rps) = if trace_run {
            (run.throughput_rps(), other.throughput_rps())
        } else {
            (other.throughput_rps(), run.throughput_rps())
        };
        let overhead = ((off_rps - on_rps) / off_rps * 100.0).max(0.0);
        println!(
            "telemetry overhead: {on_rps:.0} rps traced vs {off_rps:.0} rps untraced \
             ({overhead:.2}% overhead)"
        );

        records.push(rec("telemetry_overhead_pct", overhead));
        for c in &classes {
            let prefix = c.class.name().to_ascii_lowercase();
            for (metric, value) in c.metrics() {
                records.push(rec(&format!("{prefix}.{metric}"), value));
            }
        }
        for (device, hist) in devices().iter().zip(&device_hists) {
            let mean = histogram_mean(hist);
            let batches = hist.iter().sum::<u64>() as f64;
            let mean = if mean.is_finite() { mean } else { 0.0 };
            records.push(BenchRecord::new("serve_bench", device.slug(), "batches", batches));
            records.push(BenchRecord::new("serve_bench", device.slug(), "mean_batch", mean));
        }
        // The server's telemetry registry rides along flattened
        // (histograms expand to .count/.mean/.p50/.p99), so any metric
        // the stack publishes is one baseline line away from being
        // gated by bench_diff.
        for (name, value) in smartmem_telemetry::flatten(&run.telemetry.registry.snapshot()) {
            records.push(rec(&name, value));
        }
        write_records(path, records);
    }

    // Sanity gates so CI fails loudly if the serving path regresses.
    assert_eq!(
        stats.completed + stats.cancelled,
        load.requests as u64 + run.warmup_requests,
        "every request must be answered (served or cancelled)"
    );
    assert_eq!(failed, 0, "no compilation failures expected on the served zoo");
    assert_eq!(
        stats.cancelled, run.cancels_won,
        "server-side cancelled count must match the cancel() wins"
    );
    assert_eq!(
        cancelled_responses as u64, run.cancels_won,
        "every cancel win resolves its ticket as cancelled — and nothing else does"
    );
    assert!(
        served.iter().all(|r| r.batch_size >= 1),
        "served responses must have ridden a real batch"
    );
    if pool.cancel_rate > 0.0 {
        println!(
            "\ncancellation: {}/{} cancel() calls won the race \
             (the rest were already cut or served)",
            run.cancels_won, run.cancels_attempted
        );
    }
    let steady_floor = if opts.smoke { 0.8 } else { 0.9 };
    assert!(steady >= steady_floor, "steady-state cache hit rate {steady:.3} below {steady_floor}");
    // At smoke load the Interactive class must hold its SLO over the
    // traced requests: the slack-ordered scheduler has no excuse at
    // ~3000 rps over two warm models. (Warmup requests are excluded —
    // they deliberately pay the cold compiles.)
    if opts.smoke {
        let viol = classes[Priority::Interactive.index()].slo_violations;
        assert_eq!(viol, 0, "Interactive SLO violations at smoke load: {viol}");
        let interactive = sorted(
            served
                .iter()
                .filter(|r| r.priority == Priority::Interactive)
                .map(|r| r.wall_ms)
                .collect(),
        );
        let p99 = percentile(&interactive, 99.0);
        let budget_ms = deadlines.budget(Priority::Interactive).as_secs_f64() * 1e3;
        assert!(
            p99 <= budget_ms,
            "Interactive p99 wall {p99:.2} ms exceeds its {budget_ms:.0} ms budget at smoke load"
        );
    }
    // A warm start against a populated --cache-dir must never run a
    // pass sequence: every request — the very first included — decodes
    // a persisted artifact or hits the promoted in-memory entry.
    if pool.expect_warm {
        assert_eq!(
            stats.cache.misses, 0,
            "warm start performed {} cold compiles (disk artifacts missing or stale)",
            stats.cache.misses
        );
        assert!(stats.cache.disk_hits > 0, "warm start never touched the disk cache");
        assert!(
            (stats.cache_hit_rate() - 1.0).abs() < f64::EPSILON,
            "warm start must be a 100% hit rate from the first request, got {:.3}",
            stats.cache_hit_rate()
        );
        println!(
            "\nwarm start OK: zero cold compiles, {} disk hits over {} requests",
            stats.cache.disk_hits, stats.completed
        );
    }
    println!("\nserve_bench OK ({wall_s:.2}s wall)");
}

/// Hit rate over the traced (post-warmup) requests only.
fn steady_hit_rate(warm: &ServeStats, fin: &ServeStats) -> f64 {
    let hits = fin.cache.hits - warm.cache.hits;
    let misses = fin.cache.misses - warm.cache.misses;
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// The fleet replay: the open-loop schedule routed through [`Router`]
/// replicas under seeded transient fault injection, with a mid-trace
/// replica kill + warm restart when more than one replica is up. Gates
/// on zero lost requests and (at smoke) zero Interactive SLO
/// violations, and writes `serve_chaos` bench records.
fn run_fleet(opts: &Opts, fleet: &FleetOpts) {
    let load = opts.load;
    let models = zoo(opts.smoke);
    let model_count = models.len();
    let device_count = devices().len();
    let plan = (fleet.fault_rate > 0.0)
        .then(|| Arc::new(FaultPlan::new(opts.seed, FaultRates::transient(fleet.fault_rate))));
    let config = ServeConfig { fault_plan: plan.clone(), ..replay_config(opts) };
    let router = Router::start(fleet.replicas, models, devices(), config);
    println!(
        "serve_bench (fleet): {} requests over {} replicas x {} devices \
         (open loop, {:.0} rps, seed {}, fault rate {:.0}%)",
        load.requests,
        fleet.replicas,
        device_count,
        load.rate_rps,
        opts.seed,
        fleet.fault_rate * 100.0,
    );

    // --- Warmup -------------------------------------------------------
    // One pinned request per (replica, model, device), so the replay
    // measures steady-state serving on every replica. Tags stay
    // globally unique — the fault oracle is tag-keyed, so the cursed
    // set is a pure function of the seed, not the schedule.
    let warmup_tag =
        |r: usize, m: usize, d: usize| 1u64 << 40 | (r as u64) << 20 | (m as u64) << 10 | d as u64;
    let restart_tag = |m: usize, d: usize| 2u64 << 40 | (m as u64) << 10 | d as u64;
    let warm_start = Instant::now();
    let mut warmup_requests: u64 = (0..router.len())
        .map(|r| {
            let server = router.server(r).expect("replica alive at startup");
            warm_up(&server, model_count, |m, d| {
                InferenceRequest::new(m).with_tag(warmup_tag(r, m, d))
            })
        })
        .sum();
    println!(
        "warmup: compiled {} (replica, model, device) artifacts in {:.2}s",
        warmup_requests,
        warm_start.elapsed().as_secs_f64()
    );
    let interactive_viol = |per_replica: &[ServeStats]| -> u64 {
        per_replica.iter().map(|s| s.class(Priority::Interactive).slo_violations).sum()
    };
    let warm_viol = interactive_viol(&router.stats().per_replica);

    // --- Replay with mid-trace chaos ----------------------------------
    // Same deterministic open-loop schedule as the pool replay; with
    // more than one replica, slot 1 is killed a third of the way in
    // (its queued requests re-route to the survivors) and restarted at
    // two thirds (warm from the shared --cache-dir, when given).
    let chaos = fleet.replicas > 1;
    let victim = 1 % fleet.replicas;
    let mut schedule = Schedule::start(opts.seed, model_count, load.rate_rps);
    let replay_start = Instant::now();
    let mut tickets = Vec::with_capacity(load.requests);
    for i in 0..load.requests {
        if chaos && i == load.requests / 3 {
            assert!(router.kill(victim), "killing a live replica");
            println!("chaos: killed replica {victim} at request {i}");
        }
        if chaos && i == 2 * load.requests / 3 {
            assert!(router.restart(victim), "restarting the killed replica");
            println!("chaos: restarted replica {victim} at request {i}");
            // Warm the newcomer before it takes routed traffic — it
            // looks least-loaded and would otherwise absorb a herd of
            // requests while still paying per-(model, device) disk
            // decodes, exactly what an operator avoids by warming a
            // replica before re-adding it to the rotation. BestEffort
            // keeps any decode stall out of the gated Interactive
            // SLO counter.
            let server = router.server(victim).expect("replica just restarted");
            warmup_requests += warm_up(&server, model_count, |m, d| {
                InferenceRequest::new(m)
                    .with_priority(Priority::BestEffort)
                    .with_tag(restart_tag(m, d))
            });
        }
        tickets.push(router.submit(schedule.next().with_tag(i as u64)).expect("submit"));
    }
    let responses: Vec<InferenceResponse> = tickets.into_iter().map(|t| t.wait()).collect();
    let wall_s = replay_start.elapsed().as_secs_f64();

    // Zero lost requests: despite the kill and the injected faults,
    // every client ticket resolves as a success.
    for r in &responses {
        assert!(!r.cancelled, "fleet mode issues no cancels");
        assert!(
            r.error.is_none(),
            "request {} lost (error after retries/reroutes): {:?}",
            r.request_id,
            r.error
        );
    }
    let stats = router.shutdown();

    // --- Report -------------------------------------------------------
    // Machine-readable records (distinct bench name: the chaos run
    // rides in CI next to the pool smoke without key collisions).
    let rec = |metric: &str, value: f64| BenchRecord::new("serve_chaos", "fleet", metric, value);
    let mut records = vec![
        rec("recovered_requests", stats.recovered as f64),
        rec("shed_requests", stats.shed as f64),
        rec("completed", stats.completed as f64),
        rec("retried", stats.retried as f64),
        rec("killed_requests", stats.killed as f64),
        rec("rerouted", stats.rerouted as f64),
        rec("kills", stats.kills as f64),
        rec("restarts", stats.restarts as f64),
        rec("throughput_rps", responses.len() as f64 / wall_s),
    ];
    for kind in FaultKind::ALL {
        let count: u64 = stats.per_replica.iter().map(|s| s.faults[kind.index()]).sum();
        records.push(rec(&format!("faults.{}", kind.name()), count as f64));
    }
    print!("{}", records_table("serve_chaos fleet summary", &records));
    if let Some(path) = &opts.json {
        write_records(path, records);
    }

    // --- Gates --------------------------------------------------------
    // Fleet conservation: each generation's books balance, and every
    // client request (and warmup) completed exactly once somewhere.
    for (i, s) in stats.per_replica.iter().enumerate() {
        assert_eq!(
            s.submitted,
            s.completed + s.failed + s.cancelled,
            "generation {i}: conservation violated"
        );
    }
    assert_eq!(
        stats.completed,
        load.requests as u64 + warmup_requests,
        "every request must complete exactly once across the fleet"
    );
    if chaos {
        assert_eq!(stats.kills, 1, "exactly one replica kill");
        assert_eq!(stats.restarts, 1, "exactly one replica restart");
        assert_eq!(stats.rerouted, stats.killed, "every request stranded by the kill was rerouted");
    }
    // The fault oracle is tag-keyed, so `recovered` must equal the
    // cursed-tag census exactly — a pure function of the seed,
    // independent of placement, batching, kills, and thread timing.
    if let Some(plan) = &plan {
        let cursed = |tag: &u64| {
            plan.would_fault(FaultKind::ExecError, *tag)
                || plan.would_fault(FaultKind::CompileFault, *tag)
        };
        let pairs = || (0..model_count).flat_map(|m| (0..device_count).map(move |d| (m, d)));
        let warmup_tags =
            (0..fleet.replicas).flat_map(|r| pairs().map(move |(m, d)| warmup_tag(r, m, d)));
        let restart_tags = pairs().filter(|_| chaos).map(|(m, d)| restart_tag(m, d));
        let expected =
            (0..load.requests as u64).chain(warmup_tags).chain(restart_tags).filter(cursed).count()
                as u64;
        assert_eq!(
            stats.recovered, expected,
            "recovered must equal the deterministic cursed-tag census"
        );
    }
    // Zero Interactive SLO violations at smoke load, the same promise
    // the pool replay makes — retries and re-routes must hide inside
    // the budget (warmup excluded: it pays the cold compiles).
    if opts.smoke {
        let viol = interactive_viol(&stats.per_replica) - warm_viol;
        if viol != 0 {
            // Ship the offenders with the failure so a red CI run
            // explains itself.
            for r in responses.iter().filter(|r| r.wall_ms > 100.0) {
                eprintln!(
                    "  slow: id={} model={} device={} wall={:.1}ms queue={:.1}ms retries={}",
                    r.request_id, r.model, r.device, r.wall_ms, r.queue_ms, r.retries
                );
            }
        }
        assert_eq!(viol, 0, "Interactive SLO violations at smoke load: {viol}");
    }
    println!("\nserve_bench fleet OK ({wall_s:.2}s wall)");
}

/// One arm of the decode A/B: the same session + prefill workload,
/// served either step-at-a-time or as whole `decode_steps = n`
/// requests.
struct DecodeArm {
    tokens: u64,
    wall_s: f64,
    /// Simulated device milliseconds consumed by every post-warmup
    /// batch (each response contributes `exec_ms / batch_size`, so
    /// each batch is counted exactly once).
    device_ms: f64,
    /// Wall time of each decode step, sorted.
    step_wall_ms: Vec<f64>,
    /// Wall time of each prefill request, sorted.
    prefill_wall_ms: Vec<f64>,
}

impl DecodeArm {
    /// Tokens per simulated device-second.
    fn tokens_per_s(&self) -> f64 {
        self.tokens as f64 / (self.device_ms / 1e3)
    }

    fn wall_tokens_per_s(&self) -> f64 {
        self.tokens as f64 / self.wall_s
    }
}

fn run_decode_arm(
    opts: &Opts,
    continuous: bool,
    prompts: &[usize],
    gens: &[usize],
    prefill: usize,
    prefill_rate: f64,
) -> DecodeArm {
    let table = smartmem_models::decode_buckets();
    let buckets: Vec<usize> = table.buckets().to_vec();
    let models: Vec<ModelSpec> = buckets
        .iter()
        .map(|&b| {
            ModelSpec::new(format!("pythia-decode-b{b}"), smartmem_models::pythia_decode(1, b))
        })
        .collect();
    let bucket_models: Vec<(usize, usize)> =
        buckets.iter().copied().zip(0..buckets.len()).collect();
    // One device: every request for a bucket shares a single batch
    // key, so the arms differ only in *how* the work is batched, not
    // in how the scheduler spread it across a pool.
    let devices = vec![DeviceConfig::snapdragon_8gen2()];
    let total_tokens: usize = gens.iter().sum();
    // The hostage effect only manifests when the device is genuinely
    // occupied while prefill arrives, so decode keeps a realistic
    // device-time scale even at smoke load.
    let config = serve_config(opts, total_tokens + prefill + 64, 0.15);
    let server = Server::start(models, devices, config);

    // Warmup, so the A/B measures steady-state decode serving, not cold
    // compiles. It is cheap: after the first bucket, each further
    // bucket's compile replays the shared group decisions.
    warm_up(&server, bucket_models.len(), |m, _| InferenceRequest::new(m));

    let mut prefill_rng = StdRng::seed_from_u64(opts.seed ^ 0x9e3779b97f4a7c15);

    let replay_start = Instant::now();
    let mut step_wall_ms = Vec::new();
    let mut prefill_wall_ms = Vec::with_capacity(prefill);
    let mut device_ms = 0.0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = prompts
            .iter()
            .zip(gens)
            .map(|(&prompt, &gen)| {
                let server = &server;
                let bucket_models = &bucket_models;
                scope.spawn(move || {
                    if continuous {
                        let mut session = DecodeSession::new(server, bucket_models, prompt);
                        let mut dev_ms = 0.0;
                        for _ in 0..gen {
                            let r = session.step().expect("decode step");
                            dev_ms += r.exec_ms / r.batch_size as f64;
                        }
                        (session.step_wall_ms().to_vec(), dev_ms)
                    } else {
                        let target = prompt + gen;
                        let model = bucket_models
                            .iter()
                            .find(|&&(b, _)| b >= target)
                            .map(|&(_, m)| m)
                            .expect("prompt + generation fits the bucket ceiling");
                        let r = server
                            .submit(InferenceRequest::new(model).with_decode_steps(gen as u32))
                            .expect("whole-request submit")
                            .wait();
                        assert!(r.error.is_none(), "whole-request decode failed: {:?}", r.error);
                        (vec![r.wall_ms / gen as f64; gen], r.exec_ms / r.batch_size as f64)
                    }
                })
            })
            .collect();
        // Paced prefill arrivals ride along on the main thread — the
        // "mixed" in mixed prefill + decode. In the whole-request arm
        // any prefill cut into a decode batch is held hostage for all
        // `gen` iterations; continuous batching caps the hold at one.
        let mut arrival = Instant::now();
        let mut tickets = Vec::with_capacity(prefill);
        for _ in 0..prefill {
            let u = (prefill_rng.next_u64().max(1)) as f64 / u64::MAX as f64;
            arrival += Duration::from_secs_f64(-u.ln() / prefill_rate);
            if let Some(wait) = arrival.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            // Uniform over the buckets, so prefill traffic genuinely
            // shares batch keys with the decode sessions.
            let model = (prefill_rng.next_u64() as usize) % buckets.len();
            tickets.push(server.submit(InferenceRequest::new(model)).expect("prefill submit"));
        }
        for t in tickets {
            let r = t.wait();
            assert!(r.error.is_none(), "prefill failed: {:?}", r.error);
            device_ms += r.exec_ms / r.batch_size as f64;
            prefill_wall_ms.push(r.wall_ms);
        }
        for h in handles {
            let (walls, dev) = h.join().expect("decode session thread");
            step_wall_ms.extend(walls);
            device_ms += dev;
        }
    });
    let wall_s = replay_start.elapsed().as_secs_f64();
    let stats = server.shutdown();
    assert_eq!(
        stats.decode_tokens, total_tokens as u64,
        "every session's every step produced a token"
    );
    DecodeArm {
        tokens: stats.decode_tokens,
        wall_s,
        device_ms,
        step_wall_ms: sorted(step_wall_ms),
        prefill_wall_ms: sorted(prefill_wall_ms),
    }
}

/// The decode A/B: continuous batching vs whole-request batching over
/// the same bucketed-Pythia workload, gated on tokens per simulated
/// device-second (wall-clock tokens/s is reported, but the gate uses
/// device time so it is not at the mercy of a noisy CI runner).
fn run_decode(opts: &Opts) {
    let (sessions, max_gen, prefill) = if opts.smoke { (6, 12, 12) } else { (12, 48, 60) };
    let prefill_rate = if opts.smoke { 200.0 } else { 300.0 };
    // Deterministic workload shared by both arms: short prompts, long
    // mixed-length generations — the LLM chat shape. Mixed lengths are
    // the structural hostage: a whole-request batch holds the device
    // for its *longest* member's steps while shorter members stopped
    // producing tokens; continuous batching never pays that, because a
    // finished session simply stops stepping.
    let table = smartmem_models::decode_buckets();
    assert!(4 + 8 + max_gen <= table.ceiling(), "generation must fit the bucket ceiling");
    let mut workload_rng = StdRng::seed_from_u64(opts.seed ^ 0x00de_c0de);
    let prompts: Vec<usize> =
        (0..sessions).map(|_| 4 + (workload_rng.next_u64() as usize) % 8).collect();
    let gens: Vec<usize> = (0..sessions)
        .map(|_| max_gen / 2 + (workload_rng.next_u64() as usize) % (max_gen / 2 + 1))
        .collect();
    println!(
        "serve_bench (decode A/B): {sessions} sessions x {}..={max_gen} tokens + {prefill} \
         prefill over {} buckets (seed {})",
        max_gen / 2,
        table.buckets().len(),
        opts.seed,
    );
    let cont = run_decode_arm(opts, true, &prompts, &gens, prefill, prefill_rate);
    let whole = run_decode_arm(opts, false, &prompts, &gens, prefill, prefill_rate);
    assert_eq!(cont.tokens, whole.tokens, "the arms must serve equal offered load");

    let row = |label: &str, figure: fn(&DecodeArm) -> f64| {
        vec![label.to_string(), cell(figure(&cont)), cell(figure(&whole))]
    };
    let rows = vec![
        row("tokens/s (device time)", DecodeArm::tokens_per_s),
        row("tokens/s (wall)", DecodeArm::wall_tokens_per_s),
        row("p50 step (ms)", |a| percentile(&a.step_wall_ms, 50.0)),
        row("p99 step (ms)", |a| percentile(&a.step_wall_ms, 99.0)),
        row("p99 prefill (ms)", |a| percentile(&a.prefill_wall_ms, 99.0)),
        row("device ms / token", |a| a.device_ms / a.tokens as f64),
        row("tokens", |a| a.tokens as f64),
    ];
    let headers = ["metric", "continuous", "whole-request"];
    print!("{}", render_table("decode A/B (same workload)", &headers, &rows));

    let (cont_tps, whole_tps) = (cont.tokens_per_s(), whole.tokens_per_s());
    if let Some(path) = &opts.json {
        let rec =
            |metric: &str, value: f64| BenchRecord::new("serve_decode", "pool", metric, value);
        let records = vec![
            rec("decode.tokens_per_s", cont_tps),
            rec("decode.p99_step_ms", percentile(&cont.step_wall_ms, 99.0)),
            rec("decode.wall_tokens_per_s", cont.wall_tokens_per_s()),
            rec("decode.whole_tokens_per_s", whole_tps),
            rec("decode.speedup_vs_whole", cont_tps / whole_tps),
            rec("decode.tokens", cont.tokens as f64),
            rec("decode.p99_prefill_ms", percentile(&cont.prefill_wall_ms, 99.0)),
        ];
        write_records(path, records);
    }

    // The A/B gate: at equal offered load, continuous batching must
    // out-serve whole-request batching — early steps run on the small
    // (cheap) buckets instead of paying the final bucket for every
    // iteration, and prefill batch-mates stop being held hostage.
    assert!(
        cont_tps > whole_tps,
        "continuous batching must beat whole-request tokens/s: {cont_tps:.0} vs {whole_tps:.0}"
    );
    println!(
        "\nserve_bench decode OK: continuous {cont_tps:.0} tokens/s vs whole-request \
         {whole_tps:.0} tokens/s ({:.2}x, {:.2}s + {:.2}s wall)",
        cont_tps / whole_tps,
        cont.wall_s,
        whole.wall_s,
    );
}

fn main() {
    let opts = parse_args();
    if let (true, Some(dir)) = (opts.fresh_cache, &opts.cache_dir) {
        if dir.exists() {
            std::fs::remove_dir_all(dir).expect("clear --fresh-cache dir");
            println!("fresh cache: cleared {}", dir.display());
        }
    }
    match &opts.mode {
        Mode::Pool(pool) => run_pool(&opts, pool),
        Mode::Fleet(fleet) => run_fleet(&opts, fleet),
        Mode::Decode => run_decode(&opts),
    }
}
