//! A matrix of (model, framework, device) jobs, each a compile through a
//! [`CompileSession`] followed by an estimate, timed from outside.

use crate::report::{digest, nanos, Obj};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartmem_core::{
    graph_fingerprint, CompileOutput, CompileSession, Framework, ModelReport, Unsupported,
};
use smartmem_ir::Graph;
use smartmem_sim::{roofline_gmacs, DeviceConfig};
use smartmem_telemetry::{TraceId, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Models built through `smartmem_models`, with the build time of each.
pub struct Models {
    pub names: Vec<&'static str>,
    pub graphs: Vec<Graph>,
    pub build_ns: u64,
}

/// Builds the named models (`None` = all 18 of Table 8), in the given order.
pub fn build_models(names: Option<&[&str]>, tracer: &Tracer) -> Models {
    let entries: Vec<_> = match names {
        None => smartmem_models::all_models(),
        Some(names) => names
            .iter()
            .map(|n| smartmem_models::by_name(n).unwrap_or_else(|| panic!("no model {n}")))
            .collect(),
    };
    let start = Instant::now();
    let mut graphs = Vec::with_capacity(entries.len());
    for (i, e) in entries.iter().enumerate() {
        let mut span = tracer.span("build", "models", TraceId::NONE);
        span.arg("model", i as f64);
        graphs.push(e.graph());
    }
    Models {
        names: entries.iter().map(|e| e.name).collect(),
        graphs,
        build_ns: nanos(start.elapsed()),
    }
}

/// One (model, framework, device) job and what it measured.
pub struct Job {
    pub model: usize,
    pub framework: usize,
    pub device: usize,
    /// Wall time of the whole job: compile plus estimate.
    pub job_ns: u64,
    /// `graph_fingerprint` plus `CompileSession::compile_keyed`, which
    /// together are `CompileSession::compile`.
    pub compile_ns: u64,
    pub fingerprint_ns: u64,
    pub estimate_ns: u64,
    pub cache_hit: bool,
    pub output: Result<Arc<CompileOutput>, Unsupported>,
    /// `None` when the framework refused the model or it ran out of memory.
    pub report: Option<ModelReport>,
}

impl Job {
    /// Sum of the pass self times of a compile that ran the passes.
    pub fn pass_ns(&self) -> u64 {
        match (&self.output, self.cache_hit) {
            (Ok(out), false) => out.timings.iter().map(|t| nanos(t.duration)).sum(),
            _ => 0,
        }
    }
}

/// Runs every job serially through `session`, in the order given. Each
/// job's spans share one trace id. Returns the jobs and the wall time of
/// the whole loop.
pub fn run(
    session: &CompileSession,
    models: &Models,
    frameworks: &[Box<dyn Framework>],
    devices: &[DeviceConfig],
    order: &[(usize, usize, usize)],
    estimate: bool,
    tracer: &Tracer,
) -> (Vec<Job>, u64) {
    let start = Instant::now();
    let mut jobs = Vec::with_capacity(order.len());
    for &(m, f, d) in order {
        let (graph, framework, device) = (&models.graphs[m], frameworks[f].as_ref(), &devices[d]);
        let trace = tracer.mint().unwrap_or(TraceId::NONE);
        let mut job_span = tracer.span("job", "perfbench", trace);
        for (k, v) in [("model", m), ("framework", f), ("device", d)] {
            job_span.arg(k, v as f64);
        }
        let t0 = Instant::now();
        let fp = {
            let _span = tracer.span("fingerprint", "session", trace);
            graph_fingerprint(graph)
        };
        let t1 = Instant::now();
        let (mut output, cache_hit) = {
            let _span = tracer.span("compile", "session", trace);
            session.compile_keyed(framework, graph, fp, device)
        };
        let t2 = Instant::now();
        let mut report = None;
        if let (true, Ok(out)) = (estimate, &output) {
            let _span = tracer.span("estimate", "estimate", trace);
            match estimate_fitting(out, framework, device) {
                Ok(r) => report = Some(r),
                Err(e) => output = Err(e),
            }
        }
        let t3 = Instant::now();
        drop(job_span);
        jobs.push(Job {
            model: m,
            framework: f,
            device: d,
            job_ns: nanos(t3 - t0),
            compile_ns: nanos(t2 - t0),
            fingerprint_ns: nanos(t1 - t0),
            estimate_ns: nanos(t3 - t2),
            cache_hit,
            output,
            report,
        });
    }
    (jobs, nanos(start.elapsed()))
}

/// Estimates a compiled model, refusing it like `Framework::run` does
/// when it does not fit: roughly half of unified memory is usable for
/// one app's tensors.
pub fn estimate_fitting(
    out: &CompileOutput,
    framework: &dyn Framework,
    device: &DeviceConfig,
) -> Result<ModelReport, Unsupported> {
    let report = out.optimized.estimate(device);
    let usable = (device.memory_bytes() as f64 * 0.5) as u64;
    if report.peak_memory_bytes > usable {
        return Err(Unsupported::new(framework.name(), "insufficient memory"));
    }
    Ok(report)
}

/// Every (model, framework, device) index triple, shuffled by `seed`.
pub fn order(
    models: usize,
    frameworks: usize,
    devices: usize,
    seed: u64,
) -> Vec<(usize, usize, usize)> {
    let mut order: Vec<_> = (0..models)
        .flat_map(|m| (0..frameworks).flat_map(move |f| (0..devices).map(move |d| (m, f, d))))
        .collect();
    // Fisher-Yates.
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..i + 1));
    }
    order
}

/// Table 8's support pattern: NCNN runs only RegNet, ResNext and
/// Yolo-V8, TFLite only RegNet and ResNext; every other job succeeds.
pub fn expected_supported(model: &str, framework: &str) -> bool {
    match framework {
        "NCNN" => ["RegNet", "ResNext", "Yolo-V8"].contains(&model),
        "TFLite" => ["RegNet", "ResNext"].contains(&model),
        _ => true,
    }
}

/// Output checks of one job. `reestimate` also checks that a second
/// estimate of the same optimized graph is bit-identical. Returns the
/// failed checks.
pub fn check(
    job: &Job,
    models: &Models,
    frameworks: &[Box<dyn Framework>],
    devices: &[DeviceConfig],
    reestimate: bool,
) -> Vec<String> {
    let model = models.names[job.model];
    let framework = frameworks[job.framework].name();
    let device = &devices[job.device];
    let label = format!("{model}/{framework}/{}", device.slug());
    let mut failures = Vec::new();
    if let Err(e) = &job.output {
        if expected_supported(model, framework) {
            failures.push(format!("{label}: refused: {}", e.reason));
        }
        return failures;
    }
    if !expected_supported(model, framework) {
        failures.push(format!("{label}: ran, but Table 8 has it unsupported"));
    }
    let Some(report) = &job.report else { return failures };
    let roof = roofline_gmacs(device, report.intensity(), device.caps.texture_path);
    if report.gmacs.is_nan() || report.gmacs > roof {
        failures
            .push(format!("{label}: {:.1} GMACS above the {roof:.1} GMACS roofline", report.gmacs));
    }
    if reestimate {
        let out = job.output.as_ref().expect("checked above");
        if digest(&out.optimized.estimate(device)) != digest(report) {
            failures.push(format!("{label}: a second estimate differs from the first"));
        }
    }
    failures
}

/// Per-layer sums over a matrix run (the `session`, `pass`, `compile`,
/// `estimate` and pass-count metrics).
pub fn layers(jobs: &[Job], frameworks: &[Box<dyn Framework>], loop_ns: u64) -> Obj {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut passes: BTreeMap<&str, u64> = BTreeMap::new();
    let mut per_fw_compile: BTreeMap<&str, u64> = BTreeMap::new();
    let mut per_fw_estimate: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut removed, mut transposes, mut eliminated, mut kernels, mut groups) = (0, 0, 0, 0, 0);
    for job in jobs {
        let name = frameworks[job.framework].name();
        *per_fw_compile.entry(name).or_default() += job.compile_ns;
        *per_fw_estimate.entry(name).or_default() += job.estimate_ns;
        if let (Ok(out), false) = (&job.output, job.cache_hit) {
            for t in &out.timings {
                *passes.entry(t.pass.as_str()).or_default() += nanos(t.duration);
            }
        }
        if let Ok(out) = &job.output {
            let s = &out.optimized.stats;
            removed += s.streamline_removed_ops;
            transposes += s.streamline_transposes_removed;
            eliminated += s.eliminated_ops;
            kernels += s.kernel_count;
        }
        groups += job.report.as_ref().map_or(0, |r| r.groups.len());
    }
    let sum = |f: fn(&Job) -> u64| jobs.iter().map(f).sum::<u64>();
    let compile = sum(|j| j.compile_ns);
    let estimate = sum(|j| j.estimate_ns);
    let fingerprint = sum(|j| j.fingerprint_ns);
    let overhead = compile.saturating_sub(fingerprint + sum(Job::pass_ns));
    let mut obj = Obj::new()
        .num("session.fingerprint_ms", ms(fingerprint))
        .num("session.overhead_ms", ms(overhead))
        .num("estimate_ms", ms(estimate))
        .int("estimate.groups", groups as u64)
        .num("estimate.us_per_group", estimate as f64 / 1e3 / groups.max(1) as f64)
        .num("loop.other_ms", ms(loop_ns.saturating_sub(compile + estimate)))
        .int("streamline.removed_ops", removed as u64)
        .int("streamline.transposes_removed", transposes as u64)
        .int("lte.eliminated_ops", eliminated as u64)
        .int("kernels", kernels as u64);
    for (pass, ns) in passes {
        obj = obj.num(&format!("pass.{pass}_ms"), ms(ns));
    }
    for (fw, ns) in per_fw_compile {
        obj = obj.num(&format!("compile.{}_ms", fw.to_lowercase()), ms(ns));
    }
    for (fw, ns) in per_fw_estimate {
        obj = obj.num(&format!("estimate.{}_ms", fw.to_lowercase()), ms(ns));
    }
    obj
}
