#!/usr/bin/env python3
"""The repository's benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload zoo-cold --seed 1 --seconds 20 --trace 0

Builds `perfbench/` (a Cargo package of its own) from source, runs the
workload for `--seconds`, checks the outputs, and prints one JSON object as
the last line of stdout: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones, measured with no
spans recorded; with `--trace 1` they are the per-layer ones, from processes
that record spans around every layer call, alternated with untraced ones to
report what tracing costs (`trace.overhead_pct`). A human-readable table
goes to stderr. See `perfbench/README.md` for what each metric means and
which end-to-end metric each layer should move.

Workloads (each run is single-process per sample, at most 2 threads of load):
  zoo-cold    every (model, framework) job of Table 8 once, serially, in a
              fresh process over an empty artifact-cache directory
  zoo-warm    the same matrix in a fresh process over the cache directory
              that set-up filled: every compile is a disk hit
  serve-zipf  an open-loop Poisson schedule, Zipf over 10 models, sent by
              one thread to a 2-device server warmed by set-up
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("zoo-cold", "zoo-warm", "serve-zipf")
# Set-up runs this many times per run; `setup_s` is the median.
SETUPS = 3
# Serve deadline of a zoo job, taken as one Batch-class request.
ZOO_DEADLINE_MS = 250.0
FRAMEWORKS = ("MNN", "NCNN", "TFLite", "TVM", "DNNFusion")
# Table 8 geo-mean speedups of SmartMem over each baseline in the paper.
PAPER_SPEEDUP = {"MNN": 7.9, "NCNN": 1.6, "TFLite": 2.5, "TVM": 6.9, "DNNFusion": 2.8}
# The 18 models of Table 8, in table order.
MODELS = (
    "AutoFormer", "BiFormer", "CrossFormer", "CSwin", "EfficientVit", "FlattenFormer",
    "SMTFormer", "Swin", "ViT", "Conformer", "SD-TextEncoder", "SD-UNet", "SD-VAEDecoder",
    "Pythia", "ConvNext", "RegNet", "ResNext", "Yolo-V8",
)
DEVICE_SLUGS = ("snapdragon_8_gen_2", "apple_m1")
PASSES = (
    "streamline", "lte", "fusion", "assemble-groups", "layout-select", "tune",
    "support-check", "insert-relayouts", "policy-fusion", "uniform-layout",
    "finalize-utilization",
)

# name -> unit. A metric a workload does not exercise reads 0.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "zoo_s": "s",
    "compile_s": "s",
    "sim.latency_geomean_ms": "sim_ms",
    "serve.p50_ms": "ms",
    "serve.p99_ms": "ms",
    "serve.slo_met_pct": "%",
}
PER_LAYER = {
    "models.build_ms": "ms",
    "session.fingerprint_ms": "ms",
    "session.overhead_ms": "ms",
    **{f"session.{k}": "count" for k in ("hits", "misses", "disk_hits", "group_hits", "group_misses")},
    "session.group_hit_pct": "%",
    **{f"pass.{p}_ms": "ms" for p in PASSES},
    **{f"compile.{f.lower()}_ms": "ms" for f in FRAMEWORKS + ("SmartMem",)},
    "loop.other_ms": "ms",
    "streamline.removed_ops": "count",
    "streamline.transposes_removed": "count",
    "lte.eliminated_ops": "count",
    "kernels": "count",
    "estimate_ms": "ms",
    **{f"estimate.{f.lower()}_ms": "ms" for f in FRAMEWORKS + ("SmartMem",)},
    "estimate.groups": "count",
    "estimate.us_per_group": "us",
    "persist.artifacts": "count",
    "persist.bytes": "B",
    **{f"sim.{m}.latency_ms": "sim_ms" for m in MODELS},
    **{f"sim.{m}.{k}_ms": "sim_ms" for m in ("Swin", "ResNext")
       for k in ("launch", "compute", "memory", "index")},
    **{f"sim.speedup_vs_{f.lower()}": "x" for f in FRAMEWORKS},
    "serve.queue_p50_ms": "ms",
    "serve.queue_p99_ms": "ms",
    "serve.batches": "count",
    "serve.mean_batch": "req/batch",
    **{f"serve.requests.{s}": "count" for s in DEVICE_SLUGS},
    **{f"serve.busy_pct.{s}": "%" for s in DEVICE_SLUGS},
    "serve.exec_sim_ms_per_req": "sim_ms",
    "serve.compile_hit_pct": "%",
    "serve.retries": "count",
    "serve.submit_p99_us": "us",
    "serve.lateness_p99_ms": "ms",
    "trace.overhead_pct": "%",
}


# --- statistics helpers ---------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile; NaN for no values. `inf` sorts last."""
    xs = sorted(values)
    if not xs:
        return math.nan
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[min(rank, len(xs)) - 1]


def geomean(values):
    xs = list(values)
    if not xs or any(x <= 0 for x in xs):
        return math.nan
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def due_latency_ms(due_ms, sent_ms, wall_ms, ok):
    """Latency of an open-loop request from when it was due: how late the
    generator sent it plus the server's submit-to-response time. A failed
    request is slower than any limit."""
    if not ok:
        return math.inf
    return (sent_ms - due_ms) + wall_ms


def share_within(latencies, limits):
    """Percent of requests whose latency meets their limit."""
    pairs = list(zip(latencies, limits))
    return 100.0 * sum(lat <= lim for lat, lim in pairs) / len(pairs) if pairs else math.nan


# --- processes --------------------------------------------------------------

class BenchError(Exception):
    pass


def build(root, target):
    """Builds the measuring binary; returns its path."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(root / "perfbench" / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return target / "release" / "smartmem-perfbench"


def run_process(binary, *args):
    """Runs one measuring process to completion; returns its JSON line."""
    proc = subprocess.run([str(binary), *map(str, args)], stdout=subprocess.PIPE, timeout=170)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(map(str, args[:1]))} process exited with {proc.returncode}")
    return json.loads(lines[-1])


class Run:
    def __init__(self, binary, work, traces, workload, seed, seconds, trace):
        self.binary, self.work, self.seed, self.seconds, self.trace = binary, work, seed, seconds, trace
        self.traces, self.workload = traces, workload
        self.n = 0
        self.zoo_samples = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fresh_dir(self, name):
        self.n += 1
        d = self.work / f"{name}-{self.n}"
        shutil.rmtree(d, ignore_errors=True)
        return d

    def span_file(self, traced):
        """Where a traced sample writes its spans; kept after the run."""
        return ["--trace-out", self.traces / f"{self.workload}-{self.n}.json"] if traced else []

    def account(self, out, ops, failed):
        self.attempted += ops
        self.failed += failed
        self.failures += out.get("failures", [])

    def fail(self, message):
        self.failed += 1
        self.failures.append(message)

    def median(self, name, values):
        """Median of the measured values; a missing one (`null`, because
        the process could not measure it) is a failed op and makes it 0."""
        values = list(values)
        missing = sum(1 for v in values if not is_number(v))
        if missing or not values:
            self.fail(f"{name}: {missing} of {len(values)} values missing")
            return 0.0
        return statistics.median(values)

    def geomean(self, name, named):
        """Geo-mean of the values of `named` (a dict); a missing one is a
        failed op and makes it 0."""
        missing = [k for k, v in named.items() if not is_number(v) or v <= 0]
        for k in missing:
            self.fail(f"{name}: no value for {k}")
        return 0.0 if missing or not named else geomean(named.values())

    def zoo(self, cache_dir, traced, *flags):
        self.zoo_samples += 1
        out = run_process(self.binary, "zoo", "--cache-dir", cache_dir, "--seed", self.seed,
                          "--sample", self.zoo_samples, *flags, *self.span_file(traced))
        self.account(out, out["ops"], sum(1 for ok in out["job_ok"] if not ok))
        return out

    def samples(self, one):
        """Calls `one(traced)` until `seconds` have passed; with tracing,
        alternates untraced and traced samples (at least one of each)."""
        plain, traced = [], []
        start = time.monotonic()
        while time.monotonic() - start < self.seconds or not plain or (self.trace and not traced):
            use_trace = self.trace and len(traced) < len(plain)
            (traced if use_trace else plain).append(one(use_trace))
        return plain, traced


def zoo_cold(run):
    def one(traced):
        d = run.fresh_dir("cache")
        out = run.zoo(d, traced)
        shutil.rmtree(d, ignore_errors=True)
        return out
    plain, traced = run.samples(one)
    check_same_reports(run, plain + traced, plain[0]["digests"])
    return zoo_metrics(run, plain, traced, [o["setup_s"] for o in plain])


def zoo_warm(run):
    fills = []
    for i in range(SETUPS):
        d = run.fresh_dir("cache")
        fills.append(run.zoo(d, False, "--fill", *(["--reference"] if i == 0 else [])))
        if i + 1 < SETUPS:
            shutil.rmtree(d, ignore_errors=True)
    plain, traced = run.samples(lambda traced: run.zoo(d, traced))
    # The warm reports must equal the cold ones set-up produced.
    check_same_reports(run, plain + traced, fills[0]["digests"])
    return zoo_metrics(run, plain, traced, [o["setup_s"] for o in fills])


def check_same_reports(run, outs, reference):
    for out in outs:
        bad = [k for k, v in reference.items() if out["digests"].get(k) != v]
        bad += [k for k in out["digests"] if k not in reference]
        if bad:
            run.failed += len(bad)
            run.failures.append(f"{len(bad)} reports differ from the reference, e.g. {bad[0]}")


def is_number(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


def ratio(a, b):
    """`a / b`, or None when either is missing."""
    return a / b if is_number(a) and is_number(b) and b > 0 else None


def zoo_metrics(run, plain, traced, setups):
    lat = plain[0]["latency_ms"]
    # SmartMem runs every model; a missing report already failed a check
    # in the process, and is counted again here as a missing value.
    sim = {m: lat.get(f"{m}/SmartMem") for m in MODELS}
    job_ms = [ms if ok else math.inf for o in plain for ms, ok in zip(o["job_ms"], o["job_ok"])]
    if not run.trace:
        return {
            "setup_s": run.median("setup_s", setups),
            "peak_rss_mb": run.median("peak_rss_mb", (o["peak_rss_mb"] for o in plain)),
            "zoo_s": run.median("zoo_s", (o["zoo_s"] for o in plain)),
            "compile_s": run.median("compile_s", (o["compile_s"] for o in plain)),
            "sim.latency_geomean_ms": run.geomean("sim.latency_geomean_ms", sim),
            "serve.p50_ms": percentile(job_ms, 50),
            "serve.p99_ms": percentile(job_ms, 99),
            "serve.slo_met_pct": share_within(job_ms, [ZOO_DEADLINE_MS] * len(job_ms)),
        }
    layers = median_layers(run, [o["layers"] for o in traced])
    for m, ms in sim.items():
        layers[f"sim.{m}.latency_ms"] = ms if is_number(ms) else math.nan
    for fw in FRAMEWORKS:
        # Only the jobs the baseline runs (Table 8's support pattern).
        ratios = {m: ratio(lat[f"{m}/{fw}"], sim[m]) for m in MODELS if f"{m}/{fw}" in lat}
        layers[f"sim.speedup_vs_{fw.lower()}"] = run.geomean(f"sim.speedup_vs_{fw.lower()}", ratios)
    layers["trace.overhead_pct"] = overhead_pct(
        [o["zoo_s"] for o in plain], [o["zoo_s"] for o in traced])
    return layers


def median_layers(run, outs):
    """Per-layer values over traced samples: the median of each timing;
    counts must repeat exactly."""
    merged = {}
    for name in outs[0]:
        values = [o.get(name) for o in outs]
        if PER_LAYER.get(name) == "count" and len(set(values)) > 1:
            run.fail(f"{name} differs between identical runs: {values}")
        merged[name] = run.median(name, values)
    return merged


def overhead_pct(plain, traced):
    return 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)


def serve_zipf(run):
    def serve(seconds, traced, *flags):
        out = run_process(run.binary, "serve", "--work-dir", run.fresh_dir("serve"),
                          "--seed", run.seed, "--seconds", seconds,
                          *flags, *run.span_file(traced))
        run.account(out, len(out.get("ok", [])), len(out["failures"]))
        return out

    if run.trace:
        # Untraced and traced replays of the same schedule, half the time each.
        setups = []
        plain = serve(run.seconds / 2, False)
        measured = serve(run.seconds / 2, True)
    else:
        setups = [serve(run.seconds, False, "--setup-only") for _ in range(SETUPS - 1)]
        plain = measured = serve(run.seconds, False)
    return serve_metrics(run, setups, plain, measured)


def serve_metrics(run, setups, plain, measured):
    """Metrics of serve-zipf: `setups` are set-up-only outputs, `plain` an
    untraced replay and `measured` the replay the metrics come from."""
    sims = {tuple(o["sim_ms"]) for o in setups + [plain, measured]}
    if len(sims) > 1:
        run.fail("set-up estimated different latencies in identical runs")

    def latencies(o):
        return [due_latency_ms(*r) for r in zip(o["due_ms"], o["sent_ms"], o["wall_ms"], o["ok"])]

    lat = latencies(measured)
    if not run.trace:
        all_setups = setups + [measured]
        return {
            "setup_s": run.median("setup_s", (o["setup_s"] for o in all_setups)),
            "peak_rss_mb": run.median("peak_rss_mb", [measured["peak_rss_mb"]]),
            "zoo_s": run.median("zoo_s", (o["zoo_s"] for o in all_setups)),
            "compile_s": run.median("compile_s", (o["compile_s"] for o in all_setups)),
            "sim.latency_geomean_ms": run.geomean(
                "sim.latency_geomean_ms", dict(enumerate(measured["sim_ms"]))),
            "serve.p50_ms": percentile(lat, 50),
            "serve.p99_ms": percentile(lat, 99),
            "serve.slo_met_pct": share_within(lat, measured["deadline_ms"]),
        }
    m = measured
    layers = dict(m["layers"])
    served = [i for i, ok in enumerate(m["ok"]) if ok]
    per_req = [m["exec_ms"][i] / m["batch_size"][i] for i in served]
    for d, slug in enumerate(m["slugs"]):
        on_d = [i for i in served if m["device"][i] == d]
        layers[f"serve.requests.{slug}"] = len(on_d)
        busy_ms = sum(m["exec_ms"][i] / m["batch_size"][i] for i in on_d) * m["exec_time_scale"]
        layers[f"serve.busy_pct.{slug}"] = 100.0 * busy_ms / (m["replay_s"] * 1e3)
    layers.update({
        "serve.queue_p50_ms": percentile([m["queue_ms"][i] for i in served], 50),
        "serve.queue_p99_ms": percentile([m["queue_ms"][i] for i in served], 99),
        "serve.batches": m["batches"],
        "serve.mean_batch": m["mean_batch"],
        "serve.exec_sim_ms_per_req": sum(per_req) / max(1, len(per_req)),
        "serve.compile_hit_pct": 100.0 * sum(m["compile_hit"][i] for i in served) / max(1, len(served)),
        "serve.retries": sum(m["retries"][i] for i in served),
        "serve.submit_p99_us": percentile(m["submit_us"], 99),
        "serve.lateness_p99_ms": percentile([s - d for d, s in zip(m["due_ms"], m["sent_ms"])], 99),
        "trace.overhead_pct": overhead_pct([percentile(latencies(plain), 50)], [percentile(lat, 50)]),
    })
    return layers


def result_line(run, values, names):
    """The result object: every metric of `names` (name -> unit). A value
    that is missing or not a finite number is a failed op and reads 0."""
    metrics = {}
    for name, unit in names.items():
        value = values.get(name, 0.0)
        if not is_number(value):
            run.fail(f"{name} is {value}")
            value = 0.0
        metrics[name] = {"value": float(value), "unit": unit}
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def report(workload, trace, result, failures):
    names = PER_LAYER if trace else END_TO_END
    print(f"== perfbench {workload} ({'per layer' if trace else 'end to end'}) ==", file=sys.stderr)
    for name, unit in names.items():
        v = result["metrics"][name]["value"]
        extra = ""
        if name.startswith("sim.speedup_vs_"):
            fw = next(f for f in FRAMEWORKS if f.lower() == name.rsplit("_", 1)[1])
            extra = f"   (paper {PAPER_SPEEDUP[fw]}x)"
        print(f"  {name:<36} {v:>14.6g} {unit}{extra}", file=sys.stderr)
    print(f"  ops {result['attempted']}  ops_failed {result['failed']}", file=sys.stderr)
    for f in failures[:20]:
        print(f"  FAILED: {f}", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else root / target
    work = target / "perfbench-work" / f"{args.workload}-{os.getpid()}"
    traces = target / "perfbench-traces"
    try:
        binary = build(root, target)
        work.mkdir(parents=True, exist_ok=True)
        traces.mkdir(parents=True, exist_ok=True)
        run = Run(binary, work, traces, args.workload, args.seed, args.seconds, bool(args.trace))
        values = {"zoo-cold": zoo_cold, "zoo-warm": zoo_warm, "serve-zipf": serve_zipf}[args.workload](run)
    except (BenchError, subprocess.TimeoutExpired, KeyError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = result_line(run, values, PER_LAYER if args.trace else END_TO_END)
    report(args.workload, args.trace, result, run.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
