//! The bench-JSON regression gate.
//!
//! Compares one or more `--json` outputs of the bench binaries against
//! the checked-in baseline, failing (exit code 1) when any baselined
//! metric regresses beyond the tolerance:
//!
//! ```text
//! bench_diff --baseline bench/baseline.json current.json...
//! ```
//!
//! Rules:
//!
//! * Only metrics present in the **baseline** are gated. Bench runs
//!   emit more than the baseline pins (wall-clock timings, queueing
//!   percentiles — noisy on shared CI runners); those ride along as
//!   artifacts and show up here as ungated `new` rows. The baseline
//!   should pin the *deterministic* metrics: simulated latencies,
//!   speedups, request accounting.
//! * Direction comes from the metric name
//!   (`BenchRecord::higher_is_better`): throughput/rate/speedup-style
//!   metrics must not drop, everything else (latencies, bad-event
//!   counts) must not rise, each by more than `TOLERANCE` (15%) relative
//!   (absolute slack 1e-9 for zero-valued baselines).
//! * A baselined metric missing from the current runs fails the gate —
//!   silently dropping a bench is itself a regression.
//! * Improvements beyond the tolerance pass but are called out, with a
//!   hint to re-baseline so the gate keeps teeth.

use smartmem_bench::json::{parse_json, BenchRecord};
use smartmem_bench::{render_table, Args};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The relative change, either way, beyond which a baselined metric
/// counts as regressed (or improved).
const TOLERANCE: f64 = 0.15;

fn load(path: &Path) -> Vec<BenchRecord> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    parse_json(&text).unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let mut args = Args::from_env();
    let baseline_path: Option<PathBuf> = args.value("--baseline");
    let current_paths = args.positionals();
    args.finish();
    let baseline_path = baseline_path.expect("usage: bench_diff --baseline FILE CURRENT...");
    assert!(!current_paths.is_empty(), "give at least one current bench-JSON file");
    let baseline = load(&baseline_path);
    let mut current: BTreeMap<String, f64> = BTreeMap::new();
    let mut current_count = 0usize;
    for path in &current_paths {
        for r in load(Path::new(path)) {
            if current.insert(r.key(), r.value).is_some() {
                panic!("duplicate record {} across current files", r.key());
            }
            current_count += 1;
        }
    }

    let mut rows = Vec::new();
    let mut regressions = Vec::new();
    let mut improvements = 0usize;
    let mut gated_keys = std::collections::BTreeSet::new();
    for base in &baseline {
        let key = base.key();
        gated_keys.insert(key.clone());
        let (status, delta_pct) = match current.get(&key) {
            None => {
                regressions.push(format!("{key}: missing from the current run"));
                ("MISSING".to_string(), f64::NAN)
            }
            Some(&cur) => {
                let denom = base.value.abs().max(1e-9);
                let delta = (cur - base.value) / denom;
                let bad = if base.higher_is_better() { -delta } else { delta };
                if bad > TOLERANCE {
                    regressions.push(format!(
                        "{key}: {} -> {} ({:+.1}%, tolerance ±{:.0}%)",
                        base.value,
                        cur,
                        delta * 100.0,
                        TOLERANCE * 100.0
                    ));
                    ("REGRESSED".to_string(), delta * 100.0)
                } else if -bad > TOLERANCE {
                    improvements += 1;
                    ("improved".to_string(), delta * 100.0)
                } else {
                    ("ok".to_string(), delta * 100.0)
                }
            }
        };
        rows.push(vec![
            key,
            format!("{:.4}", base.value),
            current.get(&base.key()).map(|v| format!("{v:.4}")).unwrap_or_else(|| "–".to_string()),
            if delta_pct.is_nan() { "–".into() } else { format!("{delta_pct:+.1}%") },
            status,
        ]);
    }
    print!(
        "{}",
        render_table(
            &format!(
                "bench_diff vs {} (±{:.0}% tolerance)",
                baseline_path.display(),
                TOLERANCE * 100.0
            ),
            &["metric", "baseline", "current", "delta", "status"],
            &rows,
        )
    );
    let ungated = current_count - current.keys().filter(|k| gated_keys.contains(*k)).count();
    println!(
        "\n{} baselined metrics checked, {ungated} ungated records rode along as artifacts.",
        baseline.len()
    );
    if improvements > 0 {
        println!(
            "{improvements} metrics improved beyond the tolerance — consider re-baselining \
             bench/baseline.json so the gate keeps teeth."
        );
    }
    if regressions.is_empty() {
        println!("bench_diff OK: no regressions.");
        ExitCode::SUCCESS
    } else {
        println!("\nbench_diff FAILED: {} regression(s):", regressions.len());
        for r in &regressions {
            println!("  {r}");
        }
        ExitCode::FAILURE
    }
}
