//! Observability binary for the pass-manager architecture: per-pass
//! wall-clock timing of every framework, parallel compilation of the
//! full model zoo through a [`smartmem_core::CompileSession`], and the
//! compilation cache's hit behaviour on a warm recompile.
//!
//! ```text
//! cargo run -p smartmem-bench --release --bin pass_timing
//! cargo run -p smartmem-bench --release --bin pass_timing -- --cache-dir target/smartmem-cache
//! cargo run -p smartmem-bench --release --bin pass_timing -- --smoke
//! ```
//!
//! `--smoke` compiles only the `fig11 --smoke` subset (Swin-T and
//! ResNext) in the zoo sections, instead of the whole zoo.
//!
//! With `--cache-dir`, the zoo compile writes every artifact through to
//! disk; rerunning against the same directory performs **zero** cold
//! compiles — the whole framework×model matrix is served by decoding
//! persisted artifacts (identical per-model results, `misses == 0`).

use smartmem_baselines::all_mobile_frameworks;
use smartmem_bench::json::{write_json, BenchRecord};
use smartmem_bench::{render_pass_timings, render_table, Args, SMOKE_MODELS};
use smartmem_core::{eliminate_with_options, CompileSession, Framework, SmartMemPipeline};
use smartmem_ir::{DType, Graph, GraphBuilder, UnaryKind};
use smartmem_models::{all_models, by_name};
use smartmem_sim::DeviceConfig;
use std::path::PathBuf;
use std::time::Instant;

/// A 12-block MLP stack with a distinct width per block (so every
/// kernel group is structurally distinct — no intra-model dedup), used
/// to demonstrate incremental recompilation: `edited != 0` swaps one
/// mid-stack activation, which invalidates exactly one group.
fn edit_demo_model(edited: bool) -> Graph {
    let widths = [64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240];
    let mut b = GraphBuilder::new("edit-demo");
    let mut cur = b.input("x", &[1, 16, widths[0]], DType::F16);
    for (i, pair) in widths.windows(2).enumerate() {
        let w = b.weight(format!("w{i}"), &[pair[0], pair[1]], DType::F16);
        let mm = b.matmul(cur, w);
        let kind = if edited && i == 5 { UnaryKind::Relu } else { UnaryKind::Gelu };
        cur = b.unary(mm, kind);
    }
    b.output(cur);
    b.finish()
}

fn main() {
    let mut args = Args::from_env();
    let cache_dir: Option<PathBuf> = args.value("--cache-dir");
    let json: Option<PathBuf> = args.value("--json");
    let smoke = args.flag("--smoke");
    let import: Option<PathBuf> = args.value("--import");
    args.finish();
    let device = DeviceConfig::snapdragon_8gen2();
    let frameworks = all_mobile_frameworks();
    let mut records: Vec<BenchRecord> = Vec::new();
    let rec =
        |metric: &str, value: f64| BenchRecord::new("pass_timing", device.slug(), metric, value);

    // 1b (run first). The LTE compile-time hot spot: composition +
    // strength reduction, before/after the composition memo (results
    // identical). The memo is process-wide now, so this A/B must run
    // before anything else compiles — a single earlier optimize_timed
    // would pre-warm every key and the "memoized" row would measure
    // pure lookups instead of memo-building with intra-model hits.
    let swin = smartmem_models::swin_tiny(1);
    let mut rows = Vec::new();
    for (label, memoize) in [("unmemoized", false), ("memoized", true)] {
        let start = Instant::now();
        let r = eliminate_with_options(&swin, true, true, memoize);
        let us = start.elapsed().as_secs_f64() * 1e6;
        if !memoize {
            // The true cold strength-reduction cost (memo disabled) —
            // the regression gate for the index-interning layer.
            records.push(rec("lte_simplify_ms", us / 1e3));
        }
        rows.push(vec![label.to_string(), format!("{us:.0}"), format!("{}", r.eliminated.len())]);
    }
    print!(
        "{}",
        render_table(
            "LTE composition memo on Swin-T (identical results)",
            &["variant", "us", "eliminated"],
            &rows,
        )
    );

    // 1. Per-pass timing of every framework on Swin-Tiny. The LTE memo
    // is process-wide, so the A/B above has already warmed Swin-T's
    // keys: the `lte` rows below are memo-warm lookups (the true cold
    // composition cost is the "unmemoized" row above). Say so, or the
    // table silently changes meaning versus the per-call-memo era.
    println!(
        "\n(LTE memo is warm from here on — `lte` rows below are lookup times; cold vs memoized cost is the table above)"
    );
    let mut swin_smartmem_stats = None;
    for fw in &frameworks {
        match fw.optimize_timed(&swin, &device) {
            Ok(out) => {
                if fw.name() == "SmartMem" {
                    swin_smartmem_stats = Some(out.optimized.stats);
                }
                print!("{}", render_pass_timings(fw.name(), "Swin-T", &out));
            }
            Err(e) => println!("\n== {} on Swin-T: {e} ==", fw.name()),
        }
    }

    // 1a. Streamline summary on Swin-T. The counters are deterministic
    // graph-rewrite counts, so the regression gate pins them exactly
    // (well inside its ±15% band): a pass change that stops cancelling
    // transposes fails CI even though no wall-clock moved.
    {
        let s = swin_smartmem_stats.expect("SmartMem compiles Swin-T");
        println!(
            "\nstreamline on Swin-T: {} ops removed net, {} transposes cancelled/absorbed",
            s.streamline_removed_ops, s.streamline_transposes_removed,
        );
        records.push(rec("streamline_removed_ops", s.streamline_removed_ops as f64));
        records.push(rec("streamline_transposes_removed", s.streamline_transposes_removed as f64));
    }

    // 1d. `--import FILE`: run a graph from the JSON interchange format
    // (`smartmem_ir::import`) through the SmartMem pipeline and show
    // what the streamline family did to it, pass by pass. This is the
    // CLI window onto the same machinery the fixture snapshots pin.
    if let Some(path) = &import {
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("--import {}: {e}", path.display()));
        let graph = smartmem_ir::import::import_json(&src)
            .unwrap_or_else(|e| panic!("--import {}: {e}", path.display()));
        let label = graph.name().to_string();
        let out = SmartMemPipeline::new()
            .optimize_timed(&graph, &device)
            .unwrap_or_else(|e| panic!("--import {}: {e}", path.display()));
        print!("{}", render_pass_timings("SmartMem", &label, &out));
        let s = out.optimized.stats;
        let left =
            out.optimized.graph.nodes().iter().filter(|n| n.op.mnemonic() == "Transpose").count();
        println!(
            "\nstreamline on {label}: {} -> {} ops ({} streamlined away, {} transposes removed, {} left)",
            s.source_ops,
            out.optimized.graph.op_count(),
            s.streamline_removed_ops,
            s.streamline_transposes_removed,
            left,
        );
    }

    // 1c. Incremental recompilation after a one-layer edit. A fresh
    // session compiles the 12-block demo model cold, then a variant
    // with one activation changed: the per-group decision cache replays
    // layout + tuning for the 10 untouched groups and refines only the
    // edited one, so the second compile costs a fraction of the first.
    {
        let session = CompileSession::new();
        let fw = SmartMemPipeline::new();
        let start = Instant::now();
        session.compile(&fw, &edit_demo_model(false), &device).expect("cold compile");
        let cold_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        session.compile(&fw, &edit_demo_model(true), &device).expect("incremental compile");
        let incr_ms = start.elapsed().as_secs_f64() * 1e3;
        let stats = session.stats();
        println!(
            "\nedit-one-layer recompile: cold {cold_ms:.2} ms, incremental {incr_ms:.2} ms ({} group hits / {} group misses)",
            stats.group_hits, stats.group_misses,
        );
        records.push(rec("compile_cold_ms", cold_ms));
        records.push(rec("compile_incremental_ms", incr_ms));
    }

    // 2. Parallel compile of the whole zoo across all frameworks —
    // cold on a fresh cache directory, all disk hits on a rerun.
    let session = match &cache_dir {
        Some(dir) => CompileSession::with_cache_dir(dir).expect("open cache dir"),
        None => CompileSession::new(),
    };
    let entries = if smoke {
        SMOKE_MODELS.iter().map(|name| by_name(name).expect("smoke model in the zoo")).collect()
    } else {
        all_models()
    };
    let graphs: Vec<_> = entries.iter().map(|m| m.graph()).collect();
    let cold_start = Instant::now();
    let results = session.compile_batch(&frameworks, &graphs, &device, 0);
    let cold = cold_start.elapsed();

    let mut rows = Vec::new();
    for (entry, row) in entries.iter().zip(&results) {
        let mut cells = vec![entry.name.to_string()];
        for (fw, res) in frameworks.iter().zip(row) {
            cells.push(match res {
                Ok(out) => {
                    let ms = out.total_duration().as_secs_f64() * 1e3;
                    records.push(rec(
                        &format!("{}.{}.compile_ms", entry.name, fw.name().to_ascii_lowercase()),
                        ms,
                    ));
                    format!("{ms:.1}")
                }
                Err(_) => "–".into(),
            });
        }
        rows.push(cells);
    }
    print!(
        "{}",
        render_table(
            "Compilation wall-clock per framework (ms, parallel cold compile)",
            &["Model", "MNN", "NCNN", "TFLite", "TVM", "DNNF", "Ours"],
            &rows,
        )
    );

    // 3. Warm recompile: everything must come from the cache.
    let warm_start = Instant::now();
    let _ = session.compile_batch(&frameworks, &graphs, &device, 0);
    let warm = warm_start.elapsed();
    let stats = session.stats();
    println!(
        "\nzoo x frameworks: cold {:.0} ms, warm {:.1} ms ({} cached compilations, {} hits / {} misses, {} disk hits; {} group hits / {} group misses)",
        cold.as_secs_f64() * 1e3,
        warm.as_secs_f64() * 1e3,
        session.len(),
        stats.hits,
        stats.misses,
        stats.disk_hits,
        stats.group_hits,
        stats.group_misses,
    );
    if let Some(dir) = session.cache_dir() {
        println!(
            "persistent cache: {} artifacts in {} ({} compositions in the LTE memo)",
            session.disk_len(),
            dir.display(),
            smartmem_core::lte_memo_len(),
        );
    }

    if let Some(path) = &json {
        records.push(rec("zoo_cold_compile_ms", cold.as_secs_f64() * 1e3));
        records.push(rec("zoo_warm_compile_ms", warm.as_secs_f64() * 1e3));
        write_json(path, &records).expect("write --json output");
        println!("wrote {} records to {}", records.len(), path.display());
    }
}
