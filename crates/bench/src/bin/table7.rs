//! Regenerates **Table 7**: operator counts after optimization for all
//! six frameworks on the 18 evaluated models, plus SmartMem's fusion
//! ratio over DNNFusion (paper: 1.1–1.7x for Transformer/Hybrid).
//!
//! Pass `--cache-dir DIR` to back the compilation session with the
//! persistent artifact cache: a rerun against the same directory
//! regenerates the table without a single cold compile.

use smartmem_baselines::all_mobile_frameworks;
use smartmem_bench::{render_table, Args};
use smartmem_core::CompileSession;
use smartmem_models::all_models;
use smartmem_sim::DeviceConfig;
use std::path::PathBuf;

fn main() {
    let mut args = Args::from_env();
    let cache_dir: Option<PathBuf> = args.value("--cache-dir");
    args.finish();
    let device = DeviceConfig::snapdragon_8gen2();
    let frameworks = all_mobile_frameworks();
    // All framework x model compilations run in parallel through one
    // cached compilation session (disk-backed under --cache-dir).
    let session = match &cache_dir {
        Some(dir) => CompileSession::with_cache_dir(dir).expect("open cache dir"),
        None => CompileSession::new(),
    };
    let entries = all_models();
    let graphs: Vec<_> = entries.iter().map(|m| m.graph()).collect();
    let results = session.compile_batch(&frameworks, &graphs, &device, 0);
    let mut rows = Vec::new();
    let mut ours_vs_dnnf = Vec::new();
    for ((m, graph), row_results) in entries.iter().zip(&graphs).zip(&results) {
        let mut row = vec![
            m.name.to_string(),
            format!("{:?}", m.family),
            graph.op_count().to_string(),
            format!("{:.1}", graph.param_count() as f64 / 1e6),
            format!("{:.1}", graph.total_macs() as f64 / 1e9),
        ];
        let mut counts = Vec::new();
        for res in row_results {
            match res {
                Ok(out) => {
                    row.push(out.optimized.stats.kernel_count.to_string());
                    counts.push(Some(out.optimized.stats.kernel_count));
                }
                Err(_) => {
                    row.push("–".into());
                    counts.push(None);
                }
            }
        }
        if let (Some(Some(dnnf)), Some(Some(ours))) = (counts.get(4), counts.get(5)) {
            ours_vs_dnnf.push((m.name, *dnnf as f64 / *ours as f64));
        }
        rows.push(row);
    }
    print!(
        "{}",
        render_table(
            "Table 7: #operators with optimizations",
            &[
                "Model",
                "Type",
                "#Ops",
                "Params(M)",
                "MACs(G)",
                "MNN",
                "NCNN",
                "TFLite",
                "TVM",
                "DNNF",
                "Ours"
            ],
            &rows,
        )
    );
    println!("\nSmartMem fusion ratio over DNNFusion (paper: up to 1.7x):");
    for (name, r) in ours_vs_dnnf {
        println!("  {name:>16}: {r:.2}x");
    }
    if session.cache_dir().is_some() {
        let stats = session.stats();
        println!(
            "\npersistent cache: {} cold compiles, {} disk hits ({} artifacts on disk)",
            stats.misses,
            stats.disk_hits,
            session.disk_len(),
        );
    }
}
