//! Regenerates **Table 8**: end-to-end latency and speed (GMACS) of the
//! six frameworks on the Snapdragon 8 Gen 2 GPU across all 18 models,
//! plus geo-mean speedups of SmartMem over each baseline.
//!
//! Usage: `cargo run -p smartmem-bench --release --bin table8 [model-filter]`

use smartmem_baselines::all_mobile_frameworks;
use smartmem_bench::{geo_mean, latency_cell, render_table, speed_cell, Args, RunResult};
use smartmem_models::all_models;
use smartmem_sim::DeviceConfig;

fn main() {
    let mut args = Args::from_env();
    let filter = args.positionals();
    args.finish();
    assert!(filter.len() <= 1, "usage: table8 [model-filter]");
    let device = DeviceConfig::snapdragon_8gen2();
    let frameworks = all_mobile_frameworks();
    let mut rows = Vec::new();
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); frameworks.len()];

    for m in all_models() {
        if let Some(f) = filter.first() {
            if !m.name.to_lowercase().contains(&f.to_lowercase()) {
                continue;
            }
        }
        let graph = m.graph();
        let results: Vec<RunResult> = frameworks.iter().map(|fw| fw.run(&graph, &device)).collect();
        let ours = results.last().expect("smartmem column").as_ref().ok().map(|r| r.latency_ms);
        let mut row = vec![m.name.to_string(), format!("{:.1}", graph.total_macs() as f64 / 1e9)];
        for r in &results {
            row.push(latency_cell(r));
        }
        for r in &results {
            row.push(speed_cell(r));
        }
        if let (Some(ours_ms), Ok(dnnf)) = (ours, results[4].as_ref()) {
            row.push(format!("{:.1}x", dnnf.latency_ms / ours_ms));
        } else {
            row.push("–".into());
        }
        if let Some(ours_ms) = ours {
            for (i, r) in results.iter().enumerate() {
                if let Ok(rep) = r {
                    speedups[i].push(rep.latency_ms / ours_ms);
                }
            }
        }
        rows.push(row);
    }

    let headers = [
        "Model",
        "GMACs",
        "MNN ms",
        "NCNN ms",
        "TFLite ms",
        "TVM ms",
        "DNNF ms",
        "Ours ms",
        "MNN G/s",
        "NCNN G/s",
        "TFLite G/s",
        "TVM G/s",
        "DNNF G/s",
        "Ours G/s",
        "vs DNNF",
    ];
    print!(
        "{}",
        render_table("Table 8: end-to-end latency on Snapdragon 8 Gen 2", &headers, &rows)
    );

    println!("\nGeo-mean speedup of SmartMem over:");
    for (i, fw) in frameworks.iter().enumerate().take(frameworks.len() - 1) {
        println!(
            "  {:>10}: {:.1}x   (paper: MNN 7.9x, NCNN 1.6x, TFLite 2.5x, TVM 6.9x, DNNF 2.8x)",
            fw.name(),
            geo_mean(&speedups[i])
        );
    }
}
