//! Regenerates **Fig. 10**: Swin speedups vs batch size (1–16). Paper:
//! SmartMem sustains 11.6–13.2x over MNN, 4.8–5.9x over TVM and
//! 4.1–4.7x over DNNFusion across batch sizes, with baselines dropping
//! out at large batches for lack of memory.

use smartmem_baselines::{DnnFusionFramework, MnnFramework, TvmFramework};
use smartmem_bench::{render_table, Args};
use smartmem_core::{Framework, SmartMemPipeline};
use smartmem_models::swin_tiny;
use smartmem_sim::DeviceConfig;

fn main() {
    Args::from_env().finish();
    let device = DeviceConfig::snapdragon_8gen2();
    let frameworks: Vec<Box<dyn Framework>> = vec![
        Box::new(MnnFramework::new()),
        Box::new(TvmFramework::new()),
        Box::new(DnnFusionFramework::new()),
        Box::new(SmartMemPipeline::new()),
    ];
    let mut rows = Vec::new();
    for batch in [1usize, 2, 4, 6, 8, 10, 12, 14, 16] {
        let graph = swin_tiny(batch);
        let results: Vec<Option<f64>> = frameworks
            .iter()
            .map(|fw| fw.run(&graph, &device).ok().map(|r| r.latency_ms))
            .collect();
        let ours = results[3];
        let mut row = vec![batch.to_string()];
        for (i, r) in results.iter().enumerate() {
            match r {
                Some(ms) => {
                    if i < 3 {
                        match ours {
                            Some(o) => row.push(format!("{:.1}x ({ms:.0}ms)", ms / o)),
                            None => row.push(format!("{ms:.0}ms")),
                        }
                    } else {
                        row.push(format!("{ms:.0}ms"));
                    }
                }
                None => row.push("OOM".into()),
            }
        }
        rows.push(row);
    }
    print!(
        "{}",
        render_table(
            "Fig. 10: Swin across batch sizes (speedup of Ours over each baseline)",
            &["Batch", "MNN", "TVM", "DNNF", "Ours"],
            &rows,
        )
    );
}
