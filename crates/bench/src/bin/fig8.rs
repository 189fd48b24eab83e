//! Regenerates **Fig. 8**: incremental optimization breakdown — speedup
//! over the DNNFusion level from (1) Layout Transformation Elimination,
//! (2) reduction-dimension Layout Selecting, (3) Other opts (2.5D
//! texture mapping + tuning) — plus the index-comprehension
//! contribution inside LTE.
//!
//! Paper shapes (Transformer/Hybrid): LTE 1.5–2.7x, +Layout 1.4–1.9x,
//! +Other 1.2–1.4x; ConvNets: 1.1–1.4x / 1.5–1.7x / 1.1–1.4x; index
//! comprehension contributes 1.1–1.3x of LTE's gain.

use smartmem_bench::{render_table, Args};
use smartmem_core::{Framework, SmartMemConfig, SmartMemPipeline};
use smartmem_models::by_name;
use smartmem_sim::DeviceConfig;

fn main() {
    Args::from_env().finish();
    let device = DeviceConfig::snapdragon_8gen2();
    let models =
        ["AutoFormer", "BiFormer", "EfficientVit", "CSwin", "ViT", "ConvNext", "RegNet", "ResNext"];
    let mut rows = Vec::new();
    for name in models {
        let graph = by_name(name).expect("model").graph();
        let run = |cfg: SmartMemConfig| {
            SmartMemPipeline::with_config(cfg)
                .optimize(&graph, &device)
                .expect("optimize")
                .estimate(&device)
                .latency_ms
        };
        let base = run(SmartMemConfig::dnnfusion_level());
        let lte = run(SmartMemConfig::lte_level());
        let lte_no_ic = run(SmartMemConfig {
            lte: true,
            index_comprehension: false,
            layout_selection: false,
            texture_and_tuning: false,
            streamline: true,
        });
        let layout = run(SmartMemConfig::layout_level());
        let full = run(SmartMemConfig::full());
        rows.push(vec![
            name.to_string(),
            format!("{base:.1}"),
            format!("{:.2}x", base / lte),
            format!("{:.2}x", base / layout),
            format!("{:.2}x", base / full),
            format!("{:.2}x", lte_no_ic / lte),
        ]);
    }
    print!(
        "{}",
        render_table(
            "Fig. 8: speedup over DNNFusion level (cumulative)",
            &["Model", "DNNF ms", "+LTE", "+Layout", "+Other", "IC within LTE"],
            &rows,
        )
    );
}
