//! Regenerates **Table 9**: desktop-GPU (Tesla V100, FP32) comparison of
//! TorchInductor vs SmartMem's Layout Transformation Elimination +
//! layout selection (no 2.5D-texture optimization) on Swin and
//! AutoFormer. Paper: 1.23x and 1.11x.

use smartmem_baselines::TorchInductorFramework;
use smartmem_bench::{render_table, Args};
use smartmem_core::{Framework, SmartMemPipeline};
use smartmem_models::{autoformer, swin_tiny};
use smartmem_sim::DeviceConfig;

fn main() {
    Args::from_env().finish();
    let device = DeviceConfig::tesla_v100();
    let inductor = TorchInductorFramework::new();
    let ours = SmartMemPipeline::new(); // no texture on this device
    let mut rows = Vec::new();
    for (name, graph, paper) in [("Swin", swin_tiny(1), 1.23), ("AutoFormer", autoformer(1), 1.11)]
    {
        let base = inductor.run(&graph, &device).expect("inductor");
        let opt = ours.run(&graph, &device).expect("smartmem");
        rows.push(vec![
            name.to_string(),
            device.name.clone(),
            format!("{:.1}", base.latency_ms),
            format!("{:.1}", opt.latency_ms),
            format!("{:.2}x", base.latency_ms / opt.latency_ms),
            format!("{paper:.2}x"),
        ]);
    }
    print!(
        "{}",
        render_table(
            "Table 9: desktop GPU, FP32",
            &["Model", "Device", "TorchInductor ms", "Ours ms", "Speedup", "Paper"],
            &rows,
        )
    );
}
