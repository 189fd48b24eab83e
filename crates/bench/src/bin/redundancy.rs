//! Regenerates the **§4.6 redundant-copy study**: size of redundant
//! layout copies kept for multi-consumer producers, and SmartMem's
//! operator-count / memory reduction vs DNNFusion on Swin and ViT.
//! Paper: max active copies 3.0 MB (Swin) / 2.3 MB (ViT); operator
//! count −24% / −33%; memory −14% / −15%.

use smartmem_baselines::DnnFusionFramework;
use smartmem_bench::{render_table, Args};
use smartmem_core::{Framework, SmartMemPipeline};
use smartmem_models::{swin_tiny, vit};
use smartmem_sim::DeviceConfig;

fn main() {
    Args::from_env().finish();
    let device = DeviceConfig::snapdragon_8gen2();
    let dnnf = DnnFusionFramework::new();
    let ours = SmartMemPipeline::new();
    let mut rows = Vec::new();
    for (name, graph) in [("Swin", swin_tiny(1)), ("ViT", vit(1))] {
        let b = dnnf.optimize(&graph, &device).expect("dnnf");
        let o = ours.optimize(&graph, &device).expect("ours");
        let b_mem = b.peak_memory(&device);
        let o_mem = o.peak_memory(&device);
        rows.push(vec![
            name.to_string(),
            o.stats.redundant_tensors.to_string(),
            format!("{:.1} MB", o.stats.redundant_bytes_max as f64 / 1e6),
            format!("{} -> {}", b.stats.kernel_count, o.stats.kernel_count),
            format!(
                "{:+.0}%",
                100.0 * (o.stats.kernel_count as f64 / b.stats.kernel_count as f64 - 1.0)
            ),
            format!("{:+.0}%", 100.0 * (o_mem as f64 / b_mem as f64 - 1.0)),
        ]);
    }
    print!(
        "{}",
        render_table(
            "§4.6: redundant copies and memory vs DNNFusion",
            &[
                "Model",
                "#Tensors w/ copies",
                "Max copy",
                "Kernels DNNF->Ours",
                "Op reduction",
                "Memory reduction"
            ],
            &rows,
        )
    );
    println!("\npaper: max copies 3.0/2.3 MB; op count -24%/-33%; memory -14%/-15% (Swin/ViT).");
}
