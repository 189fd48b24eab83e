//! Regenerates **Table 1**: latency and layout-transformation breakdown
//! of an MNN-style framework across CNN-era and Transformer-era models
//! (the paper's motivation study: transformers spend 43–70% of their
//! time in layout transformations).

use smartmem_baselines::MnnFramework;
use smartmem_bench::{render_table, Args};
use smartmem_core::Framework;
use smartmem_models::table1_models;
use smartmem_sim::DeviceConfig;

fn main() {
    Args::from_env().finish();
    let device = DeviceConfig::snapdragon_8gen2();
    let mnn = MnnFramework::new();
    let mut rows = Vec::new();
    for m in table1_models() {
        let graph = m.graph();
        let transforms = graph.layout_transform_count();
        match mnn.optimize(&graph, &device) {
            Ok(opt) => {
                let r = opt.estimate(&device);
                rows.push(vec![
                    m.name.to_string(),
                    format!("{:.1}", graph.total_macs() as f64 / 1e9),
                    transforms.to_string(),
                    format!("{:.0}", r.latency_ms),
                    format!("{:.1}", 100.0 * r.implicit_ms / r.latency_ms),
                    format!("{:.1}", 100.0 * r.explicit_ms / r.latency_ms),
                    format!("{:.1}", 100.0 * r.compute_ms / r.latency_ms),
                    format!("{:.0}", r.gmacs),
                ]);
            }
            Err(e) => rows.push(vec![m.name.to_string(), "-".into(), "-".into(), e.reason.clone()]),
        }
    }
    print!(
        "{}",
        render_table(
            "Table 1: latency and transformation breakdown (MNN-style framework, Snapdragon 8 Gen 2)",
            &["Model", "#MACs(G)", "#Transforms", "Lat(ms)", "Imp.%", "Exp.%", "Comp.%", "GMACS"],
            &rows,
        )
    );
    println!("\npaper shape: ConvNets spend <20% in transforms; Transformers 43-70%;\ntransformer GMACS ~an order of magnitude below ConvNets'.");
}
