//! Regenerates **Fig. 9**: how each optimization level changes memory
//! accesses and cache misses on CSwin and ResNext. Paper shape: LTE
//! mostly reduces *memory accesses* (data reorganization disappears);
//! Layout Selecting mostly reduces *cache misses* (better access
//! patterns).

use smartmem_bench::{render_table, Args};
use smartmem_core::{Framework, SmartMemConfig, SmartMemPipeline};
use smartmem_models::{cswin, resnext50};
use smartmem_sim::DeviceConfig;

fn main() {
    Args::from_env().finish();
    let device = DeviceConfig::snapdragon_8gen2();
    for (name, graph) in [("CSwin", cswin(1)), ("ResNext", resnext50(1))] {
        let levels = [
            ("DNNF", SmartMemConfig::dnnfusion_level()),
            ("+LTE", SmartMemConfig::lte_level()),
            ("+Layout", SmartMemConfig::layout_level()),
            ("+Other", SmartMemConfig::full()),
        ];
        let reports: Vec<_> = levels
            .iter()
            .map(|(label, cfg)| {
                let r = SmartMemPipeline::with_config(*cfg)
                    .optimize(&graph, &device)
                    .expect("optimize")
                    .estimate(&device);
                (*label, r)
            })
            .collect();
        let last = &reports.last().unwrap().1.mem;
        let rows: Vec<Vec<String>> = reports
            .iter()
            .map(|(label, r)| {
                vec![
                    label.to_string(),
                    format!("{:.2}", r.mem.accesses() as f64 / last.accesses() as f64),
                    format!("{:.2}", r.mem.misses() as f64 / last.misses() as f64),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(
                &format!("Fig. 9: optimization breakdown on {name} (normalized to +Other)"),
                &["Level", "#Mem access (x)", "#Cache miss (x)"],
                &rows,
            )
        );
    }
}
