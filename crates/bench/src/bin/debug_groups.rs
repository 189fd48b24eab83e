//! Diagnostic: prints the most expensive kernel groups of one model
//! under one framework, with the latency decomposition.
//!
//! Usage: `cargo run -p smartmem-bench --release --bin debug_groups [model] [framework]`
//! (defaults: Swin under SmartMem)

use smartmem_baselines::all_mobile_frameworks;
use smartmem_bench::Args;
use smartmem_models::by_name;
use smartmem_sim::DeviceConfig;

fn main() {
    let mut args = Args::from_env();
    let mut positionals = args.positionals().into_iter();
    args.finish();
    let model = positionals.next().unwrap_or_else(|| "Swin".into());
    let fw_name = positionals.next().unwrap_or_else(|| "SmartMem".into());
    assert!(positionals.next().is_none(), "usage: debug_groups [model] [framework]");
    let device = DeviceConfig::snapdragon_8gen2();
    let entry = by_name(&model).expect("unknown model");
    let graph = entry.graph();
    let fw = all_mobile_frameworks()
        .into_iter()
        .find(|f| f.name().eq_ignore_ascii_case(&fw_name))
        .expect("unknown framework");
    let opt = fw.optimize(&graph, &device).expect("optimize");
    let report = opt.estimate(&device);
    println!(
        "{} on {}: {:.1} ms, {} kernels ({} source ops, {} eliminated, {} fused, {} implicit)",
        fw.name(),
        entry.name,
        report.latency_ms,
        report.kernel_count,
        opt.stats.source_ops,
        opt.stats.eliminated_ops,
        opt.stats.fused_ops,
        opt.stats.implicit_inserted,
    );
    println!(
        "breakdown: compute {:.1} ms, explicit {:.1} ms, implicit {:.1} ms; dram {:.1} MB; peak mem {:.1} MB",
        report.compute_ms,
        report.explicit_ms,
        report.implicit_ms,
        report.dram_bytes as f64 / 1e6,
        report.peak_memory_bytes as f64 / 1e6
    );
    let mut groups = report.groups.clone();
    groups.sort_by(|a, b| b.cost.total_ns().partial_cmp(&a.cost.total_ns()).unwrap());
    println!("\ntop 15 kernels:");
    for g in groups.iter().take(15) {
        let kg = &opt.groups[g.index];
        let anchor = opt.graph.node(kg.anchor);
        let out_shape = &opt.graph.tensor(kg.output).shape;
        println!(
            "  {:>9.3} ms  {:<12} {:>14} members={} launch={:.0}us comp={:.2}ms mem={:.2}ms idx={:.2}ms out={} {}",
            g.cost.total_ns() / 1e6,
            anchor.op.mnemonic(),
            format!("{:?}", g.class),
            kg.members.len(),
            g.cost.launch_ns / 1e3,
            g.cost.compute_ns / 1e6,
            g.cost.memory_ns / 1e6,
            g.cost.index_ns / 1e6,
            out_shape,
            kg.output_layout,
        );
    }
}
