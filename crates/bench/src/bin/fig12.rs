//! Regenerates **Fig. 12**: roofline analysis of SmartMem on the
//! Snapdragon 8 Gen 2 for Swin, ViT, ResNext and SD-VAEDecoder.
//! Paper: 149/204/271/360 GMACS, i.e. 24–35% of the texture-memory
//! roof at each model's intensity.

use smartmem_bench::{render_table, Args};
use smartmem_core::{Framework, SmartMemPipeline};
use smartmem_models::by_name;
use smartmem_sim::{roofline_gmacs, DeviceConfig};

fn main() {
    Args::from_env().finish();
    let device = DeviceConfig::snapdragon_8gen2();
    println!(
        "device: peak {:.1} TMACs/s, global BW {:.0} GB/s, texture BW {:.0} GB/s",
        device.peak_tmacs, device.global_bw_gbps, device.texture_bw_gbps
    );
    let mut rows = Vec::new();
    for name in ["Swin", "ViT", "ResNext", "SD-VAEDecoder"] {
        let graph = by_name(name).expect("model").graph();
        let r = SmartMemPipeline::new().run(&graph, &device).expect("runs");
        let intensity = r.intensity();
        let tex_roof = roofline_gmacs(&device, intensity, true);
        let glob_roof = roofline_gmacs(&device, intensity, false);
        rows.push(vec![
            name.to_string(),
            format!("{intensity:.1}"),
            format!("{:.0}", r.gmacs),
            format!("{glob_roof:.0}"),
            format!("{tex_roof:.0}"),
            format!("{:.0}%", 100.0 * r.gmacs / tex_roof),
        ]);
    }
    print!(
        "{}",
        render_table(
            "Fig. 12: roofline on Snapdragon 8 Gen 2",
            &[
                "Model",
                "MACs/byte",
                "Achieved GMACS",
                "Global roof",
                "Texture roof",
                "% of texture roof"
            ],
            &rows,
        )
    );
    println!(
        "\npaper: 149/204/271/360 GMACS at 24-35% of the texture roof, increasing with intensity."
    );
}
