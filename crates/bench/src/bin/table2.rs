//! Regenerates **Table 2**: characteristics of 1D buffer memory vs 2.5D
//! texture memory, plus the measured locality advantage that motivates
//! them (the paper cites a 3.5x conv latency reduction from texture
//! memory).

use smartmem_bench::{render_table, Args};
use smartmem_core::{Framework, SmartMemConfig, SmartMemPipeline};
use smartmem_ir::{DType, GraphBuilder, UnaryKind};
use smartmem_sim::{CacheConfig, CacheSim, DeviceConfig};

fn main() {
    Args::from_env().finish();
    // Qualitative half of Table 2.
    let rows = vec![
        vec!["Computation acceleration engine".into(), "N".into(), "Y".into()],
        vec!["Automatic bounds checking".into(), "N".into(), "Y".into()],
        vec!["Hardware interpolation".into(), "N".into(), "Y".into()],
        vec!["Organization".into(), "Contiguous".into(), "Multidimensional".into()],
        vec!["Addressing".into(), "Pointer-based".into(), "Coordinates".into()],
        vec!["Dedicated cache".into(), "No".into(), "Yes".into()],
        vec!["Data locality".into(), "1D".into(), "2.5D".into()],
        vec!["Direct CPU access".into(), "Yes".into(), "No".into()],
    ];
    print!(
        "{}",
        render_table(
            "Table 2: memory comparison on mobile GPUs",
            &["Characteristic", "1D buffer", "2.5D texture"],
            &rows
        )
    );

    // Quantitative: column walks through a 2-D data set. 1-D lines only
    // help along rows; 2-D tiles help along both axes.
    let mut linear = CacheSim::new(CacheConfig { size_bytes: 32 << 10, line_bytes: 64, ways: 4 });
    let mut tiled = CacheSim::new(CacheConfig { size_bytes: 32 << 10, line_bytes: 64, ways: 4 });
    let width = 512u64;
    for x in 0..64u64 {
        for y in 0..64u64 {
            // Column-major walk. Linear lines: key from row-major offset.
            linear.access((y * width + x) * 2 / 64);
            // 2-D tiles of 4x2 texels.
            tiled.access((y / 2) << 20 | (x / 4));
        }
    }
    println!(
        "\ncolumn-walk miss ratio: 1D lines {:.2}, 2.5D tiles {:.2} ({:.1}x fewer misses)",
        linear.miss_ratio(),
        tiled.miss_ratio(),
        linear.miss_ratio() / tiled.miss_ratio()
    );

    // Conv latency from texture vs buffer (paper: ~3.5x).
    let device = DeviceConfig::snapdragon_8gen2();
    // A bandwidth-bound depthwise convolution exposes the memory-class
    // difference (compute-bound convolutions hide it).
    let mut b = GraphBuilder::new("conv-micro");
    let x = b.input("x", &[1, 64, 224, 224], DType::F16);
    let w = b.weight("w", &[64, 1, 3, 3], DType::F16);
    let c = b.conv2d(x, w, (1, 1), (1, 1), 64);
    let r = b.unary(c, UnaryKind::Relu);
    b.output(r);
    let g = b.finish();

    let with_texture = SmartMemPipeline::new().optimize(&g, &device).unwrap().estimate(&device);
    let mut no_texture_device = device.clone();
    no_texture_device.caps.texture_path = false;
    no_texture_device.caps.max_texture_extent = 0;
    let buffer_only = SmartMemPipeline::with_config(SmartMemConfig::full())
        .optimize(&g, &no_texture_device)
        .unwrap()
        .estimate(&no_texture_device);
    println!(
        "depthwise conv 3x3 64ch @224x224: buffer-only {:.2} ms vs texture {:.2} ms ({:.1}x; paper reports ~3.5x)",
        buffer_only.latency_ms,
        with_texture.latency_ms,
        buffer_only.latency_ms / with_texture.latency_ms
    );
}
