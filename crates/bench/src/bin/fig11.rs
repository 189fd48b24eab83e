//! Regenerates **Fig. 11**: portability — speedups over each baseline
//! across the whole device pool, from the 4 GB Dimensity 700 to a
//! server-class NPU. Paper shape: similar speedups despite very
//! different resources; some baselines fail on the 4 GB device (e.g.
//! ConvNext under MNN/TVM). The layout each device ends up with differs
//! (2.5D textures on Adreno/Mali, 1D buffers on Apple/NPU/desktop) but
//! the elimination machinery carries over — that is the portability
//! claim, and it falls out of the capability model: no device is
//! special-cased anywhere in layout selection.
//!
//! The run ends with an AFBC A/B on the Mali-G710 profile: the same
//! compiled models with framebuffer compression toggled off, asserting
//! that AFBC-on beats AFBC-off on at least one texture-bound model.
//!
//! Flags: `--smoke` (tiny model subset for CI), `--json PATH`
//! (machine-readable records for the `bench_diff` regression gate).

use smartmem_baselines::all_mobile_frameworks;
use smartmem_bench::json::{write_json, BenchRecord};
use smartmem_bench::{parse_bench_args, render_table, SMOKE_MODELS};
use smartmem_core::{Framework, SmartMemPipeline};
use smartmem_models::by_name;
use smartmem_sim::DeviceConfig;

/// The seven-device portability pool.
fn devices() -> Vec<DeviceConfig> {
    vec![
        DeviceConfig::dimensity_700(),
        DeviceConfig::snapdragon_835(),
        DeviceConfig::snapdragon_8gen2(),
        DeviceConfig::mali_g710(),
        DeviceConfig::apple_m1(),
        DeviceConfig::server_npu(),
        DeviceConfig::tesla_v100(),
    ]
}

fn main() {
    let args = parse_bench_args();
    assert!(args.cache_dir.is_none(), "fig11 takes --smoke and --json only");
    let models: &[&str] = if args.smoke {
        SMOKE_MODELS
    } else {
        &["CSwin", "FlattenFormer", "SMTFormer", "Swin", "ViT", "ConvNext", "ResNext", "Yolo-V8"]
    };
    let mut records: Vec<BenchRecord> = Vec::new();

    for device in devices() {
        let frameworks = all_mobile_frameworks();
        let slug = device.slug();
        let mut rows = Vec::new();
        for name in models {
            let graph = by_name(name).expect("model").graph();
            let results: Vec<Option<f64>> = frameworks
                .iter()
                .map(|fw| fw.run(&graph, &device).ok().map(|r| r.latency_ms))
                .collect();
            let ours = results.last().copied().flatten();
            let mut row = vec![name.to_string()];
            for (fw, r) in frameworks.iter().zip(&results).take(frameworks.len() - 1) {
                match (r, ours) {
                    (Some(ms), Some(o)) => {
                        row.push(format!("{:.1}x", ms / o));
                        records.push(BenchRecord::new(
                            "fig11",
                            &slug,
                            format!("{name}.speedup_vs_{}", fw.name().to_ascii_lowercase()),
                            ms / o,
                        ));
                    }
                    _ => row.push("–".into()),
                }
            }
            row.push(match ours {
                Some(o) => {
                    records.push(BenchRecord::new("fig11", &slug, format!("{name}.latency_ms"), o));
                    format!("{o:.0}ms")
                }
                None => "–".into(),
            });
            rows.push(row);
        }
        print!(
            "{}",
            render_table(
                &format!("Fig. 11: speedups over baselines on {}", device.name),
                &["Model", "MNN", "NCNN", "TFLite", "TVM", "DNNF", "Ours"],
                &rows,
            )
        );
    }
    println!("\n'–' = unsupported (missing operators or insufficient device memory).");

    // --- AFBC A/B on the Mali profile --------------------------------
    // Same models, same compiled kernels; only the texture-path
    // bandwidth moves. Conv-heavy models with memory-bound kernels gain
    // the most; launch-/compute-bound ones are diluted toward 1.0x —
    // but compression must never lose.
    let mali_on = DeviceConfig::mali_g710();
    let mali_off = mali_on.clone().with_afbc(false);
    let ab_models: &[&str] = if args.smoke {
        &["RegNet", "EfficientVit"]
    } else {
        &["RegNet", "EfficientVit", "ResNext", "Yolo-V8", "Swin"]
    };
    let mut best = ("", 0.0f64);
    let mut rows = Vec::new();
    for name in ab_models {
        let graph = by_name(name).expect("model").graph();
        let on = SmartMemPipeline::new().run(&graph, &mali_on).expect("mali compile").latency_ms;
        let off = SmartMemPipeline::new().run(&graph, &mali_off).expect("mali compile").latency_ms;
        let speedup = off / on;
        if speedup > best.1 {
            best = (name, speedup);
        }
        records.push(BenchRecord::new(
            "fig11",
            mali_on.slug(),
            format!("{name}.afbc_speedup"),
            speedup,
        ));
        rows.push(vec![
            name.to_string(),
            format!("{on:.1}"),
            format!("{off:.1}"),
            format!("{speedup:.3}x"),
        ]);
    }
    print!(
        "{}",
        render_table(
            "AFBC A/B on Mali-G710 (same kernels, compression toggled)",
            &["Model", "AFBC on (ms)", "AFBC off (ms)", "speedup"],
            &rows,
        )
    );
    assert!(
        best.1 > 1.01,
        "AFBC-on must beat AFBC-off on at least one texture-bound model (best: {} at {:.3}x)",
        best.0,
        best.1
    );
    println!("\nAFBC A/B OK: best gain {:.3}x on {}", best.1, best.0);

    if let Some(path) = &args.json {
        write_json(path, &records).expect("write --json output");
        println!("wrote {} records to {}", records.len(), path.display());
    }
}
