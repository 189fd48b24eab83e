//! Regenerates the **§3.2.2 microbenchmark**: read-optimized layouts
//! (producer writes in the consumer's preferred layout) vs
//! write-optimized layouts (producer writes in its natural order and
//! the consumer reads sub-optimally). Paper: read-optimized wins by
//! 1.7x (Conv), 1.4x (MatMul), 1.1x (Activation) — the basis for
//! SmartMem's "force the producer to match the consumer" heuristic.

use smartmem_bench::{render_table, Args};
use smartmem_core::{Framework, SmartMemConfig, SmartMemPipeline};
use smartmem_ir::{DType, Graph, GraphBuilder, UnaryKind};
use smartmem_sim::DeviceConfig;

/// producer (matmul) -> transpose (eliminated) -> consumer of choice.
fn chain(consumer: &str) -> Graph {
    let mut b = GraphBuilder::new(format!("rw-{consumer}"));
    let x = b.input("x", &[512, 256], DType::F16);
    let w = b.weight("w", &[256, 1024], DType::F16);
    let mm = b.matmul(x, w); // [512, 1024]
    let t = b.transpose(mm, &[1, 0]); // consumer sees [1024, 512]
    let out = match consumer {
        "Conv" => {
            let r = b.reshape(t, &[1, 1024, 32, 16]);
            let cw = b.weight("cw", &[256, 1024, 1, 1], DType::F16);
            b.conv2d(r, cw, (1, 1), (0, 0), 1)
        }
        "MatMul" => {
            let w2 = b.weight("w2", &[512, 64], DType::F16);
            b.matmul(t, w2)
        }
        _ => b.unary(t, UnaryKind::Gelu),
    };
    b.output(out);
    b.finish()
}

fn main() {
    Args::from_env().finish();
    let device = DeviceConfig::snapdragon_8gen2();
    let mut rows = Vec::new();
    for (consumer, paper) in [("Conv", 1.7), ("MatMul", 1.4), ("Activation", 1.1)] {
        let graph = chain(consumer);
        // Read-optimized: full reduction-dimension layout selection.
        let read_opt = SmartMemPipeline::new().run(&graph, &device).expect("read-opt").latency_ms;
        // Write-optimized: LTE still on, but producers keep framework
        // default layouts (consumers read sub-optimally through maps).
        let write_opt = SmartMemPipeline::with_config(SmartMemConfig {
            lte: true,
            index_comprehension: true,
            layout_selection: false,
            texture_and_tuning: false,
            streamline: true,
        })
        .run(&graph, &device)
        .expect("write-opt")
        .latency_ms;
        rows.push(vec![
            consumer.to_string(),
            format!("{write_opt:.3}"),
            format!("{read_opt:.3}"),
            format!("{:.2}x", write_opt / read_opt),
            format!("{paper:.1}x"),
        ]);
    }
    print!(
        "{}",
        render_table(
            "§3.2.2 microbenchmark: read-optimized vs write-optimized layouts",
            &["Consumer", "Write-opt ms", "Read-opt ms", "Speedup", "Paper"],
            &rows,
        )
    );
}
