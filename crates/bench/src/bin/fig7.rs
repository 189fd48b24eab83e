//! Regenerates **Fig. 7**: memory-access and cache-miss counts of all
//! frameworks on CSwin and ResNext, normalized to SmartMem (paper:
//! other frameworks use ~1.8x more accesses and ~2.0x more misses on
//! average).

use smartmem_baselines::all_mobile_frameworks;
use smartmem_bench::{render_table, Args};
use smartmem_models::{cswin, resnext50};
use smartmem_sim::DeviceConfig;

fn main() {
    Args::from_env().finish();
    let device = DeviceConfig::snapdragon_8gen2();
    let frameworks = all_mobile_frameworks();
    for (name, graph) in [("CSwin", cswin(1)), ("ResNext", resnext50(1))] {
        let mut results = Vec::new();
        for fw in &frameworks {
            let r = fw.run(&graph, &device).ok();
            results.push((fw.name().to_string(), r));
        }
        let ours = results.last().unwrap().1.as_ref().expect("smartmem runs").mem;
        let mut rows = Vec::new();
        for (fw, r) in &results {
            match r {
                Some(rep) => rows.push(vec![
                    fw.clone(),
                    format!("{:.2}", rep.mem.accesses() as f64 / ours.accesses() as f64),
                    format!("{:.2}", rep.mem.misses() as f64 / ours.misses() as f64),
                ]),
                None => rows.push(vec![fw.clone(), "–".into(), "–".into()]),
            }
        }
        print!(
            "{}",
            render_table(
                &format!("Fig. 7: memory accesses / cache misses on {name} (normalized to Ours)"),
                &["Framework", "#Mem access (x)", "#Cache miss (x)"],
                &rows,
            )
        );
    }
    println!("\npaper shape: every baseline >= 1.0x on both counters; ~1.8x accesses and ~2.0x misses on average.");
}
