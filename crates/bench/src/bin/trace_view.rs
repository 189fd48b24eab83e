//! Digest a Chrome `trace_event` JSON file captured with
//! `serve_bench --trace-out` into a terminal report: per-phase time
//! breakdown, queue-wait vs execute attribution, the slowest spans,
//! and instant-event counts.
//!
//! ```text
//! cargo run -p smartmem-bench --release --bin serve_bench -- --smoke --trace-out trace.json
//! cargo run -p smartmem-bench --release --bin trace_view -- trace.json
//! ```
//!
//! Flags: `--expect-requests N` asserts the trace contains at least N
//! complete `request` spans and exits nonzero otherwise — CI uses it
//! to prove a captured trace is well-formed end to end (parseable
//! Chrome JSON *and* carrying whole request lifecycles), not just
//! nonempty.

use smartmem_bench::Args;
use smartmem_telemetry::{parse_chrome, summarize};

fn main() {
    let mut args = Args::from_env();
    let expect_requests: Option<u64> = args.value("--expect-requests");
    let files = args.positionals();
    args.finish();
    let [path] = &files[..] else { panic!("usage: trace_view TRACE.json [--expect-requests N]") };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let trace = parse_chrome(&text).unwrap_or_else(|e| panic!("{path} is not a Chrome trace: {e}"));
    let summary = summarize(&trace);
    println!("trace_view: {path} ({} spans)", trace.spans.len());
    print!("{}", summary.render());
    if let Some(want) = expect_requests {
        let got = summary.complete_requests();
        assert!(got >= want, "expected at least {want} complete request spans, trace has {got}");
        println!("trace OK: {got} complete request spans (>= {want} required)");
    }
}
