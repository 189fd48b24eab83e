//! The command-line contract of the bench binaries: each one rejects,
//! at startup, an argument it does not honour, instead of ignoring or
//! misreading it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Every binary of the crate, by name.
const BINS: [(&str, &str); 18] = [
    ("bench_diff", env!("CARGO_BIN_EXE_bench_diff")),
    ("debug_groups", env!("CARGO_BIN_EXE_debug_groups")),
    ("fig10", env!("CARGO_BIN_EXE_fig10")),
    ("fig11", env!("CARGO_BIN_EXE_fig11")),
    ("fig12", env!("CARGO_BIN_EXE_fig12")),
    ("fig7", env!("CARGO_BIN_EXE_fig7")),
    ("fig8", env!("CARGO_BIN_EXE_fig8")),
    ("fig9", env!("CARGO_BIN_EXE_fig9")),
    ("micro_rw", env!("CARGO_BIN_EXE_micro_rw")),
    ("pass_timing", env!("CARGO_BIN_EXE_pass_timing")),
    ("redundancy", env!("CARGO_BIN_EXE_redundancy")),
    ("serve_bench", env!("CARGO_BIN_EXE_serve_bench")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table2", env!("CARGO_BIN_EXE_table2")),
    ("table7", env!("CARGO_BIN_EXE_table7")),
    ("table8", env!("CARGO_BIN_EXE_table8")),
    ("table9", env!("CARGO_BIN_EXE_table9")),
    ("trace_view", env!("CARGO_BIN_EXE_trace_view")),
];

fn run(name: &str, args: &[&str]) -> Output {
    let (_, bin) = BINS.iter().find(|(n, _)| *n == name).expect("a known binary");
    Command::new(bin).args(args).output().unwrap_or_else(|e| panic!("spawn {name}: {e}"))
}

/// Asserts the run `what` failed with a message containing `expected`.
fn assert_failed(out: &Output, what: &str, expected: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{what} succeeded");
    assert!(stderr.contains(expected), "{what}: stderr lacks {expected:?}:\n{stderr}");
}

/// Asserts `args` fail the binary `name` with a message containing
/// `expected`.
fn assert_rejected(name: &str, args: &[&str], expected: &str) {
    assert_failed(&run(name, args), &format!("{name} {args:?}"), expected);
}

/// A path in the temp dir that this test process owns.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("smartmem-cli-{}-{name}", std::process::id()))
}

#[test]
fn the_list_covers_every_binary() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut on_disk: Vec<String> = std::fs::read_dir(dir)
        .expect("src/bin")
        .map(|e| e.expect("dir entry").path().file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let listed: Vec<&str> = BINS.iter().map(|(name, _)| *name).collect();
    assert_eq!(on_disk, listed);
}

#[test]
fn every_binary_rejects_an_unknown_flag() {
    for (name, _) in BINS {
        assert_rejected(name, &["--no-such-flag"], "--no-such-flag");
    }
}

#[test]
fn a_flag_is_not_taken_for_a_positional() {
    // table8's one positional is a model filter; `--smoke` used to
    // filter every model out and print an empty table.
    assert_rejected("table8", &["--smoke"], "--smoke");
}

#[test]
fn figures_reject_flags_they_do_not_honour() {
    let out = scratch("fig8.json");
    assert_rejected("fig8", &["--json", out.to_str().unwrap()], "--json");
    assert!(!out.exists(), "a rejected run wrote its --json file");
    assert_rejected("fig11", &["--import", "x.json"], "--import");
}

#[test]
fn decode_mode_rejects_trace_out() {
    let trace = scratch("decode-trace.json");
    assert_rejected(
        "serve_bench",
        &["--decode", "--smoke", "--trace-out", trace.to_str().unwrap()],
        "--trace-out is not supported in decode mode",
    );
    assert!(!trace.exists(), "a rejected run wrote its trace");
}

#[test]
fn decode_mode_rejects_expect_warm() {
    // Decode used to run cold compiles against the empty dir and pass.
    let cache = scratch("empty-cache");
    assert_rejected(
        "serve_bench",
        &["--decode", "--smoke", "--expect-warm", "--cache-dir", cache.to_str().unwrap()],
        "--expect-warm is not supported in decode mode",
    );
}

#[test]
fn fleet_mode_rejects_sample_every() {
    assert_rejected(
        "serve_bench",
        &["--replicas", "3", "--sample-every", "2"],
        "--sample-every is not supported in fleet mode",
    );
}

#[test]
fn fresh_cache_requires_a_cache_dir_and_deletes_nothing() {
    // Without --cache-dir the server keeps its cache in memory, so there
    // is no directory to clear. This path was the implied default.
    let dir = Path::new("/tmp/smartmem-cache");
    let existed = dir.exists();
    std::fs::create_dir_all(dir).expect("create the probe dir");
    let marker = dir.join(format!("cli-probe-{}", std::process::id()));
    std::fs::write(&marker, b"keep").expect("write the probe marker");
    let out = run("serve_bench", &["--smoke", "--fresh-cache"]);
    let kept = marker.exists();
    let _ = std::fs::remove_file(&marker);
    if !existed {
        let _ = std::fs::remove_dir(dir);
    }
    assert!(kept, "a bare --fresh-cache deleted {}", dir.display());
    assert_failed(&out, "serve_bench --fresh-cache", "--fresh-cache requires --cache-dir");
}
