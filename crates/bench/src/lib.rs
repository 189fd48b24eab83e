//! # smartmem-bench
//!
//! The harness that regenerates every table and figure of the SmartMem
//! paper's evaluation (see `DESIGN.md` for the experiment index). Each
//! table/figure has a dedicated binary (`cargo run -p smartmem-bench
//! --release --bin table8`), all built on the helpers here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use smartmem_core::{CompileOutput, ModelReport, OptStats, Unsupported};
use std::fmt::Display;
use std::str::FromStr;

/// Renders an ASCII table with right-aligned columns.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths.iter())
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Result of running one framework on one model.
pub type RunResult = Result<ModelReport, Unsupported>;

/// Formats a latency cell ("–" for unsupported models, as in the
/// paper's tables).
pub fn latency_cell(r: &RunResult) -> String {
    match r {
        Ok(rep) => format!("{:.1}", rep.latency_ms),
        Err(_) => "–".to_string(),
    }
}

/// Formats a speed (GMACS) cell.
pub fn speed_cell(r: &RunResult) -> String {
    match r {
        Ok(rep) => format!("{:.0}", rep.gmacs),
        Err(_) => "–".to_string(),
    }
}

/// Geometric mean of a list of ratios.
pub fn geo_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Renders the per-pass wall-clock timing and [`OptStats`] deltas of a
/// pass-manager compilation as an ASCII table.
pub fn render_pass_timings(framework: &str, model: &str, output: &CompileOutput) -> String {
    let mut rows = Vec::new();
    let mut prev =
        OptStats { source_ops: output.optimized.stats.source_ops, ..OptStats::default() };
    for t in &output.timings {
        let d_kernels = t.stats.kernel_count as i64 - prev.kernel_count as i64;
        let d_elim = t.stats.eliminated_ops as i64 - prev.eliminated_ops as i64;
        let d_implicit = t.stats.implicit_inserted as i64 - prev.implicit_inserted as i64;
        let d_sl = t.stats.streamline_removed_ops as i64 - prev.streamline_removed_ops as i64;
        let d_sl_t = t.stats.streamline_transposes_removed as i64
            - prev.streamline_transposes_removed as i64;
        rows.push(vec![
            t.pass.clone(),
            format!("{:.1}", t.duration.as_secs_f64() * 1e6),
            format!("{:+}", d_kernels),
            format!("{:+}", d_elim),
            format!("{:+}", d_implicit),
            format!("{:+}", d_sl),
            format!("{:+}", d_sl_t),
        ]);
        prev = t.stats;
    }
    rows.push(vec![
        "total".into(),
        format!("{:.1}", output.total_duration().as_secs_f64() * 1e6),
        format!("{}", output.optimized.stats.kernel_count),
        format!("{}", output.optimized.stats.eliminated_ops),
        format!("{}", output.optimized.stats.implicit_inserted),
        format!("{}", output.optimized.stats.streamline_removed_ops),
        format!("{}", output.optimized.stats.streamline_transposes_removed),
    ]);
    render_table(
        &format!("{framework} on {model}: per-pass timing"),
        &["pass", "us", "Δkernels", "Δeliminated", "Δimplicit", "Δstreamlined", "Δtransposes"],
        &rows,
    )
}

/// The models a `--smoke` run covers, where a binary's full run walks
/// a larger part of the zoo.
pub const SMOKE_MODELS: &[&str] = &["Swin", "ResNext"];

/// The one command-line parser of the bench binaries.
///
/// A binary takes the flags it honours, then calls [`Args::finish`]
/// before it does any work, so a stray or misspelt argument fails the
/// run instead of being ignored:
///
/// ```
/// use smartmem_bench::Args;
/// use std::path::PathBuf;
///
/// let mut args = Args::new(["--smoke", "--json", "out.json"].map(String::from));
/// assert!(args.flag("--smoke"));
/// assert_eq!(args.value::<PathBuf>("--json"), Some(PathBuf::from("out.json")));
/// args.finish();
/// ```
///
/// Flags take at most one value (`--json PATH`); a value never starts
/// with `--`.
///
/// # Panics
///
/// Every method panics on a malformed command line: an unknown or
/// repeated flag, a missing or unparsable value. That is the right
/// behaviour for a bench binary, where a typo should fail loudly.
#[derive(Debug)]
pub struct Args {
    /// The arguments not taken yet, in command-line order.
    rest: Vec<String>,
}

impl Args {
    /// Wraps `argv`, the arguments after the program name.
    pub fn new(argv: impl IntoIterator<Item = String>) -> Self {
        Args { rest: argv.into_iter().collect() }
    }

    /// This process's arguments.
    pub fn from_env() -> Self {
        Args::new(std::env::args().skip(1))
    }

    /// Takes `name` and returns its index, if given.
    fn take(&mut self, name: &str) -> Option<usize> {
        let mut at = self.rest.iter().enumerate().filter(|(_, a)| *a == name).map(|(i, _)| i);
        let first = at.next()?;
        assert!(at.next().is_none(), "{name} given more than once");
        self.rest.remove(first);
        Some(first)
    }

    /// Whether the switch `name` (e.g. `--smoke`) was given.
    pub fn flag(&mut self, name: &str) -> bool {
        self.take(name).is_some()
    }

    /// The value of `name` (e.g. `--seed 7`), parsed as a `T`, if given.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Option<T>
    where
        T::Err: Display,
    {
        let at = self.take(name)?;
        let raw = match self.rest.get(at) {
            Some(v) if !v.starts_with("--") => self.rest.remove(at),
            _ => panic!("{name} needs a value"),
        };
        Some(raw.parse().unwrap_or_else(|e| panic!("{name}: cannot parse {raw:?}: {e}")))
    }

    /// Takes every argument that is not a flag, in order. Call it after
    /// the flags and values, so their values are not taken for
    /// positionals.
    pub fn positionals(&mut self) -> Vec<String> {
        let (flags, positionals) = self.rest.drain(..).partition(|a| a.starts_with("--"));
        self.rest = flags;
        positionals
    }

    /// Ends parsing, naming any arguments that were not taken.
    pub fn finish(self) {
        assert!(self.rest.is_empty(), "unknown argument(s): {}", self.rest.join(" "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "demo",
            &["model", "ms"],
            &[vec!["Swin".into(), "30.6".into()], vec!["ViT".into(), "103".into()]],
        );
        assert!(t.contains("demo"));
        assert!(t.contains("Swin"));
    }

    #[test]
    fn geo_mean_basics() {
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geo_mean(&[]).is_nan());
    }

    fn args(argv: &[&str]) -> Args {
        Args::new(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn args_take_flags_values_and_positionals() {
        let mut a = args(&["trace.json", "--seed", "7", "--smoke", "--cache-dir", "d", "x"]);
        assert_eq!(a.value::<u64>("--seed"), Some(7));
        assert!(a.flag("--smoke"));
        assert!(!a.flag("--decode"));
        assert_eq!(a.value::<String>("--cache-dir").as_deref(), Some("d"));
        assert_eq!(a.value::<f64>("--rate"), None);
        assert_eq!(a.positionals(), ["trace.json", "x"]);
        a.finish();
    }

    #[test]
    #[should_panic(expected = "unknown argument(s): --no-such-flag")]
    fn args_reject_an_unknown_flag() {
        let mut a = args(&["--smoke", "--no-such-flag"]);
        a.flag("--smoke");
        a.finish();
    }

    #[test]
    #[should_panic(expected = "unknown argument(s): stray")]
    fn args_reject_a_positional_nobody_takes() {
        args(&["stray"]).finish();
    }

    #[test]
    #[should_panic(expected = "--json needs a value")]
    fn args_reject_a_missing_value() {
        args(&["--json"]).value::<String>("--json");
    }

    #[test]
    #[should_panic(expected = "--json needs a value")]
    fn args_do_not_take_a_flag_as_a_value() {
        args(&["--json", "--smoke"]).value::<String>("--json");
    }

    #[test]
    #[should_panic(expected = "--seed: cannot parse \"x7\"")]
    fn args_reject_an_unparsable_value() {
        args(&["--seed", "x7"]).value::<u64>("--seed");
    }

    #[test]
    #[should_panic(expected = "--smoke given more than once")]
    fn args_reject_a_repeated_flag() {
        args(&["--smoke", "--json", "a", "--smoke"]).flag("--smoke");
    }
}
