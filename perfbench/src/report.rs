//! What one benchmark process hands back to `run.py`: a minimal JSON
//! object writer and process-level probes.

use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::Hasher;

/// Builds one JSON object. Non-finite numbers are written as `null`.
pub struct Obj {
    body: String,
}

impl Obj {
    pub fn new() -> Self {
        Obj { body: String::new() }
    }

    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        push_str(&mut self.body, k);
        self.body.push(':');
    }

    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        push_num(&mut self.body, v);
        self
    }

    pub fn int(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        push_str(&mut self.body, v);
        self
    }

    pub fn nums(mut self, k: &str, vs: impl IntoIterator<Item = f64>) -> Self {
        self.key(k);
        self.body.push('[');
        for (i, v) in vs.into_iter().enumerate() {
            if i > 0 {
                self.body.push(',');
            }
            push_num(&mut self.body, v);
        }
        self.body.push(']');
        self
    }

    pub fn strs<'a>(mut self, k: &str, vs: impl IntoIterator<Item = &'a str>) -> Self {
        self.key(k);
        self.body.push('[');
        for (i, v) in vs.into_iter().enumerate() {
            if i > 0 {
                self.body.push(',');
            }
            push_str(&mut self.body, v);
        }
        self.body.push(']');
        self
    }

    pub fn obj(mut self, k: &str, v: Obj) -> Self {
        self.key(k);
        self.body.push_str(&v.finish());
        self
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn push_num(out: &mut String, v: f64) {
    if v.is_finite() {
        // `Display` for f64 prints the shortest decimal that reads back
        // to the same bits, never in exponent form.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Bit-exact digest of a value's Debug rendering (f64 fields print their
/// shortest round-trip decimal, so equal digests mean equal bits).
pub fn digest(value: &dyn std::fmt::Debug) -> String {
    let mut h = DefaultHasher::new();
    h.write(format!("{value:?}").as_bytes());
    format!("{:016x}", h.finish())
}
