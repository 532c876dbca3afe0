//! Host descriptor and process memory high-water mark.

use std::fmt::Write as _;

/// What a wall-clock number was measured on.
pub struct HostInfo {
    pub cpu_model: String,
    pub nproc: usize,
    pub rustc: &'static str,
    pub profile: &'static str,
    pub rustflags: &'static str,
}

impl HostInfo {
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        HostInfo {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            rustflags: env!("PERFBENCH_RUSTFLAGS"),
        }
    }

    /// One JSON object (hand-written: every value is a plain string or
    /// integer).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"cpu_model\": {}, \"nproc\": {}, \"rustc\": {}, \"profile\": {}, \"rustflags\": {}",
            quote(&self.cpu_model),
            self.nproc,
            quote(self.rustc),
            quote(self.profile),
            quote(self.rustflags)
        );
        s.push('}');
        s
    }
}

/// JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The process's resident-set high-water mark (`VmHWM`) in bytes, if the
/// platform exposes it.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}
