//! The host fingerprint stamped on every result, and peak memory.

use std::process::Command;

/// What a result depends on besides the code under test.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    /// Logical CPUs the OS reports.
    pub nproc: usize,
    /// Threads in the library's default pool.
    pub pool_threads: usize,
    /// The parallel-dispatch flops threshold in effect.
    pub par_flops_threshold: u64,
    /// Every `AARRAY_*` variable set in the environment, sorted.
    pub aarray_env: Vec<(String, String)>,
    /// The git commit of the checkout, or `unknown`.
    pub commit: String,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    // A checkout without `.git` must not resolve to an enclosing repo.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.display().to_string()))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Fingerprint {
    /// Read the fingerprint of this process and host.
    pub fn capture() -> Self {
        let mut aarray_env: Vec<(String, String)> = std::env::vars()
            .filter(|(k, _)| k.starts_with("AARRAY_"))
            .collect();
        aarray_env.sort();
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_threads: rayon::current_num_threads(),
            par_flops_threshold: aarray_core::parallel_flops_threshold(),
            aarray_env,
            commit: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["-V"]),
        }
    }

    /// Whether the run was tuned through `AARRAY_*` variables, so it
    /// does not measure the program as users run it.
    pub fn is_tuned(&self) -> bool {
        !self.aarray_env.is_empty()
    }

    /// One-line JSON object of everything but the commit, which names
    /// the code under test rather than the host.
    pub fn to_json(&self) -> String {
        let env: Vec<String> = self
            .aarray_env
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        format!(
            "{{\"nproc\": {}, \"pool_threads\": {}, \"par_flops_threshold\": {}, \"aarray_env\": {{{}}}, \"rustc\": {}}}",
            self.nproc,
            self.pool_threads,
            self.par_flops_threshold,
            env.join(", "),
            json_str(&self.rustc)
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process in MB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
