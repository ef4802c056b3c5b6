//! The environment a result was measured in, recorded in every result file
//! so two files are compared knowing what differed besides the code.

use std::process::Command;

use st_core::Json;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Env {
    /// Processors listed by `/proc/cpuinfo`.
    pub nproc: u64,
    /// `std::thread::available_parallelism` (affinity- and cgroup-aware).
    pub hardware_threads: u64,
    pub rustc: String,
    pub git_commit: String,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

impl Env {
    pub fn capture() -> Self {
        let hardware_threads = std::thread::available_parallelism().map_or(1, |p| p.get()) as u64;
        let nproc = std::fs::read_to_string("/proc/cpuinfo")
            .map(|text| text.lines().filter(|l| l.starts_with("processor")).count() as u64)
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or(hardware_threads);
        Env {
            nproc,
            hardware_threads,
            rustc: first_line_of("rustc", &["--version"]),
            git_commit: first_line_of(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            ),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::U64(self.nproc)),
            ("hardware_threads", Json::U64(self.hardware_threads)),
            ("rustc", Json::str(self.rustc.as_str())),
            ("git_commit", Json::str(self.git_commit.as_str())),
        ])
    }

    pub fn from_json(doc: &Json) -> Option<Self> {
        Some(Env {
            nproc: doc.get("nproc")?.as_u64()?,
            hardware_threads: doc.get("hardware_threads")?.as_u64()?,
            rustc: doc.get("rustc")?.as_str()?.to_string(),
            git_commit: doc.get("git_commit")?.as_str()?.to_string(),
        })
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
