//! The host block every record carries, the fixed host-reference loop,
//! and the process memory high-water mark.

use std::time::Instant;

/// Identity of the machine and build a record was taken on.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
    pub profile: &'static str,
}

impl Host {
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines().find_map(|l| {
                    l.strip_prefix("model name")
                        .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
                })
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc,
            git_rev: git_rev().unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    pub fn to_json(&self, ref_start_ms: f64, ref_end_ms: f64) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{:?},\"rustc\":{:?},\"git_rev\":{:?},\"profile\":{:?},\
             \"ref_start_ms\":{ref_start_ms:.4},\"ref_end_ms\":{ref_end_ms:.4}}}",
            self.nproc, self.cpu_model, self.rustc, self.git_rev, self.profile
        )
    }
}

/// The commit checked out in the working directory, read from `.git`
/// without running git (a checkout without `.git` reports none).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}

/// Milliseconds of a fixed single-thread loop: integer and float work,
/// then sweeps over a 32 MiB buffer. Timed at the start and the end of
/// every run, it shows when the host itself ran slower (a busy neighbour
/// on the CPU or the memory bus), independent of the program under test.
pub fn reference_ms() -> f64 {
    let buffer: Vec<u64> = (0..(4u64 << 20)).collect();
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for _ in 0..10_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.mul_add(0.999_999, (x >> 40) as f64);
    }
    let mut sum = 0u64;
    for pass in 0..8u64 {
        for &v in std::hint::black_box(&buffer) {
            sum = sum.wrapping_add(v ^ pass);
        }
    }
    std::hint::black_box((acc, sum));
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    scd_store::rss_high_water_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}
