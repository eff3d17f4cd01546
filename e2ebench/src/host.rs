//! What the numbers were measured on.

use std::fs;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use crate::stats;

/// How long one busy loop of the parallel-capacity probe runs.
const PROBE_SECONDS: f64 = 0.04;

pub struct Host {
    pub nproc: usize,
    /// Two busy loops on two threads against one on one thread: 2.0 is two
    /// full cores, 1.0 is one.
    pub parallel_capacity: f64,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            parallel_capacity: parallel_capacity(),
            cpu_model: cpu_model(),
            rustc: rustc_version(),
            commit: git_commit(),
        }
    }

    pub fn line(&self) -> String {
        format!(
            "# host: nproc={} parallel_capacity={:.2}x (two busy loops against one) cpu=\"{}\" rustc=\"{}\" commit={}",
            self.nproc, self.parallel_capacity, self.cpu_model, self.rustc, self.commit
        )
    }
}

fn spin(iterations: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..iterations {
        x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i);
    }
    x
}

fn timed(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

fn parallel_capacity() -> f64 {
    let trial = 2_000_000;
    let seconds = timed(|| {
        black_box(spin(trial));
    });
    let iterations = (trial as f64 * PROBE_SECONDS / seconds.max(1e-6)) as u64;
    let ratios: Vec<f64> = (0..3)
        .map(|_| {
            let one = timed(|| {
                black_box(spin(iterations));
            });
            let two = timed(|| {
                std::thread::scope(|scope| {
                    let a = scope.spawn(|| spin(iterations));
                    let b = scope.spawn(|| spin(iterations));
                    black_box(a.join().expect("probe thread") ^ b.join().expect("probe thread"));
                })
            });
            2.0 * one / two
        })
        .collect();
    stats::median(&ratios)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout, read from `.git` without running git; a
/// checkout without git metadata reports "unknown".
fn git_commit() -> String {
    let read = |path: &str| {
        fs::read_to_string(path)
            .ok()
            .map(|text| text.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident memory of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
