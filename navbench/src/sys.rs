//! Process and host probes (Linux `/proc`), order statistics, and the
//! answer digest.

use nav_core::trial::PairStats;
use std::fs;

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// User + system CPU time of the whole process (every thread, live or
/// exited), seconds. `/proc` reports it in USER_HZ ticks, 100 per second
/// on Linux.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) sit at offsets 11 and 12.
    let rest = &stat[stat.rfind(')').expect("comm in /proc/self/stat") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// Host-wide CPU ticks `(steal, total)` from `/proc/stat`: time the
/// hypervisor withheld from this machine's CPUs, and all CPU time.
pub fn host_steal_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .expect("aggregate cpu line in /proc/stat")
        .split_whitespace()
        .map(|v| v.parse().expect("cpu tick count"))
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The checkout's git revision, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical cores visible to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (`q = 0.5` is the median).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A 64-bit digest of a batch's answers, over every field's bits — two
/// batches digest equal exactly when `PairStats::bits_eq` holds
/// pairwise (up to hash collisions).
pub fn digest(answers: &[PairStats]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
    };
    eat(answers.len() as u64);
    for a in answers {
        eat(u64::from(a.s) << 32 | u64::from(a.t));
        eat(u64::from(a.dist) << 32 | u64::from(a.max_steps));
        eat(a.mean_steps.to_bits());
        eat(a.std_steps.to_bits());
        eat(a.mean_long_links.to_bits());
        eat(a.failures as u64);
    }
    h
}
