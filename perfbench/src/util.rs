//! Small measurement helpers: order statistics, the timer calibration, the
//! host warm-up loop, `/proc` readers, and the digests the correctness
//! checks compare.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Median of `v` (sorts it in place). 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail percentile the benchmark reports: p99, or — when fewer than
/// ten samples would lie beyond p99 — the highest nearest-rank percentile
/// that still has ten samples beyond it. Returns `(value, percentile)`.
/// `v` is sorted in place.
pub fn tail(v: &mut [f64]) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 0.0);
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p99 = (n * 99).div_ceil(100) - 1;
    let idx = if n > 10 { p99.min(n - 11) } else { n - 1 };
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// Host cost of one `Instant::now()` + `elapsed()` pair around an empty
/// body, in ns: the median of many batches. Subtracted from every
/// individually timed call in the per-layer ledger.
pub fn timer_cost_ns() -> f64 {
    const BATCH: u32 = 1_000;
    let mut batches: Vec<f64> = (0..64)
        .map(|_| {
            let mut total = Duration::ZERO;
            for _ in 0..BATCH {
                let t = Instant::now();
                total += black_box(t).elapsed();
            }
            total.as_nanos() as f64 / f64::from(BATCH)
        })
        .collect();
    median(&mut batches)
}

/// Untimed host warm-up. Calls `chunk` (which returns host ns per unit of
/// a fixed piece of work) until two successive chunks agree within 3 % and
/// at least [`MIN_WARM`] has passed, or [`MAX_WARM`] is reached. Returns
/// the warm-up wall time and the number of chunks run.
pub fn warm_up(mut chunk: impl FnMut() -> f64) -> (Duration, usize) {
    let start = Instant::now();
    let mut prev = chunk();
    let mut chunks = 1;
    loop {
        let cur = chunk();
        chunks += 1;
        let settled = (cur / prev - 1.0).abs() < 0.03 && start.elapsed() >= MIN_WARM;
        if settled || start.elapsed() >= MAX_WARM {
            return (start.elapsed(), chunks);
        }
        prev = cur;
    }
}

/// The shortest warm-up: a fresh process runs slow for its first seconds.
pub const MIN_WARM: Duration = Duration::from_millis(2_500);
/// The longest warm-up, whether or not chunk times have settled.
pub const MAX_WARM: Duration = Duration::from_secs(8);

/// Returns the allocator's free memory to the OS, so that every set-up
/// sample starts from the same heap state and pays the page faults a fresh
/// process pays. Without it, whether a pass's constructors reuse the
/// previous pass's pages depends on heap layout, and set-up time jumped
/// between about 0.5 and 1.2 ms from one run to the next. A no-op off
/// glibc.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only returns
        // memory the allocator already holds free; this process is
        // single-threaded, and the call is valid at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64 finalizer: spreads a small seed over all 64 bits.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over every file under `dir` (paths sorted, path and content
/// hashed), identifying the simulator source a run measured even where the
/// checkout is not a git repository. `None` if `dir` is unreadable.
pub fn tree_digest(dir: &Path) -> Option<u64> {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(dir, &mut files).ok()?;
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend_from_slice(&std::fs::read(&f).ok()?);
    }
    Some(fnv1a(&bytes))
}

/// The commit a `.git` directory in the working directory points at, if
/// there is one.
pub fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .map(|s| s.trim().to_owned()),
        None => Some(head.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&mut v), (1980.0, 99.0));
        // 500 samples: p99 would leave only 5 beyond it.
        let mut v: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail(&mut v), (490.0, 98.0));
    }

    #[test]
    fn mix_spreads_and_fnv_is_stable() {
        assert_ne!(mix(0), mix(1));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
