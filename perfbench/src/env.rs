//! The environment every result records: source revision, processor
//! count, the store directory's file system and its measured flush cost.

use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::json::Obj;
use crate::stats::median;

/// Where and on what a run executed.
#[derive(Clone, Debug)]
pub struct Env {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// File system type of the store directory (from `/proc/mounts`).
    pub filesystem: String,
    /// Median `sync_data` of a 4 KiB overwrite in the store directory, µs.
    pub sync_data_us: f64,
}

impl Env {
    /// Probe the environment; `dir` is where the stores will live.
    pub fn probe(dir: &Path) -> std::io::Result<Env> {
        Ok(Env {
            git_rev: git_rev(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            filesystem: filesystem(dir),
            sync_data_us: sync_data_us(dir, 21)?,
        })
    }

    /// As a JSON object.
    pub fn to_json(&self) -> Obj {
        Obj::new()
            .str("git_rev", &self.git_rev)
            .int("nproc", self.nproc as u64)
            .str("filesystem", &self.filesystem)
            .num("sync_data_us_median", self.sync_data_us)
    }
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The type of the file system holding `dir`: the longest mount point
/// in `/proc/mounts` that prefixes its canonical path.
fn filesystem(dir: &Path) -> String {
    let (Ok(path), Ok(mounts)) = (dir.canonicalize(), std::fs::read_to_string("/proc/mounts"))
    else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Median wall time of `reps` 4 KiB overwrite + `sync_data` rounds on a
/// file in `dir`, µs.
fn sync_data_us(dir: &Path, reps: usize) -> std::io::Result<f64> {
    let path = dir.join("sync-probe");
    let mut file = std::fs::File::create(&path)?;
    let block = [0x5Au8; 4096];
    file.write_all(&block)?;
    file.sync_all()?;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        file.write_all_at(&block, 0)?;
        file.sync_data()?;
        times.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(median(&times))
}

/// `(steal, total)` CPU ticks since boot from `/proc/stat`: the share of
/// time the hypervisor ran something else while the virtual
/// CPUs wanted to run. Compared across a run, it tells a noisy host from
/// a slow program.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Steal share of the CPU time between two [`cpu_ticks`] readings.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Pin the calling thread to the `index`-th CPU it may run on (modulo
/// their count). The in-process workloads pin their client threads to
/// distinct CPUs so that the two transactions always run in parallel:
/// left alone, the scheduler's wake-up placement at times stacks both
/// threads on one CPU for minutes, which halves throughput and shifts
/// every latency by a third. Returns whether the pin took.
pub fn pin_thread(index: usize) -> bool {
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    // SAFETY: pid 0 names the calling thread, and `allowed` is a writable
    // buffer of exactly the size passed.
    let got =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if got != 0 {
        return false;
    }
    let cpus: Vec<usize> =
        (0..WORDS * 64).filter(|c| (allowed[c / 64] >> (c % 64)) & 1 == 1).collect();
    let Some(&cpu) = cpus.get(index % cpus.len().max(1)) else { return false };
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread, and `mask` is a readable
    // buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}
