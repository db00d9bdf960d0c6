//! The host record printed with every result, and the host-noise probe.

use std::path::Path;
use std::time::{Duration, Instant};

/// Gaps longer than this in a busy loop count as host stalls: far above
/// the loop's own iteration time, so only preemption, steal and
/// interrupts land there.
const STALL_GAP: Duration = Duration::from_micros(20);

/// Busy-loop for `probe`, summing every gap between consecutive clock
/// reads longer than [`STALL_GAP`]. Returns stalled milliseconds per
/// second of probing: a noisy host shows here beside the numbers.
pub fn stall_ms_per_s(probe: Duration) -> f64 {
    let start = Instant::now();
    let mut last = start;
    let mut stalled = Duration::ZERO;
    loop {
        let now = Instant::now();
        let gap = now - last;
        if gap > STALL_GAP {
            stalled += gap;
        }
        last = now;
        if now - start >= probe {
            break;
        }
    }
    stalled.as_secs_f64() * 1e3 / (last - start).as_secs_f64()
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/mounts`), or `unknown`.
pub fn fs_type(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

/// The host record as a one-line JSON object.
pub fn record_json(workload: &str, seed: u64, registry_dir: &Path, stall: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"host\":{{\"workload\":\"{workload}\",\"seed\":{seed},\"nproc\":{nproc},\
         \"kernel_release\":\"{}\",\"phi_kernel\":\"{}\",\"registry_fs\":\"{}\",\
         \"host_stall_ms_per_s\":{stall}}}}}",
        kernel.replace('"', "'"),
        dctstream_core::basis::kernel_name(),
        fs_type(registry_dir)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_probes_read_sane_values() {
        assert!(peak_rss_mb() > 0.0);
        assert_ne!(fs_type(Path::new(".")), "unknown");
        let s = stall_ms_per_s(Duration::from_millis(20));
        assert!((0.0..=1000.0).contains(&s), "{s}");
    }
}
