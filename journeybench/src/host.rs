//! The machine under the benchmark: its disks and its hypervisor.

extern "C" {
    fn sync();
}

/// Flush every dirty page to disk and wait for it.
pub fn sync_disks() {
    // SAFETY: sync takes no arguments and cannot fail.
    unsafe { sync() }
}

/// Jiffies the hypervisor ran something else while this machine's
/// CPUs wanted to run (`steal` in `/proc/stat`), and all jiffies.
pub fn steal_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (cpu.get(7).copied().unwrap_or(0), cpu.iter().sum())
}
