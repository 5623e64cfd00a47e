//! What a result depends on besides the code: the host's processors,
//! the commit, the build profile, and the process's peak memory.

use std::path::Path;

/// The host record printed with every report.
pub struct HostRecord {
    /// Processors this process may run on (`Cpus_allowed_list`, what
    /// `nproc` prints); 0 when unknown.
    pub nproc: usize,
    /// `std::thread::available_parallelism()` (also honours cgroup
    /// quotas); 0 when unknown.
    pub available_parallelism: usize,
    /// The git commit of the checkout, or `unknown` outside a git
    /// working tree.
    pub commit: String,
    /// `release` or `debug`.
    pub profile: &'static str,
}

impl HostRecord {
    /// Reads the record for the current process, resolving the commit
    /// from `.git` under `root`.
    pub fn read(root: &Path) -> Self {
        HostRecord {
            nproc: allowed_cpus().unwrap_or(0),
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(0),
            commit: git_commit(root).unwrap_or_else(|| "unknown".to_string()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

/// Processor count of the `Cpus_allowed_list` line of
/// `/proc/self/status` (e.g. `0-3,6` is 5).
fn allowed_cpus() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    cpu_list_len(list.trim())
}

/// Number of processors in a kernel CPU list such as `0-3,6`.
pub fn cpu_list_len(list: &str) -> Option<usize> {
    let mut n = 0;
    for part in list.split(',').filter(|p| !p.is_empty()) {
        n += match part.split_once('-') {
            Some((a, b)) => {
                let (a, b): (usize, usize) = (a.parse().ok()?, b.parse().ok()?);
                b.checked_sub(a)? + 1
            }
            None => {
                part.parse::<usize>().ok()?;
                1
            }
        };
    }
    Some(n)
}

/// The commit `HEAD` names, read from the files under `.git` (a
/// detached hash, a loose ref or a packed ref).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

/// Peak resident set of this process so far, MiB (`VmHWM` from
/// `/proc/self/status`; 0 where unavailable).
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_count_ranges_and_singletons() {
        assert_eq!(cpu_list_len("0-3,6"), Some(5));
        assert_eq!(cpu_list_len("0"), Some(1));
        assert_eq!(cpu_list_len("0-1"), Some(2));
        assert_eq!(cpu_list_len("3-1"), None);
        assert_eq!(cpu_list_len("x"), None);
    }
}
