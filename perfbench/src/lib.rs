//! # astro-perfbench — the repository benchmark
//!
//! One command drives the public API from outside and reports every
//! metric by name and unit (see `README.md` in this directory):
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady-2k --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Workloads: `steady-2k` and `chaos-20` ([`fleet`]) and
//! `astro-pipeline` ([`pipeline`]). `--trace 0` runs the untraced timed
//! trials and prints the end-to-end metrics; `--trace 1` runs one
//! separate traced run and prints the per-layer metrics. Either way
//! every run passes a correctness gate: each operation's deterministic
//! fingerprint must match the run's first, and any mismatch makes the
//! run fail.

pub mod fleet;
pub mod host;
pub mod layers;
pub mod pipeline;
pub mod report;
pub mod stats;

use report::{Values, PER_LAYER};

/// FNV-1a over `bytes`: the fingerprint hash (stable across processes
/// and platforms, unlike the std hasher).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The correctness gate's tally: every checked operation, and the ones
/// whose fingerprint diverged from their reference.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that diverged.
    pub failed: u64,
}

impl Verdict {
    /// Counts one operation `what` with fingerprint `got`, failing it
    /// when a `want` reference is given and differs. Divergences are
    /// reported on standard error as they happen.
    pub fn check(&mut self, what: &str, got: u64, want: Option<u64>) {
        self.attempted += 1;
        if let Some(want) = want {
            if got != want {
                self.failed += 1;
                eprintln!("fingerprint DIVERGED at {what}: {got:016x} != {want:016x}");
            }
        }
    }

    /// Did every checked operation agree?
    pub fn passed(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Every per-layer metric at 0: the value for a layer a workload does
/// not exercise. Workloads overwrite the layers they run.
pub fn zero_layers() -> Values {
    let mut v = Values::default();
    for &(name, _) in PER_LAYER {
        v.set(name, 0.0);
    }
    v
}

/// Host seconds of repeated set-up an end-to-end run spends at least
/// (see [`repeat_setup`]).
pub const SETUP_BUDGET_S: f64 = 2.0;

/// Runs `setup` at least `min_reps` times and then again while less
/// than `budget_s` host seconds have gone into it (at most 1000 times),
/// so a set-up of microseconds is timed over many repetitions and one
/// of a second over a few. Returns the last set-up's product and every
/// repetition's host seconds.
pub fn repeat_setup<T>(
    min_reps: usize,
    budget_s: f64,
    mut setup: impl FnMut() -> T,
) -> (T, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < min_reps.max(1)
        || (times.iter().sum::<f64>() < budget_s && times.len() < 1000)
    {
        let t0 = std::time::Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), times)
}

/// Host seconds of the fastest trial assembled part by part: the sum
/// over parts of each part's fastest time across trials. `parts[i][j]`
/// is part `j` of trial `i`; every trial must have the same parts. The
/// fleet workloads split each trial into stream segments.
///
/// Every trial does the same deterministic work, and contention from
/// other tenants of a shared host only ever slows it down, so the
/// fastest time is the least-disturbed estimate of the code's speed.
/// Taking it per part, not per trial, keeps the estimate steady when
/// slow spells are shorter than a trial: a part needs only one
/// undisturbed run. `NaN` when there are no trials.
pub fn fastest_total(parts: &[Vec<f64>]) -> f64 {
    let Some(first) = parts.first() else {
        return f64::NAN;
    };
    assert!(
        parts.iter().all(|p| p.len() == first.len()),
        "every trial must split into the same parts"
    );
    (0..first.len())
        .map(|j| parts.iter().map(|p| p[j]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// Space-separated values at four decimals, for the report lines.
pub fn join(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The workloads, by command-line name.
pub const WORKLOADS: &[&str] = &["steady-2k", "chaos-20", "astro-pipeline"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_counts_divergences() {
        let mut v = Verdict::default();
        assert!(!v.passed(), "nothing checked is not a pass");
        v.check("a", 1, None);
        v.check("b", 1, Some(1));
        assert!(v.passed());
        v.check("c", 2, Some(1));
        assert_eq!((v.attempted, v.failed), (3, 1));
        assert!(!v.passed());
    }

    #[test]
    fn repeat_setup_honours_minimum_and_budget() {
        let mut n = 0;
        let (last, times) = repeat_setup(4, 0.0, || {
            n += 1;
            n
        });
        assert_eq!((last, times.len()), (4, 4));
        let nap = || std::thread::sleep(std::time::Duration::from_micros(500));
        let (_, times) = repeat_setup(1, 0.002, nap);
        let total: f64 = times.iter().sum();
        let before_last = total - times[times.len() - 1];
        assert!(total >= 0.002 && before_last < 0.002, "{times:?}");
    }

    #[test]
    fn fastest_total_sums_per_part_minima() {
        let trials = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 5.0],
            vec![9.0, 9.0, 4.5],
        ];
        assert_eq!(fastest_total(&trials), 2.0 + 1.0 + 4.5);
        assert_eq!(fastest_total(&[vec![7.0]]), 7.0);
        assert!(fastest_total(&[]).is_nan());
    }

    #[test]
    #[should_panic(expected = "same parts")]
    fn fastest_total_rejects_ragged_trials() {
        fastest_total(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
