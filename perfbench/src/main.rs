//! The benchmark command. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <steady-2k|chaos-20|astro-pipeline> --seed <n>
//!           --seconds <n> --trace <0|1> [--holdout-seed <n>]
//! ```
//!
//! Prints a host record and the metrics as text, then, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exits 0 when every correctness
//! check passed, 1 when one failed, 2 on a usage error.

use astro_perfbench::fleet::{self, FleetWorkload, CHAOS_20, STEADY_2K};
use astro_perfbench::host::HostRecord;
use astro_perfbench::report::{result_line, Outcome, END_TO_END, PER_LAYER};
use astro_perfbench::{pipeline, Verdict, WORKLOADS};
use std::path::Path;
use std::process::ExitCode;

/// Fewest set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest timed trials per end-to-end run, however short `--seconds`.
const MIN_TRIALS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    holdout_seed: Option<u64>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut holdout_seed) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes an unsigned integer, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--holdout-seed" => holdout_seed = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        holdout_seed,
    })
}

fn fleet_workload(name: &str) -> Option<&'static FleetWorkload> {
    [&STEADY_2K, &CHAOS_20].into_iter().find(|w| w.name == name)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1> \
                 [--holdout-seed <n>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    let host = HostRecord::read(root);
    let fleet = fleet_workload(&args.workload);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "host: nproc {} available_parallelism {} shard_workers {} commit {} profile {}",
        host.nproc,
        host.available_parallelism,
        fleet.map_or("n/a".to_string(), |w| format!("{} (pinned)", w.workers)),
        host.commit,
        host.profile
    );

    let mut v = Verdict::default();
    let seconds = args.seconds as f64;
    let values = match (fleet, args.trace) {
        (Some(w), false) => {
            fleet::run_end_to_end(w, args.seed, seconds, SETUP_REPS, MIN_TRIALS, &mut v)
        }
        (Some(w), true) => fleet::run_traced(w, args.seed, &mut v),
        (None, false) => {
            pipeline::run_end_to_end(args.seed, seconds, SETUP_REPS, MIN_TRIALS, &mut v)
        }
        (None, true) => pipeline::run_traced(args.seed, &mut v),
    };
    if let Some(h) = args.holdout_seed {
        match fleet {
            Some(w) => fleet::holdout(w, h, &mut v),
            None => pipeline::holdout(h, &mut v),
        }
    }

    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in registry {
        if let Some(x) = values.get(name) {
            println!("  {name:<30} {x:>18.6} {unit}");
        }
    }
    println!(
        "correctness gate: {} of {} checked operations diverged — {}",
        v.failed,
        v.attempted,
        if v.passed() { "PASS" } else { "FAIL" }
    );
    let outcome = Outcome {
        correct: v.passed(),
        attempted: v.attempted,
        failed: v.failed,
        values,
    };
    match result_line(&outcome, registry) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
