//! Arrival-cursor equivalence: the pull-based streams behind the
//! resident kernel must be **bitwise indistinguishable** from the batch
//! `Vec<JobSpec>` they replace — every generator regime × traffic-warp
//! combination, at every suspend/resume point, and through a trace-file
//! round trip. A single flipped arrival bit here would silently split
//! the resident fingerprint from the batch one, so every comparison is
//! on raw IEEE bits, never on float values.

use astro_fleet::{
    ArrivalCursor, ArrivalProcess, ChaosSchedule, CheckpointError, CursorState, GenCursor, JobSpec,
    SliceCursor, TraceCursor,
};
use astro_workloads::{InputSize, Workload};
use proptest::prelude::*;

fn pool() -> Vec<Workload> {
    ["swaptions", "bfs"]
        .iter()
        .map(|n| astro_workloads::by_name(n).unwrap())
        .collect()
}

/// Everything a job carries, bit-exact (floats as raw bits).
fn job_fp(j: &JobSpec) -> (u32, &'static str, usize, u8, u64, u64, u64) {
    let class_idx = astro_fleet::JobClass::ALL
        .iter()
        .position(|c| *c == j.taxon.class)
        .unwrap();
    (
        j.id,
        j.workload.name,
        class_idx,
        j.taxon.signature,
        j.arrival_s.to_bits(),
        j.slo_tightness.to_bits(),
        j.seed,
    )
}

fn drain(cursor: &mut dyn ArrivalCursor) -> Vec<JobSpec> {
    let mut out = Vec::new();
    while let Some(j) = cursor.next_job() {
        out.push(j);
    }
    out
}

fn assert_streams_equal(batch: &[JobSpec], pulled: &[JobSpec], label: &str) {
    assert_eq!(batch.len(), pulled.len(), "{label}: stream length");
    for (b, p) in batch.iter().zip(pulled) {
        assert_eq!(job_fp(b), job_fp(p), "{label}: job {} diverged", b.id);
    }
}

/// The generator × warp grid the proptest draws from.
fn process(kind: u8, rate: f64, burst: usize, spread_grid: u8) -> ArrivalProcess {
    if kind == 0 {
        ArrivalProcess::Poisson {
            rate_jobs_per_s: rate,
        }
    } else {
        ArrivalProcess::Bursty {
            rate_jobs_per_s: rate,
            burst,
            // Down to 1 ns: bursts collapse onto near-identical
            // timestamps, the regime where the merge heap's tie
            // handling must match the batch sort exactly.
            spread_s: [1e-9, 1e-6, 1e-3, 0.1][(spread_grid % 4) as usize],
        }
    }
}

fn traffic(warp_bits: u8, from_grid: u32, len_grid: u32) -> ChaosSchedule {
    let mut chaos = ChaosSchedule::new();
    if warp_bits & 1 != 0 {
        let from = from_grid as f64 / 100.0;
        let to = (from_grid + len_grid) as f64 / 100.0;
        chaos = chaos.flash_crowd(from, to.min(1.0), 8.0);
    }
    if warp_bits & 2 != 0 {
        chaos = chaos.diurnal(2.5, 0.8, 6);
    }
    chaos
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generator regime × warp combination: the lazy cursor must
    /// regenerate the exact batch stream, and the slice adapter must be
    /// a transparent view of it.
    #[test]
    fn gen_cursor_matches_batch_for_every_generator_and_warp(
        kind in 0u8..2,
        n in 1usize..160,
        rate in 1_000.0f64..500_000.0,
        burst in 1usize..64,
        spread_grid in 0u8..4,
        warp_bits in 0u8..4,
        from_grid in 0u32..80,
        len_grid in 1u32..21,
        seed in 0u64..1_000,
    ) {
        let p = process(kind, rate, burst, spread_grid);
        let chaos = traffic(warp_bits, from_grid, len_grid);
        let batch = p.generate_shaped(n, &pool(), InputSize::Test, (3.0, 8.0), seed, &chaos.traffic);

        let mut cursor = GenCursor::new(p, n, &pool(), InputSize::Test, (3.0, 8.0), seed, &chaos.traffic);
        prop_assert_eq!(cursor.total(), n);
        let pulled = drain(&mut cursor);
        assert_streams_equal(&batch, &pulled, "gen cursor");
        prop_assert_eq!(cursor.position(), n);
        prop_assert!(cursor.next_job().is_none(), "exhausted cursor must stay exhausted");

        let mut slice = SliceCursor::new(&batch);
        let viewed = drain(&mut slice);
        assert_streams_equal(&batch, &viewed, "slice cursor");
    }

    /// Suspend/resume at an arbitrary point: a fresh cursor loaded with
    /// a saved state must emit the exact remainder of the stream — the
    /// cursor half of the checkpoint/restore bit-identity guarantee.
    #[test]
    fn gen_cursor_save_load_resumes_the_exact_stream(
        kind in 0u8..2,
        n in 2usize..120,
        rate in 1_000.0f64..500_000.0,
        burst in 1usize..48,
        spread_grid in 0u8..4,
        warp_bits in 0u8..4,
        cut_frac in 0.0f64..1.0,
        seed in 0u64..1_000,
    ) {
        let p = process(kind, rate, burst, spread_grid);
        let chaos = traffic(warp_bits, 30, 15);
        let mk = || GenCursor::new(
            p.clone(), n, &pool(), InputSize::Test, (3.0, 8.0), seed, &chaos.traffic,
        );

        let mut reference = mk();
        let full = drain(&mut reference);

        let cut = (cut_frac * n as f64) as usize; // 0..n
        let mut live = mk();
        for i in 0..cut {
            prop_assert_eq!(live.next_job().map(|j| j.id), Some(i as u32));
        }
        let saved = live.save();
        prop_assert_eq!(saved.pos, cut as u64);

        // The suspended cursor continues...
        let live_rest = drain(&mut live);
        assert_streams_equal(&full[cut..], &live_rest, "suspended cursor");

        // ...and a fresh cursor restored from the snapshot emits the
        // same remainder, bit for bit — even though it never replayed
        // the first `cut` pulls.
        let mut resumed = mk();
        resumed.load(&saved).expect("saved state must load");
        prop_assert_eq!(resumed.position(), cut);
        let resumed_rest = drain(&mut resumed);
        assert_streams_equal(&full[cut..], &resumed_rest, "restored cursor");
    }
}

/// Structurally impossible cursor states are rejected with
/// [`CheckpointError`], never applied — the last line of defence when a
/// checkpoint image's integrity checks somehow pass on garbage.
#[test]
fn malformed_cursor_states_are_rejected() {
    let p = ArrivalProcess::Bursty {
        rate_jobs_per_s: 50_000.0,
        burst: 8,
        spread_s: 1e-6,
    };
    let chaos = ChaosSchedule::new().diurnal(2.0, 0.5, 4);
    let mut c = GenCursor::new(
        p,
        40,
        &pool(),
        InputSize::Test,
        (3.0, 8.0),
        17,
        &chaos.traffic,
    );
    for _ in 0..10 {
        c.next_job().unwrap();
    }
    let good = c.save();

    let reject = |s: &CursorState, what: &str| {
        let mut fresh = GenCursor::new(
            ArrivalProcess::Bursty {
                rate_jobs_per_s: 50_000.0,
                burst: 8,
                spread_s: 1e-6,
            },
            40,
            &pool(),
            InputSize::Test,
            (3.0, 8.0),
            17,
            &chaos.traffic,
        );
        assert!(
            matches!(fresh.load(s), Err(CheckpointError::Corrupt(_))),
            "{what} must be rejected"
        );
        // Rejection must not have perturbed the cursor: it still emits
        // the full stream from the start.
        assert_eq!(fresh.position(), 0, "{what}: rejection moved the cursor");
        assert_eq!(drain(&mut fresh).len(), 40, "{what}: cursor corrupted");
    };

    let mut past_end = good.clone();
    past_end.pos = 41;
    past_end.drawn = 41;
    reject(&past_end, "position past stream end");

    let mut drawn_behind = good.clone();
    drawn_behind.drawn = drawn_behind.pos - 1;
    reject(&drawn_behind, "drawn count behind position");

    let mut heap_mismatch = good.clone();
    heap_mismatch.heap_bits.push(0);
    reject(&heap_mismatch, "merge heap inconsistent with position");

    let mut warp_wild = good.clone();
    warp_wild.warp_seg = u64::MAX;
    reject(&warp_wild, "warp segment pointer out of range");

    // A warp pointer against a cursor built *without* a warp.
    let mut unwarped = GenCursor::new(
        ArrivalProcess::Poisson {
            rate_jobs_per_s: 50_000.0,
        },
        40,
        &pool(),
        InputSize::Test,
        (3.0, 8.0),
        17,
        &[],
    );
    let mut phantom = unwarped.save();
    phantom.warp_seg = 1;
    assert!(matches!(
        unwarped.load(&phantom),
        Err(CheckpointError::Corrupt(_))
    ));

    // The untampered snapshot still loads and resumes.
    let mut fresh = GenCursor::new(
        ArrivalProcess::Bursty {
            rate_jobs_per_s: 50_000.0,
            burst: 8,
            spread_s: 1e-6,
        },
        40,
        &pool(),
        InputSize::Test,
        (3.0, 8.0),
        17,
        &chaos.traffic,
    );
    fresh.load(&good).expect("untampered state must load");
    let rest = drain(&mut fresh);
    let tail = drain(&mut c);
    assert_streams_equal(&tail, &rest, "resume after rejected images");
}

/// Trace round trip: a warped bursty stream written with
/// [`astro_fleet::write_trace`] and replayed through [`TraceCursor`]
/// must reproduce every job bit-for-bit, including across a mid-stream
/// save/load (which re-scans the file rather than trusting buffered
/// state).
#[test]
fn trace_round_trip_is_bitwise_lossless() {
    let p = ArrivalProcess::Bursty {
        rate_jobs_per_s: 80_000.0,
        burst: 12,
        spread_s: 1e-6,
    };
    let chaos = ChaosSchedule::new()
        .flash_crowd(0.2, 0.5, 6.0)
        .diurnal(1.5, 0.6, 5);
    let batch = p.generate_shaped(
        200,
        &pool(),
        InputSize::Test,
        (3.0, 8.0),
        99,
        &chaos.traffic,
    );

    let path = std::env::temp_dir().join(format!("astro_fleet_trace_{}.txt", std::process::id()));
    let mut buf = Vec::new();
    astro_fleet::write_trace(&mut buf, &batch).unwrap();
    std::fs::write(&path, &buf).unwrap();

    let mut cursor = TraceCursor::open(&path).unwrap();
    assert_eq!(cursor.total(), 200);
    let mut names: Vec<&str> = cursor.workloads().iter().map(|w| w.name).collect();
    names.sort_unstable();
    assert_eq!(names, ["bfs", "swaptions"]);
    let replayed = drain(&mut cursor);
    assert_streams_equal(&batch, &replayed, "trace replay");
    assert!(cursor.next_job().is_none());

    // Mid-stream save/load resumes the exact remainder.
    let mut cursor = TraceCursor::open(&path).unwrap();
    for _ in 0..77 {
        cursor.next_job().unwrap();
    }
    let saved = cursor.save();
    let mut fresh = TraceCursor::open(&path).unwrap();
    fresh.load(&saved).unwrap();
    assert_eq!(fresh.position(), 77);
    let rest = drain(&mut fresh);
    assert_streams_equal(&batch[77..], &rest, "trace resume");

    // A position past the end of the file is rejected.
    let mut bad = saved.clone();
    bad.pos = 201;
    let mut fresh = TraceCursor::open(&path).unwrap();
    assert!(matches!(fresh.load(&bad), Err(CheckpointError::Corrupt(_))));

    std::fs::remove_file(&path).ok();
}

/// A trace file is untrusted input: every way a line can be invalid
/// is an `InvalidData` error from `open` that names the line (blank
/// lines count), never a panic mid-run.
#[test]
fn trace_open_rejects_invalid_lines_with_their_number() {
    let l = |name: &str, arrival: f64, slo: f64, rest: &str| {
        let (a, s) = (arrival.to_bits(), slo.to_bits());
        format!("{name} {a:016x} {s:016x} {rest}\n")
    };
    let ok = l("bfs", 1.0, 4.0, "7 0 3");
    let (time, slo) = ("finite and non-negative", "finite and positive");
    // (file body, line number named, message fragment)
    let cases: Vec<(String, usize, &str)> = vec![
        (l("bfs", f64::NAN, 4.0, "7 0 3"), 1, time),
        (l("bfs", f64::INFINITY, 4.0, "7 0 3"), 1, time),
        (l("bfs", -0.5, 4.0, "7 0 3"), 1, time),
        (
            ok.clone() + &l("bfs", 0.5, 4.0, "7 0 3"),
            2,
            "before the previous",
        ),
        (l("bfs", 1.0, f64::NAN, "7 0 3"), 1, slo),
        (l("bfs", 1.0, f64::INFINITY, "7 0 3"), 1, slo),
        (l("bfs", 1.0, 0.0, "7 0 3"), 1, slo),
        (l("bfs", 1.0, -4.0, "7 0 3"), 1, slo),
        (
            "bfs zz 4010000000000000 7 0 3\n".into(),
            1,
            "bad arrival bits",
        ),
        ("bfs 3ff0000000000000 -1 7 0 3\n".into(), 1, "bad slo bits"),
        (l("bfs", 1.0, 4.0, "x7 0 3"), 1, "bad seed"),
        (l("bfs", 1.0, 4.0, "7 -1 3"), 1, "bad class index"),
        (l("bfs", 1.0, 4.0, "7 0 256"), 1, "bad signature"),
        (l("bfs", 1.0, 4.0, "7 99 3"), 1, "out of range"),
        (
            ok.clone() + "\n" + &l("nosuch", 2.0, 4.0, "7 0 3"),
            3,
            "unknown workload",
        ),
        (l("bfs", 1.0, 4.0, "7 0"), 1, "missing signature"),
        (l("bfs", 1.0, 4.0, "7 0 3 9"), 1, "trailing field"),
    ];
    let path = std::env::temp_dir().join(format!("astro_fleet_bad_{}.txt", std::process::id()));
    for (body, ln, fragment) in &cases {
        std::fs::write(&path, body).unwrap();
        let Err(err) = TraceCursor::open(&path) else {
            panic!("accepted invalid trace {body:?}");
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{body:?}");
        let msg = err.to_string();
        assert!(
            msg.starts_with(&format!("trace line {ln}: ")) && msg.contains(fragment),
            "{body:?} gave {msg:?}, want line {ln} and {fragment:?}"
        );
    }
    // The valid line itself opens and replays.
    std::fs::write(&path, ok.repeat(2)).unwrap();
    let mut cursor = TraceCursor::open(&path).unwrap();
    assert_eq!(cursor.total(), 2);
    assert_eq!(cursor.next_job().unwrap().seed, 7);
    std::fs::remove_file(&path).ok();
}
