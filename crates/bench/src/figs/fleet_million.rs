//! Fleet scale ceiling: one million tenant jobs over five hundred
//! boards through the sharded kernel, with observed-service feedback
//! closing the dispatch loop.
//!
//! This is the figure the sharded kernel exists for. The PR 4 kernel
//! funnelled every board's events through one heap, so wall-clock
//! grew with board count; the sharded kernel partitions board state
//! into `K` shards advanced between control events and merged at
//! barriers, and it holds each arrival's estimates once per
//! architecture. The figure runs the same scenario twice —
//! `--shards 1` (the PR 4 single-loop kernel, byte-for-byte) and
//! `--shards K` — then:
//!
//! * verifies the two runs are **byte-identical** (shard count is an
//!   execution strategy, not a semantics knob), via a bitwise
//!   fingerprint over every outcome;
//! * reports the wall-clock ratio. Shard advances run serially on the
//!   control thread, so the ratio prices the partition's bookkeeping
//!   and is ~1x on any host;
//! * reports the feedback layer's mispredict accounting: how wrong
//!   profiled estimates were against observed service, and how much
//!   of that error the EWMA correction absorbed.
//!
//! All printed simulation metrics are seed-deterministic; wall-clock
//! timing and the speedup ratio vary with the machine.

use crate::figs::fleet::{mean_cold_service_s, tenant_pool};
use astro_fleet::{
    ArrivalProcess, BackendKind, ClusterSpec, FleetOutcome, FleetParams, FleetSim, FlightRecorder,
    PhaseAware, PolicyCache, PolicyMode, Scenario, TraceLevel,
};
use astro_workloads::InputSize;
use std::time::Instant;

/// Telemetry-off simulation throughput recorded for PR 8 in
/// `BENCH_fleet.json` under the CI configuration (`--quick --shards 4`:
/// 50k jobs, 100 boards, replay backend). The perf gate holds this
/// figure's hot path to within [`PERF_GATE_TOLERANCE`] of it.
const PR8_QUICK_BASELINE_JPS: f64 = 350_000.0;

/// Telemetry-off simulation throughput baseline for the CI mid
/// configuration (`--gate --shards 8`: 200k jobs, 2000 boards, replay
/// backend), set from the runs recorded with per-architecture
/// estimates in `BENCH_fleet.json`. On a 2-core container ten runs
/// (five under `taskset -c 0`) read 368.7k-511.9k jobs/s, medians
/// 495.1k unpinned and 489.8k pinned. The baseline is deliberately
/// below those: its floor, ~150k after [`GATE_TOLERANCE`], sits above
/// the 125.3k recorded before estimates went per architecture and
/// below 0.75x the slowest run since, so host swings of 1.5-2.3x do
/// not trip it. At 2000 boards the gate catches an indexed pick
/// backsliding into a linear scan (~3x slower); a return of the
/// per-board estimate copy (~2x) is guarded deterministically by the
/// kernel test `estimate_scratch_is_per_architecture_not_per_board`.
const GATE_BASELINE_JPS: f64 = 215_000.0;

/// The `--gate` CI configuration (jobs, boards) —
/// [`GATE_BASELINE_JPS`] was set from runs here, so the gate compares
/// against it for exactly this shape and the quick baseline otherwise.
const GATE_CONFIG: (usize, usize) = (200_000, 2_000);

/// Allowed fractional regression for the `--gate` leg. Wider than
/// [`PERF_GATE_TOLERANCE`]: the leg runs under a second of wall on a
/// small CI container, where neighbour bursts are worth -35% on a bad
/// sample, and the regression this gate exists to catch — the indexed
/// pick backsliding into a linear scan — costs ~3x at 2000 boards.
const GATE_TOLERANCE: f64 = 0.30;

/// Allowed fractional regression against the selected baseline
/// before the `--perf-gate` verdict fails the run. Wider than the 2%
/// band the PR 7 gate used: at ~0.14 s of wall per quick leg the
/// single-core CI container's scheduling jitter alone is worth several
/// percent, and the gate exists to catch hot-path regressions (which
/// historically cost 2-10x, not 10%), not to flake on timer noise.
/// Re-widened from 10% for PR 9 after back-to-back idle-host samples
/// of the *same binary* spanned 227-348k jobs/s (noisy-neighbour
/// bursts worth -35%); the floor this leaves, ~227k, still sits far
/// above what any historical hot-path regression would produce.
const PERF_GATE_TOLERANCE: f64 = 0.35;

/// Bitwise fingerprint of a run: FNV-1a over every outcome's
/// placement and float timeline bits, so a single last-ulp divergence
/// anywhere in a million jobs changes the digest.
fn fingerprint(out: &FleetOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for o in &out.outcomes {
        fold(o.id as u64);
        fold(o.board as u64);
        fold(o.start_s.to_bits());
        fold(o.finish_s.to_bits());
        fold(o.energy_j.to_bits());
        fold(o.migrations as u64);
    }
    for d in &out.dropped {
        fold(d.id as u64);
        fold(d.reason as u64);
    }
    h
}

/// Run the million-job experiment: `n_jobs` over `n_boards` on
/// `backend`, comparing `--shards 1` against `--shards <shards>` for
/// wall clock and byte equality, then a third leg with the flight
/// recorder on at `trace_level` to price the telemetry overhead
/// (fingerprint-checked against the untraced run). `perf_gate` turns
/// the printed baseline comparison into a hard assertion — CI passes
/// it with the `--quick` and `--gate` configurations the recorded
/// baselines were measured at.
#[allow(clippy::too_many_arguments)]
pub fn run(
    size: InputSize,
    n_jobs: usize,
    n_boards: usize,
    seed: u64,
    backend: BackendKind,
    shards: usize,
    trace_level: TraceLevel,
    perf_gate: bool,
) {
    println!(
        "=== Fleet million: {n_jobs} tenant jobs over {n_boards} boards, sharded kernel \
         (seed {seed}, backend {}, shards {shards}) ===\n",
        backend.name()
    );
    let cluster = ClusterSpec::heterogeneous(n_boards);
    let mut params = FleetParams::new(seed);
    params.size = size;
    params.backend = backend;
    params.train.episodes = 4;
    params.refresh_episodes = 2;
    params.train.reward.gamma = 6.0;
    let pool = tenant_pool();

    let mean_service = mean_cold_service_s(&cluster, &pool, &params);
    let rate = 0.85 * n_boards as f64 / mean_service;
    println!(
        "cluster: {n_boards} boards (alternating XU4/RK3399);  mean unloaded service {:.3} ms;  \
         arrival rate {:.1} jobs/s (target utilisation 0.85)",
        mean_service * 1e3,
        rate
    );

    let t0 = Instant::now();
    let jobs = ArrivalProcess::Poisson {
        rate_jobs_per_s: rate,
    }
    .generate(n_jobs, &pool, size, (4.0, 8.0), seed);
    println!(
        "stream: {n_jobs} jobs generated in {:.2} s;  horizon {:.2} s of virtual time\n",
        t0.elapsed().as_secs_f64(),
        jobs.last().map(|j| j.arrival_s).unwrap_or(0.0)
    );

    // The headline scenario: warm policies, online dispatch, and the
    // observed-service feedback loop closed.
    let scenario = Scenario::online(PolicyMode::Warm).with_feedback();
    let staleness = (n_jobs / 4).max(8) as u32;

    // One replay backend shared by every leg: calibrations are a pure
    // function of (workload, architecture, engine parameters), all
    // identical across legs here, so sharing is bit-neutral — the
    // first leg records them once and later legs measure the actual
    // hot path instead of re-recording traces.
    let shared_replay = FleetSim::new(&cluster, params.clone()).replay_handle();
    let run_with = |k: usize| -> (FleetOutcome, f64) {
        let mut p = params.clone();
        p.shards = k;
        let sim = match &shared_replay {
            Some(r) => FleetSim::with_replay(&cluster, p, r.clone()),
            None => FleetSim::new(&cluster, p),
        };
        let mut cache = PolicyCache::new(staleness);
        let t0 = Instant::now();
        let out = sim.run(&jobs, &mut PhaseAware::default(), &mut cache, &scenario);
        (out, t0.elapsed().as_secs_f64())
    };

    let (base, wall_1) = run_with(1);
    println!(
        "shards 1   (the PR 4 single-loop kernel): {wall_1:>6.2} s wall  \
         ({:.1} k jobs/s of simulation throughput)",
        n_jobs as f64 / wall_1 / 1e3
    );
    let (sharded, wall_k) = run_with(shards);
    let k = sharded.kernel;
    println!(
        "shards {:<3} ({} advances, {} messages): {wall_k:>6.2} s wall  ({:.1} k jobs/s)",
        k.shards,
        k.advances,
        k.messages,
        n_jobs as f64 / wall_k / 1e3
    );
    println!(
        "speedup vs shards 1: {:.2}x  (advances are serial; ~1x expected)\n",
        wall_1 / wall_k
    );

    let identical = fingerprint(&base) == fingerprint(&sharded);
    println!(
        "byte-determinism: shards 1 vs shards {} outcomes {}",
        k.shards,
        if identical {
            "IDENTICAL (bitwise fingerprint match)"
        } else {
            "DIVERGED — sharding bug"
        }
    );
    assert!(
        identical,
        "sharded kernel diverged from the sequential kernel"
    );

    // Telemetry leg: the same sharded configuration with the flight
    // recorder on. At `ticks` (the default) this prices the streaming
    // digests and per-tick gauge walk without retaining per-job trace
    // events — the right level for a million-job run; `--trace-level
    // full` would hold millions of spans in memory.
    let mut p = params.clone();
    p.shards = shards;
    let tsim = match &shared_replay {
        Some(r) => FleetSim::with_replay(&cluster, p, r.clone()),
        None => FleetSim::new(&cluster, p),
    };
    let mut cache = PolicyCache::new(staleness);
    let mut recorder = FlightRecorder::new(trace_level);
    let t0 = Instant::now();
    let traced = tsim.run_traced(
        &jobs,
        &mut PhaseAware::default(),
        &mut cache,
        &scenario,
        &mut recorder,
    );
    let wall_t = t0.elapsed().as_secs_f64();
    let telemetry_identical = fingerprint(&sharded) == fingerprint(&traced);
    println!(
        "telemetry '{}' ({} windows, {} digest samples): {wall_t:>6.2} s wall  ({:.1} k jobs/s; \
         {:+.1}% vs telemetry off);  outcomes {}",
        recorder.level().name(),
        recorder.windows().len(),
        recorder.latency_digest().count(),
        n_jobs as f64 / wall_t / 1e3,
        (wall_t / wall_k - 1.0) * 100.0,
        if telemetry_identical {
            "IDENTICAL with tracing on"
        } else {
            "DIVERGED — telemetry perturbed the simulation"
        }
    );
    assert!(
        telemetry_identical,
        "telemetry must never perturb the simulation"
    );

    // The perf gate (ROADMAP: hold the hot path): the telemetry-off
    // sharded leg vs the throughput recorded in BENCH_fleet.json.
    // Advisory outside `--perf-gate`, and only meaningful at the two
    // configurations a baseline was measured under: `--quick` (the PR
    // 8 smoke floor) and `--gate` (the PR 9 mid leg that prices the
    // indexed dispatch path at 2000 boards).
    let jps_off = n_jobs as f64 / wall_k;
    let (baseline, baseline_name, tolerance) = if (n_jobs, n_boards) == GATE_CONFIG {
        (GATE_BASELINE_JPS, "gate", GATE_TOLERANCE)
    } else {
        (PR8_QUICK_BASELINE_JPS, "PR 8 quick", PERF_GATE_TOLERANCE)
    };
    let floor = baseline * (1.0 - tolerance);
    println!(
        "perf gate: telemetry-off throughput {:.0} jobs/s vs {baseline_name} baseline {:.0} \
         ({:+.1}%; floor {:.0}) — {}",
        jps_off,
        baseline,
        (jps_off / baseline - 1.0) * 100.0,
        floor,
        if !perf_gate {
            "advisory (pass --perf-gate at --quick or --gate to enforce)"
        } else if jps_off >= floor {
            "PASS"
        } else {
            "FAIL"
        }
    );
    if perf_gate {
        assert!(
            jps_off >= floor,
            "perf gate: {jps_off:.0} jobs/s is more than {:.0}% below the {baseline_name} \
             baseline {baseline:.0}",
            tolerance * 100.0
        );
    }

    let m = &sharded.metrics;
    println!(
        "\nphase-aware/warm/online+fb over {} completed jobs:  p50 {:.3} ms  p95 {:.3} ms  \
         p99 {:.3} ms  p99/SLO {:.2}  SLO miss {:.1}%  energy {:.1} J  mean util {:.2}",
        m.jobs,
        m.p50_s * 1e3,
        m.p95_s * 1e3,
        m.p99_s * 1e3,
        m.p99_slo_ratio,
        m.slo_miss_rate() * 100.0,
        m.total_energy_j,
        m.mean_util()
    );
    println!(
        "policy cache: {} hits / {} misses / {} refreshes;  calibrations {};  \
         guard bypasses {}",
        sharded.cache.hits,
        sharded.cache.misses,
        sharded.cache.stale_refreshes,
        sharded.calibrations,
        sharded.guard_bypasses
    );
    let fb = &m.feedback;
    println!(
        "observed-service feedback: {} samples;  mispredict rate {:.1}% (band 25%);  \
         mean |observed-predicted|/predicted {:.1}%;  {} rejected",
        fb.samples,
        fb.mispredict_rate() * 100.0,
        fb.mean_abs_rel_err() * 100.0,
        fb.rejected
    );
    println!(
        "kernel: {} events;  {} arrivals;  {} completions;  dropped {} \
         (no-board-up {}, migration-cap {})",
        k.events, k.arrivals, k.completions, k.dropped, k.dropped_no_board, k.dropped_migration_cap
    );
}
