//! Property tests for the sharded kernel: partitioning the board
//! state into K shards is an implementation strategy, not a semantics
//! change — a fixed scenario must produce byte-identical outcomes for
//! every shard count, including the degenerate `K = 1` (the PR 4
//! single-loop kernel) and a count that does not divide the board
//! count evenly.

use astro_fleet::{
    ArrivalProcess, ChaosSchedule, ChurnEvent, ClusterSpec, Dispatcher, EnergyAware, FleetOutcome,
    FleetParams, FleetSim, FlightRecorder, LeastLoaded, PhaseAware, PolicyCache, PolicyMode,
    Scenario, TraceLevel,
};
use astro_workloads::{InputSize, Workload};
use proptest::prelude::*;

fn pool() -> Vec<Workload> {
    ["swaptions", "bfs"]
        .iter()
        .map(|n| astro_workloads::by_name(n).unwrap())
        .collect()
}

/// Bitwise fingerprint of everything a scenario observes: per-job
/// placements, float timelines (compared through `to_bits`, so even a
/// last-ulp drift fails), drops with reasons, and the event counters.
fn fingerprint(out: &FleetOutcome) -> Vec<u64> {
    let mut fp = Vec::new();
    for o in &out.outcomes {
        fp.push(o.id as u64);
        fp.push(o.board as u64);
        fp.push(o.start_s.to_bits());
        fp.push(o.finish_s.to_bits());
        fp.push(o.service_s.to_bits());
        fp.push(o.energy_j.to_bits());
        fp.push(o.slo_s.to_bits());
        fp.push(o.migrations as u64);
    }
    for d in &out.dropped {
        fp.push(d.id as u64);
        fp.push(d.reason as u64);
    }
    let k = &out.kernel;
    fp.extend([
        k.events,
        k.arrivals,
        k.completions,
        k.dropped,
        k.dropped_no_board,
        k.dropped_migration_cap,
        k.migrations,
        k.redistributions,
        k.ticks,
    ]);
    fp.push(out.metrics.p99_s.to_bits());
    fp.push(out.metrics.total_energy_j.to_bits());
    fp.push(out.metrics.feedback.samples);
    fp.push(out.metrics.feedback.mispredicts);
    fp
}

/// Deep advance windows: a near-simultaneous burst over 300 boards
/// leaves hundreds of completions pending at once, so the barrier
/// merges fold many completions from every shard per window. Shard
/// counts 1, 4 and 7 (a ragged final chunk) must agree bit for bit,
/// and no advance is ever counted as fanned out.
#[test]
fn deep_window_burst_matches_across_shard_counts() {
    let cluster = ClusterSpec::heterogeneous(300);
    let jobs = ArrivalProcess::Bursty {
        rate_jobs_per_s: 2_000_000.0,
        burst: 64,
        spread_s: 1e-7,
    }
    .generate(600, &pool(), InputSize::Test, (4.0, 8.0), 11);
    let scenario = Scenario::online(PolicyMode::Cold);

    let run = |shards: usize| {
        let mut params = FleetParams::new(11);
        params.backend = astro_fleet::BackendKind::Replay;
        params.shards = shards;
        let sim = FleetSim::new(&cluster, params);
        let mut cache = PolicyCache::new(0);
        sim.run(&jobs, &mut LeastLoaded, &mut cache, &scenario)
    };

    let outs: Vec<FleetOutcome> = [1, 4, 7].into_iter().map(run).collect();
    for (out, k) in outs.iter().zip([1u32, 4, 7]) {
        assert_eq!(out.kernel.shards, k);
        assert_eq!(out.kernel.par_advances, 0, "advances are serial");
        assert_eq!(
            fingerprint(&outs[0]),
            fingerprint(out),
            "shards {k} diverged from shards 1 on deep windows"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One scenario, four shard counts (including a count that leaves
    /// a ragged final chunk and one larger than some clusters): all
    /// byte-identical. Exercises churn, chaos (throttle + misprofile),
    /// preemption, the feedback layer, the redispatch cap and all
    /// three dispatchers (including the scratch-based EnergyAware and
    /// PhaseAware rewrites) across the shard boundary, and re-runs one
    /// shard count with the flight recorder on at a sampled depth to
    /// prove telemetry never perturbs outcomes.
    #[test]
    fn outcomes_are_byte_identical_across_shard_counts(
        n_jobs in 4usize..14,
        n_boards in 2usize..6,
        rate in 200.0f64..20_000.0,
        online_bit in 0u8..2,
        preempt_bit in 0u8..2,
        feedback_bit in 0u8..2,
        throttle_bit in 0u8..2,
        misprofile_bit in 0u8..2,
        cap_pick in 0u8..3,
        dispatcher_pick in 0u8..3,
        trace_pick in 0u8..3,
        // Churn windows on an integer grid strictly inside the horizon,
        // so churn never ties with an arrival timestamp (same-time
        // control ordering is pinned separately; this test is about
        // shard invariance). One down→(maybe up) window per board: the
        // kernel rejects inconsistent liveness schedules.
        churn_raw in prop::collection::vec((0usize..6, 1u32..80, 1u32..16, 0u8..2), 0..5),
        seed in 0u64..200,
    ) {
        let online = online_bit == 1;
        let cap = [0u32, 1, u32::MAX][cap_pick as usize];
        let cluster = ClusterSpec::heterogeneous(n_boards);
        let jobs = ArrivalProcess::Poisson { rate_jobs_per_s: rate }
            .generate(n_jobs, &pool(), InputSize::Test, (2.0, 8.0), seed);
        let horizon = jobs.last().unwrap().arrival_s;
        let mut touched = [false; 6];
        let mut churn: Vec<ChurnEvent> = Vec::new();
        for &(b, down_grid, dur_grid, return_bit) in &churn_raw {
            let b = b % n_boards;
            if touched[b] {
                continue;
            }
            touched[b] = true;
            churn.push(ChurnEvent {
                time_s: down_grid as f64 / 97.0 * horizon,
                board: b,
                up: false,
            });
            if return_bit == 1 {
                churn.push(ChurnEvent {
                    time_s: (down_grid + dur_grid) as f64 / 97.0 * horizon,
                    board: b,
                    up: true,
                });
            }
        }
        let mut scenario = if online {
            Scenario::online(PolicyMode::Cold)
        } else {
            Scenario::oracle(PolicyMode::Cold)
        }
        .with_migration_cost(1e-6)
        .with_redispatch_cap(cap)
        .with_churn(churn);
        if preempt_bit == 1 && online {
            scenario = scenario.with_preemption(0.3 / rate * n_boards as f64, 1e-6, 2);
        }
        if feedback_bit == 1 {
            scenario = scenario.with_feedback();
        }
        // Chaos clauses that never interact with churn liveness (the
        // kernel rejects inconsistent liveness schedules, and churn
        // boards are drawn randomly above): a throttle on board 0 and
        // a fleet-wide misprofile window.
        if throttle_bit == 1 || misprofile_bit == 1 {
            let mut chaos = ChaosSchedule::new();
            if throttle_bit == 1 {
                chaos = chaos.throttle(0, 2.5, 0.20 * horizon, 0.80 * horizon);
            }
            if misprofile_bit == 1 {
                chaos = chaos.misprofile(None, 0.3, 0.25 * horizon, 0.75 * horizon);
            }
            scenario = scenario.with_chaos(chaos);
        }

        // A fresh dispatcher per run: EnergyAware and PhaseAware carry
        // reusable scratch, and byte-identity must hold regardless of
        // what a previous run left in it.
        let dispatcher = || -> Box<dyn Dispatcher> {
            match dispatcher_pick {
                0 => Box::new(LeastLoaded),
                1 => Box::new(EnergyAware::default()),
                _ => Box::new(PhaseAware::default()),
            }
        };

        let mut reference: Option<(usize, Vec<u64>)> = None;
        for shards in [1usize, 2, 4, 7] {
            let mut params = FleetParams::new(seed);
            params.shards = shards;
            let sim = FleetSim::new(&cluster, params);
            let mut cache = PolicyCache::new(0);
            let out = sim.run(&jobs, &mut *dispatcher(), &mut cache, &scenario);
            let k = out.kernel.shards as usize;
            prop_assert!(
                k >= 1 && k <= shards.min(n_boards),
                "shard count must clamp into [1, min(requested, boards)]: got {k}"
            );
            let fp = fingerprint(&out);
            match &reference {
                None => reference = Some((shards, fp)),
                Some((k0, fp0)) => prop_assert_eq!(
                    fp0,
                    &fp,
                    "shards={} and shards={} disagree (seed {}, {} jobs, {} boards)",
                    k0,
                    shards,
                    seed,
                    n_jobs,
                    n_boards
                ),
            }
        }

        // Telemetry invariance: the ragged shard count again, flight
        // recorder on at a sampled depth — byte-identical to the
        // untraced runs at every level, not just Full.
        let (_, ref_fp) = reference.unwrap();
        let level = [TraceLevel::Ticks, TraceLevel::Spans, TraceLevel::Full][trace_pick as usize];
        let mut params = FleetParams::new(seed);
        params.shards = 7;
        let sim = FleetSim::new(&cluster, params);
        let mut cache = PolicyCache::new(0);
        let mut recorder = FlightRecorder::new(level);
        let traced =
            sim.run_traced(&jobs, &mut *dispatcher(), &mut cache, &scenario, &mut recorder);
        prop_assert_eq!(
            &ref_fp,
            &fingerprint(&traced),
            "flight recorder at {:?} perturbed the simulation (seed {})",
            level,
            seed
        );
    }

    /// The redispatch cap drops per-reason: with cap 0 every churn
    /// orphan is dropped with the migration-cap reason (never
    /// silently completed, never misfiled as no-board-up while other
    /// boards are up), and accounting balances.
    #[test]
    fn redispatch_cap_drops_are_reported_per_reason(
        n_jobs in 6usize..14,
        seed in 0u64..100,
    ) {
        let cluster = ClusterSpec::heterogeneous(3);
        let sim = FleetSim::new(&cluster, FleetParams::new(seed));
        // High rate so board 0's queue is busy when it goes down.
        let jobs = ArrivalProcess::Poisson { rate_jobs_per_s: 50_000.0 }
            .generate(n_jobs, &pool(), InputSize::Test, (2.0, 6.0), seed);
        let horizon = jobs.last().unwrap().arrival_s;
        let scenario = Scenario::online(PolicyMode::Cold)
            .with_redispatch_cap(0)
            .with_churn(vec![ChurnEvent { time_s: horizon * 0.5, board: 0, up: false }]);
        let mut cache = PolicyCache::new(0);
        let out = sim.run(&jobs, &mut LeastLoaded, &mut cache, &scenario);
        let k = &out.kernel;
        prop_assert_eq!(k.redistributions, 0, "cap 0 forbids redistribution");
        prop_assert_eq!(k.dropped, k.dropped_no_board + k.dropped_migration_cap);
        prop_assert_eq!(k.dropped_no_board, 0, "boards 1..3 stayed up");
        prop_assert_eq!(
            out.dropped.iter().filter(|d| d.reason == astro_fleet::DropReason::MigrationCap).count() as u64,
            k.dropped_migration_cap
        );
        prop_assert_eq!(out.outcomes.len() + out.dropped.len(), n_jobs);
    }
}
