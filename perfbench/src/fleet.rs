//! The fleet workloads: `steady-2k` and `chaos-20`, driven through
//! `FleetSim::resident` / `ResidentKernel::step` over a seeded
//! `GenCursor` with retention off.
//!
//! Open loop in simulated time (Poisson arrivals at a fixed
//! utilisation, optionally warped by chaos traffic clauses); in host
//! time each trial is a batch job over a fixed number of jobs, so the
//! headline is completed jobs per host second. The workload seed drives
//! only the arrival stream; the simulator itself (profiles, training)
//! runs at a fixed seed, so the program sees nothing of the seed but
//! the generated jobs.

use crate::layers::{ns_since, TimedCursor, TimedDispatcher};
use crate::report::Values;
use crate::stats::{iqr_frac, median, percentile_u64};
use crate::{fnv1a, Verdict};
use astro_bench::figs::fleet::tenant_pool;
use astro_core::replay::ReplayExecutor;
use astro_exec::executor::{ExecPolicy, ExecRequest, Executor, MachineExecutor};
use astro_exec::program::compile;
use astro_fleet::{
    ArrivalCursor, ArrivalProcess, BackendKind, ChaosSchedule, ClusterSpec, Dispatcher,
    FleetOutcome, FleetParams, FleetSim, FlightRecorder, GenCursor, PhaseAware, PhaseProfile,
    PolicyCache, PolicyMode, ResidentKernel, Scenario, TraceLevel,
};
use astro_workloads::Workload;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the simulator (profiling, training, engine jitter). Fixed,
/// so the workload seed reaches the program only through its inputs.
const SIM_SEED: u64 = 0;

/// Per-job SLO tightness range, as in the fleet figures.
const SLO_TIGHTNESS: (f64, f64) = (4.0, 8.0);

/// One fleet workload's fixed shape.
pub struct FleetWorkload {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Boards, alternating XU4/RK3399.
    pub boards: usize,
    /// Jobs per trial. Fixed once chosen: host cost per job depends on
    /// run length (queues deepen), so results at different lengths
    /// are not comparable.
    pub jobs: usize,
    /// Kernel shards.
    pub shards: usize,
    /// OS threads shard advances may fan out across.
    pub workers: usize,
    /// Target utilisation the arrival rate is calibrated to.
    pub utilisation: f64,
    /// Run the `fleet_chaos` composite schedule with preemption.
    pub chaos: bool,
}

/// 2000 boards at 0.85 utilisation, warm policies, online dispatch,
/// feedback, `PhaseAware`; shards and workers pinned at 2 so the path
/// does not depend on the host's core count. Exercises the indexed
/// pick, the per-arrival estimate fan-out and the per-window shard
/// thread fan-out.
pub const STEADY_2K: FleetWorkload = FleetWorkload {
    name: "steady-2k",
    boards: 2000,
    jobs: 20_000,
    shards: 2,
    workers: 2,
    utilisation: 0.85,
    chaos: false,
};

/// 20 boards (below the dispatch-index threshold, so picks scan) under
/// the `fleet_chaos` composite schedule with preemption and feedback,
/// one shard. The control plane dominates: monitor ticks over deep
/// queues, churn redistribution and drops.
pub const CHAOS_20: FleetWorkload = FleetWorkload {
    name: "chaos-20",
    boards: 20,
    jobs: 10_000,
    shards: 1,
    workers: 1,
    utilisation: 0.7,
    chaos: true,
};

/// Everything built before the first trial.
pub struct Setup {
    workload: &'static FleetWorkload,
    seed: u64,
    cluster: ClusterSpec,
    params: FleetParams,
    pool: Vec<Workload>,
    replay: Arc<ReplayExecutor>,
    process: ArrivalProcess,
    scenario: Scenario,
    staleness: u32,
    /// Mean unloaded GTS energy of one job across the pool and
    /// architectures — the energy reference.
    cold_energy_j: f64,
    /// Host seconds the replay calibrations took.
    calibrate_s: f64,
}

impl Setup {
    /// Builds the cluster, calibrates the arrival rate against the
    /// pool's unloaded service time, records every (workload,
    /// architecture) replay calibration the kernel will need, and
    /// composes the scenario.
    pub fn new(workload: &'static FleetWorkload, seed: u64) -> Self {
        let cluster = ClusterSpec::heterogeneous(workload.boards);
        let mut params = FleetParams::new(SIM_SEED);
        params.backend = BackendKind::Replay;
        params.train.episodes = 4;
        params.refresh_episodes = 2;
        params.train.reward.gamma = 6.0;
        params.shards = workload.shards;
        params.shard_workers = workload.workers;
        let pool = tenant_pool();

        let (mean_service_s, cold_energy_j) = cold_reference(&cluster, &pool, &params);
        let process = ArrivalProcess::Poisson {
            rate_jobs_per_s: workload.utilisation * workload.boards as f64 / mean_service_s,
        };

        let replay = FleetSim::new(&cluster, params.clone())
            .replay_handle()
            .expect("the replay backend owns a calibration cache");
        let t0 = Instant::now();
        for key in cluster.arch_keys() {
            let board = cluster.representative_board(key);
            for w in &pool {
                replay.calibrate(w.name, &(w.build)(params.size), board);
            }
        }
        let calibrate_s = t0.elapsed().as_secs_f64();

        let scenario = if workload.chaos {
            // Hang the chaos grid off the unshaped stream's horizon;
            // the traffic warp preserves it.
            let horizon = process
                .generate(workload.jobs, &pool, params.size, SLO_TIGHTNESS, seed)
                .last()
                .map_or(0.0, |j| j.arrival_s);
            let migration_cost = 0.05 * mean_service_s;
            Scenario::online(PolicyMode::Warm)
                .with_chaos(chaos_schedule(workload.boards, horizon))
                .with_preemption(2.0 * mean_service_s, migration_cost, 2)
                .with_feedback()
        } else {
            Scenario::online(PolicyMode::Warm).with_feedback()
        };

        Setup {
            workload,
            seed,
            cluster,
            params,
            pool,
            replay,
            process,
            scenario,
            staleness: (workload.jobs / 4).max(8) as u32,
            cold_energy_j,
            calibrate_s,
        }
    }

    fn sim(&self) -> FleetSim<'_> {
        FleetSim::with_replay(&self.cluster, self.params.clone(), self.replay.clone())
    }

    fn cursor(&self) -> GenCursor {
        GenCursor::new(
            self.process,
            self.workload.jobs,
            &self.pool,
            self.params.size,
            SLO_TIGHTNESS,
            self.seed,
            &self.scenario.chaos.traffic,
        )
    }

    /// Fresh per-run state for an untraced run.
    fn run(&self) -> Run<GenCursor, PhaseAware> {
        Run::new(self, self.cursor(), PhaseAware::default(), TraceLevel::Off)
    }
}

/// The state a kernel borrows for one run, built fresh for each: the
/// arrival cursor, the dispatcher, the policy cache and the recorder.
struct Run<C, D> {
    cursor: C,
    dispatcher: D,
    cache: PolicyCache,
    recorder: FlightRecorder,
}

impl<C: ArrivalCursor, D: Dispatcher> Run<C, D> {
    fn new(s: &Setup, cursor: C, dispatcher: D, level: TraceLevel) -> Self {
        Run {
            cursor,
            dispatcher,
            cache: PolicyCache::new(s.staleness),
            recorder: FlightRecorder::new(level),
        }
    }

    /// A resident kernel over this state, retention off.
    fn kernel<'a, 'r>(
        &'r mut self,
        sim: &'r FleetSim<'a>,
        scenario: &'r Scenario,
    ) -> ResidentKernel<'a, 'r>
    where
        C: 'r,
        D: 'r,
    {
        sim.resident(
            &mut self.cursor,
            &mut self.dispatcher,
            &mut self.cache,
            scenario,
            &mut self.recorder,
            false,
        )
    }
}

/// Mean unloaded (cold, GTS, all cores) service time and energy of the
/// pool across the cluster's architectures, on the cycle-accurate
/// engine — the arrival-rate calibration of the fleet figures, plus
/// the energy reference.
fn cold_reference(cluster: &ClusterSpec, pool: &[Workload], params: &FleetParams) -> (f64, f64) {
    let exec = MachineExecutor {
        params: params.machine,
    };
    let (mut wall, mut energy, mut n) = (0.0, 0.0, 0usize);
    for key in cluster.arch_keys() {
        let board = cluster.representative_board(key);
        for w in pool {
            let module = (w.build)(params.size);
            let program = compile(&module).expect("workload compiles");
            let r = exec.execute(&ExecRequest {
                workload: w.name,
                module: &module,
                program: &program,
                board,
                config: board.config_space().full(),
                policy: ExecPolicy::Gts,
                seed: params.machine.seed,
            });
            wall += r.wall_time_s;
            energy += r.energy_j;
            n += 1;
        }
    }
    (wall / n as f64, energy / n as f64)
}

/// The `fleet_chaos` composite schedule over `n_boards`, scaled to the
/// arrival horizon: two correlated rack outages, a blackout inside the
/// second, a fleet-wide 4x misprofile window, a 3x flash crowd over a
/// diurnal swell, and 3x (composing to 6x) thermal throttles on every
/// fifth board.
fn chaos_schedule(n_boards: usize, horizon: f64) -> ChaosSchedule {
    let rack_a: Vec<usize> = (0..n_boards).filter(|b| b % 10 < 2).collect();
    let rack_b: Vec<usize> = (0..n_boards).filter(|b| b % 10 == 2).collect();
    let blackout: Vec<usize> = (0..n_boards).filter(|b| b % 10 == 4).collect();
    let mut chaos = ChaosSchedule::new()
        .rack_outage(rack_a, 0.25 * horizon, 0.45 * horizon)
        .rack_outage(rack_b, 0.50 * horizon, 0.65 * horizon)
        .blackout(blackout, 0.55 * horizon, 0.62 * horizon)
        .misprofile(None, 0.25, 0.30 * horizon, 0.90 * horizon)
        .flash_crowd(0.45, 0.60, 3.0)
        .diurnal(2.0, 0.4, 12);
    for b in (3..n_boards).step_by(5) {
        chaos = chaos.throttle(b, 3.0, 0.20 * horizon, 0.70 * horizon);
        if b % 10 == 3 {
            chaos = chaos.throttle(b, 2.0, 0.40 * horizon, 0.60 * horizon);
        }
    }
    chaos
}

/// Bitwise fingerprint of a run's deterministic outcome: the metrics
/// (including feedback accounting), the stream summary, the dropped
/// list, and the kernel, cache and chaos counters. Debug formatting
/// prints floats in shortest round-trip form, so a last-ulp divergence
/// changes the hash.
pub fn fingerprint(out: &FleetOutcome) -> u64 {
    fnv1a(
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}",
            out.metrics,
            out.kernel,
            out.cache,
            out.chaos,
            out.stream,
            out.dropped,
            out.guard_bypasses,
            out.train_time_s.to_bits(),
            out.train_energy_j.to_bits(),
        )
        .as_bytes(),
    )
}

/// Cursor position at which the gate legs checkpoint: half the stream.
fn midpoint(s: &Setup) -> usize {
    s.workload.jobs / 2
}

/// Segments each trial's host time is split into, by arrival-cursor
/// position: `jobs / SEGMENTS` arrivals each, plus the final drain.
pub const SEGMENTS: usize = 20;

/// One untraced trial: cursor, kernel, drain and outcome, with the
/// recorder off. Returns the outcome and the host seconds of each
/// segment (see [`SEGMENTS`]); they sum to the trial's host time,
/// cursor construction included (a user pays it on every run). The
/// segment boundaries are a pure function of the stream, so every
/// trial of a set-up splits into the same segments.
pub fn trial(s: &Setup) -> (FleetOutcome, Vec<f64>) {
    let sim = s.sim();
    let per_segment = s.workload.jobs.div_ceil(SEGMENTS).max(1);
    let mut segments = Vec::with_capacity(SEGMENTS + 1);
    let mut t0 = Instant::now();
    let mut run = s.run();
    let mut k = run.kernel(&sim, &s.scenario);
    let mut boundary = per_segment;
    while k.step() {
        if k.position() >= boundary {
            segments.push(t0.elapsed().as_secs_f64());
            t0 = Instant::now();
            boundary += per_segment;
        }
    }
    let out = k.finish();
    segments.push(t0.elapsed().as_secs_f64());
    (out, segments)
}

/// Restores `image` into a freshly built kernel (fresh cursor,
/// dispatcher and cache; the checkpointing kernel is already gone) and
/// runs it to completion. Returns the outcome and the restore's host
/// seconds.
fn resume(s: &Setup, image: &[u8]) -> (FleetOutcome, f64) {
    let sim = s.sim();
    let mut run = s.run();
    let mut k = run.kernel(&sim, &s.scenario);
    let t0 = Instant::now();
    k.restore(image).expect("a fresh checkpoint image restores");
    let restore_s = t0.elapsed().as_secs_f64();
    k.run();
    (k.finish(), restore_s)
}

/// The checkpoint gate leg: run to the midpoint, checkpoint, drop the
/// kernel, restore into a fresh one and finish.
pub fn checkpoint_leg(s: &Setup) -> FleetOutcome {
    let image = {
        let sim = s.sim();
        let mut run = s.run();
        let mut k = run.kernel(&sim, &s.scenario);
        while k.position() < midpoint(s) && k.step() {}
        k.checkpoint()
    };
    resume(s, &image).0
}

/// The end-to-end run: `reps` set-ups (median reported), then timed
/// trials until `seconds` have passed (at least `min_trials`), then the
/// checkpoint gate leg. No trial needs a warm-up: the one-off replay
/// calibrations are part of the set-up. Every trial's and the leg's
/// fingerprint must equal the first trial's. `jobs_per_s` divides the
/// completed jobs by the sum of each segment's fastest time (see
/// [`crate::fastest_total`]).
pub fn run_end_to_end(
    workload: &'static FleetWorkload,
    seed: u64,
    seconds: f64,
    reps: usize,
    min_trials: usize,
    v: &mut Verdict,
) -> Values {
    let (s, setup_s) =
        crate::repeat_setup(reps, crate::SETUP_BUDGET_S, || Setup::new(workload, seed));

    let started = Instant::now();
    let mut jps = Vec::new();
    let mut segments = Vec::new();
    let mut first: Option<FleetOutcome> = None;
    while jps.len() < min_trials || started.elapsed().as_secs_f64() < seconds {
        let (out, seg) = trial(&s);
        jps.push(out.kernel.completions as f64 / seg.iter().sum::<f64>());
        segments.push(seg);
        match &first {
            None => {
                v.check("trial", fingerprint(&out), None);
                first = Some(out);
            }
            Some(f) => v.check("trial", fingerprint(&out), Some(fingerprint(f))),
        }
    }
    let first = first.expect("at least one trial");
    let reference = fingerprint(&first);
    v.check(
        "checkpoint-restore",
        fingerprint(&checkpoint_leg(&s)),
        Some(reference),
    );

    let mut values = Values::default();
    let best_s = crate::fastest_total(&segments);
    values.set("jobs_per_s", first.kernel.completions as f64 / best_s);
    values.set("setup_s", median(&setup_s));
    values.set("peak_rss_mib", crate::host::peak_rss_mib());
    sim_metrics(&s, &first, &mut values);
    println!(
        "trials: {} x {} jobs in {SEGMENTS} segments; jobs/s from fastest segments {:.1}, \
         median trial {:.1} (iqr/median {:.3}); per trial: {}",
        jps.len(),
        workload.jobs,
        first.kernel.completions as f64 / best_s,
        median(&jps),
        iqr_frac(&jps),
        crate::join(&jps)
    );
    println!(
        "set-up: {} repetitions, seconds: {}",
        setup_s.len(),
        crate::join(&setup_s)
    );
    println!(
        "outcome {:016x}: {} of {} jobs completed; cache {:?}; {} guard bypasses; \
         training {} J of {} J",
        reference,
        first.kernel.completions,
        first.kernel.arrivals,
        first.cache,
        first.guard_bypasses,
        first.train_energy_j,
        first.metrics.total_energy_j,
    );
    values
}

/// The deterministic modelled-design metrics of one outcome.
fn sim_metrics(s: &Setup, out: &FleetOutcome, values: &mut Values) {
    let k = &out.kernel;
    values.set("completed_frac", k.completions as f64 / k.arrivals as f64);
    values.set("sim_time_ratio", out.metrics.p99_slo_ratio);
    values.set(
        "sim_energy_ratio",
        out.metrics.total_energy_j / k.completions as f64 / s.cold_energy_j,
    );
}

/// What one traced trial recorded besides its outcome.
pub struct Traced {
    /// The outcome, which must equal an untraced trial's.
    pub out: FleetOutcome,
    /// Host seconds of the trial, checkpoint save excluded.
    pub wall_s: f64,
    /// Wall nanoseconds of each arrival-cursor pull.
    pub pull_ns: Vec<u64>,
    /// Wall nanoseconds of each dispatcher pick.
    pub pick_ns: Vec<u64>,
    /// Wall nanoseconds of each kernel step during which the cursor
    /// advanced (an arrival step).
    pub arrival_step_ns: Vec<u64>,
    /// Wall nanoseconds of each other step: a monitor tick, a churn or
    /// chaos edge, or the final drain.
    pub control_step_ns: Vec<u64>,
    /// The flight recorder's wall-clock phase profile.
    pub phases: PhaseProfile,
    /// The checkpoint image taken at the midpoint.
    pub image: Vec<u8>,
    /// Host seconds the checkpoint save took.
    pub save_s: f64,
}

/// One traced trial: the cursor and dispatcher wrapped in timers,
/// every `ResidentKernel::step` timed, the flight recorder at `ticks`,
/// and a checkpoint taken (and kept) at the midpoint.
pub fn traced_trial(s: &Setup) -> Traced {
    let sim = s.sim();
    let t0 = Instant::now();
    let mut run = Run::new(
        s,
        TimedCursor::new(s.cursor()),
        TimedDispatcher::new(PhaseAware::default()),
        TraceLevel::Ticks,
    );
    let (mut arrival_step_ns, mut control_step_ns) = (Vec::new(), Vec::new());
    let mut image = None;
    let mut save_s = 0.0;
    let mut k = run.kernel(&sim, &s.scenario);
    loop {
        if image.is_none() && k.position() >= midpoint(s) {
            let c0 = Instant::now();
            image = Some(k.checkpoint());
            save_s = c0.elapsed().as_secs_f64();
        }
        let before = k.position();
        let t1 = Instant::now();
        let more = k.step();
        let ns = ns_since(t1);
        if k.position() > before {
            arrival_step_ns.push(ns);
        } else {
            control_step_ns.push(ns);
        }
        if !more {
            break;
        }
    }
    let out = k.finish();
    Traced {
        out,
        wall_s: t0.elapsed().as_secs_f64() - save_s,
        pull_ns: run.cursor.pull_ns,
        pick_ns: run.dispatcher.pick_ns,
        arrival_step_ns,
        control_step_ns,
        phases: run.recorder.wall(),
        image: image.expect("the run passes its midpoint"),
        save_s,
    }
}

/// The traced run: one untraced reference trial (the overhead
/// denominator), then one [`traced_trial`], then its midpoint image
/// restored into a fresh kernel and finished. The traced, resumed and
/// reference fingerprints must all agree.
pub fn run_traced(workload: &'static FleetWorkload, seed: u64, v: &mut Verdict) -> Values {
    let s = Setup::new(workload, seed);
    let calibrations = s.replay.stats().calibrations;
    let (reference, segments) = trial(&s);
    let untraced_s: f64 = segments.iter().sum();
    let want = fingerprint(&reference);
    v.check("untraced", want, None);
    let t = traced_trial(&s);
    v.check("traced", fingerprint(&t.out), Some(want));
    let (resumed, restore_s) = resume(&s, &t.image);
    v.check("checkpoint-restore", fingerprint(&resumed), Some(want));

    let wall = t.phases;
    let save_s = t.save_s;
    let pull_s = t.pull_ns.iter().sum::<u64>() as f64 * 1e-9;
    let pick_s = t.pick_ns.iter().sum::<u64>() as f64 * 1e-9;
    // The recorder's loop clock also ran across the checkpoint save.
    let control_s = (wall.control_s() - save_s).max(0.0);
    let traced = &t.out;
    let kst = &traced.kernel;
    let cst = &traced.cache;
    let fb = &traced.metrics.feedback;

    let mut m = crate::zero_layers();
    m.set("arrival.pulls", t.pull_ns.len() as f64);
    m.set("arrival.pull_s", pull_s);
    m.set(
        "arrival.pull_ns_p50",
        percentile_u64(&t.pull_ns, 50.0) as f64,
    );
    m.set("dispatch.picks", t.pick_ns.len() as f64);
    m.set("dispatch.pick_s", pick_s);
    m.set(
        "dispatch.pick_ns_p50",
        percentile_u64(&t.pick_ns, 50.0) as f64,
    );
    m.set(
        "dispatch.pick_ns_p99",
        percentile_u64(&t.pick_ns, 99.0) as f64,
    );
    m.set(
        "kernel.arrival_step_ns_p50",
        percentile_u64(&t.arrival_step_ns, 50.0) as f64,
    );
    m.set(
        "kernel.arrival_step_ns_p99",
        percentile_u64(&t.arrival_step_ns, 99.0) as f64,
    );
    m.set(
        "kernel.control_step_ns_p50",
        percentile_u64(&t.control_step_ns, 50.0) as f64,
    );
    m.set(
        "kernel.control_step_ns_p99",
        percentile_u64(&t.control_step_ns, 99.0) as f64,
    );
    m.set(
        "kernel.control_step_ns_max",
        t.control_step_ns.iter().copied().max().unwrap_or(0) as f64,
    );
    m.set("kernel.wall_s", (wall.total_s - save_s).max(0.0));
    m.set("kernel.control_s", control_s);
    m.set("kernel.control_residual_s", control_s - pick_s - pull_s);
    m.set("shard.advance_s", wall.shard_advance_s);
    m.set("shard.advances", kst.advances as f64);
    m.set("shard.par_advances", kst.par_advances as f64);
    m.set(
        "shard.fanout_ratio",
        ratio(kst.par_advances as f64, kst.advances as f64),
    );
    m.set("shard.messages", kst.messages as f64);
    m.set("metrics.barrier_merge_s", wall.barrier_merge_s);
    m.set("kernel.events", kst.events as f64);
    m.set("kernel.ticks", kst.ticks as f64);
    m.set("kernel.migrations", kst.migrations as f64);
    m.set("kernel.redistributions", kst.redistributions as f64);
    m.set("kernel.guard_bypasses", traced.guard_bypasses as f64);
    m.set("kernel.dropped", kst.dropped as f64);
    m.set("kernel.slo_misses", traced.metrics.slo_misses as f64);
    m.set("cache.lookups", cst.lookups as f64);
    m.set("cache.misses", cst.misses as f64);
    m.set("cache.stale_refreshes", cst.stale_refreshes as f64);
    m.set(
        "cache.hit_ratio",
        ratio(cst.hits as f64, cst.lookups as f64),
    );
    m.set("feedback.samples", fb.samples as f64);
    m.set("feedback.mispredict_rate", fb.mispredict_rate());
    m.set(
        "chaos.throttled_starts",
        traced.chaos.throttled_starts as f64,
    );
    m.set("chaos.misprofiled", traced.chaos.misprofiled as f64);
    m.set("chaos.blackout_drops", traced.chaos.blackout_drops as f64);
    m.set("replay.calibrations", calibrations as f64);
    m.set("replay.calibrate_s", s.calibrate_s);
    m.set("checkpoint.bytes", t.image.len() as f64);
    m.set("checkpoint.save_ms", save_s * 1e3);
    m.set("checkpoint.restore_ms", restore_s * 1e3);
    m.set("trace.overhead_frac", t.wall_s / untraced_s - 1.0);
    m
}

/// `num / den`, 0 when nothing was attempted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Held-out check of another seed: one untimed trial plus the
/// checkpoint leg, which must agree.
pub fn holdout(workload: &'static FleetWorkload, seed: u64, v: &mut Verdict) {
    let s = Setup::new(workload, seed);
    let (out, _) = trial(&s);
    let fp = fingerprint(&out);
    v.check("holdout", fp, None);
    v.check(
        "holdout-checkpoint",
        fingerprint(&checkpoint_leg(&s)),
        Some(fp),
    );
    println!(
        "held-out seed {seed}: fingerprint {fp:016x}; p99/SLO {}; completed {}/{}",
        out.metrics.p99_slo_ratio, out.kernel.completions, out.kernel.arrivals
    );
}
