//! The fleet simulator: parameters, profiling/training machinery, and
//! the public entry point over the discrete-event kernel.
//!
//! Earlier revisions ran a three-stage batch (plan every placement
//! sequentially → execute boards in parallel → aggregate). That shape
//! could not express anything that *reacts* during the run — live
//! queue feedback, SLO-driven migration, board churn — so placement now
//! happens inside the event loop of [`crate::kernel`], per arrival,
//! against observable [`ClusterState`](crate::state::ClusterState).
//! [`Scenario::oracle`] reproduces the batch planner's placements
//! through the kernel (profiled-estimate accumulators, stable fleet),
//! keeping historical comparisons meaningful; [`Scenario::online`]
//! opens the new capabilities.
//!
//! **Backends.** Every job and profile run goes through one
//! [`Executor`]. The default [`BackendKind::Machine`] interprets on the
//! cycle-accurate engine. [`BackendKind::Replay`] runs in
//! *calibration-then-replay* mode: every distinct (workload,
//! architecture) pair is calibrated once up front, after which each of
//! the potentially hundreds of thousands of job runs is answered by
//! trace composition in microseconds. Policy *training* (cache
//! misses/refreshes) stays on the engine in both modes — learning
//! episodes need live counter feedback.
//!
//! Same cluster + params + job stream + scenario ⇒ byte-identical
//! outcome.

use crate::cache::PolicyCache;
use crate::cluster::ClusterSpec;
use crate::dispatch::Dispatcher;
use crate::job::JobSpec;
use crate::kernel::Scenario;
use crate::metrics::FleetOutcome;
use astro_core::pipeline::{build_static, AstroPipeline, PipelineConfig, TrainedAstro};
use astro_core::replay::ReplayExecutor;
use astro_core::schedule::StaticSchedule;
use astro_exec::executor::{BackendKind, ExecPolicy, ExecRequest, Executor};
use astro_exec::machine::MachineParams;
use astro_exec::program::compile;
use astro_exec::time::SimTime;
use astro_hw::boards::BoardSpec;
use astro_ir::Module;
use astro_workloads::{InputSize, Workload};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How jobs are executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyMode {
    /// Every job runs its original binary under GTS with all cores on —
    /// the fleet without Astro.
    Cold,
    /// Jobs run Astro static binaries; schedules come from the shared
    /// policy cache (training on miss, warm refresh on staleness).
    Warm,
}

impl PolicyMode {
    /// Label for reports.
    pub fn name(self) -> &'static str {
        match self {
            PolicyMode::Cold => "cold",
            PolicyMode::Warm => "warm",
        }
    }
}

/// Fleet-level knobs.
#[derive(Clone, Debug)]
pub struct FleetParams {
    /// Input class every job runs.
    pub size: InputSize,
    /// Engine parameters for job and profile runs.
    pub machine: MachineParams,
    /// Execution backend serving profile and job runs (training always
    /// uses the engine). Default: [`BackendKind::Machine`].
    pub backend: BackendKind,
    /// Training configuration for cache misses.
    pub train: PipelineConfig,
    /// Episodes for warm-started staleness refreshes (≤ `train.episodes`
    /// is the point: the snapshot already encodes the policy).
    pub refresh_episodes: usize,
    /// Admission latency guard: a cached schedule is applied to a job
    /// only when its profiled service time on the chosen board is within
    /// this factor of the stock (cold) binary's. Class-keyed policies
    /// transfer across workloads of a class; the guard bounds the
    /// latency tax when the transfer is poor (the job then runs its
    /// stock binary and only the class's well-transferring siblings keep
    /// the energy win). The default of 1.01 admits schedules that
    /// profile as time-neutral (within profiling noise) or faster;
    /// `f64::INFINITY` disables the guard.
    pub latency_guard: f64,
    /// Shards the kernel's execution plane is partitioned into
    /// (contiguous board chunks, each with its own event queue; see
    /// [`crate::shard`]). Clamped to the board count. Results are
    /// byte-identical for every value; `1` (the default) is the
    /// single-loop PR 4 kernel. Must be at least 1.
    pub shards: usize,
    /// Has no effect: barrier advances always run serially on the
    /// control thread. Kept so existing callers that set it still
    /// compile, and slated for removal. Defaults to 1.
    pub shard_workers: usize,
    /// Base seed (profiles and training derive from it).
    pub seed: u64,
}

impl FleetParams {
    /// Millisecond-scale defaults matching the experiment harness: the
    /// 500 ms monitor of §3.2.1 scaled to the synthetic workloads'
    /// runtimes.
    pub fn new(seed: u64) -> Self {
        let machine = MachineParams {
            checkpoint_interval: SimTime::from_micros(400.0),
            balance_interval: SimTime::from_micros(100.0),
            timeslice: SimTime::from_micros(400.0),
            min_config_dwell: SimTime::from_micros(800.0),
            seed,
            ..MachineParams::default()
        };
        FleetParams {
            size: InputSize::Test,
            machine,
            backend: BackendKind::Machine,
            train: PipelineConfig {
                machine,
                episodes: 4,
                model_seeds: 1,
                ..PipelineConfig::default()
            },
            refresh_episodes: 2,
            latency_guard: 1.01,
            shards: 1,
            shard_workers: 1,
            seed,
        }
    }
}

/// Run `f(0..n)` across up to `workers` OS threads and return the
/// results in index order. One contiguous chunk per worker, no shared
/// index, no result lock; `workers == 1` degenerates to a plain
/// sequential map, so serial and parallel callers share one code path
/// and one contract: results identical whatever the worker count.
pub fn chunked_map<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(workers > 0, "chunked_map needs at least one worker");
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let workers = workers.min(n.max(1));
    let chunk = n.div_ceil(workers).max(1);

    std::thread::scope(|s| {
        for (w, slots) in results.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || {
                let base = w * chunk;
                for (off, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(f(base + off));
                }
            });
        }
    });

    results
        .into_iter()
        .map(|r| r.expect("every index produced"))
        .collect()
}

/// [`chunked_map`] with one worker — the sequential mapper.
pub fn serial_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    chunked_map(n, 1, f)
}

/// Address-identity key of a `&'static str`: workload and architecture
/// names are interned statics, so the pointer identifies the string for
/// the life of the process. Used to key the per-run memo tables below —
/// every memoised value is a pure function of the string *contents*, so
/// if two distinct addresses ever carried equal text the only effect
/// would be a duplicated entry with a bit-identical value. The tables
/// are probed on every arrival and never iterated, which is exactly the
/// trade: integer key compares on the hot path, no semantic exposure to
/// address layout.
#[inline]
pub(crate) fn sk(s: &'static str) -> usize {
    s.as_ptr() as usize
}

/// Memoised (workload, architecture, policy-version) service profiles,
/// keyed by [`sk`] addresses. Version [`ProfileTable::COLD`] is the
/// GTS/original-binary profile.
pub(crate) struct ProfileTable {
    map: BTreeMap<(usize, usize, u64), (f64, f64)>,
    /// Per-workload unloaded best-architecture cold wall (the SLO
    /// reference). Pure function of the profile map — memoised because
    /// every arrival re-derives its SLO from it.
    best_cold: BTreeMap<usize, f64>,
    /// Admission-guard verdict per (workload, arch, policy version):
    /// `(admit, guarded wall)`. Pure function of two memoised profiles,
    /// so the memo is bit-neutral; it spares the arrival path both
    /// profile probes once a (workload, arch, version) has been seen.
    pub(crate) guard: BTreeMap<(usize, usize, u32), (bool, f64)>,
}

impl ProfileTable {
    pub(crate) const COLD: u64 = u64::MAX;

    pub(crate) fn new() -> Self {
        ProfileTable {
            map: BTreeMap::new(),
            best_cold: BTreeMap::new(),
            guard: BTreeMap::new(),
        }
    }
}

/// The fleet simulator, bound to a cluster.
pub struct FleetSim<'a> {
    /// The boards.
    pub cluster: &'a ClusterSpec,
    /// Knobs.
    pub params: FleetParams,
    /// The replay backend, when [`FleetParams::backend`] asks for one —
    /// owned by the simulator so its calibration cache (a pure function
    /// of (workload, architecture, engine parameters)) is shared across
    /// every run of this simulator instead of re-recorded per scenario.
    /// Behind an `Arc` so harnesses comparing shard counts can hand one
    /// warmed cache to every leg ([`FleetSim::replay_handle`]).
    pub(crate) replay_exec: Option<Arc<ReplayExecutor>>,
}

impl<'a> FleetSim<'a> {
    /// A simulator over `cluster`.
    pub fn new(cluster: &'a ClusterSpec, params: FleetParams) -> Self {
        assert!(!cluster.is_empty(), "fleet needs at least one board");
        assert!(
            params.shards >= 1,
            "the kernel needs at least one shard (got --shards 0?)"
        );
        let replay_exec = match params.backend {
            BackendKind::Machine => None,
            BackendKind::Replay => Some(Arc::new(ReplayExecutor::from_machine(params.machine))),
        };
        FleetSim {
            cluster,
            params,
            replay_exec,
        }
    }

    /// This simulator's replay backend, when it has one. Hand the
    /// handle to [`FleetSim::with_replay`] on another simulator to
    /// share the warmed calibration cache — sound only when both run
    /// the same machine parameters and input size (calibrations are
    /// keyed by `(workload, architecture)` alone), and bit-neutral
    /// because every cache entry is a pure function of those inputs.
    pub fn replay_handle(&self) -> Option<Arc<ReplayExecutor>> {
        self.replay_exec.clone()
    }

    /// A simulator over `cluster` adopting an existing replay backend
    /// instead of building a cold one (see [`FleetSim::replay_handle`]
    /// for when that is sound). Forces [`BackendKind::Replay`].
    pub fn with_replay(
        cluster: &'a ClusterSpec,
        params: FleetParams,
        exec: Arc<ReplayExecutor>,
    ) -> Self {
        let mut sim = FleetSim::new(cluster, params);
        sim.params.backend = BackendKind::Replay;
        sim.replay_exec = Some(exec);
        sim
    }

    /// Run `jobs` (arrival order) under `dispatcher` and `scenario`
    /// through the event kernel. Deterministic: same inputs ⇒
    /// byte-identical [`FleetOutcome`].
    pub fn run(
        &self,
        jobs: &[JobSpec],
        dispatcher: &mut dyn Dispatcher,
        cache: &mut PolicyCache,
        scenario: &Scenario,
    ) -> FleetOutcome {
        let mut off = crate::telemetry::FlightRecorder::off();
        self.run_kernel(jobs, dispatcher, cache, scenario, &mut off)
    }

    /// [`FleetSim::run`] with a live flight recorder: `telemetry`
    /// collects trace events, streaming digests, window samples and
    /// wall-clock phase timings as the kernel runs. Telemetry never
    /// perturbs the simulation — the returned [`FleetOutcome`] is
    /// byte-identical to an untraced run of the same inputs for every
    /// shard count (pinned by the `proptest_telemetry` suite).
    pub fn run_traced(
        &self,
        jobs: &[JobSpec],
        dispatcher: &mut dyn Dispatcher,
        cache: &mut PolicyCache,
        scenario: &Scenario,
        telemetry: &mut crate::telemetry::FlightRecorder,
    ) -> FleetOutcome {
        self.run_kernel(jobs, dispatcher, cache, scenario, telemetry)
    }

    // ---- profiling & training (kernel callbacks) ----------------------------

    /// Unloaded cold service time on the fastest architecture (the SLO
    /// reference point).
    pub(crate) fn best_cold_wall(
        &self,
        exec: &dyn Executor,
        profiles: &mut ProfileTable,
        w: &Workload,
        module: &Module,
    ) -> f64 {
        if let Some(&hit) = profiles.best_cold.get(&sk(w.name)) {
            return hit;
        }
        let mut best = f64::INFINITY;
        for key in self.cluster.arch_keys() {
            let b = self.cluster.representative_board_idx(key);
            let (wall, _) = self.profile(exec, profiles, w, module, b, ProfileTable::COLD, None);
            best = best.min(wall);
        }
        profiles.best_cold.insert(sk(w.name), best);
        best
    }

    /// Profiled (wall, energy) of `w` on board `b` under the given
    /// policy version: the mean of three executor runs at distinct seeds
    /// (the ±5% service jitter would otherwise dominate guard decisions
    /// near the boundary), memoised per distinct key.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn profile(
        &self,
        exec: &dyn Executor,
        profiles: &mut ProfileTable,
        w: &Workload,
        module: &Module,
        b: usize,
        version: u64,
        schedule: Option<StaticSchedule>,
    ) -> (f64, f64) {
        const PROFILE_SAMPLES: u64 = 3;
        let arch = self.cluster.arch_key(b);
        let key = (sk(w.name), sk(arch), version);
        if let Some(&hit) = profiles.map.get(&key) {
            return hit;
        }
        let spec = &self.cluster.boards[b];
        let base_seed = self
            .params
            .seed
            .wrapping_add(fnv(w.name))
            .wrapping_add(fnv(arch).rotate_left(17));
        let full = spec.config_space().full();
        let (program, policy) = match schedule {
            None => (compile(module).expect("workload compiles"), ExecPolicy::Gts),
            Some(st) => (
                compile(&build_static(module, &st)).expect("static build compiles"),
                ExecPolicy::StaticTable(st.as_table()),
            ),
        };
        let mut wall = 0.0;
        let mut energy = 0.0;
        for k in 0..PROFILE_SAMPLES {
            let seed = base_seed.wrapping_add(k.wrapping_mul(0x9E37_79B9));
            let (wall_time_s, energy_j) = exec.execute_scalar(&ExecRequest {
                workload: w.name,
                module,
                program: &program,
                board: spec,
                config: full,
                policy,
                seed,
            });
            wall += wall_time_s;
            energy += energy_j;
        }
        let out = (
            wall / PROFILE_SAMPLES as f64,
            energy / PROFILE_SAMPLES as f64,
        );
        profiles.map.insert(key, out);
        out
    }

    /// (Re)train a policy for `job`'s class on board `b`'s architecture.
    /// Returns the trained artefacts plus the wall time and energy of
    /// the learning episodes (charged to the triggering job). Always
    /// runs on the cycle-accurate engine: learning needs live counter
    /// feedback no trace can substitute.
    pub(crate) fn train(
        &self,
        job: &JobSpec,
        b: usize,
        warm: Option<&astro_rl::qlearn::PolicySnapshot>,
        episodes: usize,
    ) -> (TrainedAstro, f64, f64) {
        let spec: &BoardSpec = &self.cluster.boards[b];
        let mut cfg = self.params.train.clone();
        cfg.episodes = episodes.max(1);
        cfg.machine.seed = self
            .params
            .seed
            .wrapping_add(fnv(&job.taxon.key()))
            .wrapping_add(fnv(self.cluster.arch_key(b)).rotate_left(29));
        let pipe = AstroPipeline::new(spec, cfg);
        let module = (job.workload.build)(self.params.size);
        let trained = pipe.train_warm(&module, warm);
        let t: f64 = trained.learning_runs.iter().map(|r| r.wall_time_s).sum();
        let e: f64 = trained.learning_runs.iter().map(|r| r.energy_j).sum();
        (trained, t, e)
    }
}

/// Deterministic string hash (FNV-1a): profile/training seeds must not
/// depend on process-level hasher state.
fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalProcess;
    use crate::dispatch::{LeastLoaded, PhaseAware};
    use crate::kernel::ChurnEvent;

    fn jobs(n: usize, seed: u64) -> Vec<JobSpec> {
        let pool: Vec<Workload> = ["swaptions", "bfs"]
            .iter()
            .map(|name| astro_workloads::by_name(name).unwrap())
            .collect();
        ArrivalProcess::Poisson {
            rate_jobs_per_s: 2000.0,
        }
        .generate(n, &pool, InputSize::Test, (4.0, 8.0), seed)
    }

    #[test]
    fn cold_fleet_completes_all_jobs_deterministically() {
        let cluster = ClusterSpec::heterogeneous(2);
        let sim = FleetSim::new(&cluster, FleetParams::new(5));
        let stream = jobs(6, 3);
        let mut cache = PolicyCache::new(0);
        let sc = Scenario::oracle(PolicyMode::Cold);
        let a = sim.run(&stream, &mut LeastLoaded, &mut cache, &sc);
        let b = sim.run(&stream, &mut LeastLoaded, &mut cache, &sc);

        assert_eq!(a.outcomes.len(), 6);
        for (i, o) in a.outcomes.iter().enumerate() {
            assert_eq!(o.id as usize, i);
            assert!(o.board < 2);
            assert!(o.start_s >= o.arrival_s);
            assert!(o.finish_s > o.start_s);
            assert!(o.energy_j > 0.0);
            assert!(o.slo_s > 0.0);
            assert_eq!(o.migrations, 0);
        }
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.finish_s, y.finish_s);
            assert_eq!(x.energy_j, y.energy_j);
            assert_eq!(x.board, y.board);
        }
        assert!(a
            .metrics
            .board_util
            .iter()
            .all(|&u| (0.0..=1.0).contains(&u)));
        assert_eq!(a.cache, crate::cache::CacheStats::default());
        assert_eq!(a.train_time_s, 0.0);
        assert_eq!(a.backend, "machine");
        assert_eq!(a.dispatch, "oracle");
        assert_eq!(a.calibrations, 0);
        assert!(a.dropped.is_empty());
        assert_eq!(a.kernel.arrivals, 6);
        assert_eq!(a.kernel.completions, 6);
        assert_eq!(a.kernel.dropped, 0);
    }

    #[test]
    fn online_mode_completes_and_is_deterministic() {
        let cluster = ClusterSpec::heterogeneous(3);
        let sim = FleetSim::new(&cluster, FleetParams::new(9));
        let stream = jobs(8, 1);
        let mut cache = PolicyCache::new(0);
        let sc = Scenario::online(PolicyMode::Cold);
        let a = sim.run(&stream, &mut LeastLoaded, &mut cache, &sc);
        let b = sim.run(&stream, &mut LeastLoaded, &mut cache, &sc);
        assert_eq!(a.outcomes.len(), 8);
        assert_eq!(a.dispatch, "online");
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.finish_s, y.finish_s);
            assert_eq!(x.board, y.board);
        }
        // Online and oracle may place differently, but both complete
        // the stream and balance their event accounting.
        let oracle = sim.run(
            &stream,
            &mut LeastLoaded,
            &mut cache,
            &Scenario::oracle(PolicyMode::Cold),
        );
        assert_eq!(oracle.outcomes.len(), a.outcomes.len());
        assert_eq!(a.kernel.arrivals, a.kernel.completions + a.kernel.dropped);
    }

    #[test]
    fn warm_mode_trains_once_then_hits() {
        let cluster = ClusterSpec::homogeneous(2, BoardSpec::odroid_xu4());
        let mut params = FleetParams::new(11);
        params.train.episodes = 1;
        let sim = FleetSim::new(&cluster, params);
        // Single-workload pool → a single (class, arch) cache line.
        let pool = vec![astro_workloads::by_name("swaptions").unwrap()];
        let stream = ArrivalProcess::Poisson {
            rate_jobs_per_s: 2000.0,
        }
        .generate(5, &pool, InputSize::Test, (6.0, 6.0), 2);
        let mut cache = PolicyCache::new(0);
        let out = sim.run(
            &stream,
            &mut PhaseAware::default(),
            &mut cache,
            &Scenario::oracle(PolicyMode::Warm),
        );

        assert_eq!(out.cache.misses, 1, "one cold training");
        assert_eq!(out.cache.hits, 4, "every later tenant reuses it");
        assert!(out.train_time_s > 0.0);
        assert!(out.train_energy_j > 0.0);
        assert_eq!(cache.len(), 1);
        // Training energy is accounted in the fleet total.
        let job_energy: f64 = out.outcomes.iter().map(|o| o.energy_j).sum();
        assert!(out.metrics.total_energy_j > job_energy);
    }

    #[test]
    fn impossible_latency_guard_bypasses_every_schedule() {
        let cluster = ClusterSpec::homogeneous(2, BoardSpec::odroid_xu4());
        let mut params = FleetParams::new(11);
        params.train.episodes = 1;
        params.latency_guard = 0.0; // nothing can beat a zero budget
        let sim = FleetSim::new(&cluster, params);
        let pool = vec![astro_workloads::by_name("swaptions").unwrap()];
        let stream = ArrivalProcess::Poisson {
            rate_jobs_per_s: 2000.0,
        }
        .generate(4, &pool, InputSize::Test, (6.0, 6.0), 2);
        let mut cache = PolicyCache::new(0);
        let out = sim.run(
            &stream,
            &mut PhaseAware::default(),
            &mut cache,
            &Scenario::oracle(PolicyMode::Warm),
        );
        // The miss job runs cold with no schedule to guard; the three
        // hits all fail the impossible guard.
        assert_eq!(out.guard_bypasses, 3);
        assert_eq!(out.cache.misses, 1, "the class is still trained once");
    }

    #[test]
    fn staleness_triggers_warm_refresh() {
        let cluster = ClusterSpec::homogeneous(1, BoardSpec::odroid_xu4());
        let mut params = FleetParams::new(21);
        params.train.episodes = 1;
        params.refresh_episodes = 1;
        let sim = FleetSim::new(&cluster, params);
        let pool = vec![astro_workloads::by_name("bfs").unwrap()];
        let stream = ArrivalProcess::Poisson {
            rate_jobs_per_s: 2000.0,
        }
        .generate(4, &pool, InputSize::Test, (6.0, 6.0), 2);
        let mut cache = PolicyCache::new(2);
        let out = sim.run(
            &stream,
            &mut LeastLoaded,
            &mut cache,
            &Scenario::oracle(PolicyMode::Warm),
        );
        assert_eq!(out.cache.misses, 1);
        assert!(out.cache.stale_refreshes >= 1, "{:?}", out.cache);
    }

    #[test]
    fn replay_backend_is_deterministic_and_completes() {
        let cluster = ClusterSpec::heterogeneous(2);
        let mut params = FleetParams::new(5);
        params.backend = BackendKind::Replay;
        let sim = FleetSim::new(&cluster, params);
        let stream = jobs(8, 3);
        let mut cache = PolicyCache::new(0);
        let sc = Scenario::oracle(PolicyMode::Cold);
        let a = sim.run(&stream, &mut LeastLoaded, &mut cache, &sc);
        let b = sim.run(&stream, &mut LeastLoaded, &mut cache, &sc);
        assert_eq!(a.outcomes.len(), 8);
        assert_eq!(a.backend, "replay");
        // Two workloads × two architectures, calibrated once up front.
        assert_eq!(a.calibrations, 4);
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.finish_s, y.finish_s);
            assert_eq!(x.energy_j, y.energy_j);
            assert_eq!(x.board, y.board);
        }
        for o in &a.outcomes {
            assert!(o.service_s > 0.0 && o.energy_j > 0.0);
        }
    }

    #[test]
    fn replay_backend_tracks_machine_backend() {
        // Same stream, both backends: totals must agree within the
        // replay fidelity tolerance (each job within 25%; compare the
        // aggregate, which averages the per-seed wobble out).
        let cluster = ClusterSpec::heterogeneous(2);
        let stream = jobs(8, 7);
        let mut machine_params = FleetParams::new(5);
        machine_params.backend = BackendKind::Machine;
        let mut replay_params = FleetParams::new(5);
        replay_params.backend = BackendKind::Replay;
        let sc = Scenario::oracle(PolicyMode::Cold);
        let mut cache = PolicyCache::new(0);
        let exact =
            FleetSim::new(&cluster, machine_params).run(&stream, &mut LeastLoaded, &mut cache, &sc);
        let mut cache = PolicyCache::new(0);
        let fast =
            FleetSim::new(&cluster, replay_params).run(&stream, &mut LeastLoaded, &mut cache, &sc);
        let d_energy = (fast.metrics.total_energy_j - exact.metrics.total_energy_j).abs()
            / exact.metrics.total_energy_j;
        assert!(d_energy < 0.25, "energy {:.1}% off", d_energy * 100.0);
        let exact_svc: f64 = exact.outcomes.iter().map(|o| o.service_s).sum();
        let fast_svc: f64 = fast.outcomes.iter().map(|o| o.service_s).sum();
        let d_svc = (fast_svc - exact_svc).abs() / exact_svc;
        assert!(d_svc < 0.25, "service {:.1}% off", d_svc * 100.0);
    }

    #[test]
    fn board_churn_redistributes_queued_work() {
        let cluster = ClusterSpec::heterogeneous(3);
        let sim = FleetSim::new(&cluster, FleetParams::new(7));
        let stream = jobs(10, 5);
        let mid = stream[stream.len() / 2].arrival_s;
        let late = stream.last().unwrap().arrival_s;
        let sc = Scenario::online(PolicyMode::Cold)
            .with_migration_cost(1e-6)
            .with_churn(vec![
                ChurnEvent {
                    time_s: mid,
                    board: 0,
                    up: false,
                },
                ChurnEvent {
                    time_s: late * 2.0 + 1.0,
                    board: 0,
                    up: true,
                },
            ]);
        let mut cache = PolicyCache::new(0);
        let out = sim.run(&stream, &mut LeastLoaded, &mut cache, &sc);
        // Other boards stayed up: nothing may be dropped.
        assert_eq!(out.outcomes.len(), 10);
        assert!(out.dropped.is_empty());
        assert_eq!(out.kernel.board_downs, 1);
        assert_eq!(out.kernel.board_ups, 1);
        // Jobs arriving after the outage never land on board 0.
        for o in &out.outcomes {
            if o.arrival_s > mid {
                assert_ne!(o.board, 0, "job {} placed on a down board", o.id);
            }
        }
        // Determinism under churn.
        let again = sim.run(&stream, &mut LeastLoaded, &mut cache, &sc);
        for (x, y) in out.outcomes.iter().zip(&again.outcomes) {
            assert_eq!(x.finish_s, y.finish_s);
            assert_eq!(x.board, y.board);
        }
    }

    #[test]
    fn whole_fleet_down_drops_arrivals() {
        let cluster = ClusterSpec::heterogeneous(2);
        let sim = FleetSim::new(&cluster, FleetParams::new(3));
        let stream = jobs(6, 4);
        let mid = stream[3].arrival_s;
        // Every board goes down just before job 3 arrives, forever.
        let sc = Scenario::online(PolicyMode::Cold).with_churn(vec![
            ChurnEvent {
                time_s: mid - 1e-9,
                board: 0,
                up: false,
            },
            ChurnEvent {
                time_s: mid - 1e-9,
                board: 1,
                up: false,
            },
        ]);
        let mut cache = PolicyCache::new(0);
        let out = sim.run(&stream, &mut LeastLoaded, &mut cache, &sc);
        assert!(!out.dropped.is_empty(), "late arrivals must be dropped");
        assert_eq!(
            out.outcomes.len() + out.dropped.len(),
            6,
            "every job completes or is explicitly dropped"
        );
        assert_eq!(
            out.kernel.arrivals,
            out.kernel.completions + out.kernel.dropped
        );
    }

    #[test]
    fn preemption_rescues_predicted_slo_misses() {
        // One fast big-rich board and one slow LITTLE-rich board; a
        // dispatcher that piles everything onto the slow board. The
        // monitor must migrate queued jobs onto the idle fast board.
        struct Pessimal;
        impl Dispatcher for Pessimal {
            fn name(&self) -> &'static str {
                "pessimal"
            }
            fn pick(
                &mut self,
                state: &crate::state::ClusterState,
                _job: &JobSpec,
                _est: &crate::dispatch::JobEstimates,
            ) -> usize {
                state.up_boards().last().expect("a board is up")
            }
        }
        let cluster = ClusterSpec::heterogeneous(2); // board 1: RK3399
        let sim = FleetSim::new(&cluster, FleetParams::new(13));
        let pool = vec![astro_workloads::by_name("swaptions").unwrap()];
        // A tight burst with tight SLOs: queueing on one board must
        // blow the deadline for the tail of the queue.
        let stream = ArrivalProcess::Bursty {
            rate_jobs_per_s: 20000.0,
            burst: 8,
            spread_s: 1e-5,
        }
        .generate(8, &pool, InputSize::Test, (2.0, 2.0), 6);
        let sc = Scenario::online(PolicyMode::Cold).with_preemption(2e-4, 1e-6, 2);
        let mut cache = PolicyCache::new(0);
        let out = sim.run(&stream, &mut Pessimal, &mut cache, &sc);
        assert_eq!(out.outcomes.len(), 8);
        assert!(
            out.kernel.migrations > 0,
            "monitor should have migrated queued SLO-missers: {:?}",
            out.kernel
        );
        assert!(
            out.outcomes.iter().any(|o| o.board == 0),
            "migrations should land work on the idle fast board"
        );
        // Against the same dispatcher without preemption, the rescued
        // fleet meets at least as many SLOs.
        let mut cache = PolicyCache::new(0);
        let no_preempt = sim.run(
            &stream,
            &mut Pessimal,
            &mut cache,
            &Scenario::online(PolicyMode::Cold),
        );
        assert!(out.metrics.slo_misses <= no_preempt.metrics.slo_misses);
    }

    #[test]
    fn chunked_map_matches_serial_map() {
        let f = |i: usize| i * 3 + 1;
        let serial = serial_map(17, f);
        for workers in [1, 2, 3, 8, 32] {
            assert_eq!(chunked_map(17, workers, f), serial);
        }
        assert!(chunked_map::<usize, _>(0, 4, f).is_empty());
    }
}
