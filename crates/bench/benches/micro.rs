//! Criterion micro-benchmarks for the hot components of the stack:
//! the interpreter, the cache model, the Q-agent, a whole-machine
//! end-to-end run, and the parallel experiment driver.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use astro_core::reward::RewardParams;
use astro_core::state::AstroStateSpace;
use astro_exec::machine::{Machine, MachineParams};
use astro_exec::program::compile;
use astro_exec::runtime::NullHooks;
use astro_exec::sched::affinity::AffinityScheduler;
use astro_exec::time::SimTime;
use astro_hw::boards::BoardSpec;
use astro_hw::cache::{CacheHierarchy, CacheParams};
use astro_hw::config::HwConfig;
use astro_rl::nn::{Activation, Mlp, Optimizer};
use astro_rl::qlearn::{QAgent, QConfig};
use astro_rl::replay::Experience;
use astro_workloads::InputSize;

fn bench_nn(c: &mut Criterion) {
    let mut net = Mlp::new(&[40, 64, 32, 24], Activation::Relu, 1);
    let x: Vec<f64> = (0..40).map(|i| (i % 2) as f64).collect();
    c.bench_function("nn_forward_40x64x32x24", |b| {
        b.iter(|| black_box(net.forward_inference(black_box(&x))))
    });
    let target: Vec<f64> = (0..24).map(|i| i as f64 / 24.0).collect();
    c.bench_function("nn_train_step", |b| {
        b.iter(|| net.train_mse(black_box(&x), black_box(&target), Optimizer::default_adam()))
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache_access_streaming", |b| {
        let mut h = CacheHierarchy::new(CacheParams::L1_32K, CacheParams::L2_2M);
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(8) % (1 << 24);
            black_box(h.access(addr))
        })
    });
}

fn bench_qagent(c: &mut Criterion) {
    let space = AstroStateSpace::ODROID_XU4;
    let mut agent = QAgent::new(QConfig::astro_default(
        space.encoding_dim(),
        space.num_actions(),
    ));
    let reward = RewardParams::default();
    let s = space.encode(
        3,
        astro_compiler::ProgramPhase::CpuBound,
        astro_hw::counters::HwPhase::from_index(40),
    );
    c.bench_function("qagent_observe_and_learn", |b| {
        b.iter(|| {
            agent.observe(Experience {
                state: s.clone(),
                action: 3,
                reward: reward.reward(1500.0, 2.0),
                next_state: s.clone(),
                terminal: false,
            })
        })
    });
    c.bench_function("qagent_select_action", |b| {
        b.iter(|| black_box(agent.select_action(black_box(&s))))
    });
}

fn bench_machine(c: &mut Criterion) {
    let board = BoardSpec::odroid_xu4();
    let module = (astro_workloads::by_name("hotspot").unwrap().build)(InputSize::Test);
    let prog = compile(&module).unwrap();
    let params = MachineParams {
        checkpoint_interval: SimTime::from_micros(400.0),
        ..MachineParams::default()
    };
    c.bench_function("machine_run_hotspot_test", |b| {
        b.iter(|| {
            let machine = Machine::new(&board, params);
            let mut sched = AffinityScheduler;
            let mut hooks = NullHooks;
            black_box(machine.run(&prog, &mut sched, &mut hooks, HwConfig::new(4, 4)))
        })
    });
}

/// The runner's previous implementation, kept as the benchmark baseline:
/// workers pull one index at a time from a shared atomic and write each
/// result under a shared mutex. The live implementation
/// ([`astro_bench::runner::parallel_map`]) chunks the index space per
/// worker instead, so cheap items no longer serialise on the lock.
fn parallel_map_per_item_lock<T, F>(n: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n.max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = job(i);
                results.lock().expect("result lock poisoned")[i] = Some(out);
            });
        }
    });
    results
        .into_inner()
        .expect("result lock poisoned")
        .into_iter()
        .map(|r| r.expect("every index produced"))
        .collect()
}

fn bench_runner(c: &mut Criterion) {
    use astro_bench::runner::parallel_map;
    const N: usize = 8192;
    const THREADS: usize = 4;
    // A cheap item makes the coordination overhead the measured quantity.
    let item = |i: usize| {
        let mut acc = i as u64;
        for _ in 0..32 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        acc
    };
    c.bench_function("parallel_map_chunked_8k_cheap_items", |b| {
        b.iter(|| black_box(parallel_map(N, THREADS, item)))
    });
    c.bench_function("parallel_map_per_item_lock_8k_cheap_items", |b| {
        b.iter(|| black_box(parallel_map_per_item_lock(N, THREADS, item)))
    });
}

/// Per-job cost of the two execution backends on the same request: the
/// cycle-accurate `MachineExecutor` interprets the whole program, the
/// calibrated `ReplayExecutor` composes the answer from recorded
/// traces. The ratio is what lets `fleet_sim --backend replay` scale to
/// 100k jobs (calibration — 24 engine runs here — is paid once, outside
/// the measured loop).
fn bench_executor(c: &mut Criterion) {
    use astro_core::replay::ReplayExecutor;
    use astro_exec::executor::{ExecPolicy, ExecRequest, Executor, MachineExecutor};

    let board = BoardSpec::odroid_xu4();
    let module = (astro_workloads::by_name("hotspot").unwrap().build)(InputSize::Test);
    let prog = compile(&module).unwrap();
    let params = MachineParams {
        checkpoint_interval: SimTime::from_micros(400.0),
        ..MachineParams::default()
    };
    let machine = MachineExecutor { params };
    let replay = ReplayExecutor::from_machine(params);
    replay.calibrate("hotspot", &module, &board);
    let full = board.config_space().full();
    let mut seed = 0u64;
    c.bench_function("executor_machine_per_job_hotspot", |b| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(machine.execute(&ExecRequest {
                workload: "hotspot",
                module: &module,
                program: &prog,
                board: &board,
                config: full,
                policy: ExecPolicy::Gts,
                seed,
            }))
        })
    });
    let mut seed = 0u64;
    c.bench_function("executor_replay_per_job_hotspot", |b| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(replay.execute(&ExecRequest {
                workload: "hotspot",
                module: &module,
                program: &prog,
                board: &board,
                config: full,
                policy: ExecPolicy::Gts,
                seed,
            }))
        })
    });
}

/// Push/pop hot path of the fleet kernel's event queue: the per-event
/// overhead every arrival, completion and monitor tick pays. A 100k-job
/// kernel run processes ~200k events, so this cost bounds how much of
/// the replay backend's per-job speedup the event loop can keep.
fn bench_event_queue(c: &mut Criterion) {
    use astro_fleet::{EventKind, EventQueue};

    // Steady-state mix: the queue holds a window of pending events and
    // each pop schedules a successor — the completion-follows-arrival
    // pattern of a loaded fleet.
    c.bench_function("event_queue_push_pop_steady_1k_window", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut t = 0.0f64;
            for i in 0..1024u32 {
                t += 0.37;
                q.push(t, EventKind::Arrival(i));
            }
            for i in 0..8192u32 {
                let ev = q.pop().expect("window never drains");
                q.push(ev.time_s + 1.13, EventKind::Completion { board: i % 50 });
            }
            while let Some(ev) = q.pop() {
                black_box(ev);
            }
            black_box(q.popped)
        })
    });
}

fn bench_shard_window(c: &mut Criterion) {
    use astro_fleet::{EventKind, EventQueue};

    // The sharded kernel's barrier hot path: between two control
    // events each shard drains the completions inside the window via
    // `pop_before`, then the barrier re-peeks every queue to restore
    // the earliest-pending bound. Modelled here over 8 shard queues
    // holding a 1k-event window.
    c.bench_function("shard_window_drain_merge_8x1k", |b| {
        b.iter(|| {
            let mut queues: Vec<EventQueue> = (0..8).map(|_| EventQueue::new()).collect();
            for i in 0..8192u32 {
                let t = (i as f64) * 0.37 % 97.0;
                queues[(i % 8) as usize].push(t, EventKind::Completion { board: i % 500 });
            }
            // Sweep the virtual clock forward in window steps, popping
            // each window's events and recomputing the merge bound.
            let mut drained = 0u64;
            let mut earliest = 0.0f64;
            let mut horizon = 10.0f64;
            while earliest.is_finite() {
                for q in &mut queues {
                    while let Some(ev) = q.pop_before(horizon) {
                        black_box(ev);
                        drained += 1;
                    }
                }
                earliest = queues
                    .iter()
                    .filter_map(|q| q.peek().map(|e| e.time_s))
                    .fold(f64::INFINITY, f64::min);
                horizon += 10.0;
            }
            black_box(drained)
        })
    });

    // The whole sharded kernel end to end at a benchable scale: 512
    // jobs over 16 boards on the replay backend with 8 shards. Every
    // arrival exercises the barrier's no-op fast path (the
    // earliest-pending bound) and every completion the drain + merge,
    // so a regression anywhere in `ShardSet::advance_all` or the
    // control-plane interleave moves this number. Calibration is paid
    // once outside the timed loop (the `FleetSim` owns the replay
    // cache).
    c.bench_function("sharded_kernel_512_jobs_16_boards_replay", |b| {
        use astro_fleet::{
            ArrivalProcess, BackendKind, ClusterSpec, FleetParams, FleetSim, LeastLoaded,
            PolicyCache, PolicyMode, Scenario,
        };
        use astro_workloads::InputSize;

        let cluster = ClusterSpec::heterogeneous(16);
        let mut params = FleetParams::new(7);
        params.backend = BackendKind::Replay;
        params.shards = 8;
        let sim = FleetSim::new(&cluster, params);
        let pool: Vec<astro_workloads::Workload> = ["swaptions", "bfs"]
            .iter()
            .map(|n| astro_workloads::by_name(n).unwrap())
            .collect();
        let jobs = ArrivalProcess::Poisson {
            rate_jobs_per_s: 20_000.0,
        }
        .generate(512, &pool, InputSize::Test, (4.0, 8.0), 7);
        let scenario = Scenario::online(PolicyMode::Cold);
        // Warm the calibration cache outside the timed region.
        let mut cache = PolicyCache::new(0);
        black_box(sim.run(&jobs, &mut LeastLoaded, &mut cache, &scenario));
        b.iter(|| {
            let mut cache = PolicyCache::new(0);
            black_box(sim.run(&jobs, &mut LeastLoaded, &mut cache, &scenario))
        })
    });
}

/// The arrival-time hot path the PR 8 rewrite holds flat: one
/// dispatcher decision over a dense 500-board fleet. `PhaseAware::pick`
/// walks every placeable board twice (finish-time argmin, then the
/// tie-band scan), reading estimates through their board→class map,
/// with zero allocation — the scratch vector inside the dispatcher is
/// reused across calls. The estimates carry one class per board so
/// each board has its own values (the scan accepts any class map). A
/// 1M-job run makes this decision a million times, so ns here are
/// seconds there.
fn bench_dispatch_pick(c: &mut Criterion) {
    use astro_fleet::{
        ClusterSpec, ClusterState, DispatchMode, Dispatcher, JobClass, JobEstimates, JobSpec,
        PhaseAware, Taxon,
    };

    const N: usize = 500;
    let cluster = ClusterSpec::heterogeneous(N);
    let mut state = ClusterState::new(&cluster, DispatchMode::Oracle);
    state.now_s = 10.0;
    // Non-degenerate per-board estimates: a deterministic spread so the
    // argmin and the tie-band scan both do real comparisons.
    let mut est = JobEstimates::zeroed(N);
    for b in 0..N {
        let x = ((b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64 / 16777216.0;
        est.set_class(b, 0.5 + x, 1.0 + x * 3.0, b % 3 == 0);
    }
    let job = JobSpec {
        id: 0,
        workload: astro_workloads::by_name("swaptions").unwrap(),
        taxon: Taxon {
            class: JobClass::CpuHeavy,
            signature: 2,
        },
        arrival_s: 10.0,
        slo_tightness: 4.0,
        seed: 1,
    };
    let mut dispatcher = PhaseAware::default();
    c.bench_function("dispatch_pick_dense_500_boards", |b| {
        b.iter(|| black_box(dispatcher.pick(black_box(&state), black_box(&job), black_box(&est))))
    });
}

/// The indexed pick at 10× the dense bench's fleet: one `PhaseAware`
/// decision over 5000 boards with spread backlogs filed in the
/// maintained dispatch index. Where the dense bench walks every board
/// twice, this touches the per-architecture ordered-set heads plus the
/// head equal-finish groups — O(log B) — so the number here should be
/// flat in fleet size, not linear. Estimates are held per architecture
/// class, the shape the kernel hands out and the indexed pick asserts.
fn bench_dispatch_pick_indexed(c: &mut Criterion) {
    use astro_fleet::{
        ClusterSpec, ClusterState, DispatchMode, Dispatcher, JobClass, JobEstimates, JobSpec,
        PhaseAware, Taxon,
    };

    const N: usize = 5000;
    let cluster = ClusterSpec::heterogeneous(N);
    let mut state = ClusterState::new(&cluster, DispatchMode::Oracle);
    state.now_s = 10.0;
    for b in 0..N {
        let x = ((b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64 / 16777216.0;
        state.seed_oracle_backlog(b, 10.0 + x * 30.0);
    }
    state.rebuild_dispatch_index();
    // Heterogeneous fleets alternate XU4 (class 0) and RK3399 (class 1).
    let mut est = JobEstimates::per_arch(&cluster);
    est.set_class(0, 0.8, 2.5, true);
    est.set_class(1, 1.2, 1.0, false);
    let job = JobSpec {
        id: 0,
        workload: astro_workloads::by_name("swaptions").unwrap(),
        taxon: Taxon {
            class: JobClass::CpuHeavy,
            signature: 2,
        },
        arrival_s: 10.0,
        slo_tightness: 4.0,
        seed: 1,
    };
    let mut dispatcher = PhaseAware::default();
    c.bench_function("dispatch_pick_indexed_5000_boards", |b| {
        b.iter(|| black_box(dispatcher.pick(black_box(&state), black_box(&job), black_box(&est))))
    });
}

/// Index maintenance under churn: 64 board-local events per iteration,
/// each moving one board's busy-until and re-filing it in the global
/// and per-architecture ordered sets (a BTreeSet remove + insert pair
/// each, O(log B)). This is the per-event overhead the index charges
/// the kernel in exchange for O(log B) picks.
fn bench_dispatch_index_repair(c: &mut Criterion) {
    use astro_fleet::{ClusterSpec, ClusterState, DispatchMode};

    const N: usize = 5000;
    let cluster = ClusterSpec::heterogeneous(N);
    let mut state = ClusterState::new(&cluster, DispatchMode::Oracle);
    state.now_s = 10.0;
    for b in 0..N {
        let x = ((b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64 / 16777216.0;
        state.seed_oracle_backlog(b, 10.0 + x * 30.0);
    }
    state.rebuild_dispatch_index();
    let mut i = 0u64;
    c.bench_function("dispatch_index_repair_5000_boards", |b| {
        b.iter(|| {
            for _ in 0..64 {
                i = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let board = (i >> 32) as usize % N;
                let x = (i >> 40) as f64 / 16777216.0;
                state.seed_oracle_backlog(board, 10.0 + x * 30.0);
            }
            black_box(state.backlog_s(0))
        })
    });
}

/// A window of calibration-cache lookups through one
/// [`ReplaySession`](astro_core::replay::ReplaySession) snapshot — the
/// batched form the fleet kernel uses per control window. The session
/// pays the executor's rwlock once at construction; every scalar
/// estimate inside the window then answers lock-free from the
/// snapshot. The per-lookup cost here bounds the per-arrival estimate
/// cost of the whole fleet (one lookup per architecture per arrival).
fn bench_replay_session(c: &mut Criterion) {
    use astro_core::replay::ReplayExecutor;
    use astro_exec::executor::{ExecPolicy, ExecRequest, Executor};

    let board = BoardSpec::odroid_xu4();
    let module = (astro_workloads::by_name("hotspot").unwrap().build)(InputSize::Test);
    let prog = compile(&module).unwrap();
    let params = MachineParams {
        checkpoint_interval: SimTime::from_micros(400.0),
        ..MachineParams::default()
    };
    let replay = ReplayExecutor::from_machine(params);
    replay.calibrate("hotspot", &module, &board);
    let full = board.config_space().full();
    let session = replay.session();
    let mut seed = 0u64;
    c.bench_function("replay_batched_lookup_window", |b| {
        b.iter(|| {
            // One control window's worth of scalar estimates (64
            // arrivals), all through the same snapshot.
            let mut acc = 0.0f64;
            for _ in 0..64 {
                seed = seed.wrapping_add(1);
                let (wall, energy) = session.execute_scalar(&ExecRequest {
                    workload: "hotspot",
                    module: &module,
                    program: &prog,
                    board: &board,
                    config: full,
                    policy: ExecPolicy::Gts,
                    seed,
                });
                acc += wall + energy;
            }
            black_box(acc)
        })
    });
}

/// The board queue arena under the completion-follows-arrival pattern:
/// enqueue extends the busy-until memo in place (no queue walk), pop
/// invalidates it (epoch bump, no walk either). This is the per-job
/// floor of the execution plane — every job crosses one enqueue and
/// one pop whatever the dispatcher or scenario does.
fn bench_arena_queue(c: &mut Criterion) {
    use astro_fleet::{BoardState, ClusterSpec, ClusterState, DispatchMode, QueuedJob};

    let spec = ClusterSpec::heterogeneous(1);
    let proto = {
        let job = astro_fleet::JobSpec {
            id: 0,
            workload: astro_workloads::by_name("swaptions").unwrap(),
            taxon: astro_fleet::Taxon {
                class: astro_fleet::JobClass::CpuHeavy,
                signature: 2,
            },
            arrival_s: 0.0,
            slo_tightness: 4.0,
            seed: 1,
        };
        QueuedJob {
            job,
            slo_s: 4.0,
            schedule: None,
            sched_arch: "xu4",
            est_service_s: 0.7,
            profiled_s: 0.7,
            penalty_s: 0.0,
            migrations: 0,
            redispatches: 0,
        }
    };
    c.bench_function("arena_enqueue_dequeue", |b| {
        b.iter(|| {
            let mut state = ClusterState::new(&spec, DispatchMode::Online);
            let bs: &mut BoardState = &mut state.boards[0];
            // Steady state: hold a 32-deep queue, then stream 256
            // enqueue/pop pairs through it.
            for i in 0..32u32 {
                let mut q = proto.clone();
                q.job.id = i;
                bs.enqueue(q);
            }
            for i in 32..288u32 {
                let mut q = proto.clone();
                q.job.id = i;
                bs.enqueue(q);
                black_box(bs.pop_next());
            }
            while let Some(q) = bs.pop_next() {
                black_box(q);
            }
            black_box(bs.queue_len())
        })
    });
}

criterion_group!(
    benches,
    bench_nn,
    bench_cache,
    bench_qagent,
    bench_machine,
    bench_executor,
    bench_runner,
    bench_event_queue,
    bench_shard_window,
    bench_dispatch_pick,
    bench_dispatch_pick_indexed,
    bench_dispatch_index_repair,
    bench_replay_session,
    bench_arena_queue
);
criterion_main!(benches);
