//! The `astro-pipeline` workload: the paper's Figure 10 loop on the
//! simulated Odroid XU4, single-threaded. For each of the seven
//! Rodinia/Parsec programs at `simsmall`: mine the phase map, train the
//! Q-learning agent through `AstroPipeline::train`, imprint the static
//! binary, then run it once against one run of the stock binary under
//! GTS. A trial is one pass over the seven programs.

use crate::report::Values;
use crate::stats::{iqr_frac, median};
use crate::{fnv1a, Verdict};
use astro_bench::experiment_params;
use astro_compiler::PhaseMap;
use astro_core::pipeline::{AstroPipeline, PipelineConfig};
use astro_core::reward::RewardParams;
use astro_hw::boards::BoardSpec;
use astro_ir::Module;
use astro_workloads::{figure10_set, InputSize};
use std::time::Instant;

/// Training episodes per learner.
const EPISODES: usize = 1;
/// Independent learners per program (the best static build is kept).
const MODEL_SEEDS: usize = 1;

/// Everything built before the first trial: the board, the pipeline
/// configuration and the seven source modules.
pub struct Setup {
    board: BoardSpec,
    cfg: PipelineConfig,
    modules: Vec<Module>,
    run_seed: u64,
}

impl Setup {
    /// Builds the seven `simsmall` modules. The workload seed drives
    /// the engine seed of the evaluation runs. Training runs at the
    /// figures' fixed seed, so every workload seed does the same
    /// learning work and learns the same schedules.
    pub fn new(seed: u64) -> Self {
        Setup {
            board: BoardSpec::odroid_xu4(),
            cfg: PipelineConfig {
                machine: experiment_params(),
                episodes: EPISODES,
                model_seeds: MODEL_SEEDS,
                // The performance-emphasising gamma Figure 10 uses.
                reward: RewardParams {
                    gamma: 3.0,
                    ..RewardParams::default()
                },
                ..PipelineConfig::default()
            },
            modules: figure10_set()
                .iter()
                .map(|w| (w.build)(InputSize::SimSmall))
                .collect(),
            run_seed: seed.wrapping_add(7000),
        }
    }
}

/// What one pass measured.
pub struct Pass {
    /// Host seconds of the whole pass.
    pub wall_s: f64,
    /// Fingerprint of the learned static tables and every evaluation
    /// run's simulated time and energy.
    pub fingerprint: u64,
    /// Geomean over programs of static over GTS simulated wall time.
    pub time_ratio: f64,
    /// Geomean over programs of static over GTS simulated energy.
    pub energy_ratio: f64,
    phase_map_s: f64,
    codegen_s: f64,
    train_s: f64,
    learn_instructions: u64,
    episodes: usize,
    eval_s: f64,
    eval_instructions: u64,
}

/// One pass over the seven programs, each layer call timed from here.
pub fn pass(s: &Setup) -> Pass {
    let pipe = AstroPipeline::new(&s.board, s.cfg.clone());
    let t0 = Instant::now();
    let mut p = Pass {
        wall_s: 0.0,
        fingerprint: 0,
        time_ratio: 1.0,
        energy_ratio: 1.0,
        phase_map_s: 0.0,
        codegen_s: 0.0,
        train_s: 0.0,
        learn_instructions: 0,
        episodes: 0,
        eval_s: 0.0,
        eval_instructions: 0,
    };
    let mut log_time = 0.0;
    let mut log_energy = 0.0;
    let mut digest = String::new();
    for module in &s.modules {
        let t = Instant::now();
        let phases = PhaseMap::compute(module);
        p.phase_map_s += t.elapsed().as_secs_f64();
        std::hint::black_box(&phases);

        let t = Instant::now();
        let trained = pipe.train(module);
        p.train_s += t.elapsed().as_secs_f64();
        p.episodes += trained.learning_runs.len();
        p.learn_instructions += trained
            .learning_runs
            .iter()
            .map(|r| r.instructions)
            .sum::<u64>();

        let t = Instant::now();
        let static_module = pipe.build_static(module, &trained.static_schedule);
        p.codegen_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let gts = pipe.run_gts(module, s.run_seed);
        let st = pipe.run_static(&static_module, &trained.static_schedule, s.run_seed);
        p.eval_s += t.elapsed().as_secs_f64();
        p.eval_instructions += gts.instructions + st.instructions;

        log_time += (st.wall_time_s / gts.wall_time_s).ln();
        log_energy += (st.energy_j / gts.energy_j).ln();
        digest.push_str(&format!(
            "{}:{:?}:{:?}:{}:{}:{}:{};",
            module.name,
            trained.static_schedule.as_table(),
            trained.hybrid_schedule,
            gts.wall_time_s.to_bits(),
            gts.energy_j.to_bits(),
            st.wall_time_s.to_bits(),
            st.energy_j.to_bits(),
        ));
    }
    let n = s.modules.len() as f64;
    p.wall_s = t0.elapsed().as_secs_f64();
    p.time_ratio = (log_time / n).exp();
    p.energy_ratio = (log_energy / n).exp();
    p.fingerprint = fnv1a(digest.as_bytes());
    p
}

/// The end-to-end run: `reps` set-ups (median reported), then passes
/// while the next one, at the mean pass time so far, would be at least
/// half done by `seconds` (at least `min_trials`). A pass lasts
/// seconds, so the run ends within half a pass of its length on either
/// side instead of overrunning by up to a whole pass. Every pass must
/// reproduce the first pass's fingerprint. `jobs_per_s` is the programs
/// completed over the host seconds of all passes.
///
/// The fleet workloads take the fastest of many short parts instead
/// (`crate::fastest_total`); here a pass is seconds long with six to
/// nine samples a run, so its fastest sample rewards a rare fast spell
/// of the host more than it filters slow ones. On a shared 2-vCPU Xeon
/// virtual machine, in five ten-seed sets, the run rate spread 9–29%
/// (interquartile range over median) against 14–30% for the per-pass
/// fastest. Splitting a pass into 21 parts (per program: mining,
/// training and imprinting; the GTS run; the static run) did not help
/// either: over two ten-seed sets the per-part fastest spread 10–14%,
/// the run rate 11–12%. The host's speed shifts for minutes at a time,
/// and every part's fastest time shifts with it.
pub fn run_end_to_end(
    seed: u64,
    seconds: f64,
    reps: usize,
    min_trials: usize,
    v: &mut Verdict,
) -> Values {
    let (s, setup_s) = crate::repeat_setup(reps, crate::SETUP_BUDGET_S, || Setup::new(seed));

    let started = Instant::now();
    let mut rates = Vec::new();
    let mut total_s = 0.0;
    let mut first: Option<Pass> = None;
    while rates.len() < min_trials
        || started.elapsed().as_secs_f64() + 0.5 * total_s / rates.len() as f64 <= seconds
    {
        let p = pass(&s);
        rates.push(s.modules.len() as f64 / p.wall_s);
        total_s += p.wall_s;
        v.check("pass", p.fingerprint, first.as_ref().map(|f| f.fingerprint));
        first.get_or_insert(p);
    }
    let first = first.expect("at least one pass");

    let mut values = Values::default();
    let run_rate = (rates.len() * s.modules.len()) as f64 / total_s;
    values.set("jobs_per_s", run_rate);
    values.set("setup_s", median(&setup_s));
    values.set("peak_rss_mib", crate::host::peak_rss_mib());
    values.set("completed_frac", 1.0);
    values.set("sim_time_ratio", first.time_ratio);
    values.set("sim_energy_ratio", first.energy_ratio);
    println!(
        "passes: {} x {} programs; programs/s over the run {:.4}, median pass {:.4} \
         (iqr/median {:.3}); per pass: {}",
        rates.len(),
        s.modules.len(),
        run_rate,
        median(&rates),
        iqr_frac(&rates),
        crate::join(&rates)
    );
    println!(
        "set-up: {} repetitions, median {} s",
        setup_s.len(),
        median(&setup_s)
    );
    println!(
        "outcome {:016x}: static/GTS time {}, energy {}",
        first.fingerprint, first.time_ratio, first.energy_ratio
    );
    values
}

/// The traced run: one untimed reference pass and one pass whose layer
/// timings are reported; their fingerprints must agree. The pipeline
/// has no checkpoint, so the checkpoint metrics read 0.
pub fn run_traced(seed: u64, v: &mut Verdict) -> Values {
    let s = Setup::new(seed);
    let reference = pass(&s);
    v.check("untraced", reference.fingerprint, None);
    let p = pass(&s);
    v.check("traced", p.fingerprint, Some(reference.fingerprint));

    let mut m = crate::zero_layers();
    m.set("compiler.phase_map_us", p.phase_map_s * 1e6);
    m.set("compiler.static_codegen_us", p.codegen_s * 1e6);
    m.set("pipeline.train_s", p.train_s);
    m.set(
        "pipeline.learn_minstr_per_s",
        p.learn_instructions as f64 / p.train_s / 1e6,
    );
    m.set("exec.eval_s", p.eval_s);
    m.set(
        "exec.eval_minstr_per_s",
        p.eval_instructions as f64 / p.eval_s / 1e6,
    );
    m.set(
        "exec.instructions",
        (p.learn_instructions + p.eval_instructions) as f64,
    );
    m.set("rl.episodes", p.episodes as f64);
    m.set("trace.overhead_frac", p.wall_s / reference.wall_s - 1.0);
    m
}

/// Held-out check of another seed: two passes, which must agree.
pub fn holdout(seed: u64, v: &mut Verdict) {
    let s = Setup::new(seed);
    let a = pass(&s);
    v.check("holdout", a.fingerprint, None);
    v.check("holdout", pass(&s).fingerprint, Some(a.fingerprint));
    println!(
        "held-out seed {seed}: fingerprint {:016x}; static/GTS time {}, energy {}",
        a.fingerprint, a.time_ratio, a.energy_ratio
    );
}
