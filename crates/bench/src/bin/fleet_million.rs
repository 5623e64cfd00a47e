//! Fleet million: the sharded kernel's scale ceiling — 1M jobs over
//! 500 boards by default, run at `--shards 1` and `--shards <k>` with
//! a bitwise equality check and a wall-clock comparison.
//! `--jobs <n>`, `--boards <n>`, `--shards <k>` (default 8),
//! `--seed <u64>`, `--quick` (50k jobs, 100 boards, 4 shards — the
//! CI smoke configuration), `--gate` (200k jobs, 2000 boards, 8
//! shards — the CI mid leg that makes the indexed dispatch path earn
//! its keep at a board count where a linear pick would dominate;
//! under a minute), `--jumbo` (10M jobs, 5000 boards, 8 shards — the
//! post-hot-path scale ceiling; a few minutes of wall clock), `--size`
//! (defaults to `test`) and `--backend {machine,replay}` (default
//! `replay` — a million cycle-accurate jobs is not a figure, it is a
//! heat source).
//! `--trace-level {off,ticks,spans,full}` (default `ticks`) sets the
//! flight-recorder depth of the telemetry-overhead leg; `--perf-gate`
//! turns the printed PR 8 baseline comparison into a hard assertion
//! (CI passes it at `--quick`, the configuration the baseline was
//! recorded under). This binary measures overhead rather than
//! emitting a trace file — use `fleet_trace` for `--trace <path>`.
//! Count flags reject 0 up front.
fn main() {
    let cli = astro_bench::Cli::parse();
    assert!(
        cli.trace_path().is_none(),
        "fleet_million does not support --trace; it measures telemetry overhead \
         (--trace-level) — use fleet_trace to emit a trace file"
    );
    let (jobs, boards, shards) = if cli.has("--jumbo") {
        assert!(!cli.quick(), "--quick and --jumbo are mutually exclusive");
        assert!(
            !cli.has("--gate"),
            "--gate and --jumbo are mutually exclusive"
        );
        (10_000_000, 5_000, 8)
    } else if cli.has("--gate") {
        assert!(!cli.quick(), "--quick and --gate are mutually exclusive");
        (200_000, 2_000, 8)
    } else {
        cli.pick((50_000, 100, 4), (1_000_000, 500, 8))
    };
    astro_bench::figs::fleet_million::run(
        cli.size_or(astro_workloads::InputSize::Test),
        cli.count_flag("--jobs", jobs),
        cli.count_flag("--boards", boards),
        cli.seed(),
        cli.backend_or(astro_exec::executor::BackendKind::Replay),
        cli.count_flag("--shards", shards),
        cli.trace_level().unwrap_or(astro_fleet::TraceLevel::Ticks),
        cli.has("--perf-gate"),
    );
}
