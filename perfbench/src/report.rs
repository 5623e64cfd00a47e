//! The metric registry and the result line.
//!
//! Every workload reports every metric: an end-to-end run prints all of
//! [`END_TO_END`], a traced run all of [`PER_LAYER`]. A layer a
//! workload does not exercise reads 0 (the fleet layers on
//! `astro-pipeline`, the pipeline layers on the fleet workloads), which
//! is itself the prediction "this workload bypasses that layer".

/// End-to-end metrics: `(name, unit)`. Each is non-zero on every
/// workload. Kept in step with `BENCHMARK.json` (checked by a test).
pub const END_TO_END: &[(&str, &str)] = &[
    // Work completed per host second of the timed trials (median over
    // trials): fleet jobs, or programs taken through the whole loop.
    ("jobs_per_s", "1/s"),
    // Host seconds of set-up before the first trial (median of the
    // repeated set-ups).
    ("setup_s", "s"),
    // Peak resident memory of the process.
    ("peak_rss_mib", "MiB"),
    // Jobs completed over jobs offered: 1 − drop fraction.
    ("completed_frac", "ratio"),
    // Modelled design, deterministic per seed: simulated time against
    // its reference (fleet: p99 latency over SLO; pipeline: geomean of
    // static over GTS wall time).
    ("sim_time_ratio", "ratio"),
    // Simulated energy against its reference (fleet: energy per
    // completed job over the unloaded GTS energy per job; pipeline:
    // geomean of static over GTS energy).
    ("sim_energy_ratio", "ratio"),
];

/// Per-layer metrics from the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("arrival.pulls", "count"),
    ("arrival.pull_s", "s"),
    ("arrival.pull_ns_p50", "ns"),
    ("dispatch.picks", "count"),
    ("dispatch.pick_s", "s"),
    ("dispatch.pick_ns_p50", "ns"),
    ("dispatch.pick_ns_p99", "ns"),
    ("kernel.arrival_step_ns_p50", "ns"),
    ("kernel.arrival_step_ns_p99", "ns"),
    ("kernel.control_step_ns_p50", "ns"),
    ("kernel.control_step_ns_p99", "ns"),
    ("kernel.control_step_ns_max", "ns"),
    ("kernel.wall_s", "s"),
    ("kernel.control_s", "s"),
    ("kernel.control_residual_s", "s"),
    ("shard.advance_s", "s"),
    ("shard.advances", "count"),
    ("shard.par_advances", "count"),
    ("shard.fanout_ratio", "ratio"),
    ("shard.messages", "count"),
    ("metrics.barrier_merge_s", "s"),
    ("kernel.events", "count"),
    ("kernel.ticks", "count"),
    ("kernel.migrations", "count"),
    ("kernel.redistributions", "count"),
    ("kernel.guard_bypasses", "count"),
    ("kernel.dropped", "count"),
    ("kernel.slo_misses", "count"),
    ("cache.lookups", "count"),
    ("cache.misses", "count"),
    ("cache.stale_refreshes", "count"),
    ("cache.hit_ratio", "ratio"),
    ("feedback.samples", "count"),
    ("feedback.mispredict_rate", "ratio"),
    ("chaos.throttled_starts", "count"),
    ("chaos.misprofiled", "count"),
    ("chaos.blackout_drops", "count"),
    ("replay.calibrations", "count"),
    ("replay.calibrate_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.restore_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("compiler.phase_map_us", "us"),
    ("compiler.static_codegen_us", "us"),
    ("pipeline.train_s", "s"),
    ("pipeline.learn_minstr_per_s", "Minstr/s"),
    ("exec.eval_s", "s"),
    ("exec.eval_minstr_per_s", "Minstr/s"),
    ("exec.instructions", "count"),
    ("rl.episodes", "count"),
];

/// Is `name` a legal metric name: non-empty, at most 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit?
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values keyed by name, filled in by a workload and checked
/// against a registry table before printing.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name = value` (the last write of a name wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// One run's verdict and numbers.
pub struct Outcome {
    /// Did every correctness check pass?
    pub correct: bool,
    /// Checked operations (timed trials and gate legs).
    pub attempted: u64,
    /// Operations whose fingerprint diverged.
    pub failed: u64,
    /// The metric values.
    pub values: Values,
}

/// Renders the result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`, the latter holding every metric of
/// `registry` in order with its unit. A registry metric without a
/// finite value is an error, not a silent zero.
pub fn result_line(out: &Outcome, registry: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(registry.len());
    for &(name, unit) in registry {
        let v = out
            .values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

/// A finite float as a JSON number with every significant digit
/// (Rust's shortest round-trip form; integral values print without a
/// fraction, which JSON accepts).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s == "-0" {
        "0".to_string()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_legal_unique_and_within_limits() {
        // The most metrics BENCHMARK.json admits.
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        for (i, n) in all.iter().enumerate() {
            assert!(valid_name(n), "illegal metric name {n:?}");
            assert!(!all[..i].contains(n), "metric {n} is listed twice");
        }
        for &(_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "illegal unit {unit:?}"
            );
        }
    }

    #[test]
    fn name_rule_rejects_what_it_should() {
        assert!(valid_name("shard.par_advances"));
        assert!(valid_name("9lives-x_y.z"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn result_line_lists_every_metric_and_rejects_gaps() {
        let mut values = Values::default();
        values.set("jobs_per_s", 1234.5);
        let reg: &[(&str, &str)] = &[("jobs_per_s", "1/s")];
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            values,
        };
        assert_eq!(
            result_line(&out, reg).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"jobs_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
        let gap: &[(&str, &str)] = &[("jobs_per_s", "1/s"), ("setup_s", "s")];
        assert!(result_line(&out, gap).is_err());
    }
}
