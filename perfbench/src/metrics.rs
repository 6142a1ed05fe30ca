//! Metric catalogue and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit and direction. Host clocks use `s`/`ms`/`us`; the simulator's clock
//! uses `sim_*` units so the two are never read as one quantity. End-to-end
//! host times are process CPU seconds (see [`crate::host`]); wall time is
//! reported beside them by the traced run.
//! [`Report::finish`] refuses to print a metric set that differs from the
//! catalogue, so the names in `BENCHMARK.json` (checked by
//! `tests/names.rs`) are exactly the names a run prints.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("tune_cpu_s", "s", Lower),
    m("trials_per_cpu_s", "1/s", Higher),
    m("task_cpu_s_p50", "s", Lower),
    m("task_cpu_s_tail", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("model_latency_ms", "sim_ms", Lower),
    m("gpu_hours", "sim_h", Lower),
    m("valid_frac", "ratio", Higher),
    m("completed_frac", "ratio", Higher),
    m("resume_cpu_s", "s", Lower),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`). A layer the
/// workload never enters reports 0.
pub const PER_LAYER: &[Metric] = &[
    m("space.featurize.calls", "count", Lower),
    m("space.featurize.ms", "ms", Lower),
    m("mlkit.sa.ms", "ms", Lower),
    m("mlkit.sa.steps", "count", Lower),
    m("mlkit.sa.steps_per_s", "1/s", Higher),
    m("mlkit.gp.fit.calls", "count", Lower),
    m("mlkit.gp.fit.ms", "ms", Lower),
    m("mlkit.gp.ei.ms", "ms", Lower),
    m("mlkit.mlp.train.ms", "ms", Lower),
    m("tuners.surrogate.fit.calls", "count", Lower),
    m("tuners.surrogate.fit.ms", "ms", Lower),
    m("tuners.surrogate.fit.scratch_fits", "count", Lower),
    m("tuners.surrogate.fit.incremental_fits", "count", Higher),
    m("tuners.surrogate.fit.rows_max", "count", Lower),
    m("tuners.surrogate.predict.ms", "ms", Lower),
    m("tuners.surrogate.spearman", "ratio", Higher),
    m("tuners.feature_cache.hit_rate", "ratio", Higher),
    m("tuners.feature_cache.ms", "ms", Lower),
    m("tuners.select.ms", "ms", Lower),
    m("tuners.journal.records", "count", Lower),
    m("tuners.journal.append_us", "us", Lower),
    m("tuners.journal.snapshot_ms", "ms", Lower),
    m("tuners.journal.resume_ms", "ms", Lower),
    m("tuners.replay.records", "count", Lower),
    m("core.corpus.generate.ms", "ms", Lower),
    m("core.artifacts.train_ms", "ms", Lower),
    m("core.artifacts.save_ms", "ms", Lower),
    m("core.artifacts.load_ms", "ms", Lower),
    m("durable.envelope.verify_ms", "ms", Lower),
    m("core.prior.calls", "count", Lower),
    m("core.prior.ms", "ms", Lower),
    m("core.prior.init_quality", "ratio", Higher),
    m("core.acquisition.calls", "count", Lower),
    m("core.acquisition.ms", "ms", Lower),
    m("core.sampler.calls", "count", Lower),
    m("core.sampler.ms", "ms", Lower),
    m("core.sampler.veto_rate", "ratio", Lower),
    m("core.sampler.precision", "ratio", Higher),
    m("core.sampler.recall", "ratio", Higher),
    m("sim.measure.calls", "count", Lower),
    m("sim.measure.ms", "ms", Lower),
    m("sim.retry.attempts", "count", Lower),
    m("sim.faults", "count", Lower),
    m("sim.gpu_s.measure", "sim_s", Lower),
    m("sim.gpu_s.fault", "sim_s", Lower),
    m("trace.coverage", "ratio", Higher),
    m("trace.overhead_pct", "%", Lower),
    m("wall.tune_s", "s", Lower),
    m("host.steal_pct", "%", Lower),
];

/// Collected metric values for one run.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records `value` under `name` (last write wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The recorded value of `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Renders the human-readable table and the final JSON result line for
    /// `catalogue`.
    ///
    /// # Errors
    ///
    /// When a catalogue metric is missing, an extra metric was recorded, or
    /// a value is not finite — a result line must never silently drop or
    /// invent a metric.
    pub fn finish(&self, catalogue: &[Metric], correct: bool, attempted: u64, failed: u64) -> Result<(String, String), String> {
        let mut table = String::new();
        let mut json = Vec::with_capacity(catalogue.len());
        for metric in catalogue {
            let value = self
                .get(metric.name)
                .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite ({value})", metric.name));
            }
            table.push_str(&format!("{:<40} {:>16.6} {}\n", metric.name, value, metric.unit));
            json.push(format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            ));
        }
        if let Some(extra) = self.values.keys().find(|k| !catalogue.iter().any(|m| m.name == **k)) {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            json.join(", ")
        );
        Ok((table, line))
    }
}

/// Median of `values` (0 for an empty slice).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_rejects_missing_and_extra_metrics() {
        let catalogue = &END_TO_END[..2];
        let mut report = Report::default();
        report.set("setup_s", 1.5);
        assert!(report.finish(catalogue, true, 1, 0).is_err());
        report.set("tune_cpu_s", 2.0);
        let (_, line) = report.finish(catalogue, true, 1, 0).unwrap();
        assert!(line.ends_with("}}}"), "{line}");
        report.set("resume_cpu_s", 0.1);
        assert!(report.finish(catalogue, true, 1, 0).is_err());
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
