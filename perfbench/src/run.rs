//! One benchmark run: set-up, the measured campaigns, the correctness
//! gate, and the metrics.
//!
//! * Untraced (`--trace 0`): set-up repeated (median reported), then the
//!   campaign repeated with the library tuners, at least twice and
//!   until `--seconds` have passed (per-cell medians reported). A workload
//!   with a reference first runs an uninterrupted campaign at `nproc`
//!   worker threads.
//!
//! Measured campaigns run on one worker thread: host times are process CPU
//! time, and on a shared virtual machine a fan-out's synchronisation with a
//! descheduled sibling thread burns CPU time that varies with the
//! neighbours' load (up to +50% on `dgp-fleet-faults`).
//! * Traced (`--trace 1`): set-up once with its layers timed, then
//!   untraced and traced campaigns alternately until `--seconds` have
//!   passed. Layer metrics come from the first traced campaign.

use crate::driver::{TaskRow, Traced};
use crate::host::{cpu_jiffies, cpu_timed, peak_rss_mb, Stopwatch};
use crate::metrics::{median, Metric, Report, END_TO_END, PER_LAYER};
use crate::trace::{Cpu, Probe, Span, ALL_SPANS};
use crate::workload::{
    model_latency_ms, noise_free_bests, run_campaign, Campaign, CellResult, Seeds, Setup, SetupTimes, Untraced, Workload,
};
use glimpse_mlkit::parallel::{available_workers, set_default_threads};
use std::path::Path;

/// What a run prints.
#[derive(Debug)]
pub struct RunOutput {
    /// Metric values.
    pub report: Report,
    /// Catalogue the values belong to.
    pub catalogue: &'static [Metric],
    /// Failed correctness checks (empty when correct).
    pub failures: Vec<String>,
    /// Cells tuned.
    pub attempted: u64,
    /// Cells that did not end complete.
    pub failed: u64,
    /// Extra human-readable output (the per-task table).
    pub text: String,
}

/// Campaigns an untraced run measures at least, so every host time is a
/// median over campaigns.
const MIN_CAMPAIGNS: usize = 2;

/// Correctness checks every measured campaign passes: every cell complete,
/// every best configuration valid under the noise-free model, and the
/// same journals as the first campaign of the run.
fn check_campaign(setup: &Setup, label: &str, campaign: &Campaign, first: Option<&Campaign>, failures: &mut Vec<String>) {
    if campaign.cells.len() != setup.cells.len() {
        failures.push(format!("{label}: {} of {} cells ran", campaign.cells.len(), setup.cells.len()));
    }
    for (cell, result) in setup.cells.iter().zip(&campaign.cells) {
        if !result.complete {
            failures.push(format!("{label}: cell {} did not complete", cell.name));
        }
    }
    if let Err(err) = noise_free_bests(setup, campaign) {
        failures.push(format!("{label}: {err}"));
    }
    if let Some(first) = first {
        if first.digest() != campaign.digest() {
            failures.push(format!("{label}: journals differ from the first campaign of this run"));
        }
    }
}

/// Mean of the largest quarter of `values` (at least one value; 0 for an
/// empty slice): a tail figure that, unlike the maximum, does not hinge on
/// one cell's trajectory under one seed.
fn tail_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let n = values.len().div_ceil(4);
    if n == 0 {
        return 0.0;
    }
    sorted[..n].iter().sum::<f64>() / n as f64
}

fn incomplete(setup: &Setup, campaign: &Campaign) -> u64 {
    (setup.cells.len() - campaign.cells.iter().filter(|c| c.complete).count()) as u64
}

/// The untraced run.
///
/// # Errors
///
/// Set-up or journal failures (correctness failures are reported in the
/// output instead).
pub fn untraced(workload: &Workload, seeds: Seeds, seconds: f64, root: &Path) -> Result<RunOutput, String> {
    let mut failures = Vec::new();
    let mut setup_s = Vec::new();
    let mut setup = None;
    let watch = Stopwatch::start();
    // At least three set-ups for a median; cheap set-ups repeat for a
    // second so the median is not one scheduling hiccup.
    while setup_s.len() < 3 || (setup_s.len() < 200 && watch.secs() < 1.0) {
        let dir = root.join(format!("setup-{}", setup_s.len()));
        let (built, secs) = cpu_timed(|| Setup::build(workload, seeds, &dir, None));
        setup_s.push(secs);
        setup = Some(built?);
    }
    let setup = setup.ok_or("no set-up ran")?;
    let mut attempted = 0u64;
    let mut failed = 0u64;

    let reference = if workload.reference {
        set_default_threads(available_workers());
        let reference = run_campaign(&setup, &root.join("reference"), &mut Untraced, false);
        set_default_threads(1);
        let reference = reference?;
        check_campaign(&setup, "nproc-thread reference", &reference, None, &mut failures);
        attempted += setup.cells.len() as u64;
        failed += incomplete(&setup, &reference);
        Some(reference)
    } else {
        None
    };

    let mut reps: Vec<Campaign> = Vec::new();
    let watch = Stopwatch::start();
    while reps.len() < MIN_CAMPAIGNS || watch.secs() < seconds {
        let dir = root.join(format!("campaign-{}", reps.len()));
        let campaign = run_campaign(&setup, &dir, &mut Untraced, true)?;
        let _ = std::fs::remove_dir_all(&dir);
        check_campaign(&setup, &format!("campaign {}", reps.len()), &campaign, reps.first(), &mut failures);
        attempted += setup.cells.len() as u64;
        failed += incomplete(&setup, &campaign);
        reps.push(campaign);
    }
    let first = &reps[0];
    if let Some(reference) = &reference {
        if reference.wal_digest() != first.wal_digest() {
            failures.push("resumed journals differ from an uninterrupted nproc-thread campaign's".into());
        }
        for ((cell, a), b) in setup.cells.iter().zip(&reference.cells).zip(&first.cells) {
            if a.outcome.best_config != b.outcome.best_config || a.outcome.best_gflops.to_bits() != b.outcome.best_gflops.to_bits() {
                failures.push(format!(
                    "cell {}: best result differs between 1 and nproc worker threads",
                    cell.name
                ));
            }
        }
    }

    // Host times are per-cell medians of process CPU time over the
    // campaigns, summed: a burst of foreign load that still costs CPU (cache
    // and memory contention) moves one cell of one campaign, not the figure.
    let cell_median =
        |i: usize, time: fn(&CellResult) -> f64| median(&reps.iter().filter_map(|c| c.cells.get(i)).map(time).collect::<Vec<_>>());
    let cells = 0..setup.cells.len();
    let tune: Vec<f64> = cells.clone().map(|i| cell_median(i, |c| c.first_cpu_s + c.resume_cpu_s)).collect();
    let tune_cpu_s: f64 = tune.iter().sum();
    let mut report = Report::default();
    report.set("setup_s", median(&setup_s));
    report.set("tune_cpu_s", tune_cpu_s);
    report.set("trials_per_cpu_s", first.trials() as f64 / tune_cpu_s);
    report.set("task_cpu_s_p50", median(&tune));
    report.set("task_cpu_s_tail", tail_mean(&tune));
    report.set("peak_rss_mb", peak_rss_mb().ok_or("peak RSS is unavailable on this host")?);
    let bests = noise_free_bests(&setup, first).unwrap_or_default();
    report.set("model_latency_ms", model_latency_ms(workload, &bests));
    let outcomes = || first.cells.iter().map(|c| &c.outcome);
    let measurements: usize = outcomes().map(|o| o.measurements).sum();
    let invalid: usize = outcomes().map(|o| o.invalid_measurements).sum();
    let faulted: usize = outcomes().map(|o| o.faulted_measurements).sum();
    report.set("gpu_hours", outcomes().map(|o| o.gpu_seconds).sum::<f64>() / 3600.0);
    let measured = measurements.max(1) as f64;
    report.set("valid_frac", (measurements - invalid - faulted) as f64 / measured);
    report.set("completed_frac", (measurements - faulted) as f64 / measured);
    report.set("resume_cpu_s", cells.map(|i| cell_median(i, |c| c.resume_cpu_s)).sum());
    Ok(RunOutput {
        report,
        catalogue: END_TO_END,
        failures,
        attempted,
        failed,
        text: String::new(),
    })
}

/// The traced run.
///
/// # Errors
///
/// Set-up or journal failures (correctness failures are reported in the
/// output instead).
pub fn traced(workload: &Workload, seeds: Seeds, seconds: f64, root: &Path) -> Result<RunOutput, String> {
    let mut failures = Vec::new();
    let mut times = SetupTimes::default();
    let setup = Setup::build(workload, seeds, &root.join("setup"), Some(&mut times))?;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut untraced_walls = Vec::new();
    let mut untraced_cpus = Vec::new();
    let mut traced_cpus = Vec::new();
    let mut profile: Option<(Probe, crate::driver::Stats, Vec<TaskRow>, f64)> = None;
    let mut first: Option<Campaign> = None;
    let steal_before = cpu_jiffies();
    let watch = Stopwatch::start();
    while traced_cpus.is_empty() || watch.secs() < seconds {
        let k = traced_cpus.len();
        let dir = root.join(format!("untraced-{k}"));
        let plain = run_campaign(&setup, &dir, &mut Untraced, true)?;
        let _ = std::fs::remove_dir_all(&dir);
        check_campaign(&setup, &format!("untraced campaign {k}"), &plain, first.as_ref(), &mut failures);
        untraced_walls.push(plain.wall_s());
        untraced_cpus.push(plain.cpu_s());

        let probe = Probe::default();
        let dir = root.join(format!("traced-{k}"));
        let (stats, rows, traced) = {
            let mut tracer = Traced::new(&probe);
            let traced = run_campaign(&setup, &dir, &mut tracer, true)?;
            (tracer.stats, tracer.rows, traced)
        };
        let _ = std::fs::remove_dir_all(&dir);
        if traced.digest() != plain.digest() {
            failures.push(format!("traced campaign {k}: journals differ from the untraced campaign's"));
        }
        check_campaign(&setup, &format!("traced campaign {k}"), &traced, None, &mut failures);
        traced_cpus.push(traced.cpu_s());
        attempted += 2 * setup.cells.len() as u64;
        failed += incomplete(&setup, &plain) + incomplete(&setup, &traced);
        if profile.is_none() {
            profile = Some((probe, stats, rows, traced.wall_s() * 1e3));
        }
        first.get_or_insert(plain);
    }
    let (probe, stats, rows, total_ms) = profile.ok_or("no traced campaign ran")?;
    let steal_pct = match (steal_before, cpu_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64 * 100.0,
        _ => 0.0,
    };

    let mut r = Report::default();
    let cpu = &probe.cpu;
    r.set("space.featurize.calls", cpu.calls(Cpu::Featurize) as f64);
    r.set("space.featurize.ms", cpu.ms(Cpu::Featurize));
    let sa_ms = probe.ms(Span::Anneal);
    r.set("mlkit.sa.ms", sa_ms);
    r.set("mlkit.sa.steps", stats.sa_steps as f64);
    r.set(
        "mlkit.sa.steps_per_s",
        if sa_ms > 0.0 { stats.sa_steps as f64 / (sa_ms / 1e3) } else { 0.0 },
    );
    r.set("mlkit.gp.fit.calls", stats.gp_fit_calls as f64);
    r.set("mlkit.gp.fit.ms", probe.ms(Span::GpFit));
    r.set("mlkit.gp.ei.ms", probe.ms(Span::GpScore));
    r.set("mlkit.mlp.train.ms", (times.train_ms - times.corpus_ms - times.codec_ms).max(0.0));
    r.set("tuners.surrogate.fit.calls", stats.fit_calls as f64);
    r.set("tuners.surrogate.fit.ms", probe.ms(Span::SurrogateFit));
    r.set("tuners.surrogate.fit.scratch_fits", stats.scratch_fits as f64);
    r.set("tuners.surrogate.fit.incremental_fits", stats.incremental_fits as f64);
    r.set("tuners.surrogate.fit.rows_max", stats.rows_max as f64);
    r.set("tuners.surrogate.predict.ms", cpu.ms(Cpu::Predict));
    r.set("tuners.surrogate.spearman", median(&stats.spearman));
    let hit_rate = if stats.cache_lookups == 0 {
        0.0
    } else {
        stats.cache_hits as f64 / stats.cache_lookups as f64
    };
    r.set("tuners.feature_cache.hit_rate", hit_rate);
    r.set("tuners.feature_cache.ms", probe.ms(Span::FeatureCache));
    r.set("tuners.select.ms", probe.ms(Span::Select));
    r.set("tuners.journal.records", stats.journal_records as f64);
    let append_us = if stats.plain_appends == 0 {
        0.0
    } else {
        probe.ms(Span::JournalAppend) * 1e3 / stats.plain_appends as f64
    };
    r.set("tuners.journal.append_us", append_us);
    r.set("tuners.journal.snapshot_ms", probe.ms(Span::JournalSnapshot));
    r.set("tuners.journal.resume_ms", probe.ms(Span::JournalResume));
    r.set("tuners.replay.records", stats.replay_records as f64);
    r.set("core.corpus.generate.ms", times.corpus_ms);
    r.set("core.artifacts.train_ms", times.train_ms);
    r.set("core.artifacts.save_ms", times.save_ms);
    r.set("core.artifacts.load_ms", times.load_ms);
    r.set("durable.envelope.verify_ms", times.verify_ms);
    r.set("core.prior.calls", probe.calls(Span::Prior) as f64);
    r.set("core.prior.ms", probe.ms(Span::Prior));
    let quality = if stats.init_quality.is_empty() {
        0.0
    } else {
        glimpse_mlkit::stats::geomean(&stats.init_quality)
    };
    r.set("core.prior.init_quality", quality);
    r.set("core.acquisition.calls", cpu.calls(Cpu::Acquisition) as f64);
    r.set("core.acquisition.ms", cpu.ms(Cpu::Acquisition));
    r.set("core.sampler.calls", probe.calls(Span::Sampler) as f64);
    r.set("core.sampler.ms", probe.ms(Span::Sampler));
    r.set("core.sampler.veto_rate", stats.veto.veto_rate());
    r.set("core.sampler.precision", stats.veto.precision());
    r.set("core.sampler.recall", stats.veto.recall());
    r.set("sim.measure.calls", stats.measure_calls as f64);
    r.set("sim.measure.ms", probe.ms(Span::Measure));
    r.set("sim.retry.attempts", stats.attempts as f64);
    r.set("sim.faults", stats.faults as f64);
    r.set("sim.gpu_s.measure", stats.gpu_s_measure);
    r.set("sim.gpu_s.fault", stats.gpu_s_fault);
    r.set(
        "trace.coverage",
        probe.covered_ms() / (total_ms - probe.excluded_ms()).max(f64::MIN_POSITIVE),
    );
    r.set("trace.overhead_pct", (median(&traced_cpus) / median(&untraced_cpus) - 1.0) * 100.0);
    r.set("wall.tune_s", median(&untraced_walls));
    r.set("host.steal_pct", steal_pct);
    Ok(RunOutput {
        report: r,
        catalogue: PER_LAYER,
        failures,
        attempted,
        failed,
        text: task_table(&rows),
    })
}

/// The per-task breakdown: host milliseconds per layer, then the
/// simulated-device columns, kept apart by `|`.
fn task_table(rows: &[TaskRow]) -> String {
    let mut out = String::from("per-task breakdown (host ms per layer | simulated device)\n");
    out.push_str(&format!("{:<18} {:<16}", "cell", "template"));
    for span in ALL_SPANS {
        out.push_str(&format!(" {:>9}", span.label()));
    }
    out.push_str(&format!(
        " | {:>6} {:>7} {:>7} {:>10} {:>10}\n",
        "trials", "invalid", "faulted", "gpu_s", "best_gflops"
    ));
    for row in rows {
        out.push_str(&format!("{:<18} {:<16}", row.name, row.template));
        for ms in row.host_ms {
            out.push_str(&format!(" {ms:>9.1}"));
        }
        out.push_str(&format!(
            " | {:>6} {:>7} {:>7} {:>10.1} {:>10.1}\n",
            row.trials, row.invalid, row.faulted, row.gpu_s, row.best_gflops
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::tail_mean;

    #[test]
    fn tail_mean_averages_the_largest_quarter() {
        assert_eq!(tail_mean(&[]), 0.0);
        assert_eq!(tail_mean(&[2.0]), 2.0);
        assert_eq!(tail_mean(&[1.0, 5.0, 2.0, 3.0, 4.0]), 4.5);
    }
}
