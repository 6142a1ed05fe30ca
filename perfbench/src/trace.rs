//! Layer timing for the traced run.
//!
//! Two kinds of timers, kept apart:
//!
//! * [`Probe::span`] — wall time on the driving thread. Spans nest; each
//!   span records its *self* time (its wall time minus the wall time of the
//!   spans opened inside it), so the self times of all spans add up to the
//!   share of the campaign spent inside named layers (`trace.coverage`).
//! * [`Counters::time`] — calls inside closures that the search layers fan
//!   out across worker threads (featurization, surrogate prediction and
//!   acquisition scoring inside the annealer's energy). Calls are counted
//!   exactly; time is sampled and summed over threads. These are *not* part
//!   of the coverage sum: their wall time is already inside the enclosing
//!   span.

use crate::host::Stopwatch;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Wall-time spans on the driving thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `GbtCostModel::fit`.
    SurrogateFit,
    /// `anneal_cancellable_in_place`; its energy calls run on workers and
    /// are also reported, as thread time, through [`Counters`].
    Anneal,
    /// Batch selection: chain starts, dedup, ε-greedy or prior fill,
    /// candidate generation and ranking.
    Select,
    /// Simulated measurement including fault retries.
    Measure,
    /// `RunJournal::append_trial` without a snapshot.
    JournalAppend,
    /// `RunJournal::append_trial` at a snapshot boundary, plus terminal
    /// flushes (`mark_complete`, `flush_snapshot`).
    JournalSnapshot,
    /// `RunJournal::resume` and `load_complete` when a campaign resumes.
    JournalResume,
    /// `PriorNet::prior_weights` and `PriorNet::sample_initial`.
    Prior,
    /// `EnsembleSampler::accept`.
    Sampler,
    /// `GaussianProcess::fit`.
    GpFit,
    /// DGP's expected-improvement scoring of the candidate pool.
    GpScore,
    /// Feature rows served through the campaign's `FeatureCache` outside a
    /// surrogate fit (DGP's conditioning set).
    FeatureCache,
}

/// Number of [`Span`] variants.
pub const SPANS: usize = 12;

/// All spans, in table order.
pub const ALL_SPANS: [Span; SPANS] = [
    Span::SurrogateFit,
    Span::Anneal,
    Span::Select,
    Span::Measure,
    Span::JournalAppend,
    Span::JournalSnapshot,
    Span::JournalResume,
    Span::Prior,
    Span::Sampler,
    Span::GpFit,
    Span::GpScore,
    Span::FeatureCache,
];

impl Span {
    /// Short column label for the per-task table.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Span::SurrogateFit => "fit",
            Span::Anneal => "sa",
            Span::Select => "select",
            Span::Measure => "measure",
            Span::JournalAppend => "append",
            Span::JournalSnapshot => "snapshot",
            Span::JournalResume => "resume",
            Span::Prior => "prior",
            Span::Sampler => "sampler",
            Span::GpFit => "gp_fit",
            Span::GpScore => "gp_ei",
            Span::FeatureCache => "fcache",
        }
    }
}

/// Per-call timers shared with worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cpu {
    /// `SearchSpace::features`.
    Featurize,
    /// `GbtCostModel::predict_features`.
    Predict,
    /// `NeuralAcquisition::score_features`.
    Acquisition,
}

const CPUS: usize = 3;

/// One call in this many (per thread and kind) is timed; its time is
/// scaled up by the same factor. Timing every call would add two clock
/// reads to every annealing step and inflate the layers it measures.
pub const SAMPLE_EVERY: u32 = 16;

/// Counter slots: each worker thread writes its own cache line, so the hot
/// energy closure never contends on a shared atomic.
const SHARDS: usize = 16;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
    static TICKS: [Cell<u32>; CPUS] = Default::default();
}

#[derive(Debug, Default)]
#[repr(align(128))]
struct Shard {
    ns: [AtomicU64; CPUS],
    calls: [AtomicU64; CPUS],
}

/// Thread-safe call counters (exact) and summed thread time (sampled).
#[derive(Debug, Default)]
pub struct Counters {
    shards: [Shard; SHARDS],
}

impl Counters {
    /// Counts one call of `f` under `which`, timing one call in
    /// [`SAMPLE_EVERY`].
    pub fn time<T>(&self, which: Cpu, f: impl FnOnce() -> T) -> T {
        let k = which as usize;
        let shard = &self.shards[SHARD.with(|s| *s)];
        shard.calls[k].fetch_add(1, Ordering::Relaxed);
        let sampled = TICKS.with(|ticks| {
            let tick = ticks[k].get().wrapping_add(1);
            ticks[k].set(tick);
            tick % SAMPLE_EVERY == 0
        });
        if !sampled {
            return f();
        }
        let watch = Stopwatch::start();
        let out = f();
        shard.ns[k].fetch_add(watch.ns() * u64::from(SAMPLE_EVERY), Ordering::Relaxed);
        out
    }

    /// Estimated thread milliseconds under `which`.
    #[must_use]
    pub fn ms(&self, which: Cpu) -> f64 {
        self.shards
            .iter()
            .map(|s| s.ns[which as usize].load(Ordering::Relaxed))
            .sum::<u64>() as f64
            / 1e6
    }

    /// Calls recorded under `which`.
    #[must_use]
    pub fn calls(&self, which: Cpu) -> u64 {
        self.shards.iter().map(|s| s.calls[which as usize].load(Ordering::Relaxed)).sum()
    }
}

/// Span self times and call counts, plus the worker-side counters.
#[derive(Debug, Default)]
pub struct Probe {
    self_ns: [Cell<u64>; SPANS],
    calls: [Cell<u64>; SPANS],
    // One accumulator per open span: wall time of the spans nested in it.
    open: RefCell<Vec<u64>>,
    excluded_ns: Cell<u64>,
    /// Worker-side counters (shared into parallel closures).
    pub cpu: Counters,
}

impl Probe {
    /// Runs `f` inside span `span`, charging its self time to `span` and
    /// its total time to the enclosing span's children.
    pub fn span<T>(&self, span: Span, f: impl FnOnce() -> T) -> T {
        self.open.borrow_mut().push(0);
        let watch = Stopwatch::start();
        let out = f();
        let total = watch.ns();
        let mut open = self.open.borrow_mut();
        let nested = open.pop().unwrap_or(0);
        if let Some(parent) = open.last_mut() {
            *parent += total;
        }
        let i = span as usize;
        self.self_ns[i].set(self.self_ns[i].get() + total.saturating_sub(nested));
        self.calls[i].set(self.calls[i].get() + 1);
        out
    }

    /// Runs diagnostic work `f` that the tuner itself would not do (quality
    /// scores against the simulator's ground truth). Its time is charged to
    /// no span and removed from the enclosing span's self time.
    pub fn exclude<T>(&self, f: impl FnOnce() -> T) -> T {
        let watch = Stopwatch::start();
        let out = f();
        let total = watch.ns();
        if let Some(parent) = self.open.borrow_mut().last_mut() {
            *parent += total;
        }
        self.excluded_ns.set(self.excluded_ns.get() + total);
        out
    }

    /// Milliseconds spent in [`Probe::exclude`] so far.
    #[must_use]
    pub fn excluded_ms(&self) -> f64 {
        self.excluded_ns.get() as f64 / 1e6
    }

    /// Self milliseconds of `span` so far.
    #[must_use]
    pub fn ms(&self, span: Span) -> f64 {
        self.self_ns[span as usize].get() as f64 / 1e6
    }

    /// Calls of `span` so far.
    #[must_use]
    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span as usize].get()
    }

    /// Self milliseconds of every span, in [`ALL_SPANS`] order.
    #[must_use]
    pub fn snapshot(&self) -> [f64; SPANS] {
        ALL_SPANS.map(|s| self.ms(s))
    }

    /// Self milliseconds summed over every span.
    #[must_use]
    pub fn covered_ms(&self) -> f64 {
        self.snapshot().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count_every_call_and_sample_time() {
        let counters = Counters::default();
        for _ in 0..2 * SAMPLE_EVERY {
            counters.time(Cpu::Predict, || std::thread::sleep(std::time::Duration::from_micros(50)));
        }
        assert_eq!(counters.calls(Cpu::Predict), u64::from(2 * SAMPLE_EVERY));
        assert_eq!(counters.calls(Cpu::Featurize), 0);
        assert!(counters.ms(Cpu::Predict) >= 2.0 * f64::from(SAMPLE_EVERY) * 0.05);
    }

    #[test]
    fn nested_spans_report_self_time() {
        let probe = Probe::default();
        probe.span(Span::Select, || {
            probe.span(Span::Sampler, || std::thread::sleep(std::time::Duration::from_millis(20)));
        });
        assert_eq!(probe.calls(Span::Select), 1);
        assert_eq!(probe.calls(Span::Sampler), 1);
        assert!(probe.ms(Span::Sampler) >= 20.0);
        assert!(probe.ms(Span::Select) < probe.ms(Span::Sampler));
    }
}
