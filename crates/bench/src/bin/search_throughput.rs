//! Search-layer throughput record (not a paper artifact): times the hot
//! paths the deterministic parallel layer and the incremental surrogate
//! lifecycle accelerate — SA chain batches, GBT surrogate fits, GP fits
//! and acquisition scoring, the per-round surrogate-fit cadence
//! (scratch-every-round vs warm-started boosting), and an end-to-end
//! AutoTVM round — and verifies
//! the outputs are bit-identical across worker counts / at every
//! scratch-refit boundary.
//!
//! Emits `BENCH_search_throughput.json` so future changes have a perf
//! trajectory to regress against. The `split_search` block additionally
//! records the *algorithmic* speedup of the presorted split search over
//! the original two-pass scan, and the `surrogate_fit` block the
//! *algorithmic* speedup of incremental boosting over per-round scratch
//! refits — both hold even on single-core hosts where thread scaling
//! cannot show. The `small_fit` and `mlp_step` blocks time the two kernels
//! of Glimpse's offline meta-training (the acquisition's throwaway
//! surrogates and an Adam step of its network) and check their outputs
//! against digests pinned from the per-node-sort tree builder and the
//! two-forward trainer they replaced. The `gp_score` block times one DGP
//! round's acquisition scoring through the lane-blocked batch and per
//! candidate, and checks both against a digest pinned from the one-query
//! posterior; `gp_fit` also times the Cholesky factorization alone. The
//! `threads` block records requested vs effective worker counts:
//! auto-resolved requests are clamped to available parallelism, explicit
//! `Threads::fixed` pins are not.
//!
//! ```text
//! search_throughput [--quick] [--out <path>]
//! ```

use glimpse_durable::crc32;
use glimpse_gpu_spec::{database, GpuSpec};
use glimpse_mlkit::gbt::{presorted_root_splits, two_pass_best_split, Gbt, GbtParams};
use glimpse_mlkit::gp::{GaussianProcess, RbfKernel};
use glimpse_mlkit::linalg::Matrix;
use glimpse_mlkit::mlp::{Activation, Mlp};
use glimpse_mlkit::parallel::{available_workers, set_default_threads, Threads};
use glimpse_mlkit::sa::{anneal_threaded_in_place, SaParams};
use glimpse_sim::Measurer;
use glimpse_space::{templates, Config, SearchSpace};
use glimpse_tensor_prog::{models, Task};
use glimpse_tuners::autotvm::AutoTvmTuner;
use glimpse_tuners::cost_model::{FitKind, GbtCostModel};
use glimpse_tuners::dgp::DgpTuner;
use glimpse_tuners::history::{Trial, TuningHistory};
use glimpse_tuners::{Budget, TuneContext, Tuner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::time::Instant;

/// Wall-clock seconds of the fastest of `reps` runs of `f` (best-of to
/// shave scheduler noise; the first run warms caches).
// Benchmark harness: this binary's whole purpose is timing, so the D1
// wall-clock ban does not apply (crates/bench is the sanctioned home).
#[allow(clippy::disallowed_methods)]
fn time_best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("at least one rep"))
}

/// Wall-clock seconds of a single run of `f` — for stateful subjects
/// (e.g. a surrogate's `fit`) where repetition would change the work done.
#[allow(clippy::disallowed_methods)]
fn time_once<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

/// CRC32 of the `small_fit` fixture's predictions, as the per-node-sort
/// tree builder produced them.
const SMALL_FIT_DIGEST: u32 = 0xe0bb_dbe8;
/// CRC32 of the `mlp_step` fixture's serialized network after its steps,
/// as the two-forward trainer produced it.
const MLP_STEP_DIGEST: u32 = 0x1b10_09e3;
/// CRC32 of the `gp_score` fixture's expected improvements (little-endian
/// bits, pool order), as the one-query-at-a-time posterior produced them.
const GP_SCORE_DIGEST: u32 = 0x3826_2788;

/// One DGP round's scoring inputs: a GP over 200 measured trials on
/// `task` (features, GFLOPS / 1000, DGP's kernel and noise) and a
/// 384-config pool, each candidate's incumbent shifted by the prediction
/// of a boosted-tree prior fitted to the same trials, as DGP's transfer
/// prior shifts it.
fn gp_score_fixture(task: &Task, space: &SearchSpace, gpu: &GpuSpec) -> (GaussianProcess, Vec<Vec<f64>>, Vec<f64>) {
    let mut measurer = Measurer::new(gpu.clone(), 61);
    let mut rng = StdRng::seed_from_u64(61);
    let mut history = TuningHistory::new(&gpu.name, &task.id.model, task.id.index, task.template);
    for _ in 0..200 {
        let c = space.sample_uniform(&mut rng);
        history.push(Trial::from_measure(&measurer.measure(space, &c)));
    }
    let mut prior = GbtCostModel::new(61);
    prior.fit(space, &history);
    let best = history.best_gflops();
    let (xs, ys): (Vec<Vec<f64>>, Vec<f64>) = history
        .trials
        .iter()
        .map(|t| (space.features(&t.config), t.gflops.unwrap_or(0.0) / 1000.0))
        .unzip();
    let kernel = RbfKernel {
        variance: 1.0,
        length_scale: 4.0,
    };
    let gp = GaussianProcess::fit(kernel, 1e-4, xs, &ys).expect("noisy kernel matrix is PD");
    let pool: Vec<Config> = (0..384).map(|_| space.sample_uniform(&mut rng)).collect();
    let incumbents = pool.iter().map(|c| (best - prior.predict(space, c)) / 1000.0).collect();
    (gp, pool.iter().map(|c| space.features(c)).collect(), incumbents)
}

fn multi_workers() -> usize {
    available_workers().max(4)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_search_throughput.json".into());
    let reps = if quick { 2 } else { 5 };
    let single = Threads::fixed(1);
    let multi = Threads::fixed(multi_workers());

    // Shared fixture: a measured history on a real template so the SA
    // energy and surrogate fits exercise production featurization.
    let gpu = database::find("RTX 2080 Ti").unwrap();
    let model = models::alexnet();
    let task = &model.tasks()[2];
    let space = templates::space_for_task(task);
    let mut measurer = Measurer::new(gpu.clone(), 21);
    let mut history = TuningHistory::new(&gpu.name, &task.id.model, task.id.index, task.template);
    let mut rng = StdRng::seed_from_u64(21);
    for _ in 0..if quick { 120 } else { 300 } {
        let c = space.sample_uniform(&mut rng);
        history.push(Trial::from_measure(&measurer.measure(&space, &c)));
    }
    let mut surrogate = GbtCostModel::new(0);
    surrogate.fit(&space, &history);

    // --- SA chain batch (surrogate-driven, as in every tuner round) -----
    let chains = 64;
    let sa_steps = if quick { 60 } else { 200 };
    let starts: Vec<_> = (0..chains).map(|_| space.sample_uniform(&mut rng)).collect();
    let params = SaParams {
        chains,
        max_steps: sa_steps,
        t_start: 1.0,
        t_end: 0.05,
        patience: 0,
    };
    let run_sa = |threads: Threads| {
        anneal_threaded_in_place(
            &starts,
            |c| surrogate.predict(&space, c),
            |c, out, r| space.neighbor_into(c, out, r),
            params,
            77,
            threads,
        )
    };
    let (sa_s1, sa_out1) = time_best_of(reps, || run_sa(single));
    let (sa_sn, sa_outn) = time_best_of(reps, || run_sa(multi));
    let sa_identical = sa_out1.steps_executed == sa_outn.steps_executed
        && sa_out1
            .chain_bests
            .iter()
            .zip(&sa_outn.chain_bests)
            .all(|((ca, fa), (cb, fb))| ca == cb && fa.to_bits() == fb.to_bits());
    assert!(sa_identical, "SA outcome diverged across thread counts");
    let sa_steps_total = sa_out1.steps_executed;

    // --- GBT fit on a large synthetic design matrix ---------------------
    let (rows, width) = if quick { (600, 16) } else { (2000, 16) };
    let mut grng = StdRng::seed_from_u64(5);
    let gxs: Vec<Vec<f64>> = (0..rows).map(|_| (0..width).map(|_| grng.gen_range(0.0..1.0)).collect()).collect();
    let gys: Vec<f64> = gxs
        .iter()
        .map(|x| 3.0 * x[0] + x[1] * x[2] - 2.0 * (x[3] - 0.5).powi(2) + x[7])
        .collect();
    let gbt_params = GbtParams::default();
    let fit_gbt = |workers: usize| {
        set_default_threads(workers);
        let mut r = StdRng::seed_from_u64(9);
        let m = Gbt::fit(&gxs, &gys, gbt_params, &mut r);
        set_default_threads(0);
        m
    };
    let (gbt_s1, gbt_m1) = time_best_of(reps, || fit_gbt(1));
    let (gbt_sn, gbt_mn) = time_best_of(reps, || fit_gbt(multi_workers()));
    let gbt_identical = gbt_m1
        .predict_batch(&gxs)
        .iter()
        .zip(gbt_mn.predict_batch(&gxs))
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(gbt_identical, "GBT fit diverged across thread counts");

    // Algorithmic record: prefix-sum sweep vs the original two-pass scan
    // over every feature at the root node (the per-node work `fit` repeats
    // thousands of times).
    let indices: Vec<usize> = (0..rows).collect();
    let (two_pass_s, ref_splits) = time_best_of(reps, || {
        (0..width).map(|f| two_pass_best_split(&gxs, &gys, &indices, f)).collect::<Vec<_>>()
    });
    let (presorted_s, new_splits) = time_best_of(reps, || presorted_root_splits(&gxs, &gys));
    let splits_agree = ref_splits.iter().zip(&new_splits).all(|(a, b)| match (a, b) {
        (Some((ta, _)), Some((tb, _))) => ta.to_bits() == tb.to_bits(),
        (None, None) => true,
        _ => false,
    });
    assert!(splits_agree, "presorted split disagreed with the two-pass reference");

    // --- Meta-training kernels -------------------------------------------
    // The acquisition's throwaway surrogate: 25 trees on 30 rows × 28
    // features, half duplicate-heavy integer columns, half continuous.
    let (small_rows, small_width, small_fits) = (30, 28, 100);
    let mut srng = StdRng::seed_from_u64(13);
    let sxs: Vec<Vec<f64>> = (0..small_rows)
        .map(|_| {
            (0..small_width)
                .map(|f| {
                    if f % 2 == 0 {
                        f64::from(srng.gen_range(0..4u32))
                    } else {
                        srng.gen_range(0.0..1.0)
                    }
                })
                .collect()
        })
        .collect();
    let sys: Vec<f64> = sxs.iter().map(|x| x[0] * x[1] + x[2] - 0.5 * x[5] + x[10] * x[11]).collect();
    let small_params = GbtParams {
        trees: 25,
        ..GbtParams::default()
    };
    let (small_s, small_bits) = time_best_of(reps, || {
        (0..small_fits as u64)
            .flat_map(|seed| {
                let model = Gbt::fit(&sxs, &sys, small_params, &mut StdRng::seed_from_u64(seed));
                sxs.iter().map(move |x| model.predict(x).to_bits())
            })
            .collect::<Vec<u64>>()
    });
    let small_digest = crc32(&small_bits.iter().flat_map(|b| b.to_le_bytes()).collect::<Vec<u8>>());
    let small_identical = small_digest == SMALL_FIT_DIGEST;
    assert!(
        small_identical,
        "small GBT fits diverged from the per-node-sort builder: crc32 {small_digest:#010x}"
    );

    // One Adam step of the acquisition network ([38, 48, 48, 1], ReLU) on
    // a 64-row mini-batch, its meta-training shape.
    let (mlp_steps, mlp_batch) = (200, 64);
    let mut mrng = StdRng::seed_from_u64(17);
    let mxs: Vec<Vec<f64>> = (0..mlp_batch)
        .map(|_| (0..38).map(|_| mrng.gen_range(-1.0..1.0)).collect())
        .collect();
    let mys: Vec<Vec<f64>> = mxs.iter().map(|x| vec![x[0] * x[1] - x[2] + 0.3 * x[37]]).collect();
    let fresh = Mlp::new(&[38, 48, 48, 1], Activation::Relu, &mut mrng);
    let (mlp_s, trained) = time_best_of(reps, || {
        let mut mlp = fresh.clone();
        for _ in 0..mlp_steps {
            mlp.train_mse(&mxs, &mys, 3e-3);
        }
        mlp
    });
    let mlp_digest = crc32(serde_json::to_string(&trained).expect("serializable network").as_bytes());
    let mlp_identical = mlp_digest == MLP_STEP_DIGEST;
    assert!(
        mlp_identical,
        "MLP training diverged from the two-forward trainer: crc32 {mlp_digest:#010x}"
    );

    // --- GP fit (kernel matrix assembly dominates) ----------------------
    let gp_rows = if quick { 80 } else { 200 };
    let gp_xs: Vec<Vec<f64>> = gxs.iter().take(gp_rows).cloned().collect();
    let gp_ys: Vec<f64> = gys.iter().take(gp_rows).copied().collect();
    let kernel = RbfKernel {
        variance: 1.0,
        length_scale: 2.0,
    };
    let fit_gp = |workers: usize| {
        set_default_threads(workers);
        let gp = GaussianProcess::fit(kernel, 1e-4, gp_xs.clone(), &gp_ys).expect("PSD kernel matrix");
        set_default_threads(0);
        gp
    };
    let (gp_s1, gp_m1) = time_best_of(reps, || fit_gp(1));
    let (gp_sn, gp_mn) = time_best_of(reps, || fit_gp(multi_workers()));
    let gp_identical = gp_xs.iter().all(|q| gp_m1.predict(q).0.to_bits() == gp_mn.predict(q).0.to_bits());
    assert!(gp_identical, "GP fit diverged across thread counts");
    // The fit's factorization alone, on the same (noisy, so PD) matrix.
    let mut gram = Matrix::zeros(gp_rows, gp_rows);
    for (i, a) in gp_xs.iter().enumerate() {
        for (j, b) in gp_xs.iter().enumerate() {
            gram[(i, j)] = kernel.eval(a, b) + if i == j { 1e-4 } else { 0.0 };
        }
    }
    let (chol_s, _) = time_best_of(reps, || gram.cholesky().expect("PSD kernel matrix"));

    // --- GP acquisition scoring (one DGP round) -------------------------
    // A DGP-shaped round whatever `--quick` says: the GP conditions on
    // 200 featurized trials of the real template and scores a 384-config
    // pool, each candidate against its own prior-shifted incumbent.
    let (score_gp, pool, incumbents) = gp_score_fixture(task, &space, gpu);
    let (batch_s, batch_ei) = time_best_of(reps, || score_gp.expected_improvement_batch(&pool, &incumbents));
    let (single_s, single_ei) = time_best_of(reps, || {
        pool.iter()
            .zip(&incumbents)
            .map(|(q, &best)| score_gp.expected_improvement(q, best))
            .collect::<Vec<f64>>()
    });
    let ei_bits: Vec<u8> = batch_ei.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    let gp_score_digest = crc32(&ei_bits);
    let gp_score_identical = batch_ei.iter().zip(&single_ei).all(|(a, b)| a.to_bits() == b.to_bits()) && gp_score_digest == GP_SCORE_DIGEST;
    assert!(
        gp_score_identical,
        "GP scoring diverged from the per-candidate posterior: crc32 {gp_score_digest:#010x}"
    );

    // --- End-to-end tuner round (AutoTVM: fit + anneal + batch) ---------
    let budget = if quick { 48 } else { 96 };
    let run_round = |workers: usize| {
        set_default_threads(workers);
        let mut m = Measurer::new(gpu.clone(), 31);
        let ctx = TuneContext::new(task, &space, &mut m, Budget::measurements(budget), 31);
        let outcome = AutoTvmTuner::new().tune(ctx);
        set_default_threads(0);
        outcome
    };
    let (round_s1, round_o1) = time_best_of(reps.min(3), || run_round(1));
    let (round_sn, round_on) = time_best_of(reps.min(3), || run_round(multi_workers()));
    let round_identical =
        round_o1.best_gflops.to_bits() == round_on.best_gflops.to_bits() && round_o1.explorer_steps == round_on.explorer_steps;
    assert!(round_identical, "tuning round diverged across thread counts");

    // --- Incremental surrogate training (fit cadence) -------------------
    // One simulated campaign feeds two cost models the identical trial
    // stream: a scratch-every-round baseline (refit_every = 1, the legacy
    // cadence bit-for-bit) and the default incremental lifecycle
    // (warm-started boosting + periodic scratch refit). At every round
    // where the incremental model performs a scratch refit, its
    // predictions must be bitwise identical to the baseline's.
    let (cadence_rounds, trials_per_round) = (if quick { 30usize } else { 200 }, 4usize);
    let checkpoints: &[usize] = if quick { &[5, 10, 30] } else { &[10, 50, 200] };
    let mut cadence_measurer = Measurer::new(gpu.clone(), 41);
    let mut cadence_rng = StdRng::seed_from_u64(41);
    let mut cadence_history = TuningHistory::new(&gpu.name, &task.id.model, task.id.index, task.template);
    let mut scratch_model = GbtCostModel::new(7).with_refit_every(1);
    let mut incr_model = GbtCostModel::new(7);
    let probe: Vec<_> = (0..32).map(|_| space.sample_uniform(&mut cadence_rng)).collect();
    let mut scratch_cum = 0.0;
    let mut incr_cum = 0.0;
    let mut identical_at_refit = true;
    let mut refit_boundaries = 0usize;
    let mut checkpoint_rows = Vec::new();
    for round in 1..=cadence_rounds {
        for _ in 0..trials_per_round {
            let c = space.sample_uniform(&mut cadence_rng);
            cadence_history.push(Trial::from_measure(&cadence_measurer.measure(&space, &c)));
        }
        let (scratch_s, ()) = time_once(|| scratch_model.fit(&space, &cadence_history));
        let (incr_s, ()) = time_once(|| incr_model.fit(&space, &cadence_history));
        scratch_cum += scratch_s;
        incr_cum += incr_s;
        if incr_model.last_fit() == FitKind::Scratch {
            refit_boundaries += 1;
            let a = scratch_model.predict_batch(&space, &probe);
            let b = incr_model.predict_batch(&space, &probe);
            identical_at_refit &= a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits());
        }
        if checkpoints.contains(&round) {
            checkpoint_rows.push(json!({
                "round": round,
                "training_rows": cadence_history.len(),
                "scratch_round_ms": scratch_s * 1e3,
                "incremental_round_ms": incr_s * 1e3,
                "scratch_cumulative_ms": scratch_cum * 1e3,
                "incremental_cumulative_ms": incr_cum * 1e3,
                "cumulative_speedup": scratch_cum / incr_cum,
            }));
        }
    }
    assert!(
        identical_at_refit,
        "incremental surrogate diverged from scratch at a refit boundary"
    );
    assert!(refit_boundaries > 1, "cadence loop never crossed a scratch-refit boundary");
    let incr_life = incr_model.lifecycle();

    // Cache hit-rate in a standard tune run: DGP featurizes the full
    // history through its prior's campaign cache every round, so only the
    // trials measured since the last round miss.
    let dgp_budget = if quick { 96 } else { 400 };
    let (dgp_s, dgp_outcome) = time_once(|| {
        let mut m = Measurer::new(gpu.clone(), 51);
        let ctx = TuneContext::new(task, &space, &mut m, Budget::measurements(dgp_budget), 51);
        DgpTuner::new().tune(ctx)
    });
    let dgp_life = dgp_outcome.surrogate.expect("DGP reports its surrogate lifecycle");
    let round_life = round_o1.surrogate.expect("AutoTVM reports its surrogate lifecycle");

    let report = json!({
        "quick": quick,
        "threads": {
            "single": 1,
            "available": available_workers(),
            // Explicit pins bypass the clamp (that is how the determinism
            // sections oversubscribe a small host on purpose)...
            "multi_requested": multi_workers(),
            "multi_effective": multi.resolve(),
            // ...while auto-resolved requests are clamped to the host.
            "auto_effective": Threads::AUTO.resolve(),
        },
        "sa": {
            "chains": chains,
            "steps_per_chain": sa_steps,
            "steps_executed": sa_steps_total,
            "single_thread_s": sa_s1,
            "multi_thread_s": sa_sn,
            "steps_per_sec_single": sa_steps_total as f64 / sa_s1,
            "steps_per_sec_multi": sa_steps_total as f64 / sa_sn,
            "speedup": sa_s1 / sa_sn,
            "identical": sa_identical,
        },
        "gbt_fit": {
            "rows": rows,
            "features": width,
            "single_thread_ms": gbt_s1 * 1e3,
            "multi_thread_ms": gbt_sn * 1e3,
            "speedup": gbt_s1 / gbt_sn,
            "identical": gbt_identical,
            "split_search": {
                "two_pass_ms": two_pass_s * 1e3,
                "presorted_ms": presorted_s * 1e3,
                "algorithmic_speedup": two_pass_s / presorted_s,
                "identical": splits_agree,
            },
        },
        "small_fit": {
            "rows": small_rows,
            "features": small_width,
            "trees": small_params.trees,
            "fits": small_fits,
            "fit_ms": small_s * 1e3 / small_fits as f64,
            "digest": format!("{small_digest:#010x}"),
            "identical": small_identical,
        },
        "mlp_step": {
            "widths": [38, 48, 48, 1],
            "batch": mlp_batch,
            "steps": mlp_steps,
            "step_us": mlp_s * 1e6 / f64::from(mlp_steps),
            "digest": format!("{mlp_digest:#010x}"),
            "identical": mlp_identical,
        },
        "gp_fit": {
            "rows": gp_rows,
            "single_thread_ms": gp_s1 * 1e3,
            "multi_thread_ms": gp_sn * 1e3,
            "speedup": gp_s1 / gp_sn,
            "cholesky_ms": chol_s * 1e3,
            "identical": gp_identical,
        },
        "gp_score": {
            "rows": score_gp.len(),
            "candidates": pool.len(),
            "batch_ms": batch_s * 1e3,
            "per_candidate_ms": single_s * 1e3,
            "speedup": single_s / batch_s,
            "digest": format!("{gp_score_digest:#010x}"),
            "identical": gp_score_identical,
        },
        "round": {
            "tuner": "autotvm",
            "budget": budget,
            "single_thread_ms": round_s1 * 1e3,
            "multi_thread_ms": round_sn * 1e3,
            "speedup": round_s1 / round_sn,
            "identical": round_identical,
            "surrogate": round_life,
        },
        "surrogate_fit": {
            "rounds": cadence_rounds,
            "trials_per_round": trials_per_round,
            "refit_every": incr_life.refit_every,
            "incremental_trees": incr_life.incremental_trees,
            "scratch_fits": incr_life.scratch_fits,
            "incremental_fits": incr_life.incremental_fits,
            "forest_trees": incr_life.forest_trees,
            "checkpoints": checkpoint_rows,
            "cumulative_speedup": scratch_cum / incr_cum,
            "refit_boundaries_checked": refit_boundaries,
            "identical_at_refit": identical_at_refit,
            "tuner_cache": {
                "tuner": "dgp",
                "budget": dgp_budget,
                "wall_s": dgp_s,
                "hits": dgp_life.cache.hits,
                "misses": dgp_life.cache.misses,
                "entries": dgp_life.cache.entries,
                "hit_rate": dgp_life.cache.hit_rate(),
            },
        },
    });
    let text = serde_json::to_string_pretty(&report).expect("serializable report");
    glimpse_durable::atomic_write(out_path.as_ref(), format!("{text}\n").as_bytes()).expect("writable output path");
    println!("{text}");
    eprintln!("wrote {out_path}");
}
