//! The paper-pipeline workload: repeated full passes of generate →
//! three-level normality sweep → trace scan → early-bird delivery sweep over
//! the paper-scale synthetic campaign of MiniFE, MiniMD and MiniQMC on a
//! one-thread pool.
//!
//! The traced run alternates plain passes with observed ones: an observed
//! one-thread pass times each stage and is followed by a replay of the
//! sweep's groups through the stats kernels (radix sort, k-way merge,
//! Shapiro–Wilk weight lookup, batch Φ), each kernel timed once; an observed
//! pass on a pool of the host's core count, carrying a `PoolObserver`, gives
//! the fork/join figures. The host-pool pass is kept out of the end-to-end
//! figures: on a shared two-core host a two-thread fork/join waits on
//! whichever core the host takes away, and its pass time spread past any
//! usable bound from run to run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ebird_analysis::engine::{
    delivery_sweep_parallel_with_arenas, generate_campaign_parallel,
    sweep_levels_parallel_with_arenas, EngineArenas,
};
use ebird_analysis::laggard::ArrivalClass;
use ebird_analysis::normality::NormalitySweep;
use ebird_analysis::scan::{trace_scan_parallel_with_arenas, TraceScan};
use ebird_cluster::calibration::{ALPHA, LAGGARD_THRESHOLD_MS};
use ebird_cluster::{JobConfig, SyntheticApp, Workload};
use ebird_core::{ThreadSample, TimingTrace};
use ebird_obs::Registry;
use ebird_partcomm::{DeliveryOutcome, LinkModel, SerialLink};
use ebird_runtime::{Pool, PoolObserver, WorkerArenas};
use ebird_stats::normality::WeightCache;
use ebird_stats::sort::{merge_sorted_with_tmp, sort_floats, SortScratch};
use ebird_stats::special::norm_log_cdf_sf_slice;

use crate::reference::{self, close};
use crate::util::{median, ms_since, timer_overhead_ns, Digest, Rng, Sink};

/// Buffer each process delivers in the early-bird sweep (the paper's 8 MB).
const SIM_BYTES: usize = 8_000_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Stage labels, in pass order (also the pool observer's stage names).
const STAGES: [&str; 4] = ["generate", "sweep", "scan", "delivery"];
/// Process-iteration and application-iteration groups whose Anderson–
/// Darling statistic is recomputed per application.
const AD_SAMPLE: (usize, usize) = (24, 4);

/// Everything one pass produces.
struct Pass {
    traces: Vec<TimingTrace>,
    sweeps: Vec<[NormalitySweep; 3]>,
    scans: Vec<TraceScan>,
    sims: Vec<Vec<[DeliveryOutcome; 4]>>,
}

/// The campaign definition and the long-lived engine state of one pool.
struct Pipeline {
    apps: [SyntheticApp; 3],
    cfg: JobConfig,
    seed: u64,
    pool: Pool,
    arenas: EngineArenas,
}

impl Pipeline {
    fn new(threads: usize, seed: u64) -> Self {
        let pool = Pool::new(threads);
        Pipeline {
            apps: SyntheticApp::all(),
            cfg: JobConfig::paper_scale(),
            seed,
            arenas: EngineArenas::for_pool(&pool),
            pool,
        }
    }

    /// One full pass on the pipeline's own pool.
    fn pass(&mut self) -> Pass {
        let pool = self.pool.clone();
        self.pass_on(&pool, None)
    }

    /// One full pass on `pool`; with `stage_ms`, each stage's wall time is
    /// added to its slot and the pool observer (if any) is relabelled per
    /// stage.
    fn pass_on(&mut self, pool: &Pool, mut stage_ms: Option<&mut [f64; 4]>) -> Pass {
        if let Some(o) = pool.observer() {
            o.set_stage(STAGES[0]);
        }
        let mut clock = Instant::now();
        let mut lap = |stage: usize| {
            if let Some(ms) = stage_ms.as_deref_mut() {
                ms[stage] += ms_since(clock);
            }
            if let (Some(o), Some(next)) = (pool.observer(), STAGES.get(stage + 1)) {
                o.set_stage(next);
            }
            clock = Instant::now();
        };
        let apps: Vec<&dyn Workload> = self.apps.iter().map(|a| a as &dyn Workload).collect();
        let link = LinkModel::omni_path();
        let arenas = &mut self.arenas;

        let traces = generate_campaign_parallel(&apps, &self.cfg, self.seed, pool)
            .expect("synthetic workloads always generate");
        lap(0);
        let sweeps: Vec<_> = traces
            .iter()
            .map(|tr| sweep_levels_parallel_with_arenas(tr, ALPHA, None, pool, arenas))
            .collect();
        lap(1);
        let scans: Vec<_> = traces
            .iter()
            .map(|tr| trace_scan_parallel_with_arenas(tr, LAGGARD_THRESHOLD_MS, pool, arenas))
            .collect();
        lap(2);
        let sims: Vec<_> = traces
            .iter()
            .map(|tr| {
                delivery_sweep_parallel_with_arenas(
                    tr,
                    SIM_BYTES,
                    || SerialLink::new(link),
                    pool,
                    arenas,
                )
            })
            .collect();
        lap(3);
        Pass {
            traces,
            sweeps,
            scans,
            sims,
        }
    }
}

/// Digest of every output of a pass that must be bit-identical across
/// passes and pool sizes (moment means are compared apart: they merge
/// per-thread partials).
fn digest(p: &Pass) -> u64 {
    let mut d = Digest::default();
    for tr in &p.traces {
        for s in tr.samples() {
            d.u64(s.enter_ns);
            d.u64(s.exit_ns);
        }
    }
    for sweep in &p.sweeps {
        for level in sweep {
            for group in &level.outcomes {
                for test in group {
                    match test {
                        None => d.u64(u64::MAX),
                        Some(o) => {
                            d.f64(o.statistic);
                            d.f64(o.p_value);
                            d.u64(o.n as u64);
                            d.u64(u64::from(o.extrapolated));
                        }
                    }
                }
            }
        }
    }
    for scan in &p.scans {
        for c in &scan.census.iterations {
            d.u64(u64::from(c.class == ArrivalClass::Laggard));
            d.f64(c.magnitude_ms);
            d.f64(c.median_ms);
            d.f64(c.iqr_ms);
        }
        let r = scan.reclaim;
        for v in [r.avg_reclaimable_ms, r.idle_ratio, r.mean_median_ms, r.mean_max_ms] {
            d.f64(v);
        }
        d.u64(scan.moments.count());
        d.f64(scan.moments.min());
        d.f64(scan.moments.max());
    }
    for sim in &p.sims {
        for unit in sim {
            for o in unit {
                d.f64(o.completion_ms);
                d.f64(o.last_arrival_ms);
                d.u64(o.messages as u64);
                d.f64(o.wire_ms);
            }
        }
    }
    d.finish()
}

/// Checks one pass against the campaign shape, against plain
/// recomputations and against properties the methods must have.
fn check_pass(p: &Pass, cfg: &JobConfig, seed: u64, sink: &mut Sink) {
    let link = LinkModel::omni_path();
    let bulk_wire_ms = link.alpha_ms + link.beta_ms_per_byte * SIM_BYTES as f64;
    let mut rng = Rng::new(seed ^ 0xad);
    for (i, tr) in p.traces.iter().enumerate() {
        let app = tr.app().to_string();
        let expected = cfg.trials * cfg.ranks * cfg.iterations * cfg.threads;
        sink.check(tr.samples().len() == expected, || {
            format!("{app}: {} samples, expected {expected}", tr.samples().len())
        });
        let ms: Vec<f64> = tr.samples().iter().map(ThreadSample::compute_time_ms).collect();
        sink.check(ms.iter().all(|v| v.is_finite() && *v > 0.0), || {
            format!("{app}: a sample is not finite and positive")
        });

        // Idle, reclaim and laggards by a plain per-process-iteration loop.
        let units: Vec<reference::UnitTiming> = tr
            .iter_process_iterations()
            .map(|(_, _, _, s)| {
                let unit: Vec<f64> = s.iter().map(ThreadSample::compute_time_ms).collect();
                reference::unit_timing(&unit, LAGGARD_THRESHOLD_MS)
            })
            .collect();
        let n_units = units.len() as f64;
        let idle = reference::kahan_sum(&units.iter().map(|u| u.idle_ms).collect::<Vec<_>>());
        let ratio = reference::kahan_sum(&units.iter().map(|u| u.idle_ratio).collect::<Vec<_>>());
        let laggards = units.iter().filter(|u| u.laggard).count();
        let scan = &p.scans[i];
        sink.check(scan.reclaim.iterations == units.len(), || {
            format!("{app}: reclaim covers {} units", scan.reclaim.iterations)
        });
        sink.check(close(scan.reclaim.avg_reclaimable_ms, idle / n_units, 1e-9), || {
            format!(
                "{app}: reclaim {} vs plain idle {}",
                scan.reclaim.avg_reclaimable_ms,
                idle / n_units
            )
        });
        sink.check(close(scan.reclaim.idle_ratio, ratio / n_units, 1e-9), || {
            format!("{app}: idle ratio {} vs {}", scan.reclaim.idle_ratio, ratio / n_units)
        });
        let census_laggards = scan
            .census
            .iterations
            .iter()
            .filter(|c| c.class == ArrivalClass::Laggard)
            .count();
        sink.check(census_laggards == laggards, || {
            format!("{app}: census {census_laggards} laggards, plain loop {laggards}")
        });

        // Moments: count, min and max exactly; the mean to 1e-12.
        let (min, max) = ms
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let m = scan.moments;
        sink.check(
            m.count() == ms.len() as u64 && m.min() == min && m.max() == max,
            || format!("{app}: moments count/min/max disagree"),
        );
        let mean = reference::kahan_sum(&ms) / ms.len() as f64;
        sink.check(close(m.mean(), mean, 1e-12), || {
            format!("{app}: moment mean {} vs {mean}", m.mean())
        });

        // Every p-value in [0, 1], every W in (0, 1].
        for level in &p.sweeps[i] {
            for group in &level.outcomes {
                for o in group.iter().flatten() {
                    sink.check((0.0..=1.0).contains(&o.p_value), || {
                        format!("{app}: p-value {} outside [0, 1]", o.p_value)
                    });
                }
                if let Some(w) = &group[1] {
                    sink.check(w.statistic > 0.0 && w.statistic <= 1.0, || {
                        format!("{app}: W {} outside (0, 1]", w.statistic)
                    });
                }
            }
        }

        // Anderson–Darling A*² from its textbook formula on seeded groups.
        let shape = tr.shape();
        let pi_groups = shape.process_iterations();
        let mut check_ad = |level: usize, group: usize, mut values: Vec<f64>| {
            values.sort_by(f64::total_cmp);
            let Some(ad) = &p.sweeps[i][level].outcomes[group][2] else {
                return;
            };
            let want = reference::anderson_darling(&values);
            sink.check(close(ad.statistic, want, 1e-7), || {
                format!("{app}: level {level} group {group} A² {} vs textbook {want}", ad.statistic)
            });
        };
        for _ in 0..AD_SAMPLE.0 {
            let u = rng.below(pi_groups);
            check_ad(0, u, ms[u * shape.threads..(u + 1) * shape.threads].to_vec());
        }
        for _ in 0..AD_SAMPLE.1 {
            let g = rng.below(shape.iterations);
            let values = (0..shape.trials * shape.ranks)
                .flat_map(|tr_rank| {
                    let u = tr_rank * shape.iterations + g;
                    ms[u * shape.threads..(u + 1) * shape.threads].to_vec()
                })
                .collect();
            check_ad(1, g, values);
        }

        // Delivery: bulk completes one α + β·bytes after the last arrival;
        // early-bird sends one message per thread.
        for (u, unit) in p.sims[i].iter().enumerate() {
            let last = ms[u * shape.threads..(u + 1) * shape.threads]
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            let bulk = &unit[0];
            sink.check(
                bulk.last_arrival_ms == last
                    && close(bulk.completion_ms, last + bulk_wire_ms, 1e-12),
                || format!("{app}: unit {u} bulk completion {} vs {last} + {bulk_wire_ms}", bulk.completion_ms),
            );
            sink.check(unit[1].messages == shape.threads, || {
                format!("{app}: unit {u} early-bird sent {} messages", unit[1].messages)
            });
        }
    }
}

/// One replay worker's kernel scratch, kept across passes.
#[derive(Default)]
struct ReplayWorker {
    sort: SortScratch,
    tmp: Vec<f64>,
    cache: WeightCache,
}

/// Buffers for replaying the sweep's groups through the stats kernels.
struct Replay {
    pi: Vec<f64>,
    ai: Vec<f64>,
    app: Vec<f64>,
    z: Vec<f64>,
    lc: Vec<f64>,
    ls: Vec<f64>,
    workers: WorkerArenas<ReplayWorker>,
}

/// Runs `f` over `items` split into static blocks on `pool`, timing each
/// member's whole block once; returns the slowest member's time (ms).
fn timed_blocks<T: Send>(
    pool: &Pool,
    workers: &WorkerArenas<ReplayWorker>,
    items: &mut [T],
    f: impl Fn(&mut ReplayWorker, usize, &mut T) + Sync,
) -> f64 {
    let slowest = AtomicU64::new(0);
    pool.parallel_chunks_mut(items, |block, range, ctx| {
        let mut w = workers.slot(ctx.thread());
        let t = Instant::now();
        for (k, item) in block.iter_mut().enumerate() {
            f(&mut w, range.start + k, item);
        }
        slowest.fetch_max(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    });
    slowest.into_inner() as f64 / 1e6
}

/// Standardizes `sorted` into `z` as the fused battery does (sample mean,
/// n − 1 deviation); false when the group has no spread.
fn standardize(sorted: &[f64], z: &mut [f64]) -> bool {
    let n = sorted.len() as f64;
    let mean = sorted.iter().sum::<f64>() / n;
    let sd = (sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)).sqrt();
    for (zi, v) in z.iter_mut().zip(sorted) {
        *zi = (v - mean) / sd;
    }
    sd > 0.0
}

impl Replay {
    fn new(threads: usize) -> Self {
        Replay {
            pi: Vec::new(),
            ai: Vec::new(),
            app: Vec::new(),
            z: Vec::new(),
            lc: Vec::new(),
            ls: Vec::new(),
            workers: WorkerArenas::new(threads),
        }
    }

    /// Replays every group of `trace` through the four kernels, adding each
    /// kernel's time (ms) to `ms` = [sort, merge, weights, phi].
    fn trace(&mut self, pool: &Pool, trace: &TimingTrace, ms: &mut [f64; 4]) {
        let shape = trace.shape();
        let threads = shape.threads;
        let total = shape.total_samples();
        let ai_size = shape.samples_per_app_iteration();
        let iterations = shape.iterations;
        let children_per_ai = shape.trials * shape.ranks;
        let Replay {
            pi,
            ai,
            app,
            z,
            lc,
            ls,
            workers,
        } = self;

        pi.clear();
        pi.extend(trace.samples().iter().map(ThreadSample::compute_time_ms));
        let mut groups: Vec<&mut [f64]> = pi.chunks_mut(threads).collect();
        ms[0] += timed_blocks(pool, workers, &mut groups, |w, _, g| sort_floats(g, &mut w.sort));

        ai.resize(total, 0.0);
        app.resize(total, 0.0);
        let pi_sorted: &[f64] = pi;
        let mut outs: Vec<&mut [f64]> = ai.chunks_mut(ai_size).collect();
        ms[1] += timed_blocks(pool, workers, &mut outs, |w, g, out| {
            let children: Vec<&[f64]> = (0..children_per_ai)
                .map(|k| {
                    let u = k * iterations + g;
                    &pi_sorted[u * threads..(u + 1) * threads]
                })
                .collect();
            merge_sorted_with_tmp(&children, out, &mut w.tmp);
        });
        let tmp = &mut workers.get_mut(0).tmp;
        let t = Instant::now();
        let ai_children: Vec<&[f64]> = ai.chunks(ai_size).collect();
        merge_sorted_with_tmp(&ai_children, app, tmp);
        ms[1] += ms_since(t);

        let mut sizes: Vec<usize> = std::iter::repeat(threads)
            .take(shape.process_iterations())
            .chain(std::iter::repeat(ai_size).take(iterations))
            .chain(std::iter::once(total))
            .collect();
        ms[2] += timed_blocks(pool, workers, &mut sizes, |w, _, n| {
            std::hint::black_box(w.cache.weights_for(*n));
        });

        z.resize(3 * total, 0.0);
        lc.resize(3 * total, 0.0);
        ls.resize(3 * total, 0.0);
        let sorted_groups = pi
            .chunks(threads)
            .chain(ai.chunks(ai_size))
            .chain(std::iter::once(&app[..]));
        let mut spans = Vec::new();
        let mut at = 0;
        for g in sorted_groups {
            if standardize(g, &mut z[at..at + g.len()]) {
                spans.push(at..at + g.len());
            }
            at += g.len();
        }
        let mut items: Vec<(&[f64], &mut [f64], &mut [f64])> = Vec::with_capacity(spans.len());
        let (mut lc_rest, mut ls_rest, mut cut) = (&mut lc[..], &mut ls[..], 0);
        for span in spans {
            let (_, lc_tail) = std::mem::take(&mut lc_rest).split_at_mut(span.start - cut);
            let (_, ls_tail) = std::mem::take(&mut ls_rest).split_at_mut(span.start - cut);
            let (lc_g, lc_next) = lc_tail.split_at_mut(span.len());
            let (ls_g, ls_next) = ls_tail.split_at_mut(span.len());
            items.push((&z[span.clone()], lc_g, ls_g));
            (lc_rest, ls_rest, cut) = (lc_next, ls_next, span.end);
        }
        ms[3] += timed_blocks(pool, workers, &mut items, |_, _, (z, lc, ls)| {
            norm_log_cdf_sf_slice(z, lc, ls)
        });
    }
}

/// Per-pass layer figures of one observed pass.
struct Traced {
    stage_ms: [f64; 4],
    kernel_ms: [f64; 4],
    wall_ms: f64,
    groups: f64,
    messages: f64,
    forks: f64,
    fork_mean_us: f64,
    busy_ms: [f64; 4],
}

/// Runs an observed pass on a fresh pool of the pipeline's size, plus, with
/// `replay`, the kernel replay of its traces.
fn traced_pass(pl: &mut Pipeline, replay: Option<&mut Replay>) -> (Traced, Pass) {
    let registry = Arc::new(Registry::wall());
    let observer = PoolObserver::new(&registry);
    let pool = Pool::new(pl.pool.threads()).with_observer(observer);
    let mut stage_ms = [0.0; 4];
    let t = Instant::now();
    let pass = pl.pass_on(&pool, Some(&mut stage_ms));
    let wall_ms = ms_since(t);
    let snap = registry.snapshot();
    let forks = snap.histogram(PoolObserver::FORK_NS);
    let busy_ms = STAGES.map(|s| snap.counter(&PoolObserver::stage_counter(s)) as f64 / 1e6);
    let mut kernel_ms = [0.0; 4];
    if let Some(replay) = replay {
        for tr in &pass.traces {
            replay.trace(&pl.pool, tr, &mut kernel_ms);
        }
    }
    let traced = Traced {
        stage_ms,
        kernel_ms,
        wall_ms,
        groups: pass.sweeps.iter().flatten().map(|s| s.groups as f64).sum(),
        messages: pass
            .sims
            .iter()
            .flatten()
            .flatten()
            .map(|o| o.messages as f64)
            .sum(),
        forks: forks.count() as f64,
        fork_mean_us: forks.total() as f64 / forks.count().max(1) as f64 / 1e3,
        busy_ms,
    };
    (traced, pass)
}

/// Runs the paper-pipeline workload for `seconds`: plain passes on a
/// one-thread pool, and in the traced run observed passes on one thread and
/// on `host` threads. Returns (passes attempted, passes failed).
pub fn run(host: usize, seed: u64, seconds: f64, trace: bool, sink: &mut Sink) -> (u64, u64) {
    let timer_ns = timer_overhead_ns();
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t = Instant::now();
        let mut pl = Pipeline::new(1, seed);
        let warm = pl.pass();
        setup_s.push(t.elapsed().as_secs_f64());
        state = Some((pl, digest(&warm)));
    }
    let (mut pl, reference_digest) = state.expect("at least one set-up");
    let mut replay = Replay::new(1);
    let mut host_pl = Pipeline::new(host, seed);
    if trace {
        let warm = pl.pass();
        for tr in &warm.traces {
            replay.trace(&pl.pool, tr, &mut [0.0; 4]);
        }
        drop(host_pl.pass());
    }

    let samples = pl.cfg.total_samples() as f64 * pl.apps.len() as f64;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut pass_ms = Vec::new();
    let mut traced = Vec::new();
    let mut traced_host = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let pass = pl.pass();
        pass_ms.push(ms_since(t));
        let mut outputs = vec![pass];
        if trace {
            let (figures, pass) = traced_pass(&mut pl, Some(&mut replay));
            traced.push(figures);
            outputs.push(pass);
            let (figures, pass) = traced_pass(&mut host_pl, None);
            traced_host.push(figures);
            outputs.push(pass);
        }
        for pass in outputs {
            attempted += 1;
            if digest(&pass) != reference_digest {
                failed += 1;
                sink.check(false, || "a pass's outputs differ from the set-up pass".into());
            }
            last = Some(pass);
        }
    }
    let peak_rss = crate::util::peak_rss_mb();

    let last = last.expect("at least one pass");
    let failures_before = sink.failures.len();
    check_pass(&last, &pl.cfg, seed, sink);
    // The same campaign on a larger pool must give the same outputs.
    let cross_pass = host_pl.pass();
    sink.check(digest(&cross_pass) == reference_digest, || {
        format!("outputs at {host} threads differ from one thread")
    });
    for (a, b) in last.scans.iter().zip(&cross_pass.scans) {
        sink.check(close(a.moments.mean(), b.moments.mean(), 1e-12), || {
            format!("moment mean {} at one thread vs {} at {host}", a.moments.mean(), b.moments.mean())
        });
    }
    // A failed check fails the checked pass, unless its digest already did.
    if sink.failures.len() > failures_before && digest(&last) == reference_digest {
        failed += 1;
    }

    if !trace {
        let mut per_s: Vec<f64> = pass_ms.iter().map(|ms| samples / (ms / 1e3)).collect();
        sink.put("setup_s", median(&mut setup_s), "s");
        sink.put("peak_rss_mb", peak_rss, "MB");
        sink.put("op_ms", median(&mut pass_ms), "ms");
        sink.put("items_per_s", median(&mut per_s), "1/s");
    } else {
        let col = |rows: &[Traced], f: &dyn Fn(&Traced) -> f64| {
            median(&mut rows.iter().map(f).collect::<Vec<_>>())
        };
        let one = |f: &dyn Fn(&Traced) -> f64| col(&traced, f);
        let hp = |f: &dyn Fn(&Traced) -> f64| col(&traced_host, f);
        sink.put("trace.timer_overhead_ns", timer_ns, "ns");
        sink.put(
            "trace.overhead_ms",
            one(&|t| t.wall_ms) - median(&mut pass_ms),
            "ms",
        );
        sink.put("cluster.generate_ms", one(&|t| t.stage_ms[0]), "ms");
        sink.put("analysis.sweep_ms", one(&|t| t.stage_ms[1]), "ms");
        sink.put("analysis.sweep_groups", one(&|t| t.groups), "count");
        for (k, name) in ["sort", "merge", "sw_weights", "phi"].iter().enumerate() {
            sink.put(&format!("stats.{name}_ms"), one(&|t| t.kernel_ms[k]), "ms");
        }
        sink.put(
            "analysis.sweep_unattributed_ms",
            one(&|t| t.stage_ms[1] - t.kernel_ms.iter().sum::<f64>()),
            "ms",
        );
        sink.put("analysis.scan_ms", one(&|t| t.stage_ms[2]), "ms");
        sink.put("partcomm.delivery_ms", one(&|t| t.stage_ms[3]), "ms");
        sink.put("partcomm.messages", one(&|t| t.messages), "count");
        sink.put(
            "pass_unattributed_ms",
            one(&|t| t.wall_ms - t.stage_ms.iter().sum::<f64>()),
            "ms",
        );
        sink.put("runtime.host_pass_ms", hp(&|t| t.wall_ms), "ms");
        sink.put("runtime.forks", hp(&|t| t.forks), "count");
        sink.put("runtime.fork_mean_us", hp(&|t| t.fork_mean_us), "us");
        let p = host as f64;
        for (k, stage) in STAGES.iter().enumerate() {
            sink.put(&format!("runtime.{stage}.busy_ms"), hp(&|t| t.busy_ms[k]), "ms");
            sink.put(
                &format!("runtime.{stage}.idle_ms"),
                hp(&|t| t.stage_ms[k] * p - t.busy_ms[k]),
                "ms",
            );
        }
    }
    (attempted, failed)
}
