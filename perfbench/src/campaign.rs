//! `campaign-p100`: the paper's fault-injection experiment at paper scale
//! (Poisson 100×100, 25 inner iterations, outer tolerance 1e-8) through
//! the campaign engine at two worker threads, artifact included.
//!
//! An operation is one experiment: one FT-GMRES solve with one SDC armed.
//! Throughput comes from the engine (`sdc_campaigns::run`); per-experiment
//! latency comes from replaying the artifact's units through
//! `sweep::run_experiment`, one at a time ("low") and one per core
//! ("high"). Every replay must reproduce its artifact record bit for bit.

use crate::host::Host;
use crate::layers::{spmv_bytes, Layers, Split, TimedInjector, TimedOp};
use crate::pace;
use crate::stats::{describe, median, percentile, tail_percentile};
use crate::{timed_setup, Args, Report, Rng};
use sdc_campaigns::artifact::Record;
use sdc_campaigns::spec::{DetectorPolicy, GridBlock, LsqSpec, ProblemSpec};
use sdc_campaigns::sweep::{run_experiment, SweepPoint};
use sdc_campaigns::{CampaignSpec, Problem, RunOptions, Scenario};
use sdc_faults::campaign::{CampaignPoint, FaultClass, MgsPosition};
use sdc_gmres::prelude::FtGmresConfig;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

const THREADS: usize = 2;
const TOL: f64 = 1e-8;

/// Sweep stride through the aggregate-iteration axis.
const STRIDE: usize = 16;

/// Units per leg of a timed campaign.
const LEG_UNITS: usize = 32;

/// One unit in this many is replayed for latency.
const LATENCY_EVERY: usize = 8;

/// The campaign the seed selects: the spec seed recorded in every unit,
/// and the order of the grid's blocks, classes and positions, which sets
/// the unit sequence and so what each shard holds. The spec format has no
/// stride offset, so every seed runs the same set of experiments.
fn spec(seed: u64) -> CampaignSpec {
    let mut rng = Rng::new(seed);
    let mut s = CampaignSpec::paper_shape("perfbench-p100", vec![ProblemSpec::Poisson { m: 100 }]);
    s.outer_tol = TOL;
    s.stride = STRIDE;
    s.seed = rng.next_u64();
    let mut classes = vec![FaultClass::Huge, FaultClass::Slight, FaultClass::Tiny];
    classes.rotate_left(rng.below(3) as usize);
    let mut positions = vec![MgsPosition::First, MgsPosition::Last];
    positions.rotate_left(rng.below(2) as usize);
    let undetected = GridBlock {
        classes,
        positions: positions.clone(),
        detectors: vec![DetectorPolicy::Off],
        lsq: vec![LsqSpec::Standard],
    };
    let detected = GridBlock { positions, ..GridBlock::detector_class1() };
    s.blocks =
        if rng.below(2) == 0 { vec![undetected, detected] } else { vec![detected, undetected] };
    s
}

/// Scratch space inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> WorkDir {
        let p = PathBuf::from(".bench_build").join(format!("perfbench-{}", std::process::id()));
        std::fs::create_dir_all(&p).expect("create the benchmark's scratch directory");
        WorkDir(p)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn quiet() -> RunOptions {
    RunOptions { quiet: true, ..RunOptions::default() }
}

/// Set-up: build the problem and write the artifact preamble (header,
/// problem record and the fault-free baseline every unit is swept
/// against). Timed runs resume from a copy of it, so they re-solve no
/// baseline.
fn prepare(spec: &CampaignSpec, preamble: &Path) -> Problem {
    let p = spec.problems[0].build();
    let _ = std::fs::remove_file(preamble);
    let opts = RunOptions { max_units: Some(0), ..quiet() };
    sdc_campaigns::run(spec, preamble, false, &opts).expect("campaign preamble");
    p
}

#[derive(Clone, Copy)]
struct Unit {
    scenario: Scenario,
    point: SweepPoint,
}

/// Runs the campaign once from the preamble; returns wall seconds and
/// the experiment records of the artifact.
fn run_campaign(spec: &CampaignSpec, preamble: &Path, out: &Path) -> (f64, Vec<Unit>) {
    std::fs::copy(preamble, out).expect("copy the preamble");
    sdc_parallel::set_threads(THREADS);
    let t = Instant::now();
    let summary = sdc_campaigns::run(spec, out, true, &quiet()).expect("campaign run");
    let wall = t.elapsed().as_secs_f64();
    sdc_parallel::set_threads(1);
    assert!(summary.is_complete(), "campaign stopped early: {summary:?}");
    (wall, read_units(out))
}

/// Runs the campaign from the preamble in legs of `LEG_UNITS` units, each
/// resuming the artifact the last one left and paced on its own; returns
/// the paced and raw wall seconds and the experiment records of the
/// artifact.
fn run_campaign_paced(spec: &CampaignSpec, preamble: &Path, out: &Path) -> (f64, f64, Vec<Unit>) {
    std::fs::copy(preamble, out).expect("copy the preamble");
    let opts = RunOptions { max_units: Some(LEG_UNITS), ..quiet() };
    let (mut paced, mut raw) = (0.0, 0.0);
    loop {
        let (leg, summary) = pace::timed(|| {
            sdc_parallel::set_threads(THREADS);
            let summary = sdc_campaigns::run(spec, out, true, &opts).expect("campaign run");
            sdc_parallel::set_threads(1);
            summary
        });
        paced += leg.paced();
        raw += leg.raw;
        if summary.is_complete() {
            return (paced, raw, read_units(out));
        }
        assert!(summary.ran_units > 0, "campaign leg made no progress: {summary:?}");
    }
}

/// The experiment records of an artifact.
fn read_units(artifact: &Path) -> Vec<Unit> {
    let text = std::fs::read_to_string(artifact).expect("read the artifact");
    text.lines()
        .filter_map(|l| match Record::parse(l).expect("artifact line parses") {
            Record::Experiment { scenario, point, .. } => Some(Unit { scenario, point }),
            _ => None,
        })
        .collect()
}

/// The paper's claims, checked on every experiment: it converges to the
/// tolerance (runs through the fault), and a huge fault under the
/// restart-inner detector is always caught.
fn check_record(r: &mut Report, u: &Unit) {
    let detector_on = u.scenario.detector == DetectorPolicy::RestartInner;
    let must_detect = detector_on && u.scenario.class == FaultClass::Huge && u.point.injected;
    r.check(
        u.point.converged && u.point.true_rel_residual <= TOL && (!must_detect || u.point.detected),
        || format!("experiment {:?} at {}: {:?}", u.scenario, u.point.aggregate, u.point),
    );
}

fn same_point(a: &SweepPoint, b: &SweepPoint) -> bool {
    a.aggregate == b.aggregate
        && a.outer_iterations == b.outer_iterations
        && a.converged == b.converged
        && a.injected == b.injected
        && a.detected == b.detected
        && a.restarts == b.restarts
        && a.true_rel_residual.to_bits() == b.true_rel_residual.to_bits()
}

struct Ctx<'a> {
    spec: &'a CampaignSpec,
    p: &'a Problem,
    configs: Vec<(Scenario, FtGmresConfig)>,
}

impl Ctx<'_> {
    fn point(&self, u: &Unit) -> (CampaignPoint, &FtGmresConfig) {
        let ft = &self.configs.iter().find(|(s, _)| *s == u.scenario).expect("known scenario").1;
        let point = CampaignPoint {
            aggregate_iteration: u.point.aggregate,
            inner_per_outer: self.spec.inner_iters,
            class: u.scenario.class,
            position: u.scenario.position,
        };
        (point, ft)
    }

    /// One unit through the public single-experiment entry point.
    fn replay(&self, u: &Unit) -> SweepPoint {
        let (point, ft) = self.point(u);
        let pc = self.p.precond(self.spec.precond).expect("no preconditioner to build");
        run_experiment(self.p, ft, point, self.spec.format, self.spec.kernel_tier, pc)
    }

    /// The same experiment with its operator and injector wrapped; the
    /// `SweepPoint` is assembled exactly as `run_experiment` assembles it.
    fn replay_traced(
        &self,
        u: &Unit,
    ) -> (SweepPoint, Split, Layers, sdc_gmres::telemetry::SolveReport) {
        let (point, ft) = self.point(u);
        let pc = self.p.precond(self.spec.precond).expect("no preconditioner to build");
        let layers = Layers::default();
        let inj = point.injector();
        let tinj = TimedInjector { inner: &inj, layers: &layers };
        let t = Instant::now();
        let op = TimedOp { a: self.p.operator(self.spec.format), layers: &layers };
        let (x, rep) =
            sdc_gmres::ftgmres::ftgmres_solve_precond(&op, &self.p.b, None, ft, pc, &tinj);
        let split = layers.split(t.elapsed().as_secs_f64());
        let mut r = vec![0.0; self.p.b.len()];
        sdc_gmres::operator::residual(&self.p.a, &self.p.b, &x, &mut r);
        let true_rel = sdc_dense::vector::nrm2(&r) / sdc_dense::vector::nrm2(&self.p.b).max(1e-300);
        let sp = SweepPoint {
            aggregate: point.aggregate_iteration,
            outer_iterations: rep.iterations,
            converged: rep.outcome.is_converged(),
            injected: !rep.injections.is_empty(),
            detected: rep.detected_anything(),
            restarts: rep.detector_restarts,
            true_rel_residual: true_rel,
        };
        (sp, split, layers, rep)
    }
}

/// Runs `f` over `units` on `lanes` threads (each solve single-threaded),
/// returning per-unit results in unit order.
fn fan_out<T: Send>(units: &[Unit], lanes: usize, f: impl Fn(&Unit) -> T + Sync) -> Vec<T> {
    sdc_parallel::set_threads(1);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..units.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..lanes {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Relaxed);
                if i >= units.len() {
                    break;
                }
                let v = f(&units[i]);
                slots.lock().expect("no panics while holding the slot lock")[i] = Some(v);
            });
        }
    });
    slots
        .into_inner()
        .expect("lanes joined")
        .into_iter()
        .map(|v| v.expect("every unit ran"))
        .collect()
}

pub fn run(args: &Args, host: &Host) -> Report {
    let mut r = Report::default();
    let spec = spec(args.seed);
    let dir = WorkDir::new();
    let preamble = dir.0.join("preamble.jsonl");
    let (setup_s, setup_raw, p) = timed_setup(9, || prepare(&spec, &preamble));
    let configs = spec
        .scenarios()
        .into_iter()
        .map(|s| {
            let cfg = spec.campaign_config(&s);
            (s, cfg.ft_config_with(&p.a, cfg.precond(&p)))
        })
        .collect();
    let ctx = Ctx { spec: &spec, p: &p, configs };
    let out = dir.0.join("artifact.jsonl");
    let budget = args.budget().as_secs_f64();
    let lanes = host.nproc.clamp(1, 2);

    if args.trace {
        let (baseline_s, _, _) = timed_setup(3, || {
            sdc_campaigns::failure_free(&p, &spec.baseline_config(LsqSpec::Standard))
        });
        let (wall, units) = run_campaign(&spec, &preamble, &out);
        units.iter().for_each(|u| check_record(&mut r, u));

        // Unit busy times: every unit replayed through run_experiment.
        let t = Instant::now();
        let busy: Vec<(f64, SweepPoint)> = fan_out(&units, lanes, |u| {
            let t = Instant::now();
            let sp = ctx.replay(u);
            (t.elapsed().as_secs_f64(), sp)
        });
        let replay_wall = t.elapsed().as_secs_f64();
        // Layers: every unit replayed again with wrapped operator/injector.
        let t = Instant::now();
        let traced = fan_out(&units, lanes, |u| ctx.replay_traced(u));
        let traced_wall = t.elapsed().as_secs_f64();

        let mut total = Split::default();
        let (mut spmv_calls, mut coeffs, mut obytes, mut faults) = (0u64, 0u64, 0f64, 0u64);
        let (mut inner, mut accepted, mut events, mut restarts) = (0usize, 0usize, 0usize, 0usize);
        let n = p.a.nrows();
        for ((u, (_, sp)), (tsp, split, layers, rep)) in units.iter().zip(&busy).zip(&traced) {
            r.check(
                same_point(sp, &u.point) && same_point(tsp, &u.point) && split.consistent(),
                || {
                    format!(
                        "replay of unit at {} differs from its record: {sp:?} / {tsp:?}",
                        u.point.aggregate
                    )
                },
            );
            total.add(split);
            spmv_calls += layers.spmv_calls.load(Relaxed);
            coeffs += layers.ortho_coeffs.load(Relaxed);
            obytes += layers.ortho_bytes(n);
            faults += layers.faults.load(Relaxed);
            inner += rep.iterations + rep.detector_restarts;
            accepted += rep.iterations - rep.inner_rejections;
            events += rep.detector_events.len();
            restarts += rep.detector_restarts;
        }
        let k = units.len() as f64;
        let unit_s: Vec<f64> = busy.iter().map(|b| b.0).collect();
        let sum_busy: f64 = unit_s.iter().sum();
        r.metric("sparse.spmv_calls", spmv_calls as f64 / k);
        r.metric("sparse.spmv_s", total.spmv / k);
        r.metric(
            "sparse.spmv_gbps",
            spmv_calls as f64 * spmv_bytes(n, p.a.nnz()) / total.spmv / 1e9,
        );
        r.metric("ortho.coeffs", coeffs as f64 / k);
        r.metric("ortho.s", total.ortho / k);
        r.metric("ortho.gbps", obytes / total.ortho / 1e9);
        r.metric("krylov.solve_s", total.solve / k);
        r.metric("krylov.self_s", total.krylov_self / k);
        r.metric("ftgmres.inner_solves", inner as f64);
        r.metric("ftgmres.useful_inner_frac", accepted as f64 / inner as f64);
        r.metric("detector.events", events as f64);
        r.metric("detector.restarts", restarts as f64);
        r.metric("faults.injected", faults as f64);
        r.metric("campaign.unit_s.p50", median(&unit_s));
        r.metric("campaign.unit_s.max", percentile(&unit_s, 100.0));
        r.metric("campaign.busy_frac", sum_busy / (wall * THREADS as f64));
        r.metric("campaign.overhead_s", wall - sum_busy / THREADS as f64);
        r.metric("campaign.baseline_s", baseline_s);
        r.metric("obs.trace_overhead_frac", traced_wall / replay_wall - 1.0);
        let ws = (n * (spec.inner_iters + 1) * 8 * THREADS) as f64;
        r.metric("host.working_set_llc", ws / host.llc_bytes.max(1) as f64);
        r.note(format!(
            "{} units, campaign wall {wall:.3} s; split per unit: spmv {:.1}% ortho {:.1}% self {:.1}% of {:.4} s",
            units.len(),
            100.0 * total.spmv / total.solve,
            100.0 * total.ortho / total.solve,
            100.0 * total.krylov_self / total.solve,
            total.solve / k
        ));
        return r;
    }

    // Rounds of three parts for the whole budget, so every metric sees
    // the same host: one campaign through the engine (throughput), then
    // the latency sample replayed one at a time (low) and one per core
    // (high). A round starts only if it should end inside the window.
    let mut sample: Vec<Unit> = Vec::new();
    let (mut engine, mut engine_raw, mut units) = (Vec::new(), Vec::new(), Vec::new());
    let (mut low, mut high) = (Vec::new(), Vec::new());
    let mut high_rates = Vec::new();
    let t0 = Instant::now();
    let mut round = 0.0;
    while engine.is_empty() || t0.elapsed().as_secs_f64() + round <= budget {
        let t = Instant::now();
        let (wall, raw, us) = run_campaign_paced(&spec, &preamble, &out);
        engine.push(us.len() as f64 / wall);
        engine_raw.push(us.len() as f64 / raw);
        us.iter().for_each(|u| check_record(&mut r, u));
        units = us;
        if sample.is_empty() {
            sample = latency_sample(&units);
        }

        for u in &sample {
            let (dt, sp) = pace::timed(|| ctx.replay(u));
            low.push(dt);
            r.check(same_point(&sp, &u.point), || format!("replay differs from record: {sp:?}"));
        }

        // One per core: the sample in groups of `lanes`, each group paced
        // as a whole.
        let mut paced_wall = 0.0;
        for group in sample.chunks(lanes) {
            let (wall, outs) = pace::timed(|| {
                fan_out(group, lanes, |u| {
                    let t = Instant::now();
                    let sp = ctx.replay(u);
                    (t.elapsed().as_secs_f64(), sp)
                })
            });
            paced_wall += wall.paced();
            for (u, (dt, sp)) in group.iter().zip(outs) {
                high.push(wall.part(dt));
                r.check(same_point(&sp, &u.point), || {
                    format!("replay differs from record: {sp:?}")
                });
            }
        }
        high_rates.push(sample.len() as f64 / paced_wall);
        round = t.elapsed().as_secs_f64();
    }
    let units_per_s = median(&engine);
    let mean_outer =
        units.iter().map(|u| u.point.outer_iterations as f64).sum::<f64>() / units.len() as f64;
    let (low_s, high_s) = (pace::paced(&low), pace::paced(&high));

    let ms = |v: &[f64], p: f64| 1e3 * percentile(v, p);
    r.metric("setup_s", setup_s);
    r.metric("solve_s", median(&low_s));
    r.metric("iters_to_tol", mean_outer);
    r.metric("units_per_s", units_per_s);
    r.metric("lat_p50_ms.low", ms(&low_s, 50.0));
    r.ungated("lat_p99_ms.low", ms(&low_s, tail_percentile(low_s.len())), "ms");
    r.metric("lat_p50_ms.high", ms(&high_s, 50.0));
    r.ungated("lat_p99_ms.high", ms(&high_s, tail_percentile(high_s.len())), "ms");
    r.metric("max_rate_rps", median(&high_rates));
    r.note(format!(
        "stride {} -> {} units/campaign, {} campaigns, {units_per_s:.2} paced units/s at {THREADS} threads; latency sample {} units",
        spec.stride,
        units.len(),
        engine.len(),
        sample.len()
    ));
    r.note(format!("setup s, raw: p50={setup_raw:.6}"));
    r.note(format!("units/s through the engine, raw: {}", describe(&engine_raw)));
    r.note(format!("replay s, low, paced: {}", describe(&low_s)));
    r.note(format!("replay s, low, raw: {}", describe(&pace::raw(&low))));
    r.note(format!("replay s, high ({lanes} in flight), paced: {}", describe(&high_s)));
    r.note(format!("replay s, high ({lanes} in flight), raw: {}", describe(&pace::raw(&high))));
    r
}

/// The units replayed for latency: every `LATENCY_EVERY`-th unit in a
/// canonical order, so every seed replays the same experiments in the
/// same order (and at 2 in flight, in the same pairs).
fn latency_sample(units: &[Unit]) -> Vec<Unit> {
    let mut all = units.to_vec();
    all.sort_by_key(|u| (format!("{:?}", u.scenario), u.point.aggregate));
    all.into_iter().step_by(LATENCY_EVERY).collect()
}
