//! `gmres-cheb`: time to tolerance of one solve on poisson180
//! (n = 32,400), full GMRES right-preconditioned by degree-10 Chebyshev,
//! on one worker thread.
//!
//! An operation is one solve. "low" load is one solve in flight; "high"
//! load is one solve per core (two threads solving the same system at
//! once), where solves compete for memory bandwidth and cache. The two
//! alternate for the whole run, so both see the same host.

use crate::host::Host;
use crate::layers::{spmv_bytes, Layers, Split, TimedInjector, TimedOp, TimedRightPrecondOp};
use crate::pace;
use crate::stats::{describe, median, percentile, tail_percentile};
use crate::{timed_setup, Args, Report, Rng};
use sdc_gmres::gmres::{
    gmres_solve_instrumented, gmres_solve_right_precond, GmresConfig, SiteContext,
};
use sdc_gmres::operator::residual;
use sdc_gmres::precond::{BuiltPrecond, PrecondKind};
use sdc_sparse::CsrMatrix;
use std::time::{Duration, Instant};

const GRID: usize = 180;
const TOL: f64 = 1e-8;

/// The generated inputs: the matrix, `b = A·x*` for a seeded `x*`, and
/// the built preconditioner.
struct System {
    a: CsrMatrix,
    b: Vec<f64>,
    m: BuiltPrecond,
}

/// The seed's exact solution: one of 48 images of a fixed pseudo-random
/// grid function `x0` (uniform in [-1, 1]) under the square's 8
/// symmetries, a sign and a power-of-two scale. The Poisson matrix
/// commutes with the grid symmetries and the solver is homogeneous, so
/// every seed asks for the same iteration count while the inputs and the
/// solution bits differ.
fn solution(seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(0);
    let x0: Vec<f64> = (0..GRID * GRID).map(|_| 2.0 * rng.unit() - 1.0).collect();
    let sym = seed % 8;
    let sign = if (seed / 8).is_multiple_of(2) { 1.0 } else { -1.0 };
    let scale = sign * [0.5, 1.0, 2.0][((seed / 16) % 3) as usize];
    (0..GRID * GRID)
        .map(|k| {
            let (mut i, mut j) = (k / GRID, k % GRID);
            if sym & 1 != 0 {
                i = GRID - 1 - i;
            }
            if sym & 2 != 0 {
                j = GRID - 1 - j;
            }
            if sym & 4 != 0 {
                std::mem::swap(&mut i, &mut j);
            }
            scale * x0[i * GRID + j]
        })
        .collect()
}

fn build(seed: u64) -> System {
    let a = sdc_sparse::gallery::poisson2d(GRID);
    let xstar = solution(seed);
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&xstar, &mut b);
    let m = BuiltPrecond::build(PrecondKind::Chebyshev, &a).expect("chebyshev builds on poisson");
    System { a, b, m }
}

fn config() -> GmresConfig {
    GmresConfig { tol: TOL, max_iters: 1000, restart: None, ..Default::default() }
}

/// What one solve returned.
struct Solved {
    x: Vec<f64>,
    iters: usize,
    converged: bool,
    /// True relative residual `‖b − A x‖ / ‖b‖`.
    rel: f64,
}

/// One solve through the public entry point a user would call.
fn solve_plain(s: &System) -> Solved {
    let (x, rep) = gmres_solve_right_precond(&s.a, &s.b, None, &config(), &s.m);
    let rel = rep.true_residual_norm.unwrap_or(f64::INFINITY) / sdc_dense::vector::nrm2(&s.b);
    Solved { x, iters: rep.iterations, converged: rep.outcome.is_converged(), rel }
}

/// The same solve with SpMV, preconditioner and orthogonalization timed
/// from outside. This composes `A·M⁻¹` exactly as
/// `gmres_solve_right_precond` does (zero initial guess, so the correction
/// form's rhs is `b` itself) and maps `u` back through `M⁻¹`.
fn solve_traced(s: &System) -> (Vec<f64>, usize, Split, Layers) {
    let layers = Layers::default();
    let inj = TimedInjector { inner: &sdc_faults::NoFaults, layers: &layers };
    let cfg = config();
    let t = Instant::now();
    let op = TimedRightPrecondOp { a: &s.a, m: &s.m, layers: &layers };
    let bnorm = sdc_dense::vector::nrm2(&s.b);
    let mut cfg_u = cfg;
    if cfg.tol > 0.0 && bnorm > 0.0 {
        cfg_u.tol = cfg.tol * bnorm / bnorm;
    }
    let (u, rep) = gmres_solve_instrumented(&op, &s.b, None, &cfg_u, &inj, SiteContext::default());
    let mut x = vec![0.0; u.len()];
    layers.precond(&s.m, &u, &mut x);
    let mut r = vec![0.0; x.len()];
    residual(&TimedOp { a: &s.a, layers: &layers }, &s.b, &x, &mut r);
    std::hint::black_box(&r);
    let split = layers.split(t.elapsed().as_secs_f64());
    (x, rep.iterations, split, layers)
}

fn same_bits(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// Every solve must reach the tolerance and reproduce the run's first
/// solve (`refr`) to the iteration and the bit.
fn check_solve(r: &mut Report, refr: &Solved, out: &Solved) {
    let same = same_bits(&out.x, &refr.x);
    r.check(out.converged && out.rel <= TOL && out.iters == refr.iters && same, || {
        format!(
            "solve: converged={} rel={:e} iters={} (recorded {}) bits_equal={same}",
            out.converged, out.rel, out.iters, refr.iters
        )
    });
}

pub fn run(args: &Args, host: &Host) -> Report {
    sdc_parallel::set_threads(1);
    let mut r = Report::default();

    // Set-up: generate the matrix and rhs, build the preconditioner.
    let (setup_s, setup_raw, sys) = timed_setup(9, || build(args.seed));
    let (build_s, _, _) = timed_setup(5, || {
        BuiltPrecond::build(PrecondKind::Chebyshev, &sys.a).expect("chebyshev builds")
    });

    // Warm-up solve: fills caches and page tables, and records the
    // iteration count and solution every later solve must reproduce.
    let first = solve_plain(&sys);
    r.check(first.converged && first.rel <= TOL, || format!("warm-up solve: rel={:e}", first.rel));
    let refr = first;
    let n = sys.a.nrows();
    let basis_bytes = (n * (refr.iters + 1) * 8) as f64;
    r.note(format!(
        "n={n} nnz={} iters_to_tol={} basis={:.1} MiB working set/LLC={:.2}",
        sys.a.nnz(),
        refr.iters,
        basis_bytes / (1u64 << 20) as f64,
        basis_bytes / host.llc_bytes.max(1) as f64
    ));

    let budget = args.budget();
    if args.trace {
        // Alternate untraced and traced solves so both see the same
        // machine state; the difference is the cost of the wrappers.
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut total = Split::default();
        let (mut spmv_calls, mut pre_calls, mut coeffs, mut obytes) = (0u64, 0u64, 0u64, 0f64);
        let t0 = Instant::now();
        let mut pair = Duration::ZERO;
        while traced.is_empty() || t0.elapsed() + pair <= budget {
            let t = Instant::now();
            let out = solve_plain(&sys);
            plain.push(t.elapsed().as_secs_f64());
            check_solve(&mut r, &refr, &out);

            let (x, iters, split, layers) = solve_traced(&sys);
            traced.push(split.solve);
            r.check(same_bits(&x, &refr.x) && iters == refr.iters && split.consistent(), || {
                format!("traced solve differs from untraced or spans overlap: {split:?}")
            });
            total.add(&split);
            use std::sync::atomic::Ordering::Relaxed;
            spmv_calls += layers.spmv_calls.load(Relaxed);
            pre_calls += layers.precond_calls.load(Relaxed);
            coeffs += layers.ortho_coeffs.load(Relaxed);
            obytes += layers.ortho_bytes(n);
            pair = t.elapsed();
        }
        let k = traced.len() as f64;
        r.metric("sparse.spmv_calls", spmv_calls as f64 / k);
        r.metric("sparse.spmv_s", total.spmv / k);
        r.metric(
            "sparse.spmv_gbps",
            spmv_calls as f64 * spmv_bytes(n, sys.a.nnz()) / total.spmv / 1e9,
        );
        r.metric("precond.apply_calls", pre_calls as f64 / k);
        r.metric("precond.apply_s", total.precond / k);
        r.metric("precond.build_s", build_s);
        r.metric("ortho.coeffs", coeffs as f64 / k);
        r.metric("ortho.s", total.ortho / k);
        r.metric("ortho.gbps", obytes / total.ortho / 1e9);
        r.metric("krylov.solve_s", total.solve / k);
        r.metric("krylov.self_s", total.krylov_self / k);
        r.metric("obs.trace_overhead_frac", median(&traced) / median(&plain) - 1.0);
        r.metric("host.working_set_llc", basis_bytes / host.llc_bytes.max(1) as f64);
        r.note(format!(
            "split per solve: spmv {:.1}% precond {:.1}% ortho {:.1}% self {:.1}% of {:.4} s ({} traced solves)",
            100.0 * total.spmv / total.solve,
            100.0 * total.precond / total.solve,
            100.0 * total.ortho / total.solve,
            100.0 * total.krylov_self / total.solve,
            total.solve / k,
            traced.len()
        ));
        return r;
    }

    // Rounds of one solve alone (low load) and then one per core at once
    // (high load), for the whole budget. A round starts only if it should
    // end inside the window.
    let lanes = host.nproc.clamp(1, 2);
    let (mut low, mut high, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut round = Duration::ZERO;
    while rounds.is_empty() || t0.elapsed() + round <= budget {
        let t = Instant::now();
        let (dt, out) = pace::timed(|| solve_plain(&sys));
        low.push(dt);
        check_solve(&mut r, &refr, &out);
        let (wall, outs) = pace::timed(|| {
            std::thread::scope(|s| {
                let hs: Vec<_> = (0..lanes)
                    .map(|_| {
                        s.spawn(|| {
                            let t = Instant::now();
                            let out = solve_plain(&sys);
                            (t.elapsed().as_secs_f64(), out)
                        })
                    })
                    .collect();
                hs.into_iter().map(|h| h.join().expect("solve thread panicked")).collect::<Vec<_>>()
            })
        });
        rounds.push(wall.paced());
        for (dt, out) in outs {
            high.push(wall.part(dt));
            check_solve(&mut r, &refr, &out);
        }
        round = t.elapsed();
    }
    let (low_s, high_s) = (pace::paced(&low), pace::paced(&high));

    let ms = |v: &[f64], p: f64| 1e3 * percentile(v, p);
    r.metric("setup_s", setup_s);
    r.metric("solve_s", median(&low_s));
    r.metric("iters_to_tol", refr.iters as f64);
    r.metric("units_per_s", 1.0 / median(&low_s));
    r.metric("lat_p50_ms.low", ms(&low_s, 50.0));
    r.ungated("lat_p99_ms.low", ms(&low_s, tail_percentile(low_s.len())), "ms");
    r.metric("lat_p50_ms.high", ms(&high_s, 50.0));
    r.ungated("lat_p99_ms.high", ms(&high_s, tail_percentile(high_s.len())), "ms");
    r.metric("max_rate_rps", lanes as f64 / median(&rounds));
    r.note(format!("setup s, raw: p50={setup_raw:.6}"));
    r.note(format!("solve s, low, paced: {}", describe(&low_s)));
    r.note(format!("solve s, low, raw: {}", describe(&pace::raw(&low))));
    r.note(format!("solve s, high ({lanes} in flight), paced: {}", describe(&high_s)));
    r.note(format!("solve s, high ({lanes} in flight), raw: {}", describe(&pace::raw(&high))));
    r
}
