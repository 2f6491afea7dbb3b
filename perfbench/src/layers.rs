//! Per-layer timing taken from outside the solvers.
//!
//! The solvers already call through two public trait objects: every
//! `y = A·x` goes through a [`LinearOperator`] and every orthogonalization
//! coefficient `h_ij` goes through [`FaultInjector::corrupt`]. Wrapping
//! both, and timing each direct call into the preconditioner, splits a
//! solve into SpMV, preconditioner apply, orthogonalization and the rest
//! without touching the solver's code. The wrappers return exactly what
//! they wrap, so a traced solve computes the same bits as an untraced one.

use sdc_faults::{FaultInjector, InjectionRecord, Kernel, Site};
use sdc_gmres::operator::LinearOperator;
use sdc_gmres::precond::BuiltPrecond;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// Counters for one traced solve. Atomics (relaxed: they publish no other
/// data) because the trait objects must be `Sync`.
#[derive(Default)]
pub struct Layers {
    pub spmv_calls: AtomicU64,
    spmv_ns: AtomicU64,
    pub precond_calls: AtomicU64,
    precond_ns: AtomicU64,
    /// Every `h_ij` and `h_{j+1,j}` that passed through the injector.
    pub ortho_coeffs: AtomicU64,
    /// The `h_{j+1,j}` norms among them (one per Arnoldi column).
    pub ortho_norms: AtomicU64,
    ortho_ns: AtomicU64,
    /// Corruptions the wrapped injector actually committed.
    pub faults: AtomicU64,
    /// End of the most recent SpMV: an Arnoldi column's orthogonalization
    /// runs from there to the column's `OrthoNorm` site.
    last_spmv_end: Mutex<Option<Instant>>,
}

fn add_ns(c: &AtomicU64, since: Instant, until: Instant) {
    c.fetch_add(until.duration_since(since).as_nanos() as u64, Relaxed);
}

fn secs(c: &AtomicU64) -> f64 {
    c.load(Relaxed) as f64 * 1e-9
}

impl Layers {
    pub fn spmv_s(&self) -> f64 {
        secs(&self.spmv_ns)
    }
    pub fn precond_s(&self) -> f64 {
        secs(&self.precond_ns)
    }
    pub fn ortho_s(&self) -> f64 {
        secs(&self.ortho_ns)
    }

    fn spmv_done(&self, t0: Instant) {
        let t1 = Instant::now();
        self.spmv_calls.fetch_add(1, Relaxed);
        add_ns(&self.spmv_ns, t0, t1);
        *self.last_spmv_end.lock().expect("no panics while holding the span lock") = Some(t1);
    }

    /// Times one preconditioner apply `z = M⁻¹ q`.
    pub fn precond(&self, m: &BuiltPrecond, q: &[f64], z: &mut [f64]) {
        let t0 = Instant::now();
        m.solve(q, z);
        self.precond_calls.fetch_add(1, Relaxed);
        add_ns(&self.precond_ns, t0, Instant::now());
    }

    /// The layer spans of one traced solve that took `solve_s` seconds.
    /// Self time is what no wrapped layer covers (least squares, Givens
    /// rotations, residual bookkeeping, allocation, the outer FGMRES).
    pub fn split(&self, solve_s: f64) -> Split {
        let (spmv, precond, ortho) = (self.spmv_s(), self.precond_s(), self.ortho_s());
        Split {
            solve: solve_s,
            spmv,
            precond,
            ortho,
            krylov_self: solve_s - spmv - precond - ortho,
        }
    }
}

/// One solve's wall time and the layers that make it up.
#[derive(Clone, Copy, Debug, Default)]
pub struct Split {
    pub solve: f64,
    pub spmv: f64,
    pub precond: f64,
    pub ortho: f64,
    pub krylov_self: f64,
}

impl Split {
    /// True when the wrapped spans fit inside the solve span: they are
    /// disjoint by construction, so an overlap would mean a wrapper
    /// counted time twice.
    pub fn consistent(&self) -> bool {
        self.krylov_self >= 0.0 && self.spmv >= 0.0 && self.precond >= 0.0 && self.ortho >= 0.0
    }

    pub fn add(&mut self, o: &Split) {
        self.solve += o.solve;
        self.spmv += o.spmv;
        self.precond += o.precond;
        self.ortho += o.ortho;
        self.krylov_self += o.krylov_self;
    }
}

/// `y = A·x`, timed.
pub struct TimedOp<'a, A: LinearOperator + ?Sized> {
    pub a: &'a A,
    pub layers: &'a Layers,
}

impl<A: LinearOperator + ?Sized> LinearOperator for TimedOp<'_, A> {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }
    fn ncols(&self) -> usize {
        self.a.ncols()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let t0 = Instant::now();
        self.a.apply(x, y);
        self.layers.spmv_done(t0);
    }
}

/// `y = A·M⁻¹·u`, composed exactly as `gmres_solve_right_precond` composes
/// it (a fresh zeroed `z`, then the preconditioner, then the SpMV), with
/// both halves timed.
pub struct TimedRightPrecondOp<'a, A: LinearOperator + ?Sized> {
    pub a: &'a A,
    pub m: &'a BuiltPrecond,
    pub layers: &'a Layers,
}

impl<A: LinearOperator + ?Sized> LinearOperator for TimedRightPrecondOp<'_, A> {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }
    fn ncols(&self) -> usize {
        self.a.ncols()
    }
    fn apply(&self, u: &[f64], y: &mut [f64]) {
        let mut z = vec![0.0; u.len()];
        self.layers.precond(self.m, u, &mut z);
        let t0 = Instant::now();
        self.a.apply(&z, y);
        self.layers.spmv_done(t0);
    }
}

/// Delegates every site to `inner`, counting coefficients and closing the
/// orthogonalization span of a column at its `OrthoNorm` site.
pub struct TimedInjector<'a> {
    pub inner: &'a dyn FaultInjector,
    pub layers: &'a Layers,
}

impl FaultInjector for TimedInjector<'_> {
    fn corrupt(&self, site: Site, value: f64) -> f64 {
        let out = self.inner.corrupt(site, value);
        if out.to_bits() != value.to_bits() {
            self.layers.faults.fetch_add(1, Relaxed);
        }
        match site.kernel {
            Kernel::OrthoDot => {
                self.layers.ortho_coeffs.fetch_add(1, Relaxed);
            }
            Kernel::OrthoNorm => {
                let now = Instant::now();
                self.layers.ortho_coeffs.fetch_add(1, Relaxed);
                self.layers.ortho_norms.fetch_add(1, Relaxed);
                let start = self
                    .layers
                    .last_spmv_end
                    .lock()
                    .expect("no panics while holding the span lock")
                    .take();
                if let Some(t0) = start {
                    add_ns(&self.layers.ortho_ns, t0, now);
                }
            }
            _ => {}
        }
        out
    }

    fn records(&self) -> Vec<InjectionRecord> {
        self.inner.records()
    }
}

/// Bytes one CSR SpMV must move at minimum (computed, not measured):
/// values and column indices once, row pointers once, `x` read and `y`
/// written once.
pub fn spmv_bytes(n: usize, nnz: usize) -> f64 {
    (nnz * (8 + std::mem::size_of::<usize>()) + (n + 1) * std::mem::size_of::<usize>() + 16 * n)
        as f64
}

impl Layers {
    /// Bytes the orthogonalization moved under modified Gram-Schmidt
    /// (computed): each `h_ij` is a dot that reads `q_i` and `v` plus an
    /// axpy that reads both and writes `v` — five streams of `n` doubles;
    /// each norm reads `v` once.
    pub fn ortho_bytes(&self, n: usize) -> f64 {
        let norms = self.ortho_norms.load(Relaxed);
        let dots = self.ortho_coeffs.load(Relaxed) - norms;
        (dots * 40 + norms * 8) as f64 * n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdc_gmres::gmres::{gmres_solve, gmres_solve_instrumented, GmresConfig, SiteContext};
    use sdc_gmres::precond::PrecondKind;
    use sdc_sparse::gallery;

    #[test]
    fn spans_sum_to_the_traced_solve_and_bits_match() {
        let a = gallery::poisson2d(24);
        let b: Vec<f64> = (0..a.nrows()).map(|i| ((i * 7919) % 97) as f64 / 97.0 - 0.5).collect();
        let cfg = GmresConfig { tol: 1e-8, max_iters: 400, ..Default::default() };
        let (x_plain, rep_plain) = gmres_solve(&a, &b, None, &cfg);

        let layers = Layers::default();
        let op = TimedOp { a: &a, layers: &layers };
        let inj = TimedInjector { inner: &sdc_faults::NoFaults, layers: &layers };
        let t = Instant::now();
        let (x, rep) = gmres_solve_instrumented(&op, &b, None, &cfg, &inj, SiteContext::default());
        let split = layers.split(t.elapsed().as_secs_f64());

        assert!(x.iter().zip(&x_plain).all(|(p, q)| p.to_bits() == q.to_bits()));
        assert_eq!(rep.iterations, rep_plain.iterations);
        assert!(split.consistent(), "{split:?}");
        let sum = split.spmv + split.precond + split.ortho + split.krylov_self;
        assert!((sum - split.solve).abs() <= 1e-12 * split.solve.max(1.0));
        // One SpMV per iteration, plus the cycle-start and exit residuals.
        let k = rep.iterations as u64;
        assert_eq!(layers.spmv_calls.load(Relaxed), k + 2);
        // MGS: column j makes j dot coefficients and one norm.
        assert_eq!(layers.ortho_coeffs.load(Relaxed), k * (k + 1) / 2 + k);
        assert!(split.ortho > 0.0 && split.spmv > 0.0);
    }

    #[test]
    fn composed_right_precond_matches_the_library_path() {
        let a = gallery::poisson2d(20);
        let b: Vec<f64> = (0..a.nrows()).map(|i| (i % 13) as f64 - 6.0).collect();
        let m = BuiltPrecond::build(PrecondKind::Chebyshev, &a).expect("chebyshev builds");
        let cfg = GmresConfig { tol: 1e-8, max_iters: 200, ..Default::default() };
        let (x_lib, rep_lib) = sdc_gmres::gmres::gmres_solve_right_precond(&a, &b, None, &cfg, &m);

        let layers = Layers::default();
        let op = TimedRightPrecondOp { a: &a, m: &m, layers: &layers };
        let inj = TimedInjector { inner: &sdc_faults::NoFaults, layers: &layers };
        let (u, rep) = gmres_solve_instrumented(&op, &b, None, &cfg, &inj, SiteContext::default());
        let mut x = vec![0.0; u.len()];
        layers.precond(&m, &u, &mut x);

        assert!(x.iter().zip(&x_lib).all(|(p, q)| p.to_bits() == q.to_bits()));
        assert_eq!(rep.iterations, rep_lib.iterations);
        // One apply per operator application, plus the final `x = M⁻¹u`.
        assert_eq!(layers.precond_calls.load(Relaxed), layers.spmv_calls.load(Relaxed) + 1);
    }
}
