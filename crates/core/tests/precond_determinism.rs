//! Bitwise thread-count determinism of the preconditioner vocabulary.
//!
//! The campaign engine's reproducibility contract extends through the
//! preconditioners: a Jacobi/ILU(0)/Chebyshev apply, and every solver
//! wrapped around one, must produce identical bits at any worker count.
//! (ILU(0) triangular solves are inherently sequential; Jacobi and
//! Chebyshev lean on the deterministic-reduction SpMV/axpy kernels.)
//! The Chebyshev apply runs its SpMVs on the engine `auto` picks, and
//! must match the same recurrence driven by serial CSR SpMVs.

use sdc_gmres::ftgmres::{ftgmres_solve_precond, FtGmresConfig};
use sdc_gmres::gmres::{gmres_solve_right_precond, GmresConfig};
use sdc_gmres::precond::{BuiltPrecond, PrecondKind, CHEBYSHEV_DEFAULT_DEGREE};
use sdc_sparse::gallery::{self, CircuitMnaConfig};
use sdc_sparse::{CsrMatrix, SparseFormat};

fn problem() -> (CsrMatrix, Vec<f64>) {
    let a = gallery::poisson2d(24);
    let ones = vec![1.0; a.ncols()];
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&ones, &mut b);
    (a, b)
}

#[test]
fn precond_apply_is_bitwise_thread_independent() {
    let _guard = sdc_parallel::test_serial_guard();
    let (a, _) = problem();
    let n = a.nrows();
    let q: Vec<f64> = (0..n).map(|i| (i as f64 * 0.43).sin() + 0.1).collect();
    for kind in [PrecondKind::Jacobi, PrecondKind::Ilu0, PrecondKind::Chebyshev] {
        let pc = BuiltPrecond::build(kind, &a).unwrap();
        sdc_parallel::set_threads(1);
        let mut reference = vec![0.0; n];
        pc.solve(&q, &mut reference);
        for t in [2usize, 4] {
            sdc_parallel::set_threads(t);
            let mut z = vec![f64::NAN; n];
            pc.solve(&q, &mut z);
            for i in 0..n {
                assert_eq!(
                    z[i].to_bits(),
                    reference[i].to_bits(),
                    "{kind} apply row {i} differs at {t} threads"
                );
            }
        }
    }
    sdc_parallel::set_threads(0);
}

#[test]
fn preconditioned_solves_are_bitwise_thread_independent() {
    let _guard = sdc_parallel::test_serial_guard();
    let (a, b) = problem();
    let gmres_cfg = GmresConfig { tol: 1e-8, max_iters: 400, ..Default::default() };
    let ft_cfg = FtGmresConfig {
        outer: sdc_gmres::fgmres::FgmresConfig { tol: 1e-7, max_outer: 60, ..Default::default() },
        inner_iters: 10,
        ..Default::default()
    };
    for kind in PrecondKind::all() {
        let pc = BuiltPrecond::build(kind, &a).unwrap();

        sdc_parallel::set_threads(1);
        let (x_ref, rep_ref) = gmres_solve_right_precond(&a, &b, None, &gmres_cfg, &pc);
        let (ft_ref, ft_rep_ref) =
            ftgmres_solve_precond(&a, &b, None, &ft_cfg, &pc, &sdc_faults::NoFaults);
        assert!(rep_ref.outcome.is_converged(), "{kind} gmres baseline must converge");
        assert!(ft_rep_ref.outcome.is_converged(), "{kind} ftgmres baseline must converge");

        sdc_parallel::set_threads(4);
        let (x4, rep4) = gmres_solve_right_precond(&a, &b, None, &gmres_cfg, &pc);
        let (ft4, ft_rep4) =
            ftgmres_solve_precond(&a, &b, None, &ft_cfg, &pc, &sdc_faults::NoFaults);

        assert_eq!(rep_ref.iterations, rep4.iterations, "{kind} gmres iteration count");
        assert_eq!(ft_rep_ref.iterations, ft_rep4.iterations, "{kind} ftgmres outer count");
        assert!(
            x_ref.iter().zip(&x4).all(|(p, q)| p.to_bits() == q.to_bits()),
            "{kind} gmres solution differs between 1 and 4 threads"
        );
        assert!(
            ft_ref.iter().zip(&ft4).all(|(p, q)| p.to_bits() == q.to_bits()),
            "{kind} ftgmres solution differs between 1 and 4 threads"
        );
    }
    sdc_parallel::set_threads(0);
}

/// The Chebyshev semi-iteration `z = p(A)·q` written out over serial
/// CSR SpMVs.
fn chebyshev_csr_reference(a: &CsrMatrix, theta: f64, delta: f64, q: &[f64]) -> Vec<f64> {
    let n = a.nrows();
    let sigma = theta / delta;
    let mut rho = 1.0 / sigma;
    let mut d: Vec<f64> = q.iter().map(|&v| v / theta).collect();
    let mut z = d.clone();
    let mut az = vec![0.0; n];
    for _ in 2..=CHEBYSHEV_DEFAULT_DEGREE {
        a.spmv(&z, &mut az);
        let rho_new = 1.0 / (2.0 * sigma - rho);
        let (dd, dr) = (rho_new * rho, 2.0 * rho_new / delta);
        for i in 0..n {
            d[i] = dd * d[i] + dr * (q[i] - az[i]);
            z[i] += d[i];
        }
        rho = rho_new;
    }
    z
}

#[test]
fn chebyshev_apply_matches_csr_reference_on_either_engine() {
    let _guard = sdc_parallel::test_serial_guard();
    // poisson2d(64) has 20,224 nonzeros and fill 1.006: SELL at either
    // ISA's `auto` thresholds. The 500-node circuit has ragged rows and
    // stays under either ISA's SELL size cutoff, so it keeps CSR.
    let circuit = gallery::circuit_mna(&CircuitMnaConfig { nodes: 500, ..Default::default() });
    for (a, engine) in [(gallery::poisson2d(64), SparseFormat::Sell), (circuit, SparseFormat::Csr)]
    {
        let n = a.nrows();
        let BuiltPrecond::Chebyshev(pc) = BuiltPrecond::build(PrecondKind::Chebyshev, &a).unwrap()
        else {
            unreachable!("a Chebyshev build yields the Chebyshev variant")
        };
        assert_eq!(pc.format(), engine, "n={n}");
        let (theta, delta) = pc.center_and_half_width();
        let q: Vec<f64> = (0..n).map(|i| (i as f64 * 0.43).sin() + 0.1).collect();
        let reference = chebyshev_csr_reference(&a, theta, delta, &q);
        for t in [1usize, 4] {
            sdc_parallel::set_threads(t);
            let mut z = vec![f64::NAN; n];
            pc.solve(&q, &mut z);
            for i in 0..n {
                assert_eq!(
                    z[i].to_bits(),
                    reference[i].to_bits(),
                    "{engine} apply row {i} differs from the CSR reference at {t} threads"
                );
            }
        }
    }
    sdc_parallel::set_threads(0);
}
