//! Extension experiment: SDC in the sparse matrix–vector product, and
//! the complementary blind spots of two detectors.
//!
//! Prior work (ref. 12, Shantharam et al., ref. 14, Sloan et al.) studies faults
//! in SpMV; the paper instead bounds the orthogonalization coefficients.
//! This binary injects single faults into SpMV *output elements* during
//! FT-GMRES inner solves and compares three defenses:
//!
//! * the paper's Hessenberg bound (catches only corruption large enough
//!   to push a projection coefficient past `‖A‖_F`),
//! * the Huang–Abraham column checksum on every inner product
//!   (catches any corruption above its rounding floor, costs `O(n)` per
//!   apply),
//! * the flexible outer iteration itself (runs through whatever neither
//!   detector catches).
//!
//! Usage: `spmv_faults [--quick]`

use sdc_bench::problems;
use sdc_bench::render::CliArgs;
use sdc_faults::trigger::LoopPosition;
use sdc_faults::{FaultModel, Kernel, SingleFaultInjector, SitePredicate, Trigger};
use sdc_gmres::instrumented::InstrumentedSpmv;
use sdc_gmres::prelude::*;

fn spmv_site(apply: usize, row: usize) -> SitePredicate {
    SitePredicate {
        kernel: Some(Kernel::SpMv),
        outer_iteration: None,
        inner_solve: None,
        inner_iteration: Some(apply),
        loop_position: LoopPosition::Index(row + 1),
    }
}

fn main() {
    let args = CliArgs::parse();
    let m = if args.quick { 20 } else { 60 };
    let problem = problems::poisson(m);
    let a = &problem.a;
    let b = &problem.b;
    let n = a.nrows();

    // Inner-solve-style fixed-iteration GMRES so every run does the same
    // work; faults strike the SpMV of iteration 6 at a middle row.
    let row = n / 2;
    let apply = 7; // initial residual + iterations 1..6 => 7th apply
    let faults: &[(&str, FaultModel)] = &[
        ("y += 1e-12 (sub-floor)", FaultModel::Offset(1e-12)),
        ("y += 1e-3", FaultModel::Offset(1e-3)),
        ("y += 1.0", FaultModel::Offset(1.0)),
        ("y *= 10", FaultModel::ScaleRelative(10.0)),
        ("y := 1e3", FaultModel::SetValue(1e3)),
        ("y := 1e120", FaultModel::SetValue(1e120)),
        ("bit flip 62 (exponent)", FaultModel::BitFlip { bit: 62 }),
        ("y := NaN", FaultModel::SetNan),
    ];

    let cfg = GmresConfig {
        tol: 0.0,
        max_iters: 25,
        detector: Some(SdcDetector::for_precond(a, &BuiltPrecond::None, DetectorResponse::Record)),
        ..Default::default()
    };
    // Fault-free reference. The --format choice picks the SpMV engine
    // (converted once, shared by every wrapper below); sites, checksums
    // and results are bitwise format-independent.
    let sell = match problem.resolved_format(args.format) {
        sdc_sparse::SparseFormat::Sell => Some(sdc_sparse::SellMatrix::from_csr(a)),
        _ => None,
    };
    fn engine<'a>(
        op: InstrumentedSpmv<'a>,
        sell: &'a Option<sdc_sparse::SellMatrix>,
    ) -> InstrumentedSpmv<'a> {
        match sell {
            Some(s) => op.with_sell(s),
            None => op,
        }
    }
    let op = engine(InstrumentedSpmv::new(a, &sdc_faults::NoFaults), &sell).with_checksum(1e-12);
    let (x_ref, _) = gmres_solve(&op, b, None, &cfg);

    println!("single SDC in one SpMV output element (row {row}, apply {apply}) during GMRES(25)");
    println!("matrix: {} | ‖A‖_F = {:.1} | engine: {}\n", problem.name, a.norm_fro(), op.format());
    println!(
        "{:<24} {:>10} {:>10} {:>14} {:>12}",
        "fault", "bound-det", "checksum", "iterate-drift", "finite"
    );
    for (label, model) in faults {
        let inj = SingleFaultInjector::new(*model, Trigger::once(spmv_site(apply, row)));
        let op = engine(InstrumentedSpmv::new(a, &inj), &sell).with_checksum(1e-12);
        let (x, rep) = gmres_solve_instrumented(
            &op,
            b,
            None,
            &cfg,
            &sdc_faults::NoFaults,
            SiteContext::default(),
        );
        let drift: f64 = x.iter().zip(x_ref.iter()).map(|(p, q)| (p - q).abs()).fold(0.0, f64::max);
        println!(
            "{label:<24} {:>10} {:>10} {:>14.3e} {:>12}",
            !rep.detector_events.is_empty(),
            !op.checksum_events().is_empty(),
            drift,
            x.iter().all(|v| v.is_finite()),
        );
        assert_eq!(inj.fired_count(), 1, "fault must commit");
    }

    println!("\nreading: the checksum audits the *product* (catches everything above its");
    println!("rounding floor, including faults the bound can never see); the Hessenberg");
    println!("bound audits the *theory* (catches exactly the coefficient values that are");
    println!("impossible, at no per-apply cost). Their blind spots are complementary, and");
    println!("the flexible outer iteration runs through whatever both miss.");
}
