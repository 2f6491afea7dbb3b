//! Extension experiment: beyond the single-transient model — *sticky*
//! and *persistent* faults (the other leaves of the paper's Fig.-1
//! taxonomy).
//!
//! The paper's analysis is explicitly a baseline for conjecturing about
//! multiple SDC events (§II-A, item 2). This binary measures that
//! conjecture: the same FT-GMRES stack under (a) sticky faults — the
//! corruptor fires on every matching site within a window of inner
//! iterations, then the "hardware" heals — and (b) persistent faults.
//! Three defense configurations are compared: no detector, the Eq.-3
//! detector with inner restarts, and detector + Halt (loud stop).
//!
//! Usage: `sticky_faults [--quick]`

use sdc_bench::render::CliArgs;
use sdc_faults::trigger::{LoopPosition, SitePredicate, Trigger};
use sdc_faults::{FaultModel, SingleFaultInjector};
use sdc_gmres::prelude::*;
use sdc_sparse::gallery;

fn main() {
    let args = CliArgs::parse();
    let quick = args.quick;
    let m = if quick { 16 } else { 50 };
    let inner = if quick { 8 } else { 25 };

    let a = gallery::poisson2d(m);
    let ones = vec![1.0; a.ncols()];
    let mut b = vec![0.0; a.nrows()];
    a.par_spmv(&ones, &mut b);
    // Solve through the chosen storage engine (bitwise-invisible; CSR
    // stays the source for detector bounds and residual checks).
    let op = sdc_sparse::FormatMatrix::convert(&a, args.format);

    let base = FtGmresConfig {
        outer: sdc_gmres::fgmres::FgmresConfig { tol: 1e-8, max_outer: 80, ..Default::default() },
        inner_iters: inner,
        ..Default::default()
    };
    let (_, ff) = sdc_gmres::ftgmres::ftgmres_solve(&op, &b, None, &base);
    println!(
        "Poisson {m}x{m}, {inner} inner iterations/outer; failure-free = {} outer\n",
        ff.iterations
    );
    println!(
        "{:<34} {:<14} {:>6} {:>9} {:>9} {:>10} {:>12}",
        "fault duration", "defense", "outer", "detected", "restarts", "rejected", "outcome"
    );

    // Sticky windows of growing duration (number of corrupted matches of
    // h_{1,j} sites), plus fully persistent corruption.
    let durations: &[(&str, Option<(u64, u64)>)] = &[
        ("transient (1 event)", Some((1, 1))),
        ("sticky (5 events)", Some((1, 5))),
        ("sticky (25 events)", Some((1, 25))),
        ("sticky (125 events)", Some((1, 125))),
        ("persistent (all events)", None),
    ];

    for &(label, window) in durations {
        for (defense, detector) in [
            ("none", None),
            ("detector+restart", Some(DetectorResponse::RestartInner)),
            ("detector+halt", Some(DetectorResponse::Halt)),
        ] {
            let pred = SitePredicate {
                kernel: Some(sdc_faults::Kernel::OrthoDot),
                outer_iteration: None,
                inner_solve: None,
                inner_iteration: None,
                loop_position: LoopPosition::First,
            };
            let trigger = match window {
                Some((from, to)) => Trigger::sticky(pred, from, to),
                None => Trigger::always(pred),
            };
            let inj = SingleFaultInjector::new(FaultModel::CLASS1_HUGE, trigger);
            let mut cfg = base;
            cfg.inner_detector =
                detector.map(|resp| SdcDetector::for_precond(&a, &BuiltPrecond::None, resp));
            let (x, rep) =
                sdc_gmres::ftgmres::ftgmres_solve_instrumented(&op, &b, None, &cfg, &inj);
            let mut r = vec![0.0; b.len()];
            sdc_gmres::operator::residual(&a, &b, &x, &mut r);
            let rel = sdc_dense::vector::nrm2(&r) / sdc_dense::vector::nrm2(&b).max(1e-300);
            let outcome = match &rep.outcome {
                SolveOutcome::Converged | SolveOutcome::InvariantSubspace => {
                    if rel <= 1e-6 {
                        "correct".to_string()
                    } else {
                        format!("WRONG ({rel:.1e})")
                    }
                }
                SolveOutcome::Halted(_) => "halted-loud".to_string(),
                other => other.label().chars().take(12).collect(),
            };
            println!(
                "{label:<34} {defense:<14} {:>6} {:>9} {:>9} {:>10} {:>12}",
                rep.iterations,
                rep.detector_events.len(),
                rep.detector_restarts,
                rep.inner_rejections,
                outcome
            );
        }
        println!();
    }

    println!("reading: FT-GMRES runs through short sticky bursts with modest cost; under");
    println!("persistent corruption the restart response saturates (restart cap) and the");
    println!("honest outcomes are either slow convergence on rejected inner solves or a");
    println!("loud halt — never a silently wrong answer.");
}
