//! Integration: degenerate and boundary configurations every driver must
//! handle — single-tile matrices, two-tile grids, block = n, K larger than
//! the iteration count, zero-restart budgets, and caller input the
//! simulated drivers cannot take.

use hchol::prelude::*;
use hchol_blas::potrf::reconstruct_lower;
use hchol_core::magma::factor_magma;
use hchol_core::schemes::run_clean_typed;
use hchol_matrix::generate::spd_diag_dominant;
use hchol_matrix::relative_residual;
use hchol_matrix::MatrixError;

fn check_correct(out: &FactorOutcome, a: &hchol_matrix::Matrix, label: &str) {
    let l = out.factor.as_ref().expect("factor");
    let r = relative_residual(&reconstruct_lower(l), a);
    assert!(r < 1e-12, "{label}: residual {r:.2e}");
}

#[test]
fn single_tile_matrix_works_for_all_schemes() {
    // nt = 1: no SYRK, no GEMM, no TRSM — just the POTF2 round trip.
    let n = 16;
    let a = spd_diag_dominant(n, 1);
    let p = SystemProfile::test_profile();
    for kind in SchemeKind::all() {
        let out = run_clean(
            kind,
            &p,
            ExecMode::Execute,
            n,
            n,
            &AbftOptions::default(),
            Some(&a),
        )
        .expect("single tile");
        assert_eq!(out.attempts, 1);
        check_correct(&out, &a, kind.name());
    }
}

#[test]
fn two_tile_grid_works_for_all_schemes() {
    let n = 16;
    let a = spd_diag_dominant(n, 2);
    let p = SystemProfile::test_profile();
    for kind in SchemeKind::all() {
        let out = run_clean(
            kind,
            &p,
            ExecMode::Execute,
            n,
            n / 2,
            &AbftOptions::default(),
            Some(&a),
        )
        .expect("two tiles");
        check_correct(&out, &a, kind.name());
    }
}

#[test]
fn k_larger_than_iteration_count_still_correct_when_clean() {
    let n = 64;
    let a = spd_diag_dominant(n, 3);
    let p = SystemProfile::test_profile();
    let opts = AbftOptions::default().with_interval(1000);
    let out = run_clean(
        SchemeKind::Enhanced,
        &p,
        ExecMode::Execute,
        n,
        16,
        &opts,
        Some(&a),
    )
    .expect("huge K");
    assert_eq!(out.attempts, 1);
    check_correct(&out, &a, "K=1000");
}

#[test]
fn zero_restart_budget_reports_failure_instead_of_looping() {
    let n = 64;
    let b = 16;
    let a = spd_diag_dominant(n, 4);
    let p = SystemProfile::test_profile();
    let opts = AbftOptions {
        max_restarts: 0,
        ..AbftOptions::default()
    };
    // Offline cannot correct a propagated computing error; with no restarts
    // allowed it must end `failed` rather than retry.
    let out = run_scheme(
        SchemeKind::Offline,
        &p,
        ExecMode::Execute,
        n,
        b,
        &opts,
        FaultPlan::paper_computing_error(n / b, b),
        Some(&a),
    )
    .expect("run completes");
    assert!(out.failed);
    assert_eq!(out.attempts, 1);
}

#[test]
fn genuinely_indefinite_input_is_an_error_not_a_retry_loop() {
    let n = 32;
    let mut a = spd_diag_dominant(n, 5);
    a.set(17, 17, -100.0); // break positive definiteness for real
    let p = SystemProfile::test_profile();
    for kind in SchemeKind::all() {
        let r = run_clean(
            kind,
            &p,
            ExecMode::Execute,
            n,
            8,
            &AbftOptions::default(),
            Some(&a),
        );
        assert!(
            matches!(
                r,
                Err(hchol_matrix::MatrixError::NotPositiveDefinite { .. })
            ),
            "{} must report the indefinite input",
            kind.name()
        );
    }
}

#[test]
fn tiny_blocks_exercise_deep_grids() {
    let n = 64;
    let a = spd_diag_dominant(n, 6);
    let p = SystemProfile::test_profile();
    let out = run_clean(
        SchemeKind::Enhanced,
        &p,
        ExecMode::Execute,
        n,
        4, // nt = 16 with 4x4 tiles
        &AbftOptions::default(),
        Some(&a),
    )
    .expect("deep grid");
    check_correct(&out, &a, "B=4");
}

#[test]
fn fault_on_the_first_and_last_iterations() {
    let n = 96;
    let b = 16;
    let nt = n / b;
    let a = spd_diag_dominant(n, 7);
    let p = SystemProfile::test_profile();
    for iter in [0usize, nt - 1] {
        let plan = FaultPlan::single(FaultSpec {
            point: hchol_faults::InjectionPoint::IterStart { iter },
            target: hchol_faults::FaultTarget {
                bi: nt - 1,
                bj: if iter == 0 { 0 } else { iter - 1 },
                row: 1,
                col: 2,
            },
            kind: FaultKind::storage(),
        });
        let out = run_scheme(
            SchemeKind::Enhanced,
            &p,
            ExecMode::Execute,
            n,
            b,
            &AbftOptions::default(),
            plan,
            Some(&a),
        )
        .expect("boundary iteration");
        assert_eq!(out.attempts, 1, "iter {iter}");
        check_correct(&out, &a, &format!("iter {iter}"));
    }
}

#[test]
fn cpu_and_inline_placements_produce_identical_factors() {
    let n = 64;
    let b = 16;
    let a = spd_diag_dominant(n, 8);
    let p = SystemProfile::test_profile();
    let mut factors = Vec::new();
    for placement in [
        ChecksumPlacement::Gpu,
        ChecksumPlacement::Cpu,
        ChecksumPlacement::Inline,
    ] {
        let opts = AbftOptions::default().with_placement(placement);
        let out = run_clean(
            SchemeKind::Enhanced,
            &p,
            ExecMode::Execute,
            n,
            b,
            &opts,
            Some(&a),
        )
        .expect("placement variant");
        factors.push(out.factor.unwrap());
    }
    assert_eq!(factors[0], factors[1], "placement must not change numerics");
    assert_eq!(factors[1], factors[2]);
}

/// Input the simulated drivers cannot take is refused with a typed error
/// at setup — never an assertion panic deep in the checksum code.
#[test]
fn bad_caller_input_is_a_typed_error_not_a_panic() {
    let p = SystemProfile::test_profile();
    let opts = AbftOptions::default();
    let run = |n: usize, b: usize, input: Option<&Matrix>| {
        run_clean(
            SchemeKind::Enhanced,
            &p,
            ExecMode::Execute,
            n,
            b,
            &opts,
            input,
        )
    };
    let a = spd_diag_dominant(64, 5);

    // No input in Execute mode.
    assert!(matches!(
        run(64, 16, None),
        Err(MatrixError::UnsupportedConfig(_))
    ));
    // An input that is not n × n.
    assert!(matches!(
        run(48, 16, Some(&a)),
        Err(MatrixError::ShapeMismatch { .. })
    ));
    // A partial last tile (n % b != 0), in both modes and on the baseline.
    let ragged = spd_diag_dominant(100, 6);
    assert!(matches!(
        run(100, 32, Some(&ragged)),
        Err(MatrixError::UnsupportedConfig(_))
    ));
    assert!(matches!(
        run_clean(
            SchemeKind::Online,
            &p,
            ExecMode::TimingOnly,
            100,
            32,
            &opts,
            None
        ),
        Err(MatrixError::UnsupportedConfig(_))
    ));
    assert!(matches!(
        factor_magma(&p, ExecMode::Execute, 100, 32, Some(&ragged), false),
        Err(MatrixError::UnsupportedConfig(_))
    ));
    // A zero block size.
    assert!(matches!(
        run(64, 0, Some(&a)),
        Err(MatrixError::ZeroBlockSize)
    ));
    // A NaN or an infinity in the input, at both precisions: refused up
    // front instead of burning every restart.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut poisoned = a.clone();
        poisoned.set(37, 21, bad);
        assert!(matches!(
            run(64, 16, Some(&poisoned)),
            Err(MatrixError::NonFiniteInput { index: (37, 21) })
        ));
        let single = Matrix::<f32>::from_fn(64, 64, |i, j| poisoned.get(i, j) as f32);
        assert!(matches!(
            run_clean_typed(
                SchemeKind::Online,
                &p,
                ExecMode::Execute,
                64,
                16,
                &opts.clone().with_adaptive_tolerance(),
                Some(&single),
            ),
            Err(MatrixError::NonFiniteInput { index: (37, 21) })
        ));
    }
    // Adaptive-K bounds that cannot be satisfied (the fields are public,
    // so the normalizing builder can be bypassed).
    for (k_min, k_max) in [(1, 0), (6, 2)] {
        let bounds = BalanceOptions {
            k_min,
            k_max,
            ..BalanceOptions::default()
        };
        assert!(matches!(
            run_clean(
                SchemeKind::Enhanced,
                &p,
                ExecMode::Execute,
                64,
                16,
                &opts.clone().with_balance(bounds),
                Some(&a),
            ),
            Err(MatrixError::UnsupportedConfig(_))
        ));
    }
}

/// A non-finite or out-of-range tolerance parameter would silence
/// detection: the quickstart's storage fault then slips through and the
/// run returns a wrong factor as a success. Such options are refused up
/// front instead.
#[test]
fn non_finite_tolerance_is_refused_not_a_silent_wrong_factor() {
    use hchol_core::options::{AdaptiveTolerance, ToleranceModel};
    use hchol_faults::{FaultTarget, InjectionPoint};

    let (n, b) = (512usize, 32usize);
    let a = spd_diag_dominant(n, 1);
    let storage_fault = FaultPlan::single(FaultSpec {
        point: InjectionPoint::IterStart { iter: 12 },
        target: FaultTarget {
            bi: 13,
            bj: 7,
            row: 5,
            col: 9,
        },
        kind: FaultKind::storage(),
    });
    let adaptive =
        |alpha: f64, floor: f64| ToleranceModel::Adaptive(AdaptiveTolerance { alpha, floor });
    let fixed = |abs_tol: f64, rel_tol: f64, locate_tol: f64| {
        ToleranceModel::Fixed(VerifyPolicy {
            abs_tol,
            rel_tol,
            locate_tol,
        })
    };
    let d = VerifyPolicy::default();
    let bad = [
        adaptive(f64::NAN, AdaptiveTolerance::default().floor),
        adaptive(f64::INFINITY, AdaptiveTolerance::default().floor),
        adaptive(0.0, AdaptiveTolerance::default().floor),
        adaptive(-1.0, AdaptiveTolerance::default().floor),
        adaptive(AdaptiveTolerance::default().alpha, f64::NAN),
        adaptive(AdaptiveTolerance::default().alpha, f64::INFINITY),
        adaptive(AdaptiveTolerance::default().alpha, -1.0),
        fixed(f64::NAN, d.rel_tol, d.locate_tol),
        fixed(d.abs_tol, f64::INFINITY, d.locate_tol),
        fixed(d.abs_tol, d.rel_tol, f64::NAN),
    ];
    for tolerance in bad {
        for kind in [SchemeKind::Enhanced, SchemeKind::Offline] {
            let out = run_scheme(
                kind,
                &SystemProfile::tardis(),
                ExecMode::Execute,
                n,
                b,
                &AbftOptions::default().with_tolerance(tolerance),
                storage_fault.clone(),
                Some(&a),
            );
            assert!(
                matches!(out, Err(MatrixError::UnsupportedConfig(_))),
                "{kind:?} with {tolerance:?}: {:?}",
                out.map(|o| (o.failed, o.attempts))
            );
        }
    }
}
