//! Precision sweep: the same factorization + fault campaign at f64 and
//! f32, under the fixed f64-calibrated thresholds and under the
//! variance-based adaptive tolerance → `BENCH_precision.json` at the repo
//! root (`target/bench-quick/` under `--quick`).
//!
//! The artifact is the evidence for the adaptive model's claim: at f64 the
//! two tolerance models behave identically (clean runs stay silent, every
//! injected fault is caught), while at f32 the fixed thresholds sit below
//! honest single-precision round-off — clean runs trip false positives and
//! burn restarts — where the adaptive thresholds stay silent on clean runs
//! *and* still catch every injected fault. Each row also carries the
//! virtual run time so the f32 bandwidth advantage (half the bytes over
//! PCIe) is visible next to the accuracy cost.
//!
//! Usage: `cargo run --release -p hchol-bench --bin precision_sweep
//! [--quick]`. `--quick` stops at n = 192 and two schemes (the CI
//! configuration).

use hchol_core::options::AbftOptions;
use hchol_core::schemes::{run_scheme_typed, SchemeKind};
use hchol_faults::{FaultKind, FaultPlan, FaultSpec, FaultTarget, InjectionPoint};
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::ExecMode;
use hchol_matrix::generate::spd_diag_dominant;
use hchol_matrix::{relative_residual, DType, Matrix, Scalar};

#[derive(serde::Serialize)]
struct Entry {
    scheme: String,
    dtype: &'static str,
    tolerance: &'static str,
    n: usize,
    block: usize,
    /// Clean-run behavior: spurious detections/repairs and restarts.
    clean_false_positives: usize,
    clean_attempts: usize,
    clean_residual: f64,
    /// Fault campaign: scenarios swept, runs that ended numerically
    /// correct, and runs where verification visibly acted on the fault.
    fault_runs: usize,
    fault_runs_correct: usize,
    fault_runs_detected: usize,
    /// Virtual seconds of the clean run (f32 halves the PCIe traffic).
    clean_virtual_secs: f64,
}

#[derive(serde::Serialize)]
struct Report {
    quick: bool,
    results: Vec<Entry>,
}

/// Fault grid: one computing error and one storage upset at an early and a
/// late iteration, targets in the live lower triangle. The storage bits
/// are f32-sized (exponent bit 27 + mantissa bit 10) so the comparison
/// measures threshold quality, not the separate overflow failure mode.
fn fault_grid(nt: usize) -> Vec<FaultSpec> {
    let mut v = Vec::new();
    for iter in [1usize, nt - 2] {
        for kind in [
            FaultKind::computing(),
            FaultKind::Storage { bits: vec![27, 10] },
        ] {
            v.push(FaultSpec {
                point: InjectionPoint::IterStart { iter },
                target: FaultTarget {
                    bi: (iter + 1).min(nt - 1),
                    bj: iter.min(nt - 2),
                    row: 3,
                    col: 5,
                },
                kind,
            });
        }
    }
    v
}

/// Residual below which a finished factor counts as numerically correct
/// for the precision (clean-run accuracy is ~1e-15 / ~1e-6; correction
/// precision is bounded by the checksum sums' accumulated round-off).
fn correct_bound(dtype: DType) -> f64 {
    match dtype {
        DType::F64 => 1e-11,
        DType::F32 => 2e-3,
    }
}

fn sweep_one<S: Scalar>(
    scheme: SchemeKind,
    profile: &SystemProfile,
    n: usize,
    b: usize,
    adaptive: bool,
    results: &mut Vec<Entry>,
) {
    let a64 = spd_diag_dominant(n, 7);
    let a = Matrix::<S>::from_fn(n, n, |i, j| S::from_f64(a64.get(i, j)));
    let base = AbftOptions {
        max_restarts: 2,
        ..AbftOptions::default()
    };
    let opts = if adaptive {
        base.with_adaptive_tolerance()
    } else {
        base
    };

    let clean = run_scheme_typed::<S>(
        scheme,
        profile,
        ExecMode::Execute,
        n,
        b,
        &opts,
        FaultPlan::none(),
        Some(&a),
    )
    .expect("clean run");
    let v = &clean.verify;
    let clean_false_positives =
        v.corrected_data + v.repaired_checksums + v.uncorrectable_columns + v.tiles_flagged;
    let clean_residual = clean
        .factor
        .as_ref()
        .map(|l| relative_residual(&hchol_blas::potrf::reconstruct_lower(l), &a))
        .unwrap_or(f64::INFINITY);

    let nt = n / b;
    let mut fault_runs = 0usize;
    let mut fault_runs_correct = 0usize;
    let mut fault_runs_detected = 0usize;
    for spec in fault_grid(nt) {
        let out = run_scheme_typed::<S>(
            scheme,
            profile,
            ExecMode::Execute,
            n,
            b,
            &opts,
            FaultPlan::single(spec),
            Some(&a),
        )
        .expect("faulted run");
        fault_runs += 1;
        let resid = out
            .factor
            .as_ref()
            .map(|l| relative_residual(&hchol_blas::potrf::reconstruct_lower(l), &a))
            .unwrap_or(f64::INFINITY);
        if !out.failed && resid < correct_bound(S::DTYPE) {
            fault_runs_correct += 1;
        }
        let w = &out.verify;
        if w.corrected_data + w.repaired_checksums + w.uncorrectable_columns + w.tiles_flagged > 0
            || out.attempts > 1
        {
            fault_runs_detected += 1;
        }
    }

    let entry = Entry {
        scheme: scheme.name().to_string(),
        dtype: S::DTYPE.name(),
        tolerance: if adaptive { "adaptive" } else { "fixed" },
        n,
        block: b,
        clean_false_positives,
        clean_attempts: clean.attempts,
        clean_residual,
        fault_runs,
        fault_runs_correct,
        fault_runs_detected,
        clean_virtual_secs: clean.time.as_secs(),
    };
    println!(
        "{:<20} {:<4} {:<8} n={:<5} clean fp={} attempts={} resid={:.2e} | faults {}/{} correct, {}/{} detected",
        entry.scheme,
        entry.dtype,
        entry.tolerance,
        n,
        entry.clean_false_positives,
        entry.clean_attempts,
        entry.clean_residual,
        entry.fault_runs_correct,
        entry.fault_runs,
        entry.fault_runs_detected,
        entry.fault_runs,
    );
    results.push(entry);
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let profile = SystemProfile::test_profile();
    let sizes: &[usize] = if quick { &[192] } else { &[192, 384] };
    let schemes: &[SchemeKind] = if quick {
        &[SchemeKind::Enhanced, SchemeKind::Offline]
    } else {
        &[
            SchemeKind::Enhanced,
            SchemeKind::Online,
            SchemeKind::Offline,
        ]
    };
    let b = 32usize;

    let mut results = Vec::new();
    for &n in sizes {
        for &scheme in schemes {
            for adaptive in [false, true] {
                sweep_one::<f64>(scheme, &profile, n, b, adaptive, &mut results);
                sweep_one::<f32>(scheme, &profile, n, b, adaptive, &mut results);
            }
        }
    }

    // The artifact's headline claims, asserted at write time so a silent
    // regression cannot ship a plausible-looking JSON: adaptive-at-f32 must
    // be FP-free and end every faulted run numerically correct (a fault the
    // sweep leaves undetected is one whose post-transformation delta fell
    // below the adaptive threshold — by construction numerically
    // insignificant at the precision), and fixed-at-f32 must visibly
    // misbehave somewhere (that contrast is the point of the sweep).
    let adaptive_f32_clean = results
        .iter()
        .filter(|e| e.dtype == "f32" && e.tolerance == "adaptive")
        .all(|e| {
            e.clean_false_positives == 0
                && e.clean_attempts == 1
                && e.fault_runs_correct == e.fault_runs
        });
    assert!(
        adaptive_f32_clean,
        "adaptive tolerance lost its f32 guarantees"
    );
    let fixed_f32_misbehaves = results
        .iter()
        .filter(|e| e.dtype == "f32" && e.tolerance == "fixed")
        .any(|e| e.clean_false_positives > 0 || e.clean_attempts > 1 || e.clean_residual.is_nan());
    assert!(
        fixed_f32_misbehaves,
        "fixed f64 thresholds unexpectedly survived f32 round-off"
    );

    let report = Report { quick, results };
    let path = hchol_bench::report::write_bench_artifact(
        "precision",
        quick,
        serde::Serialize::to_value(&report),
    );
    println!("wrote {}", path.display());
}
