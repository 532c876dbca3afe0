//! Per-layer microbenchmarks on single tiles: BLAS kernel rates and
//! checksum encode/verify cost. They run in traced runs only, after the
//! measured passes.

use crate::stats::median;
use hchol_blas::{flops, gemm, potf2, syrk, trsm};
use hchol_core::checksum::{encode, encode_into};
use hchol_core::verify::{verify_and_correct, TileTolerance, VerifyPolicy};
use hchol_matrix::generate::{spd_diag_dominant, uniform};
use hchol_matrix::{Diag, Matrix, Scalar, Side, Trans, Uplo};
use std::hint::black_box;
use std::time::Instant;

/// Timed calls per kernel.
const REPS: usize = 60;

/// Median seconds of `call` over `REPS` calls, restoring state with
/// `reset` (untimed) before each.
fn time_calls<T>(
    state: &mut T,
    mut reset: impl FnMut(&mut T),
    mut call: impl FnMut(&mut T),
) -> f64 {
    let mut v = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        reset(state);
        let t = Instant::now();
        call(state);
        v.push(t.elapsed().as_secs_f64());
    }
    median(&v)
}

fn restore<S: Scalar>(dst: &mut Matrix<S>, src: &Matrix<S>) {
    dst.as_mut_slice().copy_from_slice(src.as_slice());
}

/// GFLOP/s of GEMM, SYRK, TRSM and POTF2 on `b`×`b` tiles at precision `S`,
/// in the shapes the factorization's trailing update uses.
pub fn blas_gflops<S: Scalar>(b: usize) -> [f64; 4] {
    let a: Matrix<S> = uniform(b, b, -1.0, 1.0, 11).cast();
    let bm: Matrix<S> = uniform(b, b, -1.0, 1.0, 12).cast();
    let spd: Matrix<S> = spd_diag_dominant(b, 13).cast();
    let mut l = spd.clone();
    potf2(&mut l, 0).expect("diagonally dominant tile is SPD");
    let rate = |f: u64, s: f64| f as f64 / s / 1e9;

    let mut c = spd.clone();
    let g = time_calls(
        &mut c,
        |c| restore(c, &spd),
        |c| {
            gemm(Trans::No, Trans::Yes, -1.0, &a, &bm, 1.0, c);
            black_box(&c);
        },
    );
    let s = time_calls(
        &mut c,
        |c| restore(c, &spd),
        |c| {
            syrk(Uplo::Lower, Trans::No, -1.0, &a, 1.0, c);
            black_box(&c);
        },
    );
    let mut x = bm.clone();
    let t = time_calls(
        &mut x,
        |x| restore(x, &bm),
        |x| {
            trsm(
                Side::Right,
                Uplo::Lower,
                Trans::Yes,
                Diag::NonUnit,
                1.0,
                &l,
                x,
            );
            black_box(&x);
        },
    );
    let p = time_calls(
        &mut c,
        |c| restore(c, &spd),
        |c| {
            black_box(potf2(c, 0).is_ok());
        },
    );
    [
        rate(flops::gemm(b, b, b), g),
        rate(flops::syrk(b, b), s),
        rate(flops::trsm(b, b), t),
        rate(flops::potf2(b), p),
    ]
}

/// Per-tile seconds of checksum encoding, a clean verify, and a verify that
/// must locate and correct one planted error, on a `b`×`b` f64 tile.
pub fn checksum_costs(b: usize) -> [f64; 3] {
    let data = spd_diag_dominant(b, 21);
    let stored = encode(&data);
    let tol = TileTolerance::Fixed(VerifyPolicy::default());

    let mut chk = stored.clone();
    let enc = time_calls(
        &mut chk,
        |_| {},
        |chk| {
            encode_into(&data, chk);
            black_box(&chk);
        },
    );

    let mut clean = (data.clone(), stored.clone());
    let verify_clean = time_calls(
        &mut clean,
        |_| {},
        |(d, s)| {
            black_box(verify_and_correct(d, s, &stored, &tol));
        },
    );

    let mut bad = data.clone();
    let (r, c) = (b / 3, b / 2);
    bad.set(r, c, bad.get(r, c) + 1e3);
    let recalc = encode(&bad);
    let mut planted = (bad.clone(), stored.clone());
    let verify_planted = time_calls(
        &mut planted,
        |(d, s)| {
            restore(d, &bad);
            restore(s, &stored);
        },
        |(d, s)| {
            black_box(verify_and_correct(d, s, &recalc, &tol));
        },
    );
    [enc, verify_clean, verify_planted]
}
