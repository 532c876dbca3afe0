//! Correctness oracle: factor residuals, paper anchors and run-to-run
//! exactness. Everything here runs outside the timed region.

use hchol_blas::gemm;
use hchol_matrix::{Matrix, Scalar, Trans};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::path::Path;

/// Relative residual bound the workspace's tests apply to an f64 factor.
pub const F64_RESIDUAL_BOUND: f64 = 1e-11;
/// Bound `tests/fault_matrix.rs` applies to a clean f32 run under the
/// adaptive tolerance.
pub const F32_CLEAN_RESIDUAL_BOUND: f64 = 2e-5;

/// `‖L·Lᵀ − A‖_F / ‖A‖_F`, the relative residual the tests compute with
/// `reconstruct_lower` + `relative_residual`, evaluated tile by tile (`b`×`b`
/// products over the lower triangle, off-diagonal tiles counted twice) so
/// the check needs no n×n temporaries and half the flops.
pub fn residual<S: Scalar>(l: &Matrix<S>, a: &Matrix<S>, b: usize) -> f64 {
    let n = a.rows();
    assert!(
        b > 0 && n.is_multiple_of(b),
        "residual: n={n} is not a multiple of b={b}"
    );
    let nt = n / b;
    let tiles: Vec<Vec<Matrix<S>>> = (0..nt)
        .map(|i| {
            (0..=i)
                .map(|k| {
                    let mut t = l.sub_matrix(i * b, k * b, b, b);
                    if i == k {
                        for c in 1..b {
                            for r in 0..c {
                                t.set(r, c, S::ZERO);
                            }
                        }
                    }
                    t
                })
                .collect()
        })
        .collect();
    let (mut num, mut den) = (0.0f64, 0.0f64);
    let mut c = Matrix::<S>::zeros(b, b);
    for j in 0..nt {
        for i in j..nt {
            c.fill_zero();
            // Tile (i, j) of L·Lᵀ is Σ_{k ≤ j} L_ik · L_jkᵀ.
            for (lik, ljk) in tiles[i].iter().zip(&tiles[j]) {
                gemm(Trans::No, Trans::Yes, 1.0, lik, ljk, 1.0, &mut c);
            }
            let w = if i == j { 1.0 } else { 2.0 };
            for cc in 0..b {
                for r in 0..b {
                    let av = a.get(i * b + r, j * b + cc);
                    let d = (c.get(r, cc) - av).to_f64();
                    num += w * d * d;
                    den += w * av.to_f64() * av.to_f64();
                }
            }
        }
    }
    num.sqrt() / den.sqrt().max(f64::MIN_POSITIVE)
}

/// Bit-exact fingerprint of a factor.
pub fn fingerprint<S: Scalar>(m: &Matrix<S>) -> u64 {
    let mut h = DefaultHasher::new();
    h.write_usize(m.rows());
    h.write_usize(m.cols());
    for &x in m.as_slice() {
        h.write_u64(x.to_bits_u64());
    }
    h.finish()
}

/// GFLOP/s cells of the committed figure CSV `file` at row `n`, keyed by
/// column header.
pub fn csv_row(root: &Path, file: &str, n: usize) -> Result<BTreeMap<String, String>, String> {
    let path = root.join("bench_results").join(file);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut lines = text.lines();
    let header: Vec<&str> = lines
        .next()
        .ok_or_else(|| format!("{file} is empty"))?
        .split(',')
        .collect();
    let row = lines
        .map(|l| l.split(',').collect::<Vec<_>>())
        .find(|cells| cells.first() == Some(&n.to_string().as_str()))
        .ok_or_else(|| format!("{file} has no row n={n}"))?;
    Ok(header
        .iter()
        .zip(row)
        .skip(1)
        .map(|(h, c)| (h.to_string(), c.to_string()))
        .collect())
}

/// Running tally of everything the oracle found.
#[derive(Default)]
pub struct Book {
    /// Op executions in measured passes.
    pub attempted: u64,
    /// Measured op executions that returned `Err`, gave up (`failed`), or
    /// (static proof) were refused or drew an analyzer finding: the
    /// numerator of `failed_frac`.
    pub failed: u64,
    /// Measured op executions that returned a factor without reporting
    /// failure, but whose residual breaks the bound: the numerator of
    /// `wrong_frac`.
    pub wrong: u64,
    /// Measured op executions that broke the program's correctness
    /// contract: `Err` on valid input, a silently wrong factor from an op
    /// whose scheme claims to cover its faults, or a static-proof refusal or
    /// finding.
    pub violations: u64,
    /// Problems that make the whole run incorrect (exactness, anchors,
    /// contract violations), with a description each.
    pub problems: Vec<String>,
    /// Silently wrong factors from ops whose scheme does not claim to cover
    /// their faults (see `OpSpec::unprotected`).
    pub known: Vec<String>,
    /// Per op: factor fingerprint → residual, so a bit-identical factor is
    /// checked once.
    pub residuals: BTreeMap<(usize, u64), f64>,
}

impl Book {
    pub fn problem(&mut self, msg: String) {
        note(&mut self.problems, msg);
    }

    pub fn known(&mut self, msg: String) {
        note(&mut self.known, msg);
    }
}

/// Append `msg` once; a bounded list still records that something happened.
fn note(list: &mut Vec<String>, msg: String) {
    if list.len() < 50 && !list.contains(&msg) {
        list.push(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hchol_blas::potrf::reconstruct_lower;
    use hchol_matrix::generate::spd_diag_dominant;
    use hchol_matrix::relative_residual;

    #[test]
    fn tiled_residual_matches_the_tests_definition() {
        let a = spd_diag_dominant(64, 5);
        let mut l = a.clone();
        hchol_blas::potf2(&mut l, 0).unwrap();
        for (i, j, delta) in [(0usize, 0usize, 0.0), (40, 17, 1e-6), (63, 63, 3e-4)] {
            let mut bad = l.clone();
            bad.set(i, j, bad.get(i, j) + delta);
            let want = relative_residual(&reconstruct_lower(&bad), &a);
            let got = residual(&bad, &a, 16);
            assert!(
                (got - want).abs() <= 1e-3 * want + 1e-15,
                "delta {delta}: tiled {got:e} vs reference {want:e}"
            );
        }
    }

    #[test]
    fn fingerprint_sees_one_bit() {
        let a = spd_diag_dominant(8, 1);
        let mut b = a.clone();
        b.set(3, 2, f64::from_bits(b.get(3, 2).to_bits() ^ 1));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }
}
