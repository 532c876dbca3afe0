//! Optimization 2's placement decision model (Section V-B of the paper).
//!
//! The paper derives estimated execution times for the two placements of
//! checksum updating:
//!
//! ```text
//! N_Cho = n³/3            flops of the factorization
//! N_Upd = 2n³/(3B)        flops of checksum updating
//! N_Rec = 2n³/(3B)        flops of checksum recalculation
//! D_upd = n³/(3KB²)       elements of extra transfer if the CPU updates
//!
//! T_pick_GPU = (N_Cho + N_Upd + N_Rec) / P_GPU
//! T_pick_CPU = max( (N_Cho + N_Rec) / P_GPU,  N_Upd / P_CPU + D_upd / R )
//! ```
//!
//! and picks whichever is smaller. On top of the paper's closed form,
//! [`choose`] adds the mechanical fact the formulas abstract away: on a
//! Hyper-Q GPU (Kepler) slim update kernels co-execute beside the BLAS-3
//! factorization kernels, making GPU placement effectively free — which is
//! why the paper lands on GPU updating for Bulldozer64 and CPU updating for
//! Tardis.

use crate::options::{AbftOptions, ChecksumPlacement};
use hchol_gpusim::profile::{KernelClass, SystemProfile};

/// The paper's closed-form inputs and both predicted times, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct PlacementEstimate {
    /// Predicted run time with GPU checksum updating.
    pub t_pick_gpu: f64,
    /// Predicted run time with CPU checksum updating.
    pub t_pick_cpu: f64,
}

impl PlacementEstimate {
    /// The cheaper placement under the model.
    pub fn better(&self) -> ChecksumPlacement {
        if self.t_pick_cpu < self.t_pick_gpu {
            ChecksumPlacement::Cpu
        } else {
            ChecksumPlacement::Gpu
        }
    }
}

/// Evaluate the paper's formulas for matrix size `n`, block size `b`,
/// verification interval `k`.
///
/// `P_GPU` is the device's effective BLAS-3 rate (the factorization path),
/// `P_CPU` the host's BLAS-2 rate (updates are skinny 2×B GEMMs), and `R`
/// the PCIe bandwidth — the closest concrete readings of the paper's
/// symbols.
pub fn paper_model(profile: &SystemProfile, n: usize, b: usize, k: usize) -> PlacementEstimate {
    let n3 = (n as f64).powi(3);
    let n_cho = n3 / 3.0;
    let n_upd = 2.0 * n3 / (3.0 * b as f64);
    let n_rec = n_upd;
    let d_upd_bytes = 8.0 * n3 / (3.0 * k.max(1) as f64 * (b as f64) * (b as f64));

    let p_gpu = profile.gpu.blas3_gflops * 1e9;
    let p_cpu = profile.cpu.blas2_gflops * 1e9;
    let r = profile.pcie_gbs * 1e9;

    PlacementEstimate {
        t_pick_gpu: (n_cho + n_upd + n_rec) / p_gpu,
        t_pick_cpu: ((n_cho + n_rec) / p_gpu).max(n_upd / p_cpu + d_upd_bytes / r),
    }
}

/// Resolve a [`ChecksumPlacement`] (turning `Auto` into a concrete choice).
///
/// If slim kernels can co-execute with the BLAS-3 factorization (Hyper-Q
/// devices: `blas3_resource + blas2_resource ≤ 1`), GPU updating hides under
/// the factorization and wins outright. Otherwise (Fermi-like false
/// serialization) the paper's closed form arbitrates between eating the
/// update time on the GPU's critical path and shipping it to the CPU.
pub fn choose(
    requested: ChecksumPlacement,
    profile: &SystemProfile,
    n: usize,
    b: usize,
    k: usize,
) -> ChecksumPlacement {
    match requested {
        ChecksumPlacement::Gpu | ChecksumPlacement::Cpu | ChecksumPlacement::Inline => requested,
        ChecksumPlacement::Auto => {
            let gpu = &profile.gpu;
            let coexists = gpu.resource_fraction(KernelClass::Blas3)
                + gpu.resource_fraction(KernelClass::Blas2)
                <= 1.0 + crate::tolerance::MODEL_UNIT_SLACK;
            if coexists {
                ChecksumPlacement::Gpu
            } else {
                paper_model(profile, n, b, k).better()
            }
        }
    }
}

/// The options a run of size `n`, block `b` on `profile` actually uses:
/// `opts` with its placement resolved. Sharded runs pin checksum updating
/// to the owning GPU; otherwise [`choose`] decides. Every driver and
/// static checker resolves placement through this one rule.
pub fn resolve(opts: &AbftOptions, profile: &SystemProfile, n: usize, b: usize) -> AbftOptions {
    let mut resolved = opts.clone();
    resolved.placement = if opts.is_sharded() {
        ChecksumPlacement::Gpu
    } else {
        choose(opts.placement, profile, n, b, opts.verify_interval)
    };
    resolved
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tardis_picks_cpu_like_the_paper() {
        let p = SystemProfile::tardis();
        let got = choose(ChecksumPlacement::Auto, &p, 20480, 256, 1);
        assert_eq!(got, ChecksumPlacement::Cpu);
    }

    #[test]
    fn bulldozer_picks_gpu_like_the_paper() {
        let p = SystemProfile::bulldozer64();
        let got = choose(ChecksumPlacement::Auto, &p, 30720, 512, 1);
        assert_eq!(got, ChecksumPlacement::Gpu);
    }

    #[test]
    fn explicit_choice_is_respected() {
        let p = SystemProfile::tardis();
        assert_eq!(
            choose(ChecksumPlacement::Gpu, &p, 20480, 256, 1),
            ChecksumPlacement::Gpu
        );
        assert_eq!(
            choose(ChecksumPlacement::Cpu, &p, 20480, 256, 1),
            ChecksumPlacement::Cpu
        );
    }

    #[test]
    fn paper_model_times_are_plausible() {
        let p = SystemProfile::tardis();
        let est = paper_model(&p, 20480, 256, 1);
        // Both near the ~10 s headline; CPU placement slightly cheaper.
        assert!(est.t_pick_gpu > 8.0 && est.t_pick_gpu < 14.0);
        assert!(est.t_pick_cpu > 8.0 && est.t_pick_cpu < 14.0);
        assert!(est.t_pick_cpu < est.t_pick_gpu);
    }

    #[test]
    fn larger_k_shrinks_cpu_transfer_term() {
        let p = SystemProfile::tardis();
        let k1 = paper_model(&p, 20480, 256, 1);
        let k5 = paper_model(&p, 20480, 256, 5);
        assert!(k5.t_pick_cpu <= k1.t_pick_cpu);
        // K does not appear in the GPU estimate.
        assert!((k5.t_pick_gpu - k1.t_pick_gpu).abs() < 1e-12);
    }

    #[test]
    fn model_scales_with_block_size() {
        let p = SystemProfile::tardis();
        let b256 = paper_model(&p, 20480, 256, 1);
        let b512 = paper_model(&p, 20480, 512, 1);
        // Bigger blocks ⇒ less checksum work ⇒ both estimates drop.
        assert!(b512.t_pick_gpu < b256.t_pick_gpu);
        assert!(b512.t_pick_cpu <= b256.t_pick_cpu);
    }
}
