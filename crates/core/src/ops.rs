//! Shared building blocks for every factorization driver: buffer layout,
//! MAGMA's four per-iteration operations, checksum encode/update, and
//! batched verification.
//!
//! Every scheme (`magma`, `cula`, `schemes::*`) is a different composition
//! of these pieces; none of them owns private kernel code. All functions
//! work in both [`hchol_gpusim::ExecMode`]s: numerics run inside kernel closures (skipped
//! in `TimingOnly`), while cost, stream ordering, and counters always apply.

use crate::checksum;
use crate::chkops;
use crate::options::{AbftOptions, ChecksumPlacement, ToleranceModel};
use crate::verify::{verify_and_correct, TileTolerance, VerifyOutcome};
use hchol_blas::{flops, gemm, gemm_fused, potf2, trsm};
use hchol_faults::{Dirtiness, InjectionPoint, Injector};
use hchol_gpusim::context::KernelDesc;
use hchol_gpusim::counters::WorkCategory;
#[cfg(test)]
use hchol_gpusim::ExecMode;
use hchol_gpusim::{
    AccessSet, BufferId, EventId, HostBufferId, KernelClass, SimContext, StreamId, TileRef,
};
use hchol_matrix::{
    triangular::force_lower, Diag, Matrix, MatrixError, Scalar, Side, TileMatrix, Trans, Uplo,
};

/// Buffer and stream layout of one factorization run.
pub struct CholLayout {
    /// Matrix size.
    pub n: usize,
    /// Block (tile) size.
    pub b: usize,
    /// Grid size `n / b`.
    pub nt: usize,
    /// The matrix, tiled, on the device.
    pub mat: BufferId,
    /// Per-block-row checksum buffers (`2 × n`, tiled `2 × B`); empty when
    /// the driver runs without fault tolerance.
    pub cks: Vec<BufferId>,
    /// Recalculation scratch tiles (`2 × B` each), grown on demand.
    pub scratch: Vec<BufferId>,
    /// Per-block-row checksum *deposit* buffers (`2 × n`, tiled `2 × B`,
    /// mirroring [`CholLayout::cks`]) written by the fused SYRK/GEMM
    /// epilogues; allocated on first fused launch, empty otherwise.
    pub dpt: Vec<BufferId>,
    /// Host staging block for the POTF2 round trip.
    pub host_diag: HostBufferId,
    /// Main compute stream (SYRK/GEMM/TRSM).
    pub s_comp: StreamId,
    /// Transfer stream (diag block round trip).
    pub s_tran: StreamId,
    /// Checksum-update stream (Optimization 2, GPU placement).
    pub s_chk: StreamId,
    /// Stream for verification-related transfers (CPU placement): kept
    /// separate from `s_tran` so the small compare traffic never queues
    /// behind bulky panel mirrors.
    pub s_verif: StreamId,
    /// Streams for concurrent checksum recalculation (Optimization 1).
    pub recalc_streams: Vec<StreamId>,
    /// Event marking completion of the most recent panel TRSM on the
    /// compute stream; checksum-update kernels reading factorized tiles
    /// order themselves behind it.
    pub panel_ready: Option<EventId>,
    /// Column whose host mirror (CPU checksum-update placement) is queued
    /// but not yet issued — flushed right *after* the next iteration's
    /// latency-critical diagonal-block transfer so the bulky mirror never
    /// delays the POTF2 round trip on the shared DMA engine.
    pub pending_mirror: Option<usize>,
    /// Resolved checksum-update placement.
    pub placement: ChecksumPlacement,
    /// Multiplier on charged kernel flops (models a less efficient BLAS —
    /// used by the simulated CULA baseline; 1.0 everywhere else).
    pub flop_inflation: f64,
    /// Running per-grid-column magnitude statistic `max|x|` over the
    /// column's lower-triangle tiles, captured at encode and refreshed
    /// (monotone max) at every recalculation — the variance input of the
    /// adaptive tolerance model ([`crate::tolerance`]). Execute mode only;
    /// stays all-zero in TimingOnly, where the adaptive threshold falls
    /// back to its magnitude floor.
    pub col_stats: Vec<f64>,
}

impl CholLayout {
    #[inline]
    fn charge(&self, f: u64) -> u64 {
        (f as f64 * self.flop_inflation).round() as u64
    }
}

/// Allocate buffers and streams for an `n × n` factorization with block
/// size `b`. `input` must be `Some` in Execute mode (its tiles are placed
/// in device memory — the paper uses the MAGMA variant whose input already
/// resides on the GPU, so no initial transfer is charged).
///
/// Refused before anything is allocated: `b == 0`
/// ([`MatrixError::ZeroBlockSize`]), `n` not a multiple of `b` and a
/// missing Execute-mode input ([`MatrixError::UnsupportedConfig`]), an
/// Execute-mode input that is not `n × n` ([`MatrixError::ShapeMismatch`]),
/// and one holding a NaN or an infinity ([`MatrixError::NonFiniteInput`]):
/// no restart can factor it, so it is refused rather than retried.
pub fn setup<S: Scalar>(
    ctx: &mut SimContext<S>,
    n: usize,
    b: usize,
    with_checksums: bool,
    placement: ChecksumPlacement,
    input: Option<&Matrix<S>>,
) -> Result<CholLayout, MatrixError> {
    setup_impl(ctx, n, b, with_checksums, placement, input, false)
}

/// Like [`setup`], but with a *created* (non-default) compute stream, so
/// several layouts can coexist in one context without sharing the default
/// stream — the foundation of batched multi-matrix runs
/// (`plan::exec::run_batch`).
pub fn setup_batch<S: Scalar>(
    ctx: &mut SimContext<S>,
    n: usize,
    b: usize,
    with_checksums: bool,
    placement: ChecksumPlacement,
    input: Option<&Matrix<S>>,
) -> Result<CholLayout, MatrixError> {
    setup_impl(ctx, n, b, with_checksums, placement, input, true)
}

fn setup_impl<S: Scalar>(
    ctx: &mut SimContext<S>,
    n: usize,
    b: usize,
    with_checksums: bool,
    placement: ChecksumPlacement,
    input: Option<&Matrix<S>>,
    dedicated_comp: bool,
) -> Result<CholLayout, MatrixError> {
    assert!(
        !matches!(placement, ChecksumPlacement::Auto),
        "resolve placement via decision::resolve before setup"
    );
    if b == 0 {
        return Err(MatrixError::ZeroBlockSize);
    }
    if !n.is_multiple_of(b) {
        return Err(MatrixError::UnsupportedConfig(
            "the matrix size must be a multiple of the block size",
        ));
    }
    let nt = n / b;
    let execute = ctx.mode.executes();
    let mat = match (execute, input) {
        (true, Some(dense)) if dense.shape() != (n, n) => {
            return Err(MatrixError::ShapeMismatch {
                op: "factorization input",
                lhs: dense.shape(),
                rhs: (n, n),
            })
        }
        (true, Some(dense)) => {
            if let Some(index) = dense.first_non_finite() {
                return Err(MatrixError::NonFiniteInput { index });
            }
            ctx.dev_mem.alloc(TileMatrix::from_dense(dense, b)?)
        }
        (true, None) => {
            return Err(MatrixError::UnsupportedConfig(
                "Execute mode requires an input matrix",
            ))
        }
        (false, _) => ctx.dev_mem.alloc(TileMatrix::zeros(0, 0, b)?),
    };
    let cks = if with_checksums {
        (0..nt)
            .map(|_| {
                if execute {
                    ctx.dev_mem.alloc_zeros(checksum::CHECKSUM_COUNT, n, b)
                } else {
                    ctx.dev_mem.alloc_zeros(0, 0, b)
                }
            })
            .collect::<Result<Vec<_>, _>>()?
    } else {
        Vec::new()
    };
    let host_diag = if execute {
        ctx.host_mem.alloc_zeros(b, b)
    } else {
        ctx.host_mem.alloc_zeros(0, 0)
    };
    let s_comp = if dedicated_comp {
        ctx.create_stream()
    } else {
        ctx.default_stream()
    };
    let s_tran = ctx.create_stream();
    let s_chk = ctx.create_stream();
    let s_verif = ctx.create_stream();
    // The paper creates N streams (the hardware's concurrent-kernel cap)
    // and distributes recalculation kernels evenly among them.
    let n_streams = ctx.profile().gpu.max_concurrent_kernels;
    let recalc_streams = (0..n_streams).map(|_| ctx.create_stream()).collect();
    Ok(CholLayout {
        n,
        b,
        nt,
        mat,
        cks,
        scratch: Vec::new(),
        dpt: Vec::new(),
        host_diag,
        s_comp,
        s_tran,
        s_chk,
        s_verif,
        recalc_streams,
        panel_ready: None,
        pending_mirror: None,
        placement,
        flop_inflation: 1.0,
        col_stats: vec![0.0; nt],
    })
}

/// Grow the scratch pool to at least `count` tiles.
fn ensure_scratch<S: Scalar>(ctx: &mut SimContext<S>, lay: &mut CholLayout, count: usize) {
    let execute = ctx.mode.executes();
    while lay.scratch.len() < count {
        let id = if execute {
            ctx.dev_mem
                .alloc_zeros(checksum::CHECKSUM_COUNT, lay.b, lay.b)
                .expect("nonzero block size")
        } else {
            ctx.dev_mem
                .alloc_zeros(0, 0, lay.b)
                .expect("nonzero block size")
        };
        lay.scratch.push(id);
    }
}

/// Allocate the fused-epilogue deposit buffers (one `2 × n` row per block
/// row, like the maintained checksums) on first use.
fn ensure_dpt<S: Scalar>(ctx: &mut SimContext<S>, lay: &mut CholLayout) {
    if !lay.dpt.is_empty() {
        return;
    }
    let execute = ctx.mode.executes();
    lay.dpt = (0..lay.nt)
        .map(|_| {
            if execute {
                ctx.dev_mem
                    .alloc_zeros(checksum::CHECKSUM_COUNT, lay.n, lay.b)
            } else {
                ctx.dev_mem.alloc_zeros(0, 0, lay.b)
            }
        })
        .collect::<Result<Vec<_>, _>>()
        .expect("nonzero block size");
}

// ---------------------------------------------------------------------------
// Fault hooks
// ---------------------------------------------------------------------------

/// Fire any faults planned for `point` (data corruption in Execute mode,
/// ledger-only in TimingOnly).
pub fn poll_faults<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &CholLayout,
    inj: &mut Injector,
    point: InjectionPoint,
) {
    let before = inj.applied().len();
    if ctx.mode.executes() {
        inj.poll(point, ctx.dev_mem.buf_mut(lay.mat));
    } else {
        inj.poll_timing(point);
    }
    let after = inj.applied().len();
    if after > before {
        // The event detail carries only the fault *spec* (site, species,
        // trigger), never the corrupted values — specs are identical across
        // Execute and TimingOnly, so reports stay mode-invariant.
        let t = ctx.now().as_secs();
        ctx.obs
            .metrics
            .add_count("faults.injected", (after - before) as u64);
        for k in before..after {
            let detail = format!("{:?}", inj.applied()[k].spec);
            ctx.obs.event(t, "fault.injected", detail);
        }
    }
}

// ---------------------------------------------------------------------------
// The four MAGMA operations (Algorithm 1)
// ---------------------------------------------------------------------------

/// SYRK: `A[j,j] -= A[j,0:j-1] · A[j,0:j-1]ᵀ` on the compute stream.
///
/// The full symmetric tile is updated (not just a triangle) so that its
/// column checksums remain exact.
pub fn syrk_diag<S: Scalar>(ctx: &mut SimContext<S>, lay: &CholLayout, j: usize) {
    if j == 0 {
        return;
    }
    let f = lay.charge(flops::gemm(lay.b, lay.b, j * lay.b));
    let mat = lay.mat;
    let access = AccessSet::new(
        (0..j)
            .map(|k| TileRef::new(mat, j, k))
            .chain([TileRef::new(mat, j, j)])
            .collect(),
        vec![TileRef::new(mat, j, j)],
    );
    ctx.launch(
        lay.s_comp,
        KernelDesc::new(
            format!("SYRK j={j}"),
            KernelClass::Syrk,
            f,
            WorkCategory::Factorization,
        )
        .with_access(access),
        move |mem| {
            let m = mem.buf_mut(mat);
            for k in 0..j {
                let (diag, src) = m.tile_pair((j, j), (j, k));
                gemm(Trans::No, Trans::Yes, -1.0, src, src, 1.0, diag);
            }
        },
    );
}

/// [`syrk_diag`] with the fused checksum epilogue: the same kernel also
/// deposits fresh column checksums of the updated diagonal tile into
/// `lay.dpt[j]`, charged as extra epilogue flops on the *same* launch (no
/// second kernel startup). A fused `VerifyBatch` then compares the deposit
/// against the maintained checksums without any recalculation kernel.
pub fn syrk_diag_fused<S: Scalar>(ctx: &mut SimContext<S>, lay: &mut CholLayout, j: usize) {
    if j == 0 {
        return;
    }
    ensure_dpt(ctx, lay);
    let f = lay.charge(flops::gemm(lay.b, lay.b, j * lay.b));
    let epi = lay.charge(flops::fused_epilogue(lay.b, lay.b));
    let (mat, dpt_j) = (lay.mat, lay.dpt[j]);
    let access = AccessSet::new(
        (0..j)
            .map(|k| TileRef::new(mat, j, k))
            .chain([TileRef::new(mat, j, j)])
            .collect(),
        vec![TileRef::new(mat, j, j), TileRef::new(dpt_j, 0, j)],
    );
    ctx.launch(
        lay.s_comp,
        KernelDesc::new(
            format!("SYRK+CHK j={j}"),
            KernelClass::Syrk,
            f,
            WorkCategory::Factorization,
        )
        .with_access(access)
        .with_epilogue(epi),
        move |mem| {
            let (dpt, m) = mem.buf_pair_mut(dpt_j, mat);
            for k in 0..j {
                let (diag, src) = m.tile_pair((j, j), (j, k));
                if k + 1 == j {
                    // Final slab: the epilogue checksums the finished tile.
                    gemm_fused(
                        Trans::No,
                        Trans::Yes,
                        -1.0,
                        src,
                        src,
                        1.0,
                        diag,
                        dpt.tile_mut(0, j),
                    );
                } else {
                    gemm(Trans::No, Trans::Yes, -1.0, src, src, 1.0, diag);
                }
            }
        },
    );
}

/// GEMM: `A[j+1:N, j] -= A[j+1:N, 0:j-1] · A[j, 0:j-1]ᵀ` on the compute
/// stream (one big kernel, as MAGMA issues it).
pub fn gemm_panel<S: Scalar>(ctx: &mut SimContext<S>, lay: &CholLayout, j: usize) {
    let rows_below = lay.nt.saturating_sub(j + 1);
    if j == 0 || rows_below == 0 {
        return;
    }
    let f = lay.charge(flops::gemm(rows_below * lay.b, lay.b, j * lay.b));
    let (mat, nt) = (lay.mat, lay.nt);
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for i in (j + 1)..nt {
        writes.push(TileRef::new(mat, i, j));
        reads.push(TileRef::new(mat, i, j));
        for k in 0..j {
            reads.push(TileRef::new(mat, i, k));
        }
    }
    for k in 0..j {
        reads.push(TileRef::new(mat, j, k));
    }
    ctx.launch(
        lay.s_comp,
        KernelDesc::new(
            format!("GEMM j={j}"),
            KernelClass::Blas3,
            f,
            WorkCategory::Factorization,
        )
        .with_access(AccessSet::new(reads, writes)),
        move |mem| {
            let m = mem.buf_mut(mat);
            for i in (j + 1)..nt {
                for k in 0..j {
                    let ljk = m.tile(j, k).clone();
                    let (tij, lik) = m.tile_pair((i, j), (i, k));
                    gemm(Trans::No, Trans::Yes, -1.0, lik, &ljk, 1.0, tij);
                }
            }
        },
    );
}

/// [`gemm_panel`] with the fused checksum epilogue: deposits fresh column
/// checksums of every updated panel tile `(i, j)` into `lay.dpt[i]` from
/// the same launch, charged as epilogue flops with no extra kernel startup.
pub fn gemm_panel_fused<S: Scalar>(ctx: &mut SimContext<S>, lay: &mut CholLayout, j: usize) {
    let rows_below = lay.nt.saturating_sub(j + 1);
    if j == 0 || rows_below == 0 {
        return;
    }
    ensure_dpt(ctx, lay);
    let f = lay.charge(flops::gemm(rows_below * lay.b, lay.b, j * lay.b));
    let epi = lay.charge(rows_below as u64 * flops::fused_epilogue(lay.b, lay.b));
    let mat = lay.mat;
    let dpt: Vec<BufferId> = lay.dpt.clone();
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for (i, &di) in dpt.iter().enumerate().skip(j + 1) {
        writes.push(TileRef::new(mat, i, j));
        writes.push(TileRef::new(di, 0, j));
        reads.push(TileRef::new(mat, i, j));
        for k in 0..j {
            reads.push(TileRef::new(mat, i, k));
        }
    }
    for k in 0..j {
        reads.push(TileRef::new(mat, j, k));
    }
    ctx.launch(
        lay.s_comp,
        KernelDesc::new(
            format!("GEMM+CHK j={j}"),
            KernelClass::Blas3,
            f,
            WorkCategory::Factorization,
        )
        .with_access(AccessSet::new(reads, writes))
        .with_epilogue(epi),
        move |mem| {
            for (i, &di) in dpt.iter().enumerate().skip(j + 1) {
                let (d, m) = mem.buf_pair_mut(di, mat);
                for k in 0..j {
                    let ljk = m.tile(j, k).clone();
                    let (tij, lik) = m.tile_pair((i, j), (i, k));
                    if k + 1 == j {
                        gemm_fused(
                            Trans::No,
                            Trans::Yes,
                            -1.0,
                            lik,
                            &ljk,
                            1.0,
                            tij,
                            d.tile_mut(0, j),
                        );
                    } else {
                        gemm(Trans::No, Trans::Yes, -1.0, lik, &ljk, 1.0, tij);
                    }
                }
            }
        },
    );
}

/// Transfer the diagonal block to the host (async, on the transfer
/// stream), then flush any pending panel mirror behind it.
pub fn diag_to_host<S: Scalar>(ctx: &mut SimContext<S>, lay: &mut CholLayout, j: usize) {
    let bytes = S::BYTES * (lay.b * lay.b) as u64;
    let (mat, host_diag) = (lay.mat, lay.host_diag);
    ctx.bulk_transfer_with_access(
        bytes,
        lay.s_tran,
        false,
        AccessSet::new(vec![TileRef::new(mat, j, j)], vec![]),
        move |dev, host| {
            *host.buf_mut(host_diag) = dev.tile(mat, j, j).clone();
        },
    );
    flush_mirror(ctx, lay);
}

/// POTF2 on the host staging block (synchronous CPU work, overlapping
/// whatever the GPU is doing). Fails if the block lost positive
/// definiteness — exactly what an uncorrected error can cause.
pub fn host_potf2<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &CholLayout,
    j: usize,
) -> Result<(), MatrixError> {
    let f = lay.charge(flops::potf2(lay.b));
    let host_diag = lay.host_diag;
    let pivot_offset = j * lay.b;
    let mut failure: Option<MatrixError> = None;
    {
        let failure = &mut failure;
        ctx.cpu_exec(
            KernelDesc::new(
                format!("POTF2 j={j}"),
                KernelClass::Potf2,
                f,
                WorkCategory::Factorization,
            ),
            move |host| {
                let blk = host.buf_mut(host_diag);
                match potf2(blk, pivot_offset) {
                    Ok(()) => force_lower(blk),
                    Err(e) => *failure = Some(e),
                }
            },
        );
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Transfer the factorized diagonal block back to the device.
pub fn diag_to_device<S: Scalar>(ctx: &mut SimContext<S>, lay: &CholLayout, j: usize) {
    let bytes = S::BYTES * (lay.b * lay.b) as u64;
    let (mat, host_diag) = (lay.mat, lay.host_diag);
    ctx.bulk_transfer_with_access(
        bytes,
        lay.s_tran,
        true,
        AccessSet::new(vec![], vec![TileRef::new(mat, j, j)]),
        move |dev, host| {
            *dev.tile_mut(mat, j, j) = host.buf(host_diag).clone();
        },
    );
}

/// TRSM: `A[j+1:N, j] := A[j+1:N, j] · (L[j,j]ᵀ)⁻¹` on the compute stream.
pub fn trsm_panel<S: Scalar>(ctx: &mut SimContext<S>, lay: &CholLayout, j: usize) {
    let rows_below = lay.nt.saturating_sub(j + 1);
    if rows_below == 0 {
        return;
    }
    let f = lay.charge(flops::trsm(lay.b, rows_below * lay.b));
    let (mat, nt) = (lay.mat, lay.nt);
    let mut reads = vec![TileRef::new(mat, j, j)];
    let mut writes = Vec::new();
    for i in (j + 1)..nt {
        reads.push(TileRef::new(mat, i, j));
        writes.push(TileRef::new(mat, i, j));
    }
    ctx.launch(
        lay.s_comp,
        KernelDesc::new(
            format!("TRSM j={j}"),
            KernelClass::Trsm,
            f,
            WorkCategory::Factorization,
        )
        .with_access(AccessSet::new(reads, writes)),
        move |mem| {
            let m = mem.buf_mut(mat);
            for i in (j + 1)..nt {
                let (tij, ljj) = m.tile_pair((i, j), (j, j));
                trsm(
                    Side::Right,
                    Uplo::Lower,
                    Trans::Yes,
                    Diag::NonUnit,
                    1.0,
                    ljj,
                    tij,
                );
            }
        },
    );
}

/// Device-local slice of the panel GEMM (sharded plans): update only the
/// panel rows homed on the executing device. Per-tile numerics are
/// identical to [`gemm_panel`]'s, so the union of every device's shard
/// reproduces the single-device panel bit-for-bit.
///
/// The caller (the plan executor) steers `lay.s_comp` to the executing
/// device's compute stream and orders the launch behind the row-panel
/// broadcast receive when the device is not the panel owner.
pub fn gemm_shard<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &CholLayout,
    j: usize,
    dev: usize,
    rows: &[usize],
) {
    if j == 0 || rows.is_empty() {
        return;
    }
    let f = lay.charge(flops::gemm(rows.len() * lay.b, lay.b, j * lay.b));
    let mat = lay.mat;
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for &i in rows {
        writes.push(TileRef::new(mat, i, j));
        reads.push(TileRef::new(mat, i, j));
        for k in 0..j {
            reads.push(TileRef::new(mat, i, k));
        }
    }
    for k in 0..j {
        reads.push(TileRef::new(mat, j, k));
    }
    let rows = rows.to_vec();
    ctx.launch(
        lay.s_comp,
        KernelDesc::new(
            format!("GEMM j={j} d={dev}"),
            KernelClass::Blas3,
            f,
            WorkCategory::Factorization,
        )
        .with_access(AccessSet::new(reads, writes)),
        move |mem| {
            let m = mem.buf_mut(mat);
            for &i in &rows {
                for k in 0..j {
                    let ljk = m.tile(j, k).clone();
                    let (tij, lik) = m.tile_pair((i, j), (i, k));
                    gemm(Trans::No, Trans::Yes, -1.0, lik, &ljk, 1.0, tij);
                }
            }
        },
    );
}

/// Device-local slice of the panel TRSM (sharded plans); see
/// [`gemm_shard`] for the steering contract.
pub fn trsm_shard<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &CholLayout,
    j: usize,
    dev: usize,
    rows: &[usize],
) {
    if rows.is_empty() {
        return;
    }
    let f = lay.charge(flops::trsm(lay.b, rows.len() * lay.b));
    let mat = lay.mat;
    let mut reads = vec![TileRef::new(mat, j, j)];
    let mut writes = Vec::new();
    for &i in rows {
        reads.push(TileRef::new(mat, i, j));
        writes.push(TileRef::new(mat, i, j));
    }
    let rows = rows.to_vec();
    ctx.launch(
        lay.s_comp,
        KernelDesc::new(
            format!("TRSM j={j} d={dev}"),
            KernelClass::Trsm,
            f,
            WorkCategory::Factorization,
        )
        .with_access(AccessSet::new(reads, writes)),
        move |mem| {
            let m = mem.buf_mut(mat);
            for &i in &rows {
                let (tij, ljj) = m.tile_pair((i, j), (j, j));
                trsm(
                    Side::Right,
                    Uplo::Lower,
                    Trans::Yes,
                    Diag::NonUnit,
                    1.0,
                    ljj,
                    tij,
                );
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Shard parity (device-loss protection)
// ---------------------------------------------------------------------------

/// XOR two equally-shaped tiles' IEEE-754 bit patterns into `acc`.
fn xor_tile_into<S: Scalar>(acc: &mut Matrix<S>, src: &Matrix<S>, rows: usize, cols: usize) {
    for r in 0..rows {
        for c in 0..cols {
            let x = acc.get(r, c).to_bits_u64() ^ src.get(r, c).to_bits_u64();
            acc.set(r, c, S::from_bits_u64(x));
        }
    }
}

/// Refresh one XOR-parity group of column `j`: parity tile `g` of the
/// column's parity buffers becomes the bitwise XOR of the member tiles
/// `(i, j)` (matrix and checksum) for `i ∈ rows`. Launched on `stream` —
/// the parity home device's checksum stream; the caller orders the launch
/// behind the member devices' link transfers. Bitwise XOR is exact, so a
/// later reconstruction restores the member bit-for-bit.
#[allow(clippy::too_many_arguments)] // parity-group coordinates are the signature
pub fn shard_parity_xor<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &CholLayout,
    par_mat: BufferId,
    par_chk: BufferId,
    stream: StreamId,
    j: usize,
    g: usize,
    rows: &[usize],
) {
    if rows.is_empty() {
        return;
    }
    // One pass over every member element, mat + chk.
    let f = lay.charge(rows.len() as u64 * ((lay.b * lay.b) as u64 + 2 * lay.b as u64));
    let (mat, b) = (lay.mat, lay.b);
    let cks: Vec<BufferId> = rows.iter().map(|&i| lay.cks[i]).collect();
    let mut reads = Vec::new();
    for &i in rows {
        reads.push(TileRef::new(mat, i, j));
        reads.push(TileRef::new(lay.cks[i], 0, j));
    }
    let writes = vec![TileRef::new(par_mat, g, 0), TileRef::new(par_chk, 0, g)];
    let rows = rows.to_vec();
    ctx.launch(
        stream,
        KernelDesc::new(
            format!("PAR j={j} g={g}"),
            KernelClass::Light,
            f,
            WorkCategory::ChecksumUpdate,
        )
        .with_access(AccessSet::new(reads, writes)),
        move |mem| {
            // Zero, then fold each member in. Ragged edge tiles XOR into
            // the top-left region of the full-size parity tile.
            for (which, pg) in [(par_mat, (g, 0)), (par_chk, (0, g))] {
                let p = mem.buf_mut(which).tile_mut(pg.0, pg.1);
                let (pr, pc) = p.shape();
                for r in 0..pr {
                    for c in 0..pc {
                        p.set(r, c, S::ZERO);
                    }
                }
            }
            for (idx, &i) in rows.iter().enumerate() {
                {
                    let (p, m) = mem.buf_pair_mut(par_mat, mat);
                    let t = m.tile(i, j);
                    let (tr, tc) = t.shape();
                    xor_tile_into(p.tile_mut(g, 0), t, tr.min(b), tc.min(b));
                }
                {
                    let (p, ck) = mem.buf_pair_mut(par_chk, cks[idx]);
                    let t = ck.tile(0, j);
                    let (tr, tc) = t.shape();
                    xor_tile_into(p.tile_mut(0, g), t, tr, tc.min(b));
                }
            }
        },
    );
}

/// Reconstruct the lost member `lost_row` of one parity group of column
/// `j` from the parity tile and the surviving members (bitwise-exact
/// XOR). Launched on `stream` — a surviving device's checksum stream;
/// the caller orders it behind the link transfers that gathered the
/// survivors and counts the reconstructed tiles.
#[allow(clippy::too_many_arguments)] // parity-group coordinates are the signature
pub fn shard_reconstruct<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &CholLayout,
    par_mat: BufferId,
    par_chk: BufferId,
    stream: StreamId,
    j: usize,
    g: usize,
    lost_row: usize,
    survivors: &[usize],
) {
    let f = lay.charge((1 + survivors.len() as u64) * ((lay.b * lay.b) as u64 + 2 * lay.b as u64));
    let (mat, b) = (lay.mat, lay.b);
    let lost_cks = lay.cks[lost_row];
    let cks: Vec<BufferId> = survivors.iter().map(|&i| lay.cks[i]).collect();
    let mut reads = vec![TileRef::new(par_mat, g, 0), TileRef::new(par_chk, 0, g)];
    for &i in survivors {
        reads.push(TileRef::new(mat, i, j));
        reads.push(TileRef::new(lay.cks[i], 0, j));
    }
    let writes = vec![TileRef::new(mat, lost_row, j), TileRef::new(lost_cks, 0, j)];
    let survivors = survivors.to_vec();
    ctx.launch(
        stream,
        KernelDesc::new(
            format!("REBUILD ({lost_row},{j})"),
            KernelClass::Light,
            f,
            WorkCategory::ChecksumUpdate,
        )
        .with_access(AccessSet::new(reads, writes)),
        move |mem| {
            // lost = parity ⊕ (⊕ survivors), element-wise on the bits.
            {
                let (m, p) = mem.buf_pair_mut(mat, par_mat);
                let t = m.tile_mut(lost_row, j);
                let (tr, tc) = t.shape();
                let (tr, tc) = (tr.min(b), tc.min(b));
                let par = p.tile(g, 0);
                for r in 0..tr {
                    for c in 0..tc {
                        t.set(r, c, par.get(r, c));
                    }
                }
                for &i in &survivors {
                    let (lost, src) = m.tile_pair((lost_row, j), (i, j));
                    let (sr, sc) = src.shape();
                    xor_tile_into(lost, src, sr.min(tr), sc.min(tc));
                }
            }
            {
                let (ck, p) = mem.buf_pair_mut(lost_cks, par_chk);
                let t = ck.tile_mut(0, j);
                let (tr, tc) = t.shape();
                let tc = tc.min(b);
                let par = p.tile(0, g);
                for r in 0..tr {
                    for c in 0..tc {
                        t.set(r, c, par.get(r, c));
                    }
                }
            }
            for &ck in &cks {
                let (lost, src) = mem.buf_pair_mut(lost_cks, ck);
                let t = src.tile(0, j);
                let (tr, tc) = t.shape();
                xor_tile_into(lost.tile_mut(0, j), t, tr, tc.min(b));
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Checksum operations
// ---------------------------------------------------------------------------

fn recalc_stream(lay: &CholLayout, opts: &AbftOptions, idx: usize) -> StreamId {
    if opts.concurrent_recalc {
        lay.recalc_streams[idx % lay.recalc_streams.len()]
    } else {
        lay.s_comp
    }
}

/// Largest finite `|x|` in a tile (for the column magnitude statistic);
/// non-finite entries are skipped — an overflowed value must widen the
/// verifier's *delta*, never its threshold.
fn tile_max_abs<S: Scalar>(t: &Matrix<S>) -> f64 {
    let (rows, cols) = t.shape();
    let mut peak = 0.0f64;
    for c in 0..cols {
        for r in 0..rows {
            let v = t.get(r, c).to_f64().abs();
            if v.is_finite() && v > peak {
                peak = v;
            }
        }
    }
    peak
}

/// Fold the current magnitudes of `tiles` into the layout's per-column
/// statistics (monotone max — the threshold must cover the largest value
/// that ever flowed through the column's accumulation paths).
fn refresh_col_stats<S: Scalar>(
    ctx: &SimContext<S>,
    lay: &mut CholLayout,
    tiles: &[(usize, usize)],
) {
    if !ctx.mode.executes() {
        return;
    }
    let m = ctx.dev_mem.buf(lay.mat);
    for &(bi, bj) in tiles {
        let peak = tile_max_abs(m.tile(bi, bj));
        if peak > lay.col_stats[bj] {
            lay.col_stats[bj] = peak;
        }
    }
}

/// Encode the two column checksums of every lower-triangle tile (done once,
/// before the factorization). With CPU placement the freshly encoded
/// checksums are also shipped to the host (the paper's "initial checksums
/// transfer, 2n²/B"). Also captures the initial per-column magnitude
/// statistics ([`CholLayout::col_stats`]) the adaptive tolerance reads.
pub fn encode_all<S: Scalar>(ctx: &mut SimContext<S>, lay: &mut CholLayout, opts: &AbftOptions) {
    let mut idx = 0usize;
    for bj in 0..lay.nt {
        for bi in bj..lay.nt {
            let f = lay.charge(flops::encode_block(lay.b, lay.b));
            let (mat, cks_bi) = (lay.mat, lay.cks[bi]);
            ctx.launch(
                recalc_stream(lay, opts, idx),
                KernelDesc::new(
                    format!("ENC ({bi},{bj})"),
                    KernelClass::Blas2,
                    f,
                    WorkCategory::ChecksumEncode,
                )
                .with_access(AccessSet::new(
                    vec![TileRef::new(mat, bi, bj)],
                    vec![TileRef::new(cks_bi, 0, bj)],
                )),
                move |mem| {
                    let (cks, m) = mem.buf_pair_mut(cks_bi, mat);
                    checksum::encode_into(m.tile(bi, bj), cks.tile_mut(0, bj));
                },
            );
            idx += 1;
        }
    }
    ctx.sync_device();
    let all = lower_tiles(lay.nt);
    refresh_col_stats(ctx, lay, &all);
    if lay.placement == ChecksumPlacement::Cpu {
        let bytes = S::BYTES * 2 * (lay.n as u64) * (lay.nt as u64);
        // The shipment reads every freshly encoded checksum tile.
        let (nt, cks) = (lay.nt, &lay.cks);
        let reads = (0..nt)
            .flat_map(|bj| (bj..nt).map(move |bi| TileRef::new(cks[bi], 0, bj)))
            .collect();
        ctx.bulk_transfer_with_access(
            bytes,
            lay.s_tran,
            false,
            AccessSet::new(reads, vec![]),
            |_, _| {},
        );
        ctx.sync_stream(lay.s_tran);
    }
}

/// Dispatch one checksum-update task to the configured engine: a slim GPU
/// kernel on the dedicated checksum stream, or a CPU worker-lane task.
///
/// GPU-placed updates read factorized matrix tiles produced on the compute
/// stream, so the checksum stream first waits on [`CholLayout::panel_ready`]
/// (the event recorded after the last panel TRSM). CPU-placed updates
/// conceptually read the host mirrors shipped by [`cpu_mirror_panel`]; they
/// declare no device accesses.
fn dispatch_update<S: Scalar, F>(
    ctx: &mut SimContext<S>,
    lay: &CholLayout,
    label: String,
    f: u64,
    access: AccessSet,
    body: F,
) where
    F: FnOnce(&mut hchol_gpusim::DeviceMemory<S>),
{
    let desc = KernelDesc::new(label, KernelClass::Blas2, f, WorkCategory::ChecksumUpdate);
    match lay.placement {
        ChecksumPlacement::Cpu => ctx.cpu_submit(desc, move |dev, _host| body(dev)),
        ChecksumPlacement::Inline => ctx.launch(lay.s_comp, desc.with_access(access), body),
        _ => {
            if let Some(e) = lay.panel_ready {
                ctx.stream_wait_event(lay.s_chk, e);
            }
            ctx.launch(lay.s_chk, desc.with_access(access), body);
        }
    }
}

/// Record completion of the current block column on the compute stream;
/// subsequent checksum-update kernels order themselves behind it. Schemes
/// call this right after enqueuing each panel TRSM.
pub fn mark_panel_ready<S: Scalar>(ctx: &mut SimContext<S>, lay: &mut CholLayout) {
    lay.panel_ready = Some(ctx.record_event(lay.s_comp));
}

/// Checksum update mirroring the SYRK:
/// `chk(A[j,j]) -= Σ_k chk(L[j,k]) · L[j,k]ᵀ`.
pub fn update_chk_syrk<S: Scalar>(ctx: &mut SimContext<S>, lay: &CholLayout, j: usize) {
    if j == 0 {
        return;
    }
    let f = lay.charge(j as u64 * chkops::update_product_flops(lay.b));
    let (mat, cks_j) = (lay.mat, lay.cks[j]);
    let access = AccessSet::new(
        (0..j)
            .flat_map(|k| [TileRef::new(mat, j, k), TileRef::new(cks_j, 0, k)])
            .chain([TileRef::new(cks_j, 0, j)])
            .collect(),
        vec![TileRef::new(cks_j, 0, j)],
    );
    dispatch_update(ctx, lay, format!("UPD-SYRK j={j}"), f, access, move |mem| {
        let (cks, m) = mem.buf_pair_mut(cks_j, mat);
        for k in 0..j {
            let (cjj, cjk) = cks.tile_pair((0, j), (0, k));
            chkops::update_product(cjj, cjk, m.tile(j, k));
        }
    });
}

/// Checksum update mirroring the GEMM for panel row `i`:
/// `chk(A[i,j]) -= Σ_k chk(L[i,k]) · L[j,k]ᵀ`.
pub fn update_chk_gemm<S: Scalar>(ctx: &mut SimContext<S>, lay: &CholLayout, j: usize, i: usize) {
    if j == 0 {
        return;
    }
    let f = lay.charge(j as u64 * chkops::update_product_flops(lay.b));
    let (mat, cks_i) = (lay.mat, lay.cks[i]);
    let access = AccessSet::new(
        (0..j)
            .flat_map(|k| [TileRef::new(mat, j, k), TileRef::new(cks_i, 0, k)])
            .chain([TileRef::new(cks_i, 0, j)])
            .collect(),
        vec![TileRef::new(cks_i, 0, j)],
    );
    dispatch_update(
        ctx,
        lay,
        format!("UPD-GEMM ({i},{j})"),
        f,
        access,
        move |mem| {
            let (cks, m) = mem.buf_pair_mut(cks_i, mat);
            for k in 0..j {
                let (cij, cik) = cks.tile_pair((0, j), (0, k));
                chkops::update_product(cij, cik, m.tile(j, k));
            }
        },
    );
}

/// Checksum update mirroring POTF2 (Algorithm 2 of the paper).
pub fn update_chk_potf2<S: Scalar>(ctx: &mut SimContext<S>, lay: &CholLayout, j: usize) {
    let f = lay.charge(chkops::update_solve_flops(lay.b));
    let (mat, cks_j) = (lay.mat, lay.cks[j]);
    // The factorized block returns on the transfer stream; the update (on
    // the checksum stream) must not start before it lands.
    if !matches!(lay.placement, ChecksumPlacement::Cpu) {
        let diag_back = ctx.record_event(lay.s_tran);
        let target = if lay.placement == ChecksumPlacement::Inline {
            lay.s_comp
        } else {
            lay.s_chk
        };
        ctx.stream_wait_event(target, diag_back);
    }
    let access = AccessSet::new(
        vec![TileRef::new(mat, j, j), TileRef::new(cks_j, 0, j)],
        vec![TileRef::new(cks_j, 0, j)],
    );
    dispatch_update(
        ctx,
        lay,
        format!("UPD-POTF2 j={j}"),
        f,
        access,
        move |mem| {
            let (cks, m) = mem.buf_pair_mut(cks_j, mat);
            chkops::update_potf2(cks.tile_mut(0, j), m.tile(j, j));
        },
    );
}

/// Checksum update mirroring the TRSM for panel row `i`:
/// `chk(L[i,j]) = chk(A[i,j]) · (L[j,j]ᵀ)⁻¹`.
pub fn update_chk_trsm<S: Scalar>(ctx: &mut SimContext<S>, lay: &CholLayout, j: usize, i: usize) {
    let f = lay.charge(chkops::update_solve_flops(lay.b));
    let (mat, cks_i) = (lay.mat, lay.cks[i]);
    let access = AccessSet::new(
        vec![TileRef::new(mat, j, j), TileRef::new(cks_i, 0, j)],
        vec![TileRef::new(cks_i, 0, j)],
    );
    dispatch_update(
        ctx,
        lay,
        format!("UPD-TRSM ({i},{j})"),
        f,
        access,
        move |mem| {
            let (cks, m) = mem.buf_pair_mut(cks_i, mat);
            chkops::update_trsm(cks.tile_mut(0, j), m.tile(j, j));
        },
    );
}

/// With CPU placement, ship the freshly factorized panel column `j` to the
/// host once — CPU-side updates reference factorized data (the paper's
/// "checksum updating related transfer", totaling n²/2 elements).
pub fn cpu_mirror_panel<S: Scalar>(ctx: &mut SimContext<S>, lay: &mut CholLayout, j: usize) {
    let _ = ctx;
    if lay.placement != ChecksumPlacement::Cpu {
        return;
    }
    lay.pending_mirror = Some(j);
}

/// Issue a queued panel mirror (ordered behind the producing TRSM via
/// [`CholLayout::panel_ready`]). Called from [`diag_to_host`] — after the
/// latency-critical diagonal transfer — and at attempt end.
pub fn flush_mirror<S: Scalar>(ctx: &mut SimContext<S>, lay: &mut CholLayout) {
    let Some(j) = lay.pending_mirror.take() else {
        return;
    };
    let tiles = (lay.nt - j) as u64;
    let bytes = S::BYTES * tiles * (lay.b * lay.b) as u64;
    if let Some(e) = lay.panel_ready {
        ctx.stream_wait_event(lay.s_tran, e);
    }
    let mat = lay.mat;
    let access = AccessSet::new(
        (j..lay.nt).map(|i| TileRef::new(mat, i, j)).collect(),
        vec![],
    );
    ctx.bulk_transfer_with_access(bytes, lay.s_tran, false, access, |_, _| {});
}

/// Mid-run checksum migration for a placement switch decided by the
/// runtime balancer ([`crate::plan::balance::BalanceController`]): ship
/// the checksum state — and, toward the CPU, the already-factorized panel
/// columns the host-side updates read — across PCIe, then flip the
/// layout's placement so every subsequent dispatch (`dispatch_update`,
/// panel mirroring, verification syncs) routes to the new side. `next_j`
/// is the first not-yet-executed iteration. The caller synchronizes the
/// context first: the migration is a rebalance barrier, not an overlapped
/// transfer.
pub fn migrate_checksums<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &mut CholLayout,
    to: ChecksumPlacement,
    next_j: usize,
) {
    if lay.placement == to {
        return;
    }
    let chk_bytes = S::BYTES * 2 * (lay.n as u64) * (lay.nt as u64);
    let chk_tiles: Vec<TileRef> = (0..lay.nt)
        .flat_map(|bj| (bj..lay.nt).map(move |bi| (bi, bj)))
        .map(|(bi, bj)| TileRef::new(lay.cks[bi], 0, bj))
        .collect();
    match to {
        ChecksumPlacement::Cpu => {
            // Host-side updating reads the factorized panels; columns that
            // already left the panel stage have no pending mirror, so they
            // travel with the checksum rows in one bulk shipment.
            let done = next_j.min(lay.nt);
            let done_tiles: u64 = (0..done).map(|k| (lay.nt - k) as u64).sum();
            let bytes = chk_bytes + S::BYTES * done_tiles * (lay.b * lay.b) as u64;
            let mat = lay.mat;
            let mut reads = chk_tiles;
            reads.extend((0..done).flat_map(|k| (k..lay.nt).map(move |i| TileRef::new(mat, i, k))));
            ctx.bulk_transfer_with_access(
                bytes,
                lay.s_tran,
                false,
                AccessSet::new(reads, vec![]),
                |_, _| {},
            );
        }
        ChecksumPlacement::Gpu => {
            // Host checksums return to the device; any queued panel mirror
            // is moot once updating runs GPU-side again.
            lay.pending_mirror = None;
            ctx.bulk_transfer_with_access(
                chk_bytes,
                lay.s_tran,
                true,
                AccessSet::new(vec![], chk_tiles),
                |_, _| {},
            );
        }
        // The balancer never targets Inline/Auto.
        _ => unreachable!("migration targets a concrete CPU/GPU placement"),
    }
    ctx.sync_stream(lay.s_tran);
    lay.placement = to;
}

/// Stage 1 of verification: recalculate fresh checksums of `tiles` into
/// the scratch buffers.
///
/// Waits for outstanding checksum *updates* to land (they race the compare
/// otherwise), then spreads recalculation kernels across the recalc streams
/// (Optimization 1) or serializes them on the compute stream. A
/// `VerifyBatch` plan node runs this followed by [`verify_compare`].
pub fn verify_recalc<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &mut CholLayout,
    tiles: &[(usize, usize)],
    opts: &AbftOptions,
) {
    if tiles.is_empty() {
        return;
    }
    refresh_col_stats(ctx, lay, tiles);
    // Updates to these checksums must have landed before we compare.
    if lay.placement == ChecksumPlacement::Cpu {
        ctx.sync_cpu_workers();
    } else {
        ctx.sync_stream(lay.s_chk);
    }

    ensure_scratch(ctx, lay, tiles.len());
    // Recalculation reads data produced on the compute stream (and, for the
    // diagonal block, returned on the transfer stream): order after both.
    let data_ready_comp = ctx.record_event(lay.s_comp);
    let data_ready_tran = ctx.record_event(lay.s_tran);
    if opts.concurrent_recalc {
        // The launch loop below round-robins kernels as `idx % streams`, so
        // exactly the first `min(tiles, streams)` streams are used; iterate
        // that used prefix explicitly so the wait set can never diverge
        // from the launch set.
        for &st in lay.recalc_streams.iter().take(tiles.len()) {
            ctx.stream_wait_event(st, data_ready_comp);
            ctx.stream_wait_event(st, data_ready_tran);
        }
    } else {
        ctx.stream_wait_event(lay.s_comp, data_ready_tran);
    }
    for (idx, &(bi, bj)) in tiles.iter().enumerate() {
        let f = lay.charge(flops::recalc_block(lay.b, lay.b));
        let (mat, scr) = (lay.mat, lay.scratch[idx]);
        ctx.launch(
            recalc_stream(lay, opts, idx),
            KernelDesc::new(
                format!("REC ({bi},{bj})"),
                KernelClass::Blas2,
                f,
                WorkCategory::ChecksumRecalc,
            )
            .with_access(AccessSet::new(
                vec![TileRef::new(mat, bi, bj)],
                vec![TileRef::new(scr, 0, 0)],
            )),
            move |mem| {
                let (s, m) = mem.buf_pair_mut(scr, mat);
                checksum::encode_into(m.tile(bi, bj), s.tile_mut(0, 0));
            },
        );
    }
    if opts.concurrent_recalc {
        // Same used-streams prefix as the wait loop above.
        for &s in lay.recalc_streams.iter().take(tiles.len()) {
            ctx.sync_stream(s);
        }
    } else {
        ctx.sync_stream(lay.s_comp);
    }
}

/// Stage 2 of verification: compare recalculated checksums (left in scratch
/// by [`verify_recalc`]) against the maintained ones.
pub fn verify_compare<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &mut CholLayout,
    tiles: &[(usize, usize)],
    opts: &AbftOptions,
) {
    let _ = opts;
    if tiles.is_empty() {
        return;
    }
    // With CPU-resident checksums, comparing means moving checksums across
    // the bus (the paper's "verification related transfer"). The stored
    // sums ride host→device — the direction the panel mirrors don't use —
    // on a dedicated stream, so the latency-critical compare never queues
    // behind a bulky mirror on the d2h engine.
    if lay.placement == ChecksumPlacement::Cpu {
        let bytes = S::BYTES * 2 * (lay.b as u64) * tiles.len() as u64;
        ctx.bulk_transfer(bytes, lay.s_verif, true, |_, _| {});
        ctx.sync_stream(lay.s_verif);
    }

    // Comparison itself (a handful of flops per column — the overhead the
    // paper's Section VI deems ignorable, charged anyway). Reads only: data
    // tiles, their stored checksums, and the recalculated sums. This is the
    // op whose reads mark tiles *verified* for the conformance analysis, so
    // it must not declare writes (a write would invalidate its own marks).
    let f = lay.charge(flops::verify_compare(lay.b) * tiles.len() as u64);
    let cmp_reads = tiles
        .iter()
        .enumerate()
        .flat_map(|(idx, &(bi, bj))| {
            [
                TileRef::new(lay.mat, bi, bj),
                TileRef::new(lay.cks[bi], 0, bj),
                TileRef::new(lay.scratch[idx], 0, 0),
            ]
        })
        .collect();
    ctx.launch(
        lay.s_comp,
        KernelDesc::new(
            format!("CMP x{}", tiles.len()),
            KernelClass::Light,
            f,
            WorkCategory::Verify,
        )
        .with_access(AccessSet::new(cmp_reads, vec![])),
        |_| {},
    );
    ctx.sync_stream(lay.s_comp);
}

/// Compare-only verification for tiles whose producing SYRK/GEMM kernel
/// deposited fresh checksums in its fused epilogue ([`syrk_diag_fused`] /
/// [`gemm_panel_fused`]): no recalculation kernels, no scratch — the CMP
/// reads the maintained checksums and the deposits directly. Replaces
/// [`verify_recalc`] + [`verify_compare`] for a fused `VerifyBatch`.
///
/// The compare deliberately declares **no matrix-tile reads**: for the
/// conformance analysis it is the producer's `fused_verify` write that
/// marks the tile verified, and the compare must not re-mark it.
pub fn verify_compare_fused<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &mut CholLayout,
    tiles: &[(usize, usize)],
    opts: &AbftOptions,
) {
    let _ = opts;
    if tiles.is_empty() {
        return;
    }
    refresh_col_stats(ctx, lay, tiles);
    ensure_dpt(ctx, lay);
    // Updates to the maintained checksums must have landed before we
    // compare against them (same rule as the recalc path).
    if lay.placement == ChecksumPlacement::Cpu {
        ctx.sync_cpu_workers();
        // CPU-resident stored checksums ride host→device for the compare.
        let bytes = S::BYTES * 2 * (lay.b as u64) * tiles.len() as u64;
        ctx.bulk_transfer(bytes, lay.s_verif, true, |_, _| {});
        ctx.sync_stream(lay.s_verif);
    } else {
        ctx.sync_stream(lay.s_chk);
    }
    let f = lay.charge(flops::verify_compare(lay.b) * tiles.len() as u64);
    let cmp_reads = tiles
        .iter()
        .flat_map(|&(bi, bj)| {
            [
                TileRef::new(lay.cks[bi], 0, bj),
                TileRef::new(lay.dpt[bi], 0, bj),
            ]
        })
        .collect();
    ctx.launch(
        lay.s_comp,
        KernelDesc::new(
            format!("CMP-F x{}", tiles.len()),
            KernelClass::Light,
            f,
            WorkCategory::Verify,
        )
        .with_access(AccessSet::new(cmp_reads, vec![])),
        |_| {},
    );
    ctx.sync_stream(lay.s_comp);
}

/// Stages 3–4 of verification: locate and correct, per tile, from the
/// comparison results. Maps onto a `Correct` plan node.
///
/// In Execute mode this operates on real data via [`verify_and_correct`]
/// (which locates errors by the paper's `j = δ₂/δ₁` ratio — see
/// [`crate::verify::locate_row`]); in TimingOnly mode the injector's ledger
/// decides outcomes (a directly-hit tile is correctable, a propagated one
/// is not). Records the `verify.*` metrics and `fault.*` events for the
/// batch.
///
/// `depth` is the accumulation depth of the verified tiles — the iteration
/// index the plan recorded on the `Correct` node (`nt` for a final sweep) —
/// which the adaptive tolerance model turns into an accumulation-path
/// length. Ignored under the fixed model.
pub fn verify_correct<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &mut CholLayout,
    inj: &mut Injector,
    tiles: &[(usize, usize)],
    depth: usize,
    opts: &AbftOptions,
) -> VerifyOutcome {
    verify_correct_impl(ctx, lay, inj, tiles, depth, opts, false)
}

/// [`verify_correct`] for a fused batch: the freshly recalculated checksums
/// live in the epilogue deposit tile `dpt[bi](0, bj)` rather than in the
/// per-batch scratch tiles.
pub fn verify_correct_fused<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &mut CholLayout,
    inj: &mut Injector,
    tiles: &[(usize, usize)],
    depth: usize,
    opts: &AbftOptions,
) -> VerifyOutcome {
    verify_correct_impl(ctx, lay, inj, tiles, depth, opts, true)
}

/// Resolve the run's tolerance model into per-tile thresholds for grid
/// column `bj` at accumulation depth `depth`. The accumulation-path length
/// is `b · (depth + 1)`: the encode sums `b` elements, and each of the
/// `depth` mirrored update rounds folds another `b`-element product into
/// the checksum row. The magnitude bound is `b · max|x|` (the largest
/// partial sum the path can reach), floored so all-zero statistics
/// (TimingOnly, or a zero column) still yield a usable threshold.
fn tile_tolerance<S: Scalar>(
    lay: &CholLayout,
    bj: usize,
    depth: usize,
    opts: &AbftOptions,
) -> TileTolerance {
    match &opts.tolerance {
        ToleranceModel::Fixed(p) => TileTolerance::Fixed(*p),
        ToleranceModel::Adaptive(a) => TileTolerance::Adaptive {
            eps: S::EPSILON,
            alpha: a.alpha,
            steps: (lay.b * (depth + 1)) as f64,
            magnitude: (lay.b as f64 * lay.col_stats.get(bj).copied().unwrap_or(0.0)).max(a.floor),
        },
    }
}

fn verify_correct_impl<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &mut CholLayout,
    inj: &mut Injector,
    tiles: &[(usize, usize)],
    depth: usize,
    opts: &AbftOptions,
    fused: bool,
) -> VerifyOutcome {
    let mut out = VerifyOutcome::default();
    if tiles.is_empty() {
        return out;
    }
    let adaptive = matches!(opts.tolerance, ToleranceModel::Adaptive(_));
    let mut threshold_peak = 0.0f64;
    for (idx, &(bi, bj)) in tiles.iter().enumerate() {
        let tol = tile_tolerance::<S>(lay, bj, depth, opts);
        if adaptive {
            threshold_peak = threshold_peak.max(tol.representative());
        }
        if ctx.mode.executes() {
            // Fresh checksums: epilogue deposit for a fused batch, the
            // recalculation scratch tile otherwise.
            let (src_buf, src_tile) = if fused {
                (lay.dpt[bi], (0, bj))
            } else {
                (lay.scratch[idx], (0, 0))
            };
            let (m, cks, src) = ctx.dev_mem.buf_trio_mut(lay.mat, lay.cks[bi], src_buf);
            let o = verify_and_correct(
                m.tile_mut(bi, bj),
                cks.tile_mut(0, bj),
                src.tile(src_tile.0, src_tile.1),
                &tol,
            );
            if std::env::var_os("HCHOL_VERIFY_TRACE").is_some() && !o.is_clean() {
                eprintln!("verify ({bi},{bj}): {o:?}");
            }
            if !o.is_clean() && o.fully_recovered() {
                inj.mark_corrected(bi, bj);
            }
            out.merge(o);
        } else {
            match inj.dirtiness(bi, bj) {
                None => {}
                Some(Dirtiness::Direct) => {
                    out.corrected_data += 1;
                    out.tiles_flagged += 1;
                    inj.mark_corrected(bi, bj);
                }
                Some(Dirtiness::Propagated) => {
                    out.uncorrectable_columns += 1;
                    out.tiles_flagged += 1;
                }
            }
        }
    }

    // Observability: batch totals and fault-tolerance events. Only the
    // `VerifyOutcome` totals are recorded — they are mode-invariant (the
    // TimingOnly ledger oracle mirrors the Execute-mode comparison).
    let m = &mut ctx.obs.metrics;
    m.inc("verify.batches");
    m.add_count("verify.tiles", tiles.len() as u64);
    if adaptive {
        // The widest detection threshold this batch ran with. Recorded
        // under the adaptive model only: the value is data-dependent, and
        // fixed-model (golden-pinned) reports must stay byte-identical.
        m.set_gauge("verify.threshold", threshold_peak);
    }
    if fused {
        m.inc("verify.fused.batches");
        m.add_count("verify.fused.tiles", tiles.len() as u64);
    }
    if !out.is_clean() {
        m.add_count("verify.detections", out.tiles_flagged as u64);
        m.add_count("verify.corrected_data", out.corrected_data as u64);
        m.add_count("verify.repaired_checksums", out.repaired_checksums as u64);
        m.add_count(
            "verify.uncorrectable_columns",
            out.uncorrectable_columns as u64,
        );
        let t = ctx.now().as_secs();
        ctx.obs.event(
            t,
            "fault.detected",
            format!("flagged {} of {} tiles", out.tiles_flagged, tiles.len()),
        );
        if out.corrected_data > 0 || out.repaired_checksums > 0 {
            ctx.obs.event(
                t,
                "fault.corrected",
                format!(
                    "data columns: {}, checksum rows: {}",
                    out.corrected_data, out.repaired_checksums
                ),
            );
        }
        if out.uncorrectable_columns > 0 {
            ctx.obs.event(
                t,
                "fault.uncorrectable",
                format!("{} columns beyond correction", out.uncorrectable_columns),
            );
        }
    }
    out
}

/// Recalculate, compare, locate, and correct a batch of tiles — the
/// verification step, on the critical path.
///
/// Composition of the pipeline stages [`verify_recalc`] →
/// [`verify_compare`] → [`verify_correct`]; plan nodes invoke the stages
/// individually (`VerifyBatch` covers the first two, `Correct` the last).
pub fn verify_batch<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &mut CholLayout,
    inj: &mut Injector,
    tiles: &[(usize, usize)],
    depth: usize,
    opts: &AbftOptions,
) -> VerifyOutcome {
    if tiles.is_empty() {
        return VerifyOutcome::default();
    }
    verify_recalc(ctx, lay, tiles, opts);
    verify_compare(ctx, lay, tiles, opts);
    verify_correct(ctx, lay, inj, tiles, depth, opts)
}

/// Every tile of the lower triangle (including the diagonal).
pub fn lower_tiles(nt: usize) -> Vec<(usize, usize)> {
    let mut v = Vec::with_capacity(nt * (nt + 1) / 2);
    for bj in 0..nt {
        for bi in bj..nt {
            v.push((bi, bj));
        }
    }
    v
}

// ---------------------------------------------------------------------------
// Ledger propagation (read/write sets of each operation)
// ---------------------------------------------------------------------------

/// SYRK reads the factorized row panel; corruption there smears a whole
/// column of the diagonal block.
pub fn propagate_syrk(inj: &mut Injector, j: usize) {
    let sources: Vec<_> = (0..j).map(|k| (j, k)).collect();
    inj.propagate(&sources, (j, j));
}

/// GEMM reads two factorized panels per target tile.
pub fn propagate_gemm(inj: &mut Injector, nt: usize, j: usize) {
    for i in (j + 1)..nt {
        let mut sources: Vec<_> = (0..j).map(|k| (i, k)).collect();
        sources.extend((0..j).map(|k| (j, k)));
        inj.propagate(&sources, (i, j));
    }
}

/// POTF2 smears any pre-existing corruption of the diagonal block across
/// the whole factor tile.
pub fn propagate_potf2(inj: &mut Injector, j: usize) {
    inj.propagate(&[(j, j)], (j, j));
}

/// TRSM spreads corruption of the diagonal factor into every panel tile.
pub fn propagate_trsm(inj: &mut Injector, nt: usize, j: usize) {
    for i in (j + 1)..nt {
        inj.propagate(&[(j, j)], (i, j));
    }
}

/// Extract the dense lower-triangular factor from device memory
/// (Execute mode only).
pub fn extract_factor<S: Scalar>(ctx: &SimContext<S>, lay: &CholLayout) -> Option<Matrix<S>> {
    if !ctx.mode.executes() {
        return None;
    }
    let mut l = ctx.dev_mem.buf(lay.mat).to_dense();
    force_lower(&mut l);
    Some(l)
}

/// Reload pristine input into device memory after a failed attempt,
/// charging the full-matrix upload the restart costs.
pub fn reload<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &CholLayout,
    pristine: Option<&TileMatrix<S>>,
) {
    let bytes = S::BYTES * (lay.n as u64) * (lay.n as u64);
    let mat = lay.mat;
    let clone = pristine.cloned();
    // The upload rewrites every tile, which also (correctly) invalidates
    // every verify mark from the failed attempt in the schedule analysis.
    let writes = (0..lay.nt)
        .flat_map(|bi| (0..lay.nt).map(move |bj| TileRef::new(mat, bi, bj)))
        .collect();
    ctx.bulk_transfer_with_access(
        bytes,
        lay.s_tran,
        true,
        AccessSet::new(vec![], writes),
        move |dev, _| {
            *dev.buf_mut(mat) = clone.expect("Execute mode keeps a pristine copy");
        },
    );
    ctx.sync_stream(lay.s_tran);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hchol_gpusim::profile::SystemProfile;
    use hchol_matrix::generate::spd_diag_dominant;

    fn exec_ctx() -> SimContext {
        SimContext::new(SystemProfile::test_profile(), ExecMode::Execute)
    }

    #[test]
    fn setup_allocates_expected_buffers() {
        let mut ctx = exec_ctx();
        let a = spd_diag_dominant(8, 1);
        let lay = setup(&mut ctx, 8, 4, true, ChecksumPlacement::Gpu, Some(&a)).unwrap();
        assert_eq!(lay.nt, 2);
        assert_eq!(lay.cks.len(), 2);
        // matrix + 2 checksum rows
        assert_eq!(ctx.dev_mem.buffer_count(), 3);
        assert_eq!(ctx.dev_mem.buf(lay.mat).to_dense(), a);
    }

    #[test]
    fn full_iteration_matches_reference_factorization() {
        // Drive the four ops by hand for a 2x2-tile matrix and compare with
        // the trusted host factorization.
        let n = 8;
        let b = 4;
        let a = spd_diag_dominant(n, 2);
        let mut ctx = exec_ctx();
        let mut lay = setup(&mut ctx, n, b, false, ChecksumPlacement::Gpu, Some(&a)).unwrap();
        for j in 0..lay.nt {
            syrk_diag(&mut ctx, &lay, j);
            diag_to_host(&mut ctx, &mut lay, j);
            gemm_panel(&mut ctx, &lay, j);
            ctx.sync_stream(lay.s_tran);
            host_potf2(&mut ctx, &lay, j).unwrap();
            diag_to_device(&mut ctx, &lay, j);
            ctx.sync_stream(lay.s_tran);
            trsm_panel(&mut ctx, &lay, j);
        }
        ctx.sync_all();
        let l = extract_factor(&ctx, &lay).unwrap();
        let mut want = a.clone();
        hchol_blas::potrf_blocked(&mut want, b).unwrap();
        assert!(hchol_matrix::approx_eq(&l, &want, 1e-10));
    }

    #[test]
    fn encode_then_verify_is_clean() {
        let n = 8;
        let b = 4;
        let a = spd_diag_dominant(n, 3);
        let mut ctx = exec_ctx();
        let mut lay = setup(&mut ctx, n, b, true, ChecksumPlacement::Gpu, Some(&a)).unwrap();
        let opts = AbftOptions::default();
        encode_all(&mut ctx, &mut lay, &opts);
        let mut inj = Injector::inert();
        let nt = lay.nt;
        let tiles = lower_tiles(nt);
        let out = verify_batch(&mut ctx, &mut lay, &mut inj, &tiles, nt, &opts);
        assert!(out.is_clean());
    }

    #[test]
    fn verify_batch_corrects_injected_corruption() {
        let n = 8;
        let b = 4;
        let a = spd_diag_dominant(n, 4);
        let mut ctx = exec_ctx();
        let mut lay = setup(&mut ctx, n, b, true, ChecksumPlacement::Gpu, Some(&a)).unwrap();
        let opts = AbftOptions::default();
        encode_all(&mut ctx, &mut lay, &opts);
        // Flip bits directly in "DRAM".
        let v = ctx.dev_mem.tile(lay.mat, 1, 0).get(2, 3);
        ctx.dev_mem
            .tile_mut(lay.mat, 1, 0)
            .set(2, 3, hchol_matrix::bits::flip_bits(v, &[30, 53]));
        let mut inj = Injector::inert();
        let out = verify_batch(&mut ctx, &mut lay, &mut inj, &[(1, 0)], 0, &opts);
        assert_eq!(out.corrected_data, 1);
        // The correction subtracts δ₁, which carries the rounding of the two
        // checksum sums — recovery is exact to a few ulps, not bitwise.
        let after = ctx.dev_mem.tile(lay.mat, 1, 0).get(2, 3);
        assert!(
            (after - v).abs() < 1e-12 * v.abs().max(1.0),
            "{after} vs {v}"
        );
    }

    #[test]
    fn timing_only_runs_without_data() {
        let mut ctx = SimContext::new(SystemProfile::test_profile(), ExecMode::TimingOnly);
        let mut lay = setup(&mut ctx, 16, 4, true, ChecksumPlacement::Gpu, None).unwrap();
        let opts = AbftOptions::default();
        encode_all(&mut ctx, &mut lay, &opts);
        for j in 0..lay.nt {
            syrk_diag(&mut ctx, &lay, j);
            diag_to_host(&mut ctx, &mut lay, j);
            gemm_panel(&mut ctx, &lay, j);
            ctx.sync_stream(lay.s_tran);
            host_potf2(&mut ctx, &lay, j).unwrap();
            diag_to_device(&mut ctx, &lay, j);
            ctx.sync_stream(lay.s_tran);
            trsm_panel(&mut ctx, &lay, j);
        }
        ctx.sync_all();
        assert!(ctx.now().as_secs() > 0.0);
        let mut inj = Injector::inert();
        let nt = lay.nt;
        let tiles = lower_tiles(nt);
        let out = verify_batch(&mut ctx, &mut lay, &mut inj, &tiles, nt, &opts);
        assert!(out.is_clean());
    }

    #[test]
    fn concurrent_recalc_is_faster_than_serial() {
        let tiles: Vec<_> = lower_tiles(8);
        let run = |concurrent: bool| {
            let mut ctx = SimContext::new(SystemProfile::test_profile(), ExecMode::TimingOnly);
            let mut lay = setup(&mut ctx, 64, 8, true, ChecksumPlacement::Gpu, None).unwrap();
            let opts = AbftOptions::default().with_concurrent_recalc(concurrent);
            let mut inj = Injector::inert();
            verify_batch(&mut ctx, &mut lay, &mut inj, &tiles, 8, &opts);
            ctx.sync_all();
            ctx.now().as_secs()
        };
        let serial = run(false);
        let conc = run(true);
        assert!(
            conc < serial * 0.6,
            "concurrent {conc} not sufficiently faster than serial {serial}"
        );
    }

    #[test]
    fn cpu_placement_charges_transfers() {
        let mut ctx = SimContext::new(SystemProfile::test_profile(), ExecMode::TimingOnly);
        let mut lay = setup(&mut ctx, 16, 4, true, ChecksumPlacement::Cpu, None).unwrap();
        let opts = AbftOptions::default();
        encode_all(&mut ctx, &mut lay, &opts);
        let before = ctx.counters.bytes(WorkCategory::Transfer);
        assert!(before > 0, "initial checksum transfer must be charged");
        let mut inj = Injector::inert();
        verify_batch(&mut ctx, &mut lay, &mut inj, &[(1, 0)], 0, &opts);
        assert!(ctx.counters.bytes(WorkCategory::Transfer) > before);
    }

    #[test]
    fn lower_tiles_enumeration() {
        let t = lower_tiles(3);
        assert_eq!(t.len(), 6);
        assert!(t.contains(&(2, 2)) && t.contains(&(2, 0)) && !t.contains(&(0, 1)));
    }
}
