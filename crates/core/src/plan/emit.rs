//! The planner: one forward pass that pushes every node of a
//! [`FactorPlan`] once, in authored order — a head (the initial checksum
//! encoding), `nt` Algorithm-1 iterations, and a tail (mirror flush, final
//! acceptance sweep, drain barrier).
//!
//! The three schemes run the same iteration and differ only in where the
//! checks sit:
//!
//! * **Offline** (Huang & Abraham) — encode once, let the checksum updates
//!   ride along, verify the whole lower triangle at the very end.
//! * **Online** (Wu & Chen) — verify each block right after the operation
//!   that writes it, plus the final sweep.
//! * **Enhanced** (this paper) — verify every input right before the
//!   operation that reads it. Optimization 3's interval `K` decides which
//!   GEMM/TRSM input checks exist, so the relaxation is visible in the
//!   plan itself.
//!
//! Optimization 2's CPU placement adds one panel mirror per iteration, and
//! `chk_fused` (Enhanced only) marks the SYRK/GEMM producers fused and
//! splits each verify batch into a recalculating part and a compare-only
//! part as it is emitted. The MAGMA/CULA baselines emit the bare
//! iteration. The balance controller re-emits the not-yet-executed
//! iterations of a running plan through the same emitter, so each rule is
//! stated here once.

use super::{DriveStyle, FactorPlan, ScopeId, SweepKind, TaskKind, UpdateOp};
use crate::ops;
use crate::options::ChecksumPlacement;
use crate::schemes::SchemeKind;
use hchol_faults::InjectionPoint;
use hchol_obs::Phase;

/// The tiles the Enhanced scheme verifies before iteration `j`'s SYRK:
/// the diagonal block and its factorized row panel.
pub fn syrk_input_tiles(j: usize) -> Vec<(usize, usize)> {
    let mut tiles = vec![(j, j)];
    tiles.extend((0..j).map(|k| (j, k)));
    tiles
}

/// The tiles the Enhanced scheme verifies before iteration `j`'s panel
/// GEMM: the panel being updated (B), the factorized row panel (C), and
/// the factorized body panel (D). These are the checks Optimization 3
/// gates on `j % K == 0`.
pub fn gemm_input_tiles(nt: usize, j: usize) -> Vec<(usize, usize)> {
    let mut tiles: Vec<(usize, usize)> = Vec::new();
    for i in (j + 1)..nt {
        tiles.push((i, j)); // B: the panel being updated
    }
    for k in 0..j {
        tiles.push((j, k)); // C: the row panel
        for i in (j + 1)..nt {
            tiles.push((i, k)); // D: the body panel
        }
    }
    tiles
}

/// The tiles the Enhanced scheme verifies before iteration `j`'s panel
/// TRSM: the factorized diagonal and the panel column (K-gated, like the
/// GEMM inputs).
pub fn trsm_input_tiles(nt: usize, j: usize) -> Vec<(usize, usize)> {
    let mut tiles = vec![(j, j)];
    tiles.extend(((j + 1)..nt).map(|i| (i, j)));
    tiles
}

/// Emits a plan's nodes for one scheme (or baseline) under one resolved
/// placement, verify interval and fused setting.
pub(crate) struct Emitter {
    nt: usize,
    style: DriveStyle,
    /// `None` for the MAGMA/CULA baselines (no fault tolerance).
    scheme: Option<SchemeKind>,
    /// Optimization 3's verify interval (Enhanced GEMM/TRSM input checks
    /// run on iterations `j % k == 0`).
    k: usize,
    /// CPU checksum placement: mirror each factorized panel to the host.
    mirror: bool,
    /// Fused checksum epilogues (Enhanced with `chk_fused` only).
    fused: bool,
    /// Per tile (`bi·nt + bj`, fused plans only): did its last writer
    /// deposit fresh checksums? A write by a plain kernel or a correction
    /// makes the deposit stale.
    deposited: Vec<bool>,
}

impl Emitter {
    /// The bare Algorithm-1 iteration of a baseline.
    ///
    /// [`DriveStyle::Overlapped`] (MAGMA-style) runs SYRK → diag D2H →
    /// panel GEMM → host POTF2 (+ diag H2D) → panel TRSM, with the POTF2
    /// round trip overlapping the GEMM via stream events;
    /// [`DriveStyle::Synchronous`] (CULA-style) runs POTF2 *before* the
    /// GEMM and drains the device after every step.
    pub(crate) fn baseline(nt: usize, style: DriveStyle) -> Self {
        Emitter {
            nt,
            style,
            scheme: None,
            k: 1,
            mirror: false,
            fused: false,
            deposited: Vec::new(),
        }
    }

    /// The iteration of `scheme` under a resolved `placement`, verify
    /// interval `k` and `chk_fused` setting (which only the Enhanced
    /// scheme honours).
    pub(crate) fn scheme(
        scheme: SchemeKind,
        nt: usize,
        placement: ChecksumPlacement,
        k: usize,
        chk_fused: bool,
    ) -> Self {
        assert_ne!(
            placement,
            ChecksumPlacement::Auto,
            "plans require a resolved checksum placement"
        );
        let fused = chk_fused && scheme == SchemeKind::Enhanced;
        Emitter {
            nt,
            style: DriveStyle::Overlapped,
            scheme: Some(scheme),
            k: k.max(1),
            mirror: placement == ChecksumPlacement::Cpu,
            fused,
            deposited: if fused {
                vec![false; nt * nt]
            } else {
                Vec::new()
            },
        }
    }

    /// Emit the whole plan: head, every iteration, tail.
    pub(crate) fn emit(mut self, plan: &mut FactorPlan) {
        if self.scheme.is_some() {
            let sc = plan.scope("encode", Phase::Encode);
            plan.push(TaskKind::Encode, Some(sc), None);
        }
        self.emit_from(plan, 0);
    }

    /// Emit iterations `from..nt` and the tail.
    pub(crate) fn emit_from(&mut self, plan: &mut FactorPlan, from: usize) {
        for j in from..self.nt {
            self.iteration(plan, j);
        }
        self.tail(plan);
    }

    fn is(&self, kind: SchemeKind) -> bool {
        self.scheme == Some(kind)
    }

    /// One Algorithm-1 iteration with this scheme's checks, checksum
    /// updates, fault polls, panel mark and mirror.
    ///
    /// [`TaskKind::FaultPoint`] polls sit at the same trigger points in
    /// every plan so fault-injection order is identical across schemes;
    /// with an inert injector they are observational no-ops.
    fn iteration(&mut self, plan: &mut FactorPlan, j: usize) {
        let nt = self.nt;
        let abft = self.scheme.is_some();
        let enhanced = self.is(SchemeKind::Enhanced);
        let online = self.is(SchemeKind::Online);
        let panel: Vec<(usize, usize)> = ((j + 1)..nt).map(|i| (i, j)).collect();
        let it = Some(j);

        plan.push(
            TaskKind::FaultPoint(InjectionPoint::IterStart { iter: j }),
            None,
            it,
        );

        // SYRK: Enhanced verifies its inputs first.
        if enhanced {
            self.check(plan, j, syrk_input_tiles(j));
        }
        let sc = plan.scope("syrk", Phase::Syrk);
        let fused = self.fused && j > 0;
        plan.push(
            TaskKind::Syrk {
                j,
                propagate: abft,
                fused,
            },
            Some(sc),
            it,
        );
        self.wrote([(j, j)], fused);
        self.update(plan, UpdateOp::Syrk, j, j..j + 1, sc);
        plan.push(
            TaskKind::FaultPoint(InjectionPoint::PostSyrk { iter: j }),
            Some(sc),
            it,
        );

        // The SYRK output ships to the host: Enhanced verifies it as
        // POTF2's input, Online as SYRK's output.
        if enhanced || (online && j > 0) {
            self.check(plan, j, vec![(j, j)]);
        }
        let sc = plan.scope("diag d2h", Phase::Transfer);
        plan.push(TaskKind::DiagToHost { j }, Some(sc), it);

        match self.style {
            DriveStyle::Overlapped => {
                self.gemm(plan, j);
                self.potf2(plan, j);
            }
            DriveStyle::Synchronous => {
                self.potf2(plan, j);
                self.gemm(plan, j);
            }
        }

        // TRSM: Online verifies the GEMM's and POTF2's outputs, Enhanced
        // the TRSM's inputs on K-gated iterations. Enhanced skips the
        // no-op TRSM of the last iteration.
        if online {
            if j > 0 && !panel.is_empty() {
                self.check(plan, j, panel.clone());
            }
            self.check(plan, j, vec![(j, j)]);
        }
        if !enhanced || !panel.is_empty() {
            if enhanced && j.is_multiple_of(self.k) {
                self.check(plan, j, trsm_input_tiles(nt, j));
            }
            let sc = plan.scope("trsm", Phase::Trsm);
            plan.push(
                TaskKind::TrsmPanel {
                    j,
                    dev: 0,
                    propagate: abft,
                },
                Some(sc),
                it,
            );
            self.wrote(panel.iter().copied(), false);
            self.update(plan, UpdateOp::Trsm, j, (j + 1)..nt, sc);
            plan.push(
                TaskKind::FaultPoint(InjectionPoint::PostTrsm { iter: j }),
                Some(sc),
                it,
            );
        }

        // Iteration end: the panel-ready mark checksum updates order
        // behind, Online's check of the TRSM outputs, the CPU mirror.
        if abft {
            plan.push(TaskKind::MarkPanelReady, None, it);
        }
        if online && !panel.is_empty() {
            self.check(plan, j, panel);
        }
        if self.mirror {
            plan.push(TaskKind::MirrorPanel { j }, None, it);
        }
    }

    /// The panel GEMM group. Enhanced skips the no-op GEMM of the first
    /// iteration (no trailing update) and of the last (no panel), fault
    /// poll included, and verifies the GEMM inputs on K-gated iterations.
    fn gemm(&mut self, plan: &mut FactorPlan, j: usize) {
        let nt = self.nt;
        let enhanced = self.is(SchemeKind::Enhanced);
        let has_panel = j + 1 < nt;
        if enhanced && !(has_panel && j > 0) {
            return;
        }
        if enhanced && j.is_multiple_of(self.k) {
            self.check(plan, j, gemm_input_tiles(nt, j));
        }
        let sc = plan.scope("gemm", Phase::Gemm);
        let fused = self.fused && j > 0;
        plan.push(
            TaskKind::GemmPanel {
                j,
                dev: 0,
                propagate: self.scheme.is_some(),
                fused,
            },
            Some(sc),
            Some(j),
        );
        self.wrote(((j + 1)..nt).map(|i| (i, j)), fused);
        self.update(plan, UpdateOp::Gemm, j, (j + 1)..nt, sc);
        plan.push(
            TaskKind::FaultPoint(InjectionPoint::PostGemm { iter: j }),
            Some(sc),
            Some(j),
        );
    }

    /// The host POTF2 round trip. Enhanced does not mirror POTF2 in the
    /// propagation ledger: its input was verified immediately before, so
    /// a surviving error is local.
    fn potf2(&mut self, plan: &mut FactorPlan, j: usize) {
        let sc = plan.scope("potf2", Phase::Potf2);
        let propagate = self.scheme.is_some() && !self.is(SchemeKind::Enhanced);
        plan.push(TaskKind::Potf2 { j, propagate }, Some(sc), Some(j));
        plan.push(TaskKind::DiagToDevice { j }, Some(sc), Some(j));
        self.wrote([(j, j)], false);
        self.update(plan, UpdateOp::Potf2, j, j..j + 1, sc);
        plan.push(
            TaskKind::FaultPoint(InjectionPoint::PostPotf2 { iter: j }),
            Some(sc),
            Some(j),
        );
    }

    /// The checksum updates mirroring one operation, rows `rows`, in the
    /// operation's scope (none for a baseline).
    fn update(
        &self,
        plan: &mut FactorPlan,
        op: UpdateOp,
        j: usize,
        rows: std::ops::Range<usize>,
        sc: ScopeId,
    ) {
        if self.scheme.is_some() {
            for i in rows {
                plan.push(TaskKind::ChkUpdate { op, j, i }, Some(sc), Some(j));
            }
        }
    }

    /// Record a write of `tiles` for the fused-coverage map.
    fn wrote(&mut self, tiles: impl IntoIterator<Item = (usize, usize)>, fused: bool) {
        if self.fused {
            for (bi, bj) in tiles {
                self.deposited[bi * self.nt + bj] = fused;
            }
        }
    }

    /// An inline verify/correct pair over `tiles` in a fresh `"verify"`
    /// scope. On a fused plan the tiles whose last writer deposited fresh
    /// checksums move to a compare-only pair in a second `"verify"` scope
    /// right after; the rest keep the recalculating pair. Either way the
    /// correction leaves every checked tile's deposit stale.
    fn check(&mut self, plan: &mut FactorPlan, j: usize, tiles: Vec<(usize, usize)>) {
        let nt = self.nt;
        let (compare, recalc): (Vec<_>, Vec<_>) = tiles
            .iter()
            .partition(|&&(bi, bj)| self.fused && self.deposited[bi * nt + bj]);
        for (part, fused) in [(recalc, false), (compare, true)] {
            if !part.is_empty() {
                let sc = plan.scope("verify", Phase::Verify);
                verify_pair(plan, sc, part, SweepKind::Inline, fused, j, Some(j));
            }
        }
        self.wrote(tiles, false);
    }

    /// The attempt tail. Offline and Online flush any pending panel mirror
    /// and sweep the full lower triangle in one `"final verify"` scope, in
    /// batches of at most 256 tiles; every plan ends in the drain barrier.
    fn tail(&self, plan: &mut FactorPlan) {
        if self.is(SchemeKind::Offline) || self.is(SchemeKind::Online) {
            plan.push(TaskKind::FlushMirror, None, None);
            let sc = plan.scope("final verify", Phase::Verify);
            for chunk in ops::lower_tiles(self.nt).chunks(256) {
                verify_pair(
                    plan,
                    sc,
                    chunk.to_vec(),
                    SweepKind::Final,
                    false,
                    self.nt,
                    None,
                );
            }
        }
        let sc = plan.scope("drain", Phase::Drain);
        plan.push(TaskKind::Drain, Some(sc), None);
    }
}

/// Push a [`TaskKind::VerifyBatch`] and its [`TaskKind::Correct`].
fn verify_pair(
    plan: &mut FactorPlan,
    sc: ScopeId,
    tiles: Vec<(usize, usize)>,
    sweep: SweepKind,
    fused: bool,
    depth: usize,
    iter: Option<usize>,
) {
    plan.push(
        TaskKind::VerifyBatch {
            tiles: tiles.clone(),
            sweep,
            fused,
            depth,
        },
        Some(sc),
        iter,
    );
    plan.push(
        TaskKind::Correct {
            tiles,
            sweep,
            fused,
            depth,
        },
        Some(sc),
        iter,
    );
}
