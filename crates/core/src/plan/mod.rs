//! The task-graph plan layer: a typed IR for one factorization attempt.
//!
//! Every driver in this crate — the three ABFT schemes and the MAGMA/CULA
//! baselines — executes a [`FactorPlan`]: a list of [`TaskKind`] nodes in
//! an authored issue order, each carrying the same tile-level
//! [`AccessSet`] declarations the simulator's kernels declare, plus
//! explicit dependency edges derived from those declarations. The planner
//! ([`skeleton`]) emits the bare Algorithm-1 iteration skeleton; each
//! scheme is a *policy pass* ([`policy::EnhancedPolicy`],
//! [`policy::OnlinePolicy`], [`policy::OfflinePolicy`]) that inserts
//! encode/verify/update nodes into that skeleton, and the paper's
//! optimizations are plan rewrites (Opt 3 decides *which* verify nodes are
//! inserted; Opt 2's CPU placement inserts the panel-mirror nodes).
//!
//! The plan is built once per run, statically — tiles are named with
//! canonical buffer ids (`mat = BufferId(0)`, `cks[bi] = BufferId(1+bi)`),
//! so no simulator context is needed to construct or check one. The
//! executor ([`exec`]) then interprets nodes against a live `SimContext`;
//! under the default in-order issue policy it reproduces the legacy
//! imperative drivers byte-for-byte (goldens in `tests/fixtures/golden/`),
//! while [`hchol_gpusim::IssuePolicy::Lookahead`] and [`exec::run_batch`]
//! reorder and interleave independent nodes along the derived edges.
//! `hchol-analyze`'s static checker walks the same edges to prove each
//! scheme's ABFT contract *before* execution.

pub mod balance;
pub mod exec;
pub mod policy;
pub mod shard;
mod shard_rt;
pub mod skeleton;

use crate::ops;
use hchol_faults::InjectionPoint;
use hchol_gpusim::{AccessSet, BufferId, DagSchedule, NodeMeta, TileRef};
use hchol_obs::Phase;
use std::collections::HashMap;

/// Which checksum update a [`TaskKind::ChkUpdate`] node performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// `chk(A[j,j]) -= Σ chk(L[j,k])·L[j,k]ᵀ` (mirrors the SYRK).
    Syrk,
    /// `chk(A[i,j]) -= Σ chk(L[i,k])·L[j,k]ᵀ` (mirrors the GEMM, row `i`).
    Gemm,
    /// Checksum update mirroring POTF2 (Algorithm 2 of the paper).
    Potf2,
    /// `chk(L[i,j]) = chk(A[i,j])·(L[j,j]ᵀ)⁻¹` (mirrors the TRSM, row `i`).
    Trsm,
}

/// Whether a verify/correct pair is an in-loop check or part of the final
/// acceptance sweep (Offline/Online tails).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKind {
    /// Mid-run check: an uncorrectable outcome restarts the attempt
    /// immediately.
    Inline,
    /// End-of-run sweep: outcomes accumulate and the
    /// `final_sweep_accepts` rule decides completion vs restart.
    Final,
}

/// How the per-iteration operations drive the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveStyle {
    /// MAGMA-style: async transfers ordered by events, POTF2 overlapping
    /// the panel GEMM.
    Overlapped,
    /// CULA-style: every step drains the device before the next
    /// (synchronous `cudaMemcpy`-era driving), POTF2 before the GEMM.
    Synchronous,
}

/// What a cross-device broadcast ([`TaskKind::DeviceSend`] /
/// [`TaskKind::DeviceRecv`]) carries in a sharded plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardXfer {
    /// Row panel of iteration `j`: tiles `(j, 0..j)`, finalized by earlier
    /// iterations on the row owner and read by every other device's GEMM
    /// shard and cross-row checksum updates.
    RowPanel,
    /// The factorized diagonal block `(j, j)`, read by every other
    /// device's TRSM shard and cross-row TRSM checksum updates.
    Diag,
}

/// One schedulable unit of a factorization attempt.
///
/// There is one kind per kernel. Plan rewrites that change how a kernel
/// runs set a field on its node rather than swapping in a twin kind: the
/// fused checksum epilogue ([`policy::apply_chk_fused`]) sets `fused` on
/// [`TaskKind::Syrk`] / [`TaskKind::GemmPanel`] and on the verify pairs,
/// and the multi-device split ([`shard::apply_shard`]) copies each
/// [`TaskKind::GemmPanel`] / [`TaskKind::TrsmPanel`] once per device with
/// `dev` set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskKind {
    /// Initial checksum encoding of the full lower triangle.
    Encode,
    /// Poll the fault injector at a trigger point.
    FaultPoint(InjectionPoint),
    /// SYRK diagonal update of iteration `j`.
    Syrk {
        /// Outer iteration.
        j: usize,
        /// Mirror the operation in the injector's propagation ledger.
        propagate: bool,
        /// Fused checksum epilogue: deposit fresh checksums of the written
        /// diagonal tile ([`dpt_tile`]) in the same kernel launch.
        fused: bool,
    },
    /// Panel GEMM of iteration `j` over the rows
    /// [`FactorPlan::panel_rows`]`(j, dev)`: the whole panel, or one
    /// device's slice of it once [`shard::apply_shard`] has split the node.
    GemmPanel {
        /// Outer iteration.
        j: usize,
        /// Executing device (0 on an unsharded plan).
        dev: usize,
        /// Mirror the whole panel's operation in the injector's propagation
        /// ledger (on a sharded plan, set on the iteration's last slice
        /// only).
        propagate: bool,
        /// Fused checksum epilogue: deposit fresh checksums of every
        /// written panel tile ([`dpt_tile`]) in the same kernel launch.
        fused: bool,
    },
    /// Diagonal block device→host transfer.
    DiagToHost {
        /// Outer iteration.
        j: usize,
    },
    /// Host POTF2 of the staged diagonal block.
    Potf2 {
        /// Outer iteration.
        j: usize,
        /// Mirror the operation in the injector's propagation ledger.
        propagate: bool,
    },
    /// Factorized diagonal block host→device transfer.
    DiagToDevice {
        /// Outer iteration.
        j: usize,
    },
    /// Panel TRSM of iteration `j` over the rows
    /// [`FactorPlan::panel_rows`]`(j, dev)` (split per device like
    /// [`TaskKind::GemmPanel`]).
    TrsmPanel {
        /// Outer iteration.
        j: usize,
        /// Executing device (0 on an unsharded plan).
        dev: usize,
        /// Mirror the whole panel's operation in the injector's propagation
        /// ledger (on a sharded plan, set on the iteration's last slice
        /// only).
        propagate: bool,
    },
    /// One checksum-update task (dispatched per Optimization 2).
    ChkUpdate {
        /// Which operation's update.
        op: UpdateOp,
        /// Outer iteration.
        j: usize,
        /// Panel row (equals `j` for `Syrk`/`Potf2`).
        i: usize,
    },
    /// Recalculate + compare checksums of a batch of tiles
    /// ([`ops::verify_recalc`] + [`ops::verify_compare`]).
    VerifyBatch {
        /// Tiles under verification.
        tiles: Vec<(usize, usize)>,
        /// Inline check or final sweep.
        sweep: SweepKind,
        /// Compare-only batch: fresh checksums were already deposited by
        /// the fused producer kernels ([`ops::verify_compare`] with
        /// `fused`), so
        /// no recalculation kernels are issued.
        fused: bool,
        /// Accumulation depth of the batch — the outer iteration at which
        /// the check runs (`nt` for a final sweep). The adaptive tolerance
        /// model derives the accumulation-path length `b·(depth+1)` from
        /// this per-panel metadata; the fixed model ignores it.
        depth: usize,
    },
    /// Locate + correct from the comparison results
    /// ([`ops::verify_correct`]).
    Correct {
        /// Tiles under verification (same batch as the paired
        /// [`TaskKind::VerifyBatch`]).
        tiles: Vec<(usize, usize)>,
        /// Inline check or final sweep.
        sweep: SweepKind,
        /// Correct against the fused deposit tiles instead of the
        /// recalculation scratch pool.
        fused: bool,
        /// Accumulation depth (mirrors the paired
        /// [`TaskKind::VerifyBatch`]).
        depth: usize,
    },
    /// Broadcast `what` of iteration `j` from its owner device `from` to
    /// every other device over the peer links (sharded plans only).
    DeviceSend {
        /// Outer iteration.
        j: usize,
        /// Payload.
        what: ShardXfer,
        /// Sending (owner) device.
        from: usize,
    },
    /// Order device `to`'s future work behind the matching
    /// [`TaskKind::DeviceSend`] broadcast (sharded plans only). A consumer
    /// on a non-owner device without an ancestor `DeviceRecv` is a
    /// cross-device RAW race.
    DeviceRecv {
        /// Outer iteration.
        j: usize,
        /// Payload.
        what: ShardXfer,
        /// Receiving device.
        to: usize,
    },
    /// Refresh the XOR parity of column `j` (matrix and checksum tiles)
    /// after its finalizing iteration, so a later device loss can
    /// reconstruct the column's lost shard exactly (sharded plans only).
    ShardParity {
        /// Finalized column.
        j: usize,
    },
    /// Record the panel-complete event checksum updates order behind.
    MarkPanelReady,
    /// Queue the CPU-placement host mirror of panel column `j`.
    MirrorPanel {
        /// Column to mirror.
        j: usize,
    },
    /// Issue any still-pending panel mirror (attempt tail).
    FlushMirror,
    /// Synchronize everything (attempt tail).
    Drain,
}

/// Stable identifier of a node within one plan (index into node storage;
/// removal drops a node from the issue order but never invalidates ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifier of a scope-span specification within one plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScopeId(pub usize);

/// A scope span the executor opens around the nodes that reference it.
#[derive(Debug, Clone)]
pub struct ScopeSpec {
    /// Span label (must be registered in `hchol_obs::names::SCOPES`).
    pub label: String,
    /// Span phase.
    pub phase: Phase,
}

/// One node: the task, its observability placement, and its outer
/// iteration (if any).
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// What to execute.
    pub kind: TaskKind,
    /// Scope span this node runs under (`None` = directly under the
    /// iteration/attempt span).
    pub scope: Option<ScopeId>,
    /// Outer iteration (`None` for pre/post-loop work).
    pub iter: Option<usize>,
}

/// Virtual (non-tile) resources threaded through the dependency
/// derivation: state the imperative ops communicate through besides device
/// tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VirtRes {
    /// The host staging block of the POTF2 round trip.
    HostDiag,
    /// The shared recalculation scratch pool (serializes verify batches).
    Scratch,
    /// The pending CPU-placement panel mirror slot.
    Mirror,
    /// The panel-ready event checksum updates wait on.
    PanelReady,
    /// The fault injector's ledger — present only in faulted plans, where
    /// injection/propagation order must stay authored.
    Ledger,
    /// The in-flight broadcast payload of `(iteration, what)`: written by
    /// [`TaskKind::DeviceSend`], read by every matching
    /// [`TaskKind::DeviceRecv`].
    ShardMsg(usize, ShardXfer),
    /// The receive token of `(iteration, what, device)`: written by the
    /// device's [`TaskKind::DeviceRecv`], read by that device's consumers
    /// of the broadcast payload — the plan edge the cross-device RAW rule
    /// checks, and the one the mutation control severs.
    ShardRecv(usize, ShardXfer, usize),
    /// Column `.0`'s XOR parity state (serializes parity refreshes of one
    /// column and orders them for the analyzers).
    Parity(usize),
}

/// A node's declared accesses: device tiles (canonical buffer ids) plus
/// virtual resources.
#[derive(Debug, Clone, Default)]
pub struct NodeAccess {
    /// Tile reads/writes, in the same [`AccessSet`] form kernels declare.
    pub tiles: AccessSet,
    /// Virtual-resource reads.
    pub virt_reads: Vec<VirtRes>,
    /// Virtual-resource writes.
    pub virt_writes: Vec<VirtRes>,
}

/// Canonical tile of the factorized matrix: `mat` is `BufferId(0)`.
pub fn mat_tile(bi: usize, bj: usize) -> TileRef {
    TileRef::new(BufferId(0), bi, bj)
}

/// Canonical tile of block row `bi`'s checksum: `cks[bi]` is
/// `BufferId(1 + bi)`.
pub fn chk_tile(bi: usize, bj: usize) -> TileRef {
    TileRef::new(BufferId(1 + bi), 0, bj)
}

/// Canonical tile of block row `bi`'s fused checksum deposit (written by
/// fused SYRK/GEMM epilogues, read by fused verify/correct nodes):
/// `dpt[bi]` is `BufferId(1 + nt + bi)`, after the `nt` checksum buffers.
pub fn dpt_tile(nt: usize, bi: usize, bj: usize) -> TileRef {
    TileRef::new(BufferId(1 + nt + bi), 0, bj)
}

/// The shard grid of a sharded plan: `devices` GPUs with tile rows
/// distributed row-cyclically (`owner(i) = i mod devices` — a `D×1`
/// block-cyclic grid, which keeps every checksum row co-resident with its
/// tile row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of devices `D`.
    pub devices: usize,
}

impl ShardSpec {
    /// Home device of tile row `i`.
    pub fn owner(&self, i: usize) -> usize {
        i % self.devices
    }

    /// The rows of panel column `j` (rows `j+1..nt`) homed on `dev`.
    pub fn panel_rows(&self, nt: usize, j: usize, dev: usize) -> Vec<usize> {
        ((j + 1)..nt).filter(|&i| self.owner(i) == dev).collect()
    }
}

/// A complete factorization attempt as a task graph.
#[derive(Debug, Clone)]
pub struct FactorPlan {
    /// Grid size (`n / b` block columns).
    pub nt: usize,
    /// Per-operation driving style.
    pub style: DriveStyle,
    /// Surface a POTF2 failure at the end of its iteration (baselines)
    /// instead of immediately (schemes, where the error aborts the
    /// attempt mid-iteration).
    pub defer_potf2_error: bool,
    /// Does the run inject faults? Adds the [`VirtRes::Ledger`] ordering
    /// chain so injection and propagation stay in authored order under
    /// reordering policies.
    pub faulty: bool,
    /// Plans panel mirrors for CPU checksum placement (set by
    /// [`policy::apply_placement`]).
    pub cpu_mirrors: bool,
    /// The shard grid, when the plan was rewritten by
    /// [`shard::apply_shard`] (`None` = single device).
    pub shard: Option<ShardSpec>,
    nodes: Vec<PlanNode>,
    order: Vec<NodeId>,
    scopes: Vec<ScopeSpec>,
    deps: Vec<Vec<NodeId>>,
}

impl FactorPlan {
    /// An empty plan for grid size `nt`.
    pub fn new(nt: usize, style: DriveStyle, defer_potf2_error: bool, faulty: bool) -> Self {
        FactorPlan {
            nt,
            style,
            defer_potf2_error,
            faulty,
            cpu_mirrors: false,
            shard: None,
            nodes: Vec::new(),
            order: Vec::new(),
            scopes: Vec::new(),
            deps: Vec::new(),
        }
    }

    /// Register a scope span; nodes referencing the returned id run under
    /// one shared span instance.
    pub fn scope(&mut self, label: impl Into<String>, phase: Phase) -> ScopeId {
        self.scopes.push(ScopeSpec {
            label: label.into(),
            phase,
        });
        ScopeId(self.scopes.len() - 1)
    }

    fn alloc(&mut self, kind: TaskKind, scope: Option<ScopeId>, iter: Option<usize>) -> NodeId {
        self.nodes.push(PlanNode { kind, scope, iter });
        NodeId(self.nodes.len() - 1)
    }

    /// Append a node to the issue order.
    pub fn push(&mut self, kind: TaskKind, scope: Option<ScopeId>, iter: Option<usize>) -> NodeId {
        let id = self.alloc(kind, scope, iter);
        self.order.push(id);
        id
    }

    fn position(&self, anchor: NodeId) -> usize {
        self.order
            .iter()
            .position(|&id| id == anchor)
            .expect("anchor node not in issue order")
    }

    /// Insert a node immediately before `anchor` in the issue order.
    pub fn insert_before(
        &mut self,
        anchor: NodeId,
        kind: TaskKind,
        scope: Option<ScopeId>,
        iter: Option<usize>,
    ) -> NodeId {
        let pos = self.position(anchor);
        let id = self.alloc(kind, scope, iter);
        self.order.insert(pos, id);
        id
    }

    /// Insert a node immediately after `anchor` in the issue order.
    pub fn insert_after(
        &mut self,
        anchor: NodeId,
        kind: TaskKind,
        scope: Option<ScopeId>,
        iter: Option<usize>,
    ) -> NodeId {
        let pos = self.position(anchor);
        let id = self.alloc(kind, scope, iter);
        self.order.insert(pos + 1, id);
        id
    }

    /// Drop a node from the issue order (its id stays allocated).
    pub fn remove(&mut self, id: NodeId) {
        self.order.retain(|&n| n != id);
    }

    /// First node in issue order matching `pred`.
    pub fn find(&self, mut pred: impl FnMut(&PlanNode) -> bool) -> Option<NodeId> {
        self.order
            .iter()
            .copied()
            .find(|&id| pred(&self.nodes[id.0]))
    }

    /// Last node in issue order matching `pred`.
    pub fn rfind(&self, mut pred: impl FnMut(&PlanNode) -> bool) -> Option<NodeId> {
        self.order
            .iter()
            .rev()
            .copied()
            .find(|&id| pred(&self.nodes[id.0]))
    }

    /// The panel rows a [`TaskKind::GemmPanel`] / [`TaskKind::TrsmPanel`]
    /// of iteration `j` on device `dev` updates: every row below the
    /// diagonal (`j+1..nt`), or on a sharded plan the ones `dev` owns.
    pub fn panel_rows(&self, j: usize, dev: usize) -> Vec<usize> {
        match self.shard {
            Some(s) => s.panel_rows(self.nt, j, dev),
            None => ((j + 1)..self.nt).collect(),
        }
    }

    /// Does device `dev` read iteration `j`'s panel data from a broadcast
    /// rather than its own copy (it is not the owner of row `j`)? Always
    /// false on an unsharded plan.
    pub fn is_remote(&self, j: usize, dev: usize) -> bool {
        self.shard.is_some_and(|s| s.owner(j) != dev)
    }

    /// The node behind an id.
    pub fn node(&self, id: NodeId) -> &PlanNode {
        &self.nodes[id.0]
    }

    /// Mutable access to a node (policies flip `propagate` flags).
    pub fn node_mut(&mut self, id: NodeId) -> &mut PlanNode {
        &mut self.nodes[id.0]
    }

    /// The authored issue order.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Number of nodes in the issue order.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if the plan has no nodes.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The scope-span specifications.
    pub fn scopes(&self) -> &[ScopeSpec] {
        &self.scopes
    }

    /// Dependency edges into `id` (valid after [`Self::derive_deps`]).
    pub fn deps(&self, id: NodeId) -> &[NodeId] {
        &self.deps[id.0]
    }

    /// Total number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.order.iter().map(|&id| self.deps[id.0].len()).sum()
    }

    /// Sever every dependency edge *out of* `id` (drop `id` from other
    /// nodes' dependency lists). Used by `hchol-analyze`'s mutation
    /// controls to prove the static checker notices a missing ordering —
    /// never by the planner itself.
    pub fn drop_edges_from(&mut self, id: NodeId) {
        for d in &mut self.deps {
            d.retain(|&n| n != id);
        }
    }

    /// The declared accesses of a node, with canonical buffer ids.
    pub fn node_access(&self, id: NodeId) -> NodeAccess {
        let nt = self.nt;
        let node = &self.nodes[id.0];
        let mut a = NodeAccess::default();
        let ledger_if = |cond: bool, a: &mut NodeAccess| {
            if cond && self.faulty {
                a.virt_reads.push(VirtRes::Ledger);
                a.virt_writes.push(VirtRes::Ledger);
            }
        };
        match &node.kind {
            TaskKind::Encode => {
                let mut reads = Vec::new();
                let mut writes = Vec::new();
                for (bi, bj) in ops::lower_tiles(nt) {
                    reads.push(mat_tile(bi, bj));
                    writes.push(chk_tile(bi, bj));
                }
                a.tiles = AccessSet::new(reads, writes);
            }
            TaskKind::FaultPoint(_) => ledger_if(true, &mut a),
            TaskKind::Syrk {
                j,
                propagate,
                fused,
            } => {
                let j = *j;
                if j > 0 {
                    let reads = (0..j)
                        .map(|k| mat_tile(j, k))
                        .chain([mat_tile(j, j)])
                        .collect();
                    let mut writes = vec![mat_tile(j, j)];
                    if *fused {
                        writes.push(dpt_tile(nt, j, j));
                    }
                    a.tiles = AccessSet::new(reads, writes);
                }
                ledger_if(*propagate, &mut a);
            }
            TaskKind::GemmPanel {
                j,
                dev,
                propagate,
                fused,
            } => {
                let (j, dev) = (*j, *dev);
                let rows = self.panel_rows(j, dev);
                if j > 0 && !rows.is_empty() {
                    let mut reads = Vec::new();
                    let mut writes = Vec::new();
                    for i in rows {
                        writes.push(mat_tile(i, j));
                        if *fused {
                            writes.push(dpt_tile(nt, i, j));
                        }
                        reads.push(mat_tile(i, j));
                        reads.extend((0..j).map(|k| mat_tile(i, k)));
                    }
                    reads.extend((0..j).map(|k| mat_tile(j, k)));
                    a.tiles = AccessSet::new(reads, writes);
                    if self.is_remote(j, dev) {
                        a.virt_reads
                            .push(VirtRes::ShardRecv(j, ShardXfer::RowPanel, dev));
                    }
                }
                ledger_if(*propagate, &mut a);
            }
            TaskKind::DiagToHost { j } => {
                let j = *j;
                let mut reads = vec![mat_tile(j, j)];
                if self.cpu_mirrors && j > 0 {
                    // The transfer also issues the previous column's queued
                    // panel mirror.
                    reads.extend(((j - 1)..nt).map(|i| mat_tile(i, j - 1)));
                    a.virt_reads.push(VirtRes::Mirror);
                    a.virt_writes.push(VirtRes::Mirror);
                }
                a.tiles = AccessSet::new(reads, vec![]);
                a.virt_writes.push(VirtRes::HostDiag);
            }
            TaskKind::Potf2 { propagate, .. } => {
                a.virt_reads.push(VirtRes::HostDiag);
                a.virt_writes.push(VirtRes::HostDiag);
                ledger_if(*propagate, &mut a);
            }
            TaskKind::DiagToDevice { j } => {
                a.tiles = AccessSet::new(vec![], vec![mat_tile(*j, *j)]);
                a.virt_reads.push(VirtRes::HostDiag);
            }
            TaskKind::TrsmPanel { j, dev, propagate } => {
                let (j, dev) = (*j, *dev);
                let rows = self.panel_rows(j, dev);
                if !rows.is_empty() {
                    let mut reads = vec![mat_tile(j, j)];
                    let mut writes = Vec::new();
                    for i in rows {
                        reads.push(mat_tile(i, j));
                        writes.push(mat_tile(i, j));
                    }
                    a.tiles = AccessSet::new(reads, writes);
                    if self.is_remote(j, dev) {
                        a.virt_reads
                            .push(VirtRes::ShardRecv(j, ShardXfer::Diag, dev));
                    }
                }
                ledger_if(*propagate, &mut a);
            }
            TaskKind::ChkUpdate { op, j, i } => {
                let (j, i) = (*j, *i);
                let (reads, writes): (Vec<TileRef>, Vec<TileRef>) = match op {
                    UpdateOp::Syrk | UpdateOp::Gemm => {
                        if j == 0 {
                            (vec![], vec![])
                        } else {
                            (
                                (0..j)
                                    .flat_map(|k| [mat_tile(j, k), chk_tile(i, k)])
                                    .chain([chk_tile(i, j)])
                                    .collect(),
                                vec![chk_tile(i, j)],
                            )
                        }
                    }
                    UpdateOp::Potf2 => (vec![mat_tile(j, j), chk_tile(j, j)], vec![chk_tile(j, j)]),
                    UpdateOp::Trsm => (vec![mat_tile(j, j), chk_tile(i, j)], vec![chk_tile(i, j)]),
                };
                a.tiles = AccessSet::new(reads, writes);
                a.virt_reads.push(VirtRes::PanelReady);
                // Cross-row updates on a sharded plan read the broadcast
                // row panel / diagonal of a column another device owns.
                if let Some(s) = self.shard.filter(|s| s.devices > 1 && j > 0) {
                    match op {
                        UpdateOp::Gemm if s.owner(i) != s.owner(j) => a
                            .virt_reads
                            .push(VirtRes::ShardRecv(j, ShardXfer::RowPanel, s.owner(i))),
                        UpdateOp::Trsm if s.owner(i) != s.owner(j) => a
                            .virt_reads
                            .push(VirtRes::ShardRecv(j, ShardXfer::Diag, s.owner(i))),
                        _ => {}
                    }
                }
            }
            TaskKind::VerifyBatch { tiles, fused, .. } => {
                if *fused {
                    // Compare-only: the fresh sums already sit in the
                    // deposit tiles; the batch reads no matrix data and
                    // does not touch the recalculation scratch pool.
                    let reads = tiles
                        .iter()
                        .flat_map(|&(bi, bj)| [chk_tile(bi, bj), dpt_tile(nt, bi, bj)])
                        .collect();
                    a.tiles = AccessSet::new(reads, vec![]);
                } else {
                    let reads = tiles
                        .iter()
                        .flat_map(|&(bi, bj)| [mat_tile(bi, bj), chk_tile(bi, bj)])
                        .collect();
                    a.tiles = AccessSet::new(reads, vec![]);
                    a.virt_writes.push(VirtRes::Scratch);
                }
            }
            TaskKind::Correct { tiles, fused, .. } => {
                let both: Vec<TileRef> = tiles
                    .iter()
                    .flat_map(|&(bi, bj)| [mat_tile(bi, bj), chk_tile(bi, bj)])
                    .collect();
                let mut reads = both.clone();
                if *fused {
                    reads.extend(tiles.iter().map(|&(bi, bj)| dpt_tile(nt, bi, bj)));
                } else {
                    a.virt_reads.push(VirtRes::Scratch);
                }
                a.tiles = AccessSet::new(reads, both);
                ledger_if(true, &mut a);
            }
            TaskKind::DeviceSend { j, what, .. } => {
                let j = *j;
                let reads = match what {
                    ShardXfer::RowPanel => (0..j).map(|k| mat_tile(j, k)).collect(),
                    ShardXfer::Diag => vec![mat_tile(j, j)],
                };
                a.tiles = AccessSet::new(reads, vec![]);
                a.virt_writes.push(VirtRes::ShardMsg(j, *what));
            }
            TaskKind::DeviceRecv { j, what, to } => {
                a.virt_reads.push(VirtRes::ShardMsg(*j, *what));
                a.virt_writes.push(VirtRes::ShardRecv(*j, *what, *to));
            }
            TaskKind::ShardParity { j } => {
                let j = *j;
                let reads = (j..nt)
                    .flat_map(|i| [mat_tile(i, j), chk_tile(i, j)])
                    .collect();
                a.tiles = AccessSet::new(reads, vec![]);
                a.virt_writes.push(VirtRes::Parity(j));
            }
            TaskKind::MarkPanelReady => a.virt_writes.push(VirtRes::PanelReady),
            TaskKind::MirrorPanel { j } => {
                let j = *j;
                a.tiles = AccessSet::new((j..nt).map(|i| mat_tile(i, j)).collect(), vec![]);
                a.virt_writes.push(VirtRes::Mirror);
            }
            TaskKind::FlushMirror => {
                if self.cpu_mirrors && nt > 0 {
                    a.tiles = AccessSet::new(vec![mat_tile(nt - 1, nt - 1)], vec![]);
                }
                a.virt_reads.push(VirtRes::Mirror);
                a.virt_writes.push(VirtRes::Mirror);
            }
            TaskKind::Drain => {} // barrier — handled by derive_deps
        }
        a
    }

    /// Derive dependency edges from the declared accesses along the
    /// authored order: RAW (read after the last writer), WAR (write after
    /// readers since that writer), WAW (write after the last writer).
    /// [`TaskKind::Drain`] is a barrier depending on every prior node.
    ///
    /// Each canonical tile owns a dense slot and each virtual resource one
    /// more, so the cost is linear in the declared accesses plus the edges.
    /// Plan tiles are lower-triangular (`bj ≤ bi`, with `bi` the block row
    /// a `cks`/`dpt` buffer belongs to), so the `mat`, `cks` and `dpt`
    /// triangles take `3·nt(nt+1)/2 ≤ 3·nt²` slots. A per-node stamp
    /// deduplicates each dependency list, which is then sorted by node id.
    pub fn derive_deps(&mut self) {
        let nt = self.nt;
        let tri = nt * (nt + 1) / 2;
        let tile_slots = 3 * tri;
        // `mat`, then the `cks[bi]` triangle (buffers 1..=nt), then the
        // `dpt[bi]` triangle (buffers nt+1..=2nt).
        let tile_slot = |t: TileRef| {
            let (base, bi) = match t.buf.0 {
                0 => (0, t.bi),
                b if b <= nt => (tri, b - 1),
                b => (2 * tri, b - 1 - nt),
            };
            assert!(
                t.bj <= bi && bi < nt && (t.buf.0 == 0 || t.bi == 0),
                "non-canonical plan tile {t}"
            );
            base + bi * (bi + 1) / 2 + t.bj
        };
        let mut virt_slot: HashMap<VirtRes, usize> = HashMap::new();
        let mut last_writer: Vec<Option<NodeId>> = vec![None; tile_slots];
        let mut readers: Vec<Vec<NodeId>> = vec![Vec::new(); tile_slots];
        let mut stamp = vec![usize::MAX; self.nodes.len()];
        let (mut reads, mut writes, mut deps) = (Vec::new(), Vec::new(), Vec::new());
        self.deps = vec![Vec::new(); self.nodes.len()];
        let order = self.order.clone();
        for (pos, &id) in order.iter().enumerate() {
            if matches!(self.nodes[id.0].kind, TaskKind::Drain) {
                self.deps[id.0] = order[..pos].to_vec();
                continue;
            }
            let acc = self.node_access(id);
            let mut slot_of = |v: VirtRes| {
                let next = tile_slots + virt_slot.len();
                *virt_slot.entry(v).or_insert(next)
            };
            reads.clear();
            reads.extend(acc.tiles.reads.iter().map(|&t| tile_slot(t)));
            reads.extend(acc.virt_reads.iter().map(|&v| slot_of(v)));
            writes.clear();
            writes.extend(acc.tiles.writes.iter().map(|&t| tile_slot(t)));
            writes.extend(acc.virt_writes.iter().map(|&v| slot_of(v)));
            let slots = tile_slots + virt_slot.len();
            last_writer.resize(slots, None);
            readers.resize_with(slots, Vec::new);

            deps.clear();
            stamp[id.0] = pos;
            let mut add = |n: NodeId| {
                if stamp[n.0] != pos {
                    stamp[n.0] = pos;
                    deps.push(n);
                }
            };
            for &s in reads.iter().chain(&writes) {
                if let Some(w) = last_writer[s] {
                    add(w);
                }
            }
            for &s in &writes {
                readers[s].iter().copied().for_each(&mut add);
            }
            deps.sort_unstable();
            self.deps[id.0] = deps.to_vec();
            for &s in &reads {
                if readers[s].last() != Some(&id) {
                    readers[s].push(id);
                }
            }
            for &s in &writes {
                last_writer[s] = Some(id);
                readers[s].clear();
            }
        }
    }

    /// Every fault-poll node in issue order, with its authored-order
    /// position: the control-flow points at which the injector can strike,
    /// and therefore the rows of the static coverage checker's site
    /// enumeration (site = point × target tile × fault species).
    pub fn fault_points(&self) -> Vec<(usize, InjectionPoint)> {
        self.order
            .iter()
            .enumerate()
            .filter_map(|(p, &id)| match self.nodes[id.0].kind {
                TaskKind::FaultPoint(pt) => Some((p, pt)),
                _ => None,
            })
            .collect()
    }

    /// Compile to the simulator's [`DagSchedule`] (compact indices are
    /// positions in the authored order).
    pub fn to_schedule(&self) -> DagSchedule {
        let n = self.order.len();
        let mut compact: HashMap<NodeId, usize> = HashMap::with_capacity(n);
        for (pos, &id) in self.order.iter().enumerate() {
            compact.insert(id, pos);
        }
        let deps = self
            .order
            .iter()
            .map(|&id| self.deps[id.0].iter().map(|d| compact[d]).collect())
            .collect();
        let meta = self
            .order
            .iter()
            .map(|&id| {
                let node = &self.nodes[id.0];
                NodeMeta {
                    iter: node.iter,
                    host_blocking: self.host_blocking(&node.kind),
                }
            })
            .collect();
        DagSchedule::new(deps, meta, (0..n).collect())
    }

    fn host_blocking(&self, kind: &TaskKind) -> bool {
        let sync_style = self.style == DriveStyle::Synchronous;
        match kind {
            TaskKind::Encode
            | TaskKind::Potf2 { .. }
            | TaskKind::VerifyBatch { .. }
            | TaskKind::Correct { .. }
            | TaskKind::Drain => true,
            TaskKind::Syrk { .. }
            | TaskKind::GemmPanel { .. }
            | TaskKind::TrsmPanel { .. }
            | TaskKind::DiagToHost { .. }
            | TaskKind::DiagToDevice { .. } => sync_style,
            _ => false,
        }
    }
}

/// Build the fully policied plan for one ABFT scheme: Algorithm-1 skeleton
/// → scheme policy pass → placement rewrite → derived edges. `opts` must
/// carry a *resolved* placement (no `Auto`).
pub fn for_scheme(
    kind: crate::schemes::SchemeKind,
    nt: usize,
    opts: &crate::options::AbftOptions,
    faulty: bool,
) -> FactorPlan {
    use policy::PolicyPass;
    let mut plan = skeleton::algorithm1(nt, DriveStyle::Overlapped, false, faulty);
    match kind {
        crate::schemes::SchemeKind::Enhanced => policy::EnhancedPolicy.apply(&mut plan, opts),
        crate::schemes::SchemeKind::Online => policy::OnlinePolicy.apply(&mut plan, opts),
        crate::schemes::SchemeKind::Offline => policy::OfflinePolicy.apply(&mut plan, opts),
    }
    if opts.chk_fused && kind == crate::schemes::SchemeKind::Enhanced {
        policy::apply_chk_fused(&mut plan);
    }
    policy::apply_placement(&mut plan, opts.placement);
    if let Some(s) = &opts.shard {
        if s.devices > 1 {
            shard::apply_shard(&mut plan, s.devices);
        }
    }
    plan.derive_deps();
    plan
}

/// The bare MAGMA hybrid baseline as a plan (no fault tolerance).
pub fn for_magma(nt: usize) -> FactorPlan {
    let mut plan = skeleton::algorithm1(nt, DriveStyle::Overlapped, true, false);
    plan.derive_deps();
    plan
}

/// The synchronous CULA-style baseline as a plan (no fault tolerance).
pub fn for_cula(nt: usize) -> FactorPlan {
    let mut plan = skeleton::algorithm1(nt, DriveStyle::Synchronous, true, false);
    plan.derive_deps();
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision;
    use crate::options::{AbftOptions, BalanceOptions, ChecksumPlacement, ShardOptions};
    use crate::schemes::SchemeKind;
    use hchol_gpusim::context::EngineWindow;
    use hchol_gpusim::profile::SystemProfile;
    use std::collections::BTreeSet;

    /// The derivation [`FactorPlan::derive_deps`] replaced: hashed last
    /// writers and reader lists per access key, a `BTreeSet` per node.
    fn reference_deps(plan: &FactorPlan) -> Vec<Vec<NodeId>> {
        #[derive(PartialEq, Eq, Hash, Clone, Copy)]
        enum Key {
            Tile(TileRef),
            Virt(VirtRes),
        }
        let mut last_writer: HashMap<Key, NodeId> = HashMap::new();
        let mut readers: HashMap<Key, Vec<NodeId>> = HashMap::new();
        let mut deps = vec![Vec::new(); plan.nodes.len()];
        for (pos, &id) in plan.order.iter().enumerate() {
            if matches!(plan.nodes[id.0].kind, TaskKind::Drain) {
                deps[id.0] = plan.order[..pos].to_vec();
                continue;
            }
            let acc = plan.node_access(id);
            let reads: Vec<Key> = acc
                .tiles
                .reads
                .iter()
                .map(|&t| Key::Tile(t))
                .chain(acc.virt_reads.iter().map(|&v| Key::Virt(v)))
                .collect();
            let writes: Vec<Key> = acc
                .tiles
                .writes
                .iter()
                .map(|&t| Key::Tile(t))
                .chain(acc.virt_writes.iter().map(|&v| Key::Virt(v)))
                .collect();
            let mut set: BTreeSet<NodeId> = BTreeSet::new();
            for k in &reads {
                if let Some(&w) = last_writer.get(k) {
                    set.insert(w);
                }
            }
            for k in &writes {
                if let Some(&w) = last_writer.get(k) {
                    set.insert(w);
                }
                if let Some(rs) = readers.get(k) {
                    set.extend(rs.iter().copied());
                }
            }
            set.remove(&id);
            deps[id.0] = set.into_iter().collect();
            for k in &reads {
                readers.entry(*k).or_default().push(id);
            }
            for k in &writes {
                last_writer.insert(*k, id);
                readers.insert(*k, Vec::new());
            }
        }
        deps
    }

    const SCHEMES: [SchemeKind; 3] = [
        SchemeKind::Offline,
        SchemeKind::Online,
        SchemeKind::Enhanced,
    ];

    /// A balanced plan after one controller rewrite: a fault-free window
    /// with GPU queue pressure moves the second half to CPU updating and
    /// relaxes `K`.
    fn rebalanced(kind: SchemeKind, nt: usize, faulty: bool) -> FactorPlan {
        let opts = AbftOptions::default()
            .with_placement(ChecksumPlacement::Gpu)
            .with_balance(BalanceOptions::default());
        let mut plan = for_scheme(kind, nt, &opts, faulty);
        let mut ctrl = balance::BalanceController::new(kind, &opts);
        let window = EngineWindow {
            wall_secs: 1.0,
            gpu_util: 0.9,
            cpu_util: 0.1,
            dma_util: 0.0,
            queue_frac: 0.6,
        };
        ctrl.step_window(nt / 2, Some(window), 0);
        assert_eq!(ctrl.placement(), ChecksumPlacement::Cpu);
        ctrl.rewrite(&mut plan, nt / 2);
        plan
    }

    /// The dense-slot derivation yields the reference's edges, list by list
    /// and in the same order, for every scheme × rewrite × fault setting.
    #[test]
    fn derive_deps_matches_hashed_reference() {
        let tardis = SystemProfile::tardis();
        let b = 256;
        let configs = [
            AbftOptions::default(),
            AbftOptions::default().with_chk_fused(true),
            AbftOptions::default().with_interval(4),
            AbftOptions::default().with_lookahead(2),
            AbftOptions::default().with_shard(ShardOptions::new(4)),
        ];
        for nt in [1, 2, 20, 60] {
            for kind in SCHEMES {
                for faulty in [false, true] {
                    let mut plans: Vec<FactorPlan> = configs
                        .iter()
                        .map(|o| {
                            let r = decision::resolve(o, &tardis, nt * b, b);
                            for_scheme(kind, nt, &r, faulty)
                        })
                        .collect();
                    plans.push(rebalanced(kind, nt, faulty));
                    for (c, plan) in plans.iter().enumerate() {
                        let want = reference_deps(plan);
                        for &id in plan.order() {
                            assert_eq!(
                                plan.deps(id),
                                &want[id.0][..],
                                "{kind:?} nt={nt} faulty={faulty} config {c} node {id:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Exact node/edge counts of the clean, default-option plans at the
    /// paper's scales (placement resolved as the drivers resolve it).
    #[test]
    fn paper_scale_plan_counts() {
        let cases = [
            (
                SystemProfile::tardis(),
                20480,
                256,
                [(7549, 238411), (8181, 164623), (8071, 47642)],
            ),
            (
                SystemProfile::bulldozer64(),
                30720,
                512,
                [(4399, 105073), (4871, 75932), (4791, 27264)],
            ),
        ];
        for (profile, n, b, counts) in cases {
            let opts = decision::resolve(&AbftOptions::default(), &profile, n, b);
            for (kind, want) in SCHEMES.into_iter().zip(counts) {
                let plan = for_scheme(kind, n / b, &opts, false);
                assert_eq!(
                    (plan.len(), plan.edge_count()),
                    want,
                    "{kind:?} on {}",
                    profile.name
                );
            }
        }
    }
}
