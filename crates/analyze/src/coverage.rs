//! Static fault-coverage model checking of a [`FactorPlan`]: enumerate
//! every fault site the injector could strike and prove, per site, which
//! recovery route the plan guarantees — before anything executes.
//!
//! A **site** is `(injection point, target tile, fault species)`: the
//! same coordinates [`hchol_faults::FaultSpec`] pins a dynamic injection
//! to, enumerated from the plan's [`TaskKind::FaultPoint`] nodes and the
//! tiles its factorization nodes declare they read afterwards. For each
//! site the checker walks the same [`AccessSet`] declarations
//! [`crate::plancheck`] walks and assigns the strongest provable rung of
//! the coverage lattice:
//!
//! * [`Coverage::DetectCorrect`] — every factorization read of the target
//!   tile after the strike sits behind a verify that (a) witnesses the
//!   corruption, (b) has a reachable paired [`TaskKind::Correct`], and
//!   (c) is an ancestor of the read on the plan's edges. The corruption
//!   is repaired in place before any consumer can see it: the Enhanced
//!   one-attempt contract.
//! * [`Coverage::DetectRestart`] — some consumer may read the corruption,
//!   but its propagated footprint is witnessed by a later verify and the
//!   run may restart (`opts.max_restarts >= 1`). The attempt is sacrificed,
//!   the result is still correct: the Online/Offline contract.
//! * [`Coverage::ParityRecover`] — device-loss sites on sharded plans:
//!   every finalized column has an end-of-column XOR parity refresh
//!   ([`TaskKind::ShardParity`]) between its last write and the loss, so
//!   the lost shard is reconstructible from the survivors.
//! * [`Coverage::Uncovered`] — no provable route. One uncovered site on a
//!   clean configuration is a protocol bug.
//!
//! ## Strike ordering and the fused-deposit blind spot
//!
//! A strike at authored-order position `a` is visible to a verify `v`
//! only if `pos(v) > a` (the injector fires at the fault point, in
//! authored order), while verify→consumer protection is proven on
//! dependency **edges** (`v` must reach the read), so it holds on every
//! schedule the executor may pick. Fused compare-only batches check the
//! producer's *deposit* against the maintained checksum (DESIGN.md §10.3):
//! they witness a corruption only if the deposit was computed from
//! already-corrupted data — i.e. the last deposit of the tile before `v`
//! lands at or after the position where the corruption entered the tile.
//! A fault in the producer→compare sub-window is invisible to the fused
//! compare and must be witnessed by the next plain (re-read) verification,
//! exactly the window DESIGN.md §10.3 documents.
//!
//! Site liveness follows the factorization reads the plan declares — the
//! host POTF2 round trip (`DiagToHost`) is not a site-defining consumer,
//! matching `plancheck`'s read rule; a strike after a tile's last
//! factorization read falls in the documented post-last-read window and
//! is not enumerated (DESIGN.md §13).
//!
//! The checker also computes a peak-resource bound ([`ResourceBound`]):
//! tile-count memory budgets straight from the declared accesses, plus
//! maximum-antichain bounds (Dilworth via bipartite matching on the
//! dependency partial order) on how many scratch-using verifies, pending
//! mirrors, and in-flight broadcasts can ever be live at once.
//!
//! [`AccessSet`]: hchol_gpusim::AccessSet

use crate::plancheck::{is_factorization, Ancestors};
use hchol_core::options::AbftOptions;
use hchol_core::plan::{FactorPlan, TaskKind};
use hchol_core::schemes::SchemeKind;
use hchol_faults::{FaultClass, FaultSite, InjectionPoint};
use hchol_gpusim::BufferId;
use hchol_obs::envelope;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// The rung of the coverage lattice proven for one site (strongest
/// first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Coverage {
    /// Every consumer read of the struck tile is behind a witnessing
    /// verify with a reachable correction: fixed in place, one attempt.
    DetectCorrect,
    /// The corruption footprint is witnessed by a later verify and the
    /// run may restart: correct result, sacrificed attempt.
    DetectRestart,
    /// Device loss reconstructible from the column XOR parities
    /// (sharded plans only).
    ParityRecover,
    /// No provable detection/recovery route.
    Uncovered,
}

impl Coverage {
    /// Stable machine-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Coverage::DetectCorrect => "detect_correct",
            Coverage::DetectRestart => "detect_restart",
            Coverage::ParityRecover => "parity_recover",
            Coverage::Uncovered => "uncovered",
        }
    }

    /// Is the site protected at all?
    pub fn is_covered(&self) -> bool {
        !matches!(self, Coverage::Uncovered)
    }
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The proved verdict for one enumerated fault site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteVerdict {
    /// The site (injection point × tile × species).
    pub site: FaultSite,
    /// Authored-order position of the site's fault-point node.
    pub pos: usize,
    /// Strongest proven lattice rung.
    pub coverage: Coverage,
    /// Authored-order position of the witnessing verify (`None` when
    /// uncovered).
    pub witness: Option<usize>,
}

/// The proved verdict for one device-loss site (sharded plans).
#[derive(Debug, Clone)]
pub struct LossVerdict {
    /// Failing logical device.
    pub device: usize,
    /// Iteration at whose start the loss strikes.
    pub at_iter: usize,
    /// [`Coverage::ParityRecover`] or [`Coverage::Uncovered`].
    pub coverage: Coverage,
    /// Finalized columns whose parity refresh is missing or stale at the
    /// loss point (empty when covered).
    pub missing_columns: Vec<usize>,
}

/// Peak-resource bound of a plan: direct tile-count budgets plus
/// maximum-antichain concurrency bounds over the dependency partial
/// order.
#[derive(Debug, Clone, Serialize)]
pub struct ResourceBound {
    /// Distinct matrix tiles the plan touches.
    pub mat_tiles: u64,
    /// Distinct checksum tiles the plan touches.
    pub chk_tiles: u64,
    /// Distinct fused-deposit tiles the plan touches (0 unless fused).
    pub dpt_tiles: u64,
    /// Max recalc-scratch users concurrently live (the shared scratch
    /// pool serializes them, so a clean plan proves 1).
    pub scratch_peak: u64,
    /// Max pending panel mirrors concurrently live (CPU placement).
    pub mirror_peak: u64,
    /// Max in-flight device broadcasts concurrently live (sharded).
    pub broadcast_peak: u64,
}

/// Result of statically checking one plan's fault coverage.
#[derive(Debug)]
pub struct CoverageReport {
    /// The scheme whose plan was checked.
    pub scheme: SchemeKind,
    /// Nodes in the plan.
    pub nodes: usize,
    /// Per-site verdicts (two species per tile-level proof).
    pub sites: Vec<SiteVerdict>,
    /// Device-loss verdicts (empty on single-device plans).
    pub losses: Vec<LossVerdict>,
    /// Peak-resource bound.
    pub resources: ResourceBound,
}

/// Flat summary of a [`CoverageReport`] for artifact export.
#[derive(Debug, Clone, Serialize)]
pub struct CoverageSummary {
    /// Scheme name.
    pub scheme: String,
    /// Enumerated sites (fault sites + device-loss sites).
    pub sites: u64,
    /// Covered sites.
    pub covered: u64,
    /// Uncovered sites.
    pub uncovered: u64,
    /// Sites proven [`Coverage::DetectCorrect`].
    pub detect_correct: u64,
    /// Sites proven [`Coverage::DetectRestart`].
    pub detect_restart: u64,
    /// Loss sites proven [`Coverage::ParityRecover`].
    pub parity_recover: u64,
    /// Peak-resource bound.
    pub resources: ResourceBound,
}

impl CoverageReport {
    /// Total enumerated sites (fault sites plus device-loss sites).
    pub fn total_sites(&self) -> usize {
        self.sites.len() + self.losses.len()
    }

    /// Sites with a proven recovery route.
    pub fn covered_sites(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| s.coverage.is_covered())
            .count()
            + self
                .losses
                .iter()
                .filter(|l| l.coverage.is_covered())
                .count()
    }

    /// Sites with no proven route (a clean configuration proves 0).
    pub fn uncovered_sites(&self) -> usize {
        self.total_sites() - self.covered_sites()
    }

    /// True when every enumerated site has a proven route.
    pub fn is_covered(&self) -> bool {
        self.uncovered_sites() == 0
    }

    fn count(&self, c: Coverage) -> usize {
        self.sites.iter().filter(|s| s.coverage == c).count()
    }

    /// Flat summary for artifact export.
    pub fn summary(&self) -> CoverageSummary {
        CoverageSummary {
            scheme: self.scheme.name().to_string(),
            sites: self.total_sites() as u64,
            covered: self.covered_sites() as u64,
            uncovered: self.uncovered_sites() as u64,
            detect_correct: self.count(Coverage::DetectCorrect) as u64,
            detect_restart: self.count(Coverage::DetectRestart) as u64,
            parity_recover: self
                .losses
                .iter()
                .filter(|l| l.coverage == Coverage::ParityRecover)
                .count() as u64,
            resources: self.resources.clone(),
        }
    }

    /// Record the headline counts into a metrics registry (names are
    /// registered in `hchol_obs::names::METRICS`).
    pub fn record_into(&self, metrics: &mut hchol_obs::MetricsRegistry) {
        metrics.add_count("coverage.sites", self.total_sites() as u64);
        metrics.add_count("coverage.covered", self.covered_sites() as u64);
        metrics.add_count("coverage.uncovered", self.uncovered_sites() as u64);
    }

    /// Versioned-envelope JSON export of the summary.
    pub fn to_json(&self, name: &str) -> String {
        serde_json::to_string_pretty(&envelope(
            "coverage_report",
            name,
            self.summary().to_value(),
        ))
        .expect("coverage report serializes")
    }

    /// Human-readable summary, uncovered sites listed first.
    pub fn render_text(&self) -> String {
        let s = self.summary();
        let mut out = format!(
            "{}: {} sites, {} covered, {} uncovered ({} correct, {} restart, {} parity)\n",
            self.scheme.name(),
            s.sites,
            s.covered,
            s.uncovered,
            s.detect_correct,
            s.detect_restart,
            s.parity_recover
        );
        for v in self.sites.iter().filter(|s| !s.coverage.is_covered()) {
            out.push_str(&format!(
                "  [uncovered] {:?} tile ({},{}) {:?} at pos {}\n",
                v.site.point, v.site.bi, v.site.bj, v.site.class, v.pos
            ));
        }
        for l in self.losses.iter().filter(|l| !l.coverage.is_covered()) {
            out.push_str(&format!(
                "  [uncovered] device {} lost at iter {}: missing parity for columns {:?}\n",
                l.device, l.at_iter, l.missing_columns
            ));
        }
        out
    }
}

/// One verify node as the coverage prover sees it.
struct VerifyNode {
    pos: usize,
    tiles: Vec<(usize, usize)>,
    fused: bool,
}

/// Everything the provers read from one walk of the authored order.
struct PlanFacts {
    anc: Ancestors,
    verifies: Vec<VerifyNode>,
    /// Corrections: position and the tiles each one repairs.
    corrects: Vec<(usize, Vec<(usize, usize)>)>,
    /// Fused-deposit positions per tile, ascending.
    deposits: HashMap<(usize, usize), Vec<usize>>,
    /// Tiles deposited by the fused producer at each position.
    deposits_at: Vec<Vec<(usize, usize)>>,
    /// Factorization matrix reads / writes at each position.
    fact_reads: Vec<Vec<(usize, usize)>>,
    fact_writes: Vec<Vec<(usize, usize)>>,
    /// Factorization read positions per tile, ascending (the order the
    /// tiles of one fault point are enumerated in).
    reads_of_tile: BTreeMap<(usize, usize), Vec<usize>>,
    /// Data-write positions per column (parity staleness gate).
    col_writes: HashMap<usize, Vec<usize>>,
    /// Parity-refresh positions per column.
    parities: HashMap<usize, Vec<usize>>,
    scratch_set: Vec<usize>,
    mirror_set: Vec<usize>,
    send_set: Vec<usize>,
    mat_tiles: BTreeSet<(usize, usize)>,
    chk_tiles: BTreeSet<(usize, usize)>,
    dpt_tiles: BTreeSet<(usize, usize)>,
}

impl PlanFacts {
    /// One walk: verify/correct placement, fused-deposit positions,
    /// factorization read/write sets, per-column mat writes, parity
    /// refreshes, resource sets, distinct-tile budgets.
    fn collect(plan: &FactorPlan) -> Self {
        let nt = plan.nt;
        let order = plan.order();
        let n = order.len();
        let pos_of: HashMap<_, _> = order.iter().enumerate().map(|(p, &id)| (id, p)).collect();
        let mut f = PlanFacts {
            anc: Ancestors::compute(plan, &pos_of),
            verifies: Vec::new(),
            corrects: Vec::new(),
            deposits: HashMap::new(),
            deposits_at: vec![Vec::new(); n],
            fact_reads: vec![Vec::new(); n],
            fact_writes: vec![Vec::new(); n],
            reads_of_tile: BTreeMap::new(),
            col_writes: HashMap::new(),
            parities: HashMap::new(),
            scratch_set: Vec::new(),
            mirror_set: Vec::new(),
            send_set: Vec::new(),
            mat_tiles: BTreeSet::new(),
            chk_tiles: BTreeSet::new(),
            dpt_tiles: BTreeSet::new(),
        };

        for (p, &id) in order.iter().enumerate() {
            let node = plan.node(id);
            let acc = plan.node_access(id);
            for t in acc.tiles.reads.iter().chain(acc.tiles.writes.iter()) {
                match classify(t.buf, nt) {
                    0 => {
                        f.mat_tiles.insert((t.bi, t.bj));
                    }
                    1 => {
                        f.chk_tiles.insert((t.buf.0 - 1, t.bj));
                    }
                    _ => {
                        f.dpt_tiles.insert((t.buf.0 - 1 - nt, t.bj));
                    }
                }
            }
            match &node.kind {
                TaskKind::VerifyBatch { tiles, fused, .. } => {
                    f.verifies.push(VerifyNode {
                        pos: p,
                        tiles: tiles.clone(),
                        fused: *fused,
                    });
                    if !*fused {
                        f.scratch_set.push(p);
                    }
                }
                TaskKind::Correct { tiles, .. } => f.corrects.push((p, tiles.clone())),
                TaskKind::MirrorPanel { .. } => f.mirror_set.push(p),
                TaskKind::DeviceSend { .. } => f.send_set.push(p),
                TaskKind::ShardParity { j } => f.parities.entry(*j).or_default().push(p),
                _ => {}
            }
            if is_factorization(&node.kind) {
                for t in &acc.tiles.reads {
                    if t.buf == BufferId(0) {
                        f.fact_reads[p].push((t.bi, t.bj));
                        f.reads_of_tile.entry((t.bi, t.bj)).or_default().push(p);
                    }
                }
                for t in &acc.tiles.writes {
                    if t.buf == BufferId(0) {
                        f.fact_writes[p].push((t.bi, t.bj));
                    }
                }
            }
            // Fused producers deposit fresh sums of everything they write.
            if matches!(
                node.kind,
                TaskKind::Syrk { fused: true, .. } | TaskKind::GemmPanel { fused: true, .. }
            ) {
                for t in &acc.tiles.writes {
                    if classify(t.buf, nt) == 2 {
                        let tile = (t.buf.0 - 1 - nt, t.bj);
                        f.deposits.entry(tile).or_default().push(p);
                        f.deposits_at[p].push(tile);
                    }
                }
            }
            // Data writes (kernels and the POTF2 round trip) staleness-gate
            // the column's parity refresh. Corrections also declare mat
            // writes but restore the exact checksum-consistent values the
            // parity encoded, so they do not invalidate it (soft fault +
            // device loss in one run is out of scope — DESIGN.md §12).
            if is_factorization(&node.kind) || matches!(node.kind, TaskKind::DiagToDevice { .. }) {
                for t in &acc.tiles.writes {
                    if t.buf == BufferId(0) {
                        f.col_writes.entry(t.bj).or_default().push(p);
                    }
                }
            }
        }
        f
    }

    /// A verify witnesses a corruption that entered tile `t` at position
    /// `entry` iff it covers `t` after the entry and — when compare-only —
    /// its deposit of `t` was computed from the corrupted data.
    fn witnesses(&self, v: &VerifyNode, t: (usize, usize), entry: usize) -> bool {
        if v.pos <= entry || !v.tiles.contains(&t) {
            return false;
        }
        if !v.fused {
            return true;
        }
        self.deposits
            .get(&t)
            .and_then(|ds| ds.iter().rev().find(|&&d| d < v.pos))
            .is_some_and(|&d| d >= entry)
    }
}

/// Classify a tile access into the mat / chk / dpt buffer families (the
/// canonical ids [`hchol_core::plan::mat_tile`] et al. assign).
fn classify(buf: BufferId, nt: usize) -> u8 {
    if buf == BufferId(0) {
        0 // mat
    } else if buf.0 <= nt {
        1 // chk row buffer
    } else {
        2 // fused deposit row buffer
    }
}

/// Maximum antichain of the positions in `set` under the reachability
/// partial order: by Dilworth's theorem it equals `|set|` minus the size
/// of a maximum matching in the bipartite comparability graph (Mirsky /
/// König construction). `set` is small (one entry per verify / mirror /
/// broadcast node), so the O(V·E) Hungarian augmentation is plenty.
fn max_antichain(set: &[usize], anc: &Ancestors) -> usize {
    let n = set.len();
    if n <= 1 {
        return n;
    }
    fn augment(
        i: usize,
        set: &[usize],
        anc: &Ancestors,
        seen: &mut [bool],
        matched: &mut [Option<usize>],
    ) -> bool {
        for k in 0..set.len() {
            if !seen[k] && anc.reaches(set[i], set[k]) {
                seen[k] = true;
                if matched[k].is_none() || augment(matched[k].unwrap(), set, anc, seen, matched) {
                    matched[k] = Some(i);
                    return true;
                }
            }
        }
        false
    }
    let mut matched: Vec<Option<usize>> = vec![None; n];
    let mut matching = 0;
    for i in 0..n {
        let mut seen = vec![false; n];
        if augment(i, set, anc, &mut seen, &mut matched) {
            matching += 1;
        }
    }
    n - matching
}

/// Statically check the fault coverage of `plan` (built for `kind` with
/// `opts`): enumerate every injectable site and prove each a rung of the
/// coverage lattice. See the module docs for the site and witness rules.
pub fn check_coverage(kind: SchemeKind, plan: &FactorPlan, opts: &AbftOptions) -> CoverageReport {
    let f = PlanFacts::collect(plan);
    let sites = prove_sites(plan, &f, opts);

    // Device-loss sites (sharded plans): a loss at the start of iteration
    // `j` is recoverable iff every finalized column `c < j` has a parity
    // refresh after its last write and before the loss.
    let mut losses = Vec::new();
    if let Some(shard) = plan.shard.filter(|s| s.devices > 1) {
        let loss_points: Vec<(usize, usize)> = plan
            .fault_points()
            .into_iter()
            .filter_map(|(a, pt)| match pt {
                InjectionPoint::IterStart { iter } if iter >= 1 => Some((a, iter)),
                _ => None,
            })
            .collect();
        for device in 0..shard.devices {
            for &(a, at_iter) in &loss_points {
                let mut missing = Vec::new();
                for c in 0..at_iter {
                    let lw = f
                        .col_writes
                        .get(&c)
                        .into_iter()
                        .flatten()
                        .filter(|&&w| w < a)
                        .max()
                        .copied()
                        .unwrap_or(0);
                    let fresh = f
                        .parities
                        .get(&c)
                        .into_iter()
                        .flatten()
                        .any(|&q| q < a && q > lw);
                    if !fresh {
                        missing.push(c);
                    }
                }
                losses.push(LossVerdict {
                    device,
                    at_iter,
                    coverage: if missing.is_empty() {
                        Coverage::ParityRecover
                    } else {
                        Coverage::Uncovered
                    },
                    missing_columns: missing,
                });
            }
        }
    }

    CoverageReport {
        scheme: kind,
        nodes: plan.order().len(),
        sites,
        losses,
        resources: ResourceBound {
            mat_tiles: f.mat_tiles.len() as u64,
            chk_tiles: f.chk_tiles.len() as u64,
            dpt_tiles: f.dpt_tiles.len() as u64,
            scratch_peak: max_antichain(&f.scratch_set, &f.anc) as u64,
            mirror_peak: max_antichain(&f.mirror_set, &f.anc) as u64,
            broadcast_peak: max_antichain(&f.send_set, &f.anc) as u64,
        },
    }
}

/// Prove every `(fault point, live tile)` pair its strongest rung, two
/// species per pair. DetectCorrect is settled per pair against the tile's
/// guard list; the pairs left over at one fault point share one footprint
/// sweep per 64 of them for DetectRestart.
fn prove_sites(plan: &FactorPlan, f: &PlanFacts, opts: &AbftOptions) -> Vec<SiteVerdict> {
    let nt = plan.nt;
    let ix = |t: (usize, usize)| t.0 * nt + t.1;

    // Guard index: per tile, in authored order, the verifies that cover
    // it and reach a correction covering it.
    let mut corrects_of = vec![Vec::new(); nt * nt];
    for (cp, tiles) in &f.corrects {
        for &t in tiles {
            corrects_of[ix(t)].push(*cp);
        }
    }
    let mut guards: Vec<Vec<&VerifyNode>> = vec![Vec::new(); nt * nt];
    for v in &f.verifies {
        for &t in &v.tiles {
            if corrects_of[ix(t)]
                .iter()
                .any(|&cp| f.anc.reaches(v.pos, cp))
            {
                guards[ix(t)].push(v);
            }
        }
    }

    let mut sites = Vec::new();
    let mut proofs: Vec<((usize, usize), Coverage, Option<usize>)> = Vec::new();
    let mut sources: Vec<usize> = Vec::new();
    let (mut foot, mut dep) = (vec![0u64; nt * nt], vec![0u64; nt * nt]);
    for (a, point) in plan.fault_points() {
        proofs.clear();
        sources.clear();
        for (&tile, read_ps) in &f.reads_of_tile {
            let later = &read_ps[read_ps.partition_point(|&r| r <= a)..];
            let Some((&first, rest)) = later.split_first() else {
                continue; // post-last-read window: not a live site
            };
            // DetectCorrect: every read after the strike is behind a
            // witnessing guard; the first read's guard is the witness.
            let guard_of = |r: usize| {
                guards[ix(tile)]
                    .iter()
                    .find(|v| f.witnesses(v, tile, a) && f.anc.reaches(v.pos, r))
                    .map(|v| v.pos)
            };
            let witness = guard_of(first);
            if witness.is_some() && rest.iter().all(|&r| guard_of(r).is_some()) {
                proofs.push((tile, Coverage::DetectCorrect, witness));
            } else {
                sources.push(proofs.len());
                proofs.push((tile, Coverage::Uncovered, None));
            }
        }
        if opts.max_restarts >= 1 {
            for chunk in sources.chunks(64) {
                let tiles = chunk.iter().map(|&i| proofs[i].0);
                let found = restart_sweep(a, tiles, f, nt, &mut foot, &mut dep);
                for (&i, w) in chunk.iter().zip(found) {
                    if w.is_some() {
                        proofs[i] = (proofs[i].0, Coverage::DetectRestart, w);
                    }
                }
            }
        }
        for &(tile, coverage, witness) in &proofs {
            for class in FaultClass::all() {
                sites.push(SiteVerdict {
                    site: FaultSite {
                        point,
                        bi: tile.0,
                        bj: tile.1,
                        class,
                    },
                    pos: a,
                    coverage,
                    witness,
                });
            }
        }
    }
    sites
}

/// DetectRestart for up to 64 source tiles struck at position `a`, in one
/// forward sweep over the authored order. Each source is one bit of two
/// per-tile words: `foot[t]`, the sources whose corruption footprint has
/// reached `t` (a factorization node ORs the footprints of the tiles it
/// reads into the tiles it writes), and `dep[t]`, `foot[t]` as it was
/// right after the last fused deposit of `t`. A plain verify witnesses
/// `foot` of its tiles; a fused compare witnesses only `dep`, since a
/// source entered `t` at or before the deposit exactly when it was in
/// `foot[t]` at that deposit. Returns each source's first witnessing
/// verify position, `None` when no verify witnesses it; `foot` and `dep`
/// are `nt × nt` scratch the caller reuses.
fn restart_sweep(
    a: usize,
    sources: impl Iterator<Item = (usize, usize)>,
    f: &PlanFacts,
    nt: usize,
    foot: &mut [u64],
    dep: &mut [u64],
) -> [Option<usize>; 64] {
    let ix = |t: (usize, usize)| t.0 * nt + t.1;
    foot.fill(0);
    dep.fill(0);
    let mut open = 0u64;
    for (s, t) in sources.enumerate() {
        foot[ix(t)] |= 1 << s;
        open |= 1 << s;
    }
    let mut witness = [None; 64];
    let first = f.verifies.partition_point(|v| v.pos <= a);
    let mut verifies = f.verifies[first..].iter().peekable();
    for p in (a + 1)..f.fact_reads.len() {
        if let Some(v) = verifies.next_if(|v| v.pos == p) {
            let bits = if v.fused { &*dep } else { &*foot };
            let mut fresh = v.tiles.iter().fold(0, |acc, &t| acc | bits[ix(t)]) & open;
            open &= !fresh;
            while fresh != 0 {
                witness[fresh.trailing_zeros() as usize] = Some(p);
                fresh &= fresh - 1;
            }
            if open == 0 {
                break;
            }
        }
        let hit = f.fact_reads[p].iter().fold(0, |acc, &t| acc | foot[ix(t)]);
        if hit != 0 {
            for &t in &f.fact_writes[p] {
                foot[ix(t)] |= hit;
            }
        }
        for &t in &f.deposits_at[p] {
            dep[ix(t)] = foot[ix(t)];
        }
    }
    witness
}

/// Build the plan for `(kind, n, b, opts)` and check its coverage — the
/// one-call form the `coverage_check` bin and CI use. `opts.placement`
/// may be `Auto`; it resolves exactly as `run_scheme` resolves it.
pub fn check_scheme_coverage(
    kind: SchemeKind,
    profile: &hchol_gpusim::profile::SystemProfile,
    n: usize,
    b: usize,
    opts: &AbftOptions,
) -> CoverageReport {
    let resolved = hchol_core::decision::resolve(opts, profile, n, b);
    let plan = hchol_core::plan::for_scheme(kind, n / b, &resolved, false);
    check_coverage(kind, &plan, &resolved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hchol_core::plan::{for_scheme, SweepKind};

    fn resolved_opts() -> AbftOptions {
        AbftOptions::default().with_placement(hchol_core::options::ChecksumPlacement::Gpu)
    }

    /// The per-site prover the guard index and footprint sweep replaced,
    /// kept as the reference they must match verdict for verdict: each
    /// `(fault point, tile)` pair scans every verify for a guard of each
    /// later read, then walks the footprint from the strike on its own.
    fn reference_sites(plan: &FactorPlan, opts: &AbftOptions) -> Vec<SiteVerdict> {
        let f = PlanFacts::collect(plan);
        let mut sites = Vec::new();
        for (a, point) in plan.fault_points() {
            for (&tile, read_ps) in &f.reads_of_tile {
                if !read_ps.iter().any(|&r| r > a) {
                    continue;
                }
                let (coverage, witness) = reference_site(a, tile, read_ps, &f, opts);
                for class in FaultClass::all() {
                    sites.push(SiteVerdict {
                        site: FaultSite {
                            point,
                            bi: tile.0,
                            bj: tile.1,
                            class,
                        },
                        pos: a,
                        coverage,
                        witness,
                    });
                }
            }
        }
        sites
    }

    fn reference_site(
        a: usize,
        tile: (usize, usize),
        read_ps: &[usize],
        f: &PlanFacts,
        opts: &AbftOptions,
    ) -> (Coverage, Option<usize>) {
        let corrects_tile = |v: &VerifyNode, t: (usize, usize)| {
            f.corrects
                .iter()
                .any(|(cp, tiles)| tiles.contains(&t) && f.anc.reaches(v.pos, *cp))
        };
        let mut first_witness = None;
        let all_guarded = read_ps.iter().filter(|&&r| r > a).all(|&r| {
            let guard = f.verifies.iter().find(|v| {
                f.witnesses(v, tile, a) && corrects_tile(v, tile) && f.anc.reaches(v.pos, r)
            });
            if let Some(v) = guard {
                if first_witness.is_none() {
                    first_witness = Some(v.pos);
                }
            }
            guard.is_some()
        });
        if all_guarded {
            return (Coverage::DetectCorrect, first_witness);
        }
        if opts.max_restarts >= 1 {
            let mut foot: HashMap<(usize, usize), usize> = HashMap::from([(tile, a)]);
            let mut vi = f.verifies.iter().peekable();
            for p in (a + 1)..f.fact_reads.len() {
                while vi.peek().is_some_and(|v| v.pos < p) {
                    vi.next();
                }
                if let Some(v) = vi.peek() {
                    if v.pos == p
                        && v.tiles
                            .iter()
                            .any(|t| foot.get(t).is_some_and(|&e| f.witnesses(v, *t, e)))
                    {
                        return (Coverage::DetectRestart, Some(p));
                    }
                }
                if f.fact_reads[p].iter().any(|t| foot.contains_key(t)) {
                    for &w in &f.fact_writes[p] {
                        foot.entry(w).or_insert(p);
                    }
                }
            }
        }
        (Coverage::Uncovered, None)
    }

    /// Assert the prover and the reference agree site for site on `plan`,
    /// naming the first disagreement.
    fn assert_matches_reference(
        kind: SchemeKind,
        plan: &FactorPlan,
        opts: &AbftOptions,
        what: &str,
    ) {
        let got = check_coverage(kind, plan, opts).sites;
        let want = reference_sites(plan, opts);
        if let Some(i) = (0..got.len().min(want.len())).find(|&i| got[i] != want[i]) {
            panic!(
                "{} {what}: site {i} differs\n  prover:    {:?}\n  reference: {:?}",
                kind.name(),
                got[i],
                want[i]
            );
        }
        assert_eq!(got.len(), want.len(), "{} {what}: site counts", kind.name());
    }

    /// The guard index and the per-fault-point footprint sweep prove the
    /// same `(point, tile, class, pos, coverage, witness)` sequence as the
    /// per-site reference, over every scheme × rewrite × placement × grid
    /// size, with and without one verify stripped (which leaves sites the
    /// lattice must demote) and with restarts forbidden.
    #[test]
    fn prover_matches_per_site_reference() {
        use hchol_core::options::{ChecksumPlacement, ShardOptions};
        let no_restarts = |mut o: AbftOptions| {
            o.max_restarts = 0;
            o
        };
        type Variant = (&'static str, fn(AbftOptions) -> AbftOptions);
        let variants: [Variant; 8] = [
            ("default", |o| o),
            ("fused", |o| o.with_chk_fused(true)),
            ("K=4", |o| o.with_interval(4)),
            ("K=3 fused", |o| o.with_interval(3).with_chk_fused(true)),
            ("lookahead=2", |o| o.with_lookahead(2)),
            ("max_restarts=0", no_restarts),
            ("D=2", |o| o.with_shard(ShardOptions::new(2))),
            ("D=4", |o| o.with_shard(ShardOptions::new(4))),
        ];
        let grid = [2usize, 3, 4, 6, 8]
            .into_iter()
            .flat_map(|nt| [ChecksumPlacement::Gpu, ChecksumPlacement::Cpu].map(|p| (nt, p)))
            .chain([(12, ChecksumPlacement::Gpu)]);
        let mut checked = 0;
        for (nt, placement) in grid {
            for kind in SchemeKind::all() {
                for (name, variant) in variants {
                    // The per-site reference grows roughly as nt⁵, so the
                    // one large grid runs only the default and the fused
                    // deposit rule.
                    if nt == 12 && !matches!(name, "default" | "K=3 fused") {
                        continue;
                    }
                    let opts = variant(AbftOptions::default().with_placement(placement));
                    if hchol_core::validate_options(&opts).is_err() {
                        continue;
                    }
                    let what = format!("nt={nt} {placement:?} {name}");
                    let plan = for_scheme(kind, nt, &opts, false);
                    assert_matches_reference(kind, &plan, &opts, &what);
                    let stripped = plan.find(|n| {
                        matches!(n.kind, TaskKind::VerifyBatch { .. }) && n.iter >= Some(nt / 2)
                    });
                    if let Some(victim) = stripped {
                        let mut mutated = plan.clone();
                        mutated.remove(victim);
                        mutated.derive_deps();
                        assert_matches_reference(
                            kind,
                            &mutated,
                            &opts,
                            &format!("{what} stripped"),
                        );
                    }
                    checked += 1;
                }
            }
        }
        assert!(checked > 100, "only {checked} plans checked");
    }

    /// Every clean single-device configuration proves 100% site coverage,
    /// across schemes, grid sizes, and verify intervals.
    #[test]
    fn clean_plans_cover_every_site() {
        for kind in SchemeKind::all() {
            for nt in [2usize, 4, 8, 16] {
                for k in [1usize, 4] {
                    let opts = resolved_opts().with_interval(k);
                    let plan = for_scheme(kind, nt, &opts, false);
                    let rep = check_coverage(kind, &plan, &opts);
                    assert!(rep.total_sites() > 0, "{} nt={nt}: no sites", kind.name());
                    assert!(
                        rep.is_covered(),
                        "{} nt={nt} K={k}:\n{}",
                        kind.name(),
                        rep.render_text()
                    );
                }
            }
        }
    }

    /// Enhanced at K=1 proves the paper's one-attempt contract: every
    /// site is DetectCorrect, never merely restartable.
    #[test]
    fn enhanced_k1_proves_correct_in_place() {
        let opts = resolved_opts();
        let plan = for_scheme(SchemeKind::Enhanced, 6, &opts, false);
        let rep = check_coverage(SchemeKind::Enhanced, &plan, &opts);
        assert!(rep.is_covered(), "{}", rep.render_text());
        assert!(
            rep.sites
                .iter()
                .all(|s| s.coverage == Coverage::DetectCorrect),
            "expected all DetectCorrect:\n{}",
            rep.render_text()
        );
        // Every covered site names its witnessing verify.
        assert!(rep.sites.iter().all(|s| s.witness.is_some()));
    }

    /// Offline has no inline checks: every site is covered only through
    /// the final sweep + restart route.
    #[test]
    fn offline_covers_only_by_restart() {
        let opts = resolved_opts();
        let plan = for_scheme(SchemeKind::Offline, 6, &opts, false);
        let rep = check_coverage(SchemeKind::Offline, &plan, &opts);
        assert!(rep.is_covered(), "{}", rep.render_text());
        assert!(rep
            .sites
            .iter()
            .all(|s| s.coverage == Coverage::DetectRestart));
    }

    /// With restarts forbidden, Offline's restart route disappears and
    /// every site degrades to uncovered — the lattice is downgrade-exact.
    #[test]
    fn no_restarts_uncovers_offline() {
        let mut opts = resolved_opts();
        opts.max_restarts = 0;
        let plan = for_scheme(SchemeKind::Offline, 4, &opts, false);
        let rep = check_coverage(SchemeKind::Offline, &plan, &opts);
        assert!(rep.uncovered_sites() > 0);
        assert_eq!(rep.covered_sites(), 0);
    }

    /// Fused Enhanced plans stay fully covered: the deposit-witness rule
    /// accepts fused compares only where the deposit inherits the
    /// corruption, and the plain re-read checks carry the rest.
    #[test]
    fn fused_enhanced_plans_are_covered() {
        for nt in [4usize, 8] {
            let opts = resolved_opts().with_chk_fused(true);
            let plan = for_scheme(SchemeKind::Enhanced, nt, &opts, false);
            let rep = check_coverage(SchemeKind::Enhanced, &plan, &opts);
            assert!(rep.total_sites() > 0);
            assert!(rep.is_covered(), "nt={nt}:\n{}", rep.render_text());
            assert!(rep.resources.dpt_tiles > 0, "fused plan deposits tiles");
        }
    }

    /// Mutation control: stripping a final-sweep verify from an Offline
    /// plan flips sites to uncovered (their only witness is gone).
    #[test]
    fn stripped_final_verify_uncovers_sites() {
        let opts = resolved_opts();
        let mut plan = for_scheme(SchemeKind::Offline, 4, &opts, false);
        let sweep = plan
            .find(|n| matches!(&n.kind, TaskKind::VerifyBatch { sweep, .. } if *sweep == SweepKind::Final))
            .expect("final sweep exists");
        plan.remove(sweep);
        plan.derive_deps();
        let rep = check_coverage(SchemeKind::Offline, &plan, &opts);
        assert!(
            rep.uncovered_sites() > 0,
            "expected uncovered sites:\n{}",
            rep.render_text()
        );
    }

    /// Mutation control: stripping one inline verify from an Enhanced
    /// plan demotes its guarded reads — sites fall off DetectCorrect.
    #[test]
    fn stripped_inline_verify_demotes_enhanced() {
        let opts = resolved_opts();
        let plan = for_scheme(SchemeKind::Enhanced, 6, &opts, false);
        let victim = plan
            .find(|n| {
                matches!(&n.kind, TaskKind::VerifyBatch { sweep, .. } if *sweep == SweepKind::Inline)
                    && n.iter >= Some(1)
            })
            .expect("an inline verify exists");
        let mut mutated = plan.clone();
        mutated.remove(victim);
        mutated.derive_deps();
        let rep = check_coverage(SchemeKind::Enhanced, &mutated, &opts);
        assert!(
            rep.sites
                .iter()
                .any(|s| s.coverage != Coverage::DetectCorrect),
            "expected a demoted site:\n{}",
            rep.render_text()
        );
    }

    /// Sharded plans enumerate device-loss sites and prove every one
    /// parity-recoverable; dropping one parity refresh flips the later
    /// loss sites to uncovered.
    #[test]
    fn sharded_losses_parity_recover_and_mutation_flips() {
        let opts = resolved_opts().with_shard(hchol_core::options::ShardOptions::new(2));
        let plan = for_scheme(SchemeKind::Offline, 6, &opts, false);
        let rep = check_coverage(SchemeKind::Offline, &plan, &opts);
        assert!(!rep.losses.is_empty(), "loss sites were enumerated");
        assert!(
            rep.losses
                .iter()
                .all(|l| l.coverage == Coverage::ParityRecover),
            "{}",
            rep.render_text()
        );
        assert!(rep.is_covered(), "{}", rep.render_text());

        let mut mutated = plan.clone();
        let parity = mutated
            .find(|n| matches!(n.kind, TaskKind::ShardParity { j: 1 }))
            .expect("column-1 parity refresh exists");
        mutated.remove(parity);
        mutated.derive_deps();
        let rep = check_coverage(SchemeKind::Offline, &mutated, &opts);
        let bad: Vec<_> = rep
            .losses
            .iter()
            .filter(|l| l.coverage == Coverage::Uncovered)
            .collect();
        assert!(!bad.is_empty(), "expected uncovered loss sites");
        assert!(bad
            .iter()
            .all(|l| l.missing_columns == vec![1] && l.at_iter >= 2));
    }

    /// The scratch antichain bound proves the shared recalc pool is never
    /// contended: at most one non-fused verify live at a time.
    #[test]
    fn scratch_peak_is_one() {
        for kind in SchemeKind::all() {
            let opts = resolved_opts();
            let plan = for_scheme(kind, 8, &opts, false);
            let rep = check_coverage(kind, &plan, &opts);
            assert_eq!(rep.resources.scratch_peak, 1, "{}", kind.name());
            assert_eq!(rep.resources.mat_tiles, 8 * 9 / 2);
            assert_eq!(rep.resources.chk_tiles, 8 * 9 / 2);
        }
    }

    /// Sharded plans keep multiple broadcasts in flight — the antichain
    /// bound sees the overlap the chunked ring permits.
    #[test]
    fn broadcast_peak_counts_overlap() {
        let opts = resolved_opts().with_shard(hchol_core::options::ShardOptions::new(2));
        let plan = for_scheme(SchemeKind::Offline, 8, &opts, false);
        let rep = check_coverage(SchemeKind::Offline, &plan, &opts);
        assert!(rep.resources.broadcast_peak >= 1);
    }

    /// The JSON export is a valid versioned envelope with the summary
    /// body.
    #[test]
    fn report_exports_versioned_envelope() {
        let opts = resolved_opts();
        let plan = for_scheme(SchemeKind::Enhanced, 4, &opts, false);
        let rep = check_coverage(SchemeKind::Enhanced, &plan, &opts);
        let json = rep.to_json("unit test");
        let v = serde_json::value_from_str(&json).expect("parses");
        let obj = v.as_object().expect("envelope object");
        assert!(matches!(
            serde::field(obj, "schema_version").unwrap(),
            serde::Value::U64(n) if *n == hchol_obs::SCHEMA_VERSION as u64
        ));
        let body = serde::field(obj, "body")
            .unwrap()
            .as_object()
            .expect("body object");
        assert!(matches!(serde::field(body, "sites").unwrap(), serde::Value::U64(n) if *n > 0));
        assert!(matches!(
            serde::field(body, "uncovered").unwrap(),
            serde::Value::U64(0)
        ));
    }
}
