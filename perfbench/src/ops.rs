//! The three workloads: their operations, how one is run (the timed part)
//! and how its outcome is digested (the untimed part).

use crate::oracle::{self, Book};
use crate::trace::Tracer;
use hchol_analyze::{
    analyze_outcome, check_coverage, check_liveness, check_plan, CoverageReport, LivenessReport,
    PlanCheck, ScheduleAnalysis,
};
use hchol_core::cula::factor_cula;
use hchol_core::magma::{factor_magma, BaselineReport};
use hchol_core::options::{AbftOptions, BalanceOptions, ChecksumPlacement, ShardOptions};
use hchol_core::plan::balance::BalanceController;
use hchol_core::plan::{self, FactorPlan};
use hchol_core::schemes::{run_scheme_typed, validate_options, FactorOutcome, SchemeKind};
use hchol_faults::poisson::storage_plan;
use hchol_faults::FaultPlan;
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::ExecMode;
use hchol_matrix::generate::spd_diag_dominant;
use hchol_matrix::{Matrix, MatrixError, Scalar};
use hchol_obs::{MetricsRegistry, SpanRecorder};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// `execute-faults`: Tardis n=2048, b=128 (nt=16).
pub const EXEC_N: usize = 2048;
pub const EXEC_B: usize = 128;
/// Mean storage faults per outer iteration of the seeded Poisson plan
/// (about 4.8 per run). At 0.1 a fifth of the seeds draw no fault, so a
/// pass's virtual and host time split into two modes across seeds; at 0.3
/// Offline and Online restart on nearly every seed and their cost varies
/// far less, while Online still gives up on most seeds and Enhanced on none.
pub const EXEC_FAULT_RATE: f64 = 0.3;
/// `static-proof`: Tardis n=5120, b=256 (nt=20).
pub const PROOF_N: usize = 5120;
pub const PROOF_B: usize = 256;

/// Leaf virtual phases reported one by one; any other phase is summed
/// into `other`.
pub const PHASES: [&str; 10] = [
    "setup", "encode", "syrk", "gemm", "potf2", "trsm", "verify", "transfer", "drain", "other",
];
/// Simulated engines reported one by one; any other engine is summed into
/// `other`.
pub const ENGINES: [&str; 6] = ["gpu", "host", "cpu_workers", "dma_h2d", "dma_d2h", "other"];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PaperSim,
    ExecuteFaults,
    StaticProof,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "paper-sim" => Some(Workload::PaperSim),
            "execute-faults" => Some(Workload::ExecuteFaults),
            "static-proof" => Some(Workload::StaticProof),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSim => "paper-sim",
            Workload::ExecuteFaults => "execute-faults",
            Workload::StaticProof => "static-proof",
        }
    }
}

/// The library entry point an op calls.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Routine {
    Magma,
    Cula,
    Scheme(SchemeKind),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Precision {
    F64,
    F32,
}

/// One operation of a workload's fixed list.
pub struct OpSpec {
    pub label: String,
    pub routine: Routine,
    pub profile: SystemProfile,
    pub n: usize,
    pub b: usize,
    pub mode: ExecMode,
    pub opts: AbftOptions,
    pub faults: FaultPlan,
    pub precision: Precision,
    /// End the op with `report()` + `to_json()`.
    pub report: bool,
    /// Run the static analyzers around a TimingOnly run.
    pub static_proof: bool,
    /// Committed paper-figure GFLOP/s this op's virtual time must reproduce.
    pub anchor: Option<String>,
    /// Counts toward `enhanced_overhead_pct` (clean f64 Enhanced / MAGMA).
    pub overhead_term: bool,
    /// The scheme's documented contract does not cover this op's faults:
    /// Online-ABFT verifies a block right after writing it, so a storage
    /// error striking it at rest escapes until it has propagated. A silently
    /// wrong factor here counts in `wrong_frac` as a known defect, not as a
    /// broken contract.
    pub unprotected: bool,
}

impl OpSpec {
    fn new(label: String, routine: Routine, profile: &SystemProfile, n: usize, b: usize) -> Self {
        OpSpec {
            label,
            routine,
            profile: profile.clone(),
            n,
            b,
            mode: ExecMode::TimingOnly,
            opts: AbftOptions::default(),
            faults: FaultPlan::none(),
            precision: Precision::F64,
            report: false,
            static_proof: false,
            anchor: None,
            overhead_term: false,
            unprotected: false,
        }
    }

    pub fn nt(&self) -> usize {
        self.n / self.b
    }
}

/// Generated inputs shared by every op of a workload.
#[derive(Default)]
pub struct Inputs {
    pub a64: Option<Matrix<f64>>,
    pub a32: Option<Matrix<f32>>,
}

/// A workload ready to run: its ops, inputs and reference data.
pub struct Prepared {
    pub ops: Vec<OpSpec>,
    pub inputs: Inputs,
    /// Virtual seconds of the MAGMA baseline at the `static-proof` size
    /// (the base of that workload's Enhanced overhead).
    pub magma_ref_virt: Option<f64>,
}

/// Build the op list, inputs and reference data of `w` from `seed`.
pub fn prepare(w: Workload, seed: u64, root: &Path) -> Result<Prepared, String> {
    let mut ops = Vec::new();
    let mut inputs = Inputs::default();
    let mut magma_ref_virt = None;
    match w {
        Workload::PaperSim => {
            // The figure harness's settings: TimingOnly, schedule trace off.
            let opts = AbftOptions {
                trace_schedule: false,
                ..AbftOptions::default()
            };
            for (profile, n, csv) in [
                (
                    SystemProfile::tardis(),
                    20480,
                    "fig16_performance_tardis.csv",
                ),
                (
                    SystemProfile::bulldozer64(),
                    30720,
                    "fig17_performance_bulldozer64.csv",
                ),
            ] {
                let b = profile.default_block;
                let nt = n / b;
                let row = oracle::csv_row(root, csv, n)?;
                let sys = &profile.name;
                let clean = [Routine::Magma, Routine::Cula]
                    .into_iter()
                    .chain(scheme_order().map(Routine::Scheme));
                for d in clean {
                    let mut op = OpSpec::new(
                        format!("{sys} {} clean", routine_name(d)),
                        d,
                        &profile,
                        n,
                        b,
                    );
                    op.opts = opts.clone();
                    op.anchor = Some(
                        row.get(routine_name(d))
                            .ok_or_else(|| format!("{csv} has no column {}", routine_name(d)))?
                            .clone(),
                    );
                    op.overhead_term =
                        matches!(d, Routine::Magma | Routine::Scheme(SchemeKind::Enhanced));
                    ops.push(op);
                }
                for (tag, faults) in [
                    ("computing error", FaultPlan::paper_computing_error(nt, b)),
                    ("storage error", FaultPlan::paper_storage_error(nt, b)),
                ] {
                    for k in scheme_order() {
                        let mut op = OpSpec::new(
                            format!("{sys} {} {tag}", k.name()),
                            Routine::Scheme(k),
                            &profile,
                            n,
                            b,
                        );
                        op.opts = opts.clone();
                        op.faults = faults.clone();
                        op.unprotected = k == SchemeKind::Online && tag == "storage error";
                        ops.push(op);
                    }
                }
            }
        }
        Workload::ExecuteFaults => {
            let profile = SystemProfile::tardis();
            let (n, b) = (EXEC_N, EXEC_B);
            let a = spd_diag_dominant(n, seed);
            let poisson = storage_plan(n / b, b, EXEC_FAULT_RATE, seed);
            let exec = |label: String, d: Routine| {
                let mut op = OpSpec::new(label, d, &profile, n, b);
                op.mode = ExecMode::Execute;
                op.report = true;
                op
            };
            let mut magma = exec("MAGMA clean".into(), Routine::Magma);
            magma.overhead_term = true;
            ops.push(magma);
            for k in scheme_order() {
                let mut op = exec(format!("{} clean", k.name()), Routine::Scheme(k));
                op.overhead_term = k == SchemeKind::Enhanced;
                ops.push(op);
            }
            for k in scheme_order() {
                let mut op = exec(format!("{} poisson storage", k.name()), Routine::Scheme(k));
                op.faults = poisson.clone();
                op.unprotected = k == SchemeKind::Online;
                ops.push(op);
            }
            for k in scheme_order() {
                let mut op = exec(format!("{} f32 clean", k.name()), Routine::Scheme(k));
                op.opts = AbftOptions::default().with_adaptive_tolerance();
                op.precision = Precision::F32;
                ops.push(op);
            }
            inputs.a32 = Some(a.cast::<f32>());
            inputs.a64 = Some(a);
        }
        Workload::StaticProof => {
            let tardis = SystemProfile::tardis();
            let (n, b) = (PROOF_N, PROOF_B);
            let configs: [(&str, AbftOptions, &SystemProfile); 6] = [
                ("default", AbftOptions::default(), &tardis),
                (
                    "chk_fused",
                    AbftOptions::default().with_chk_fused(true),
                    &tardis,
                ),
                (
                    "verify_interval=4",
                    AbftOptions::default().with_interval(4),
                    &tardis,
                ),
                (
                    "lookahead=2",
                    AbftOptions::default().with_lookahead(2),
                    &tardis,
                ),
                (
                    "shard D=4",
                    AbftOptions::default().with_shard(ShardOptions::new(4)),
                    &tardis,
                ),
                (
                    "balance",
                    AbftOptions::default().with_balance(BalanceOptions::default()),
                    &SystemProfile::tardis_skewed(),
                ),
            ];
            for k in scheme_order() {
                for (tag, opts, profile) in &configs {
                    let mut op = OpSpec::new(
                        format!("{} {} {tag}", profile.name, k.name()),
                        Routine::Scheme(k),
                        profile,
                        n,
                        b,
                    );
                    op.opts = opts.clone();
                    op.static_proof = true;
                    op.overhead_term = k == SchemeKind::Enhanced && *tag == "default";
                    ops.push(op);
                }
            }
            let magma = factor_magma(&tardis, ExecMode::TimingOnly, n, b, None, false)
                .map_err(|e| format!("MAGMA reference run failed: {e}"))?;
            magma_ref_virt = Some(magma.time.as_secs());
        }
    }
    Ok(Prepared {
        ops,
        inputs,
        magma_ref_virt,
    })
}

/// The paper's legend order.
fn scheme_order() -> impl Iterator<Item = SchemeKind> {
    [
        SchemeKind::Offline,
        SchemeKind::Online,
        SchemeKind::Enhanced,
    ]
    .into_iter()
}

/// Column header of the committed figure CSVs.
fn routine_name(d: Routine) -> &'static str {
    match d {
        Routine::Magma => "MAGMA",
        Routine::Cula => "CULA",
        Routine::Scheme(k) => k.name(),
    }
}

/// The options `run_scheme` builds its plan from: placement resolved as
/// `run_scheme` resolves it, and a balanced run's starting verify interval.
pub fn resolve(kind: SchemeKind, spec: &OpSpec) -> AbftOptions {
    let opts = &spec.opts;
    let sharded = opts.shard.as_ref().is_some_and(|s| s.devices > 1);
    let mut r = opts.clone();
    r.placement = if sharded {
        ChecksumPlacement::Gpu
    } else {
        hchol_core::decision::choose(
            opts.placement,
            &spec.profile,
            spec.n,
            spec.b,
            opts.verify_interval,
        )
    };
    if r.balance.is_some() {
        r.verify_interval = BalanceController::new(kind, &r).k();
    }
    r
}

/// What an op's timed calls returned, before digestion.
pub enum Raw {
    Baseline(Result<BaselineReport, MatrixError>, Option<String>),
    F64(Result<FactorOutcome<f64>, MatrixError>, Option<String>),
    F32(Result<FactorOutcome<f32>, MatrixError>, Option<String>),
    Static(Box<StaticRaw>),
}

pub struct StaticRaw {
    refused: Option<MatrixError>,
    plan_check: Option<PlanCheck>,
    coverage: Option<CoverageReport>,
    liveness: Option<LivenessReport>,
    run: Option<Result<FactorOutcome<f64>, MatrixError>>,
    schedule: Option<ScheduleAnalysis>,
}

/// Run one op: only the library calls, each inside a call span.
pub fn run_op(spec: &OpSpec, inputs: &Inputs, tr: &mut Tracer) -> Raw {
    let (p, mode, n, b) = (&spec.profile, spec.mode, spec.n, spec.b);
    let a64 = if mode.executes() {
        inputs.a64.as_ref()
    } else {
        None
    };
    match spec.routine {
        Routine::Magma | Routine::Cula => {
            let out = tr.call("run", || match spec.routine {
                Routine::Magma => factor_magma(p, mode, n, b, a64, false),
                _ => factor_cula(p, mode, n, b, a64),
            });
            let json = spec
                .report
                .then(|| {
                    tr.call("report", || {
                        out.as_ref()
                            .ok()
                            .map(|r| r.report("MAGMA hybrid").to_json())
                    })
                })
                .flatten();
            Raw::Baseline(out, json)
        }
        Routine::Scheme(kind) if spec.static_proof => {
            Raw::Static(Box::new(run_static(kind, spec, tr)))
        }
        Routine::Scheme(kind) => match spec.precision {
            Precision::F64 => {
                let out = tr.call("run", || {
                    run_scheme_typed::<f64>(
                        kind,
                        p,
                        mode,
                        n,
                        b,
                        &spec.opts,
                        spec.faults.clone(),
                        a64,
                    )
                });
                let json = spec
                    .report
                    .then(|| tr.call("report", || out.as_ref().ok().map(|o| o.report().to_json())))
                    .flatten();
                Raw::F64(out, json)
            }
            Precision::F32 => {
                let a32 = if mode.executes() {
                    inputs.a32.as_ref()
                } else {
                    None
                };
                let out = tr.call("run", || {
                    run_scheme_typed::<f32>(
                        kind,
                        p,
                        mode,
                        n,
                        b,
                        &spec.opts,
                        spec.faults.clone(),
                        a32,
                    )
                });
                let json = spec
                    .report
                    .then(|| tr.call("report", || out.as_ref().ok().map(|o| o.report().to_json())))
                    .flatten();
                Raw::F32(out, json)
            }
        },
    }
}

fn run_static(kind: SchemeKind, spec: &OpSpec, tr: &mut Tracer) -> StaticRaw {
    let mut raw = StaticRaw {
        refused: tr.call("validate", || validate_options(&spec.opts)).err(),
        plan_check: None,
        coverage: None,
        liveness: None,
        run: None,
        schedule: None,
    };
    if raw.refused.is_some() {
        return raw;
    }
    let (resolved, plan) = tr.call("plan", || {
        let r = resolve(kind, spec);
        let plan = plan::for_scheme(kind, spec.nt(), &r, false);
        (r, plan)
    });
    raw.plan_check = Some(tr.call("analyze.plancheck", || check_plan(kind, &plan, &resolved)));
    raw.coverage = Some(tr.call("analyze.coverage", || {
        check_coverage(kind, &plan, &resolved)
    }));
    raw.liveness = Some(tr.call("analyze.liveness", || {
        check_liveness(kind, &plan, &resolved)
    }));
    let run = tr.call("run", || {
        run_scheme_typed::<f64>(
            kind,
            &spec.profile,
            ExecMode::TimingOnly,
            spec.n,
            spec.b,
            &spec.opts,
            FaultPlan::none(),
            None,
        )
    });
    raw.schedule = tr.call("analyze.schedule", || {
        run.as_ref().ok().map(analyze_outcome)
    });
    raw.run = Some(run);
    raw
}

/// Deterministic per-op quantities (compared bit for bit across passes).
pub type Exact = BTreeMap<String, f64>;

/// How one op execution ended, as the oracle sees it.
enum Verdict {
    Ok,
    /// The run reported that it could not recover (`failed = true`): an
    /// honest failure, counted in `failed_frac`, not a broken contract.
    GaveUp,
    /// Returned a factor without reporting failure, but the factor breaks
    /// the residual bound.
    Wrong(String),
    /// `Err` on valid input, or a static-proof refusal or finding.
    Broken(String),
}

/// Digest an op's outcome outside the timed region: exact counts, oracle
/// verdicts and anchors. `measured` ops count toward the failure tallies.
pub fn digest(
    i: usize,
    spec: &OpSpec,
    raw: Raw,
    inputs: &Inputs,
    book: &mut Book,
    measured: bool,
) -> Exact {
    let mut ex = Exact::new();
    let verdict = match raw {
        Raw::Baseline(Ok(r), json) => {
            ex.insert("virt_s".into(), r.time.as_secs());
            ex.insert("run.attempts".into(), 1.0);
            virt_side(&r.ctx.obs.metrics, &r.ctx.obs.spans, spec.mode, &mut ex);
            check_json(json.as_deref(), spec, book);
            check_factor(i, spec, r.factor.as_ref(), inputs.a64.as_ref(), book)
        }
        Raw::Baseline(Err(e), _) => Verdict::Broken(format!("returned Err: {e}")),
        Raw::F64(out, json) => {
            digest_scheme(i, spec, out, json, inputs.a64.as_ref(), book, &mut ex)
        }
        Raw::F32(out, json) => {
            digest_scheme(i, spec, out, json, inputs.a32.as_ref(), book, &mut ex)
        }
        Raw::Static(raw) => digest_static(*raw, &mut ex),
    };
    if let (Some(want), Some(&virt)) = (&spec.anchor, ex.get("virt_s")) {
        let got = format!("{:.1}", (spec.n as f64).powi(3) / 3.0 / virt / 1e9);
        if &got != want {
            book.problem(format!(
                "{}: virtual {got} GFLOP/s, committed figure says {want}",
                spec.label
            ));
        }
    }
    match &verdict {
        Verdict::Wrong(msg) if spec.unprotected => book.known(format!("{}: {msg}", spec.label)),
        Verdict::Wrong(msg) | Verdict::Broken(msg) => {
            book.problem(format!("{}: {msg}", spec.label))
        }
        Verdict::Ok | Verdict::GaveUp => {}
    }
    if measured {
        book.attempted += 1;
        match verdict {
            Verdict::Ok => {}
            Verdict::GaveUp => book.failed += 1,
            Verdict::Wrong(_) => {
                book.wrong += 1;
                book.violations += u64::from(!spec.unprotected);
            }
            Verdict::Broken(_) => {
                book.failed += 1;
                book.violations += 1;
            }
        }
    }
    ex
}

fn digest_scheme<S: Scalar>(
    i: usize,
    spec: &OpSpec,
    out: Result<FactorOutcome<S>, MatrixError>,
    json: Option<String>,
    a: Option<&Matrix<S>>,
    book: &mut Book,
    ex: &mut Exact,
) -> Verdict {
    let out = match out {
        Ok(o) => o,
        Err(e) => return Verdict::Broken(format!("returned Err: {e}")),
    };
    ex.insert("virt_s".into(), out.time.as_secs());
    ex.insert("run.attempts".into(), out.attempts as f64);
    virt_side(&out.ctx.obs.metrics, &out.ctx.obs.spans, spec.mode, ex);
    check_json(json.as_deref(), spec, book);
    if out.failed {
        return Verdict::GaveUp;
    }
    check_factor(i, spec, out.factor.as_ref(), a, book)
}

fn digest_static(raw: StaticRaw, ex: &mut Exact) -> Verdict {
    if let Some(e) = raw.refused {
        return Verdict::Broken(format!("refused: {e}"));
    }
    let mut findings = Vec::new();
    if let Some(pc) = &raw.plan_check {
        if !pc.is_clean() {
            findings.push(format!("{} plan violation(s)", pc.violations.len()));
        }
    }
    if let Some(cov) = &raw.coverage {
        ex.insert("analyze.sites".into(), cov.total_sites() as f64);
        if !cov.is_covered() {
            findings.push(format!("{} uncovered site(s)", cov.uncovered_sites()));
        }
    }
    if let Some(live) = &raw.liveness {
        if !live.is_live() {
            findings.push(format!("{} liveness finding(s)", live.findings.len()));
        }
    }
    match raw.run {
        Some(Ok(out)) => {
            ex.insert("virt_s".into(), out.time.as_secs());
            ex.insert("run.attempts".into(), out.attempts as f64);
            virt_side(
                &out.ctx.obs.metrics,
                &out.ctx.obs.spans,
                ExecMode::TimingOnly,
                ex,
            );
            if out.failed {
                findings.push("clean run gave up".into());
            }
        }
        Some(Err(e)) => findings.push(format!("run returned Err: {e}")),
        None => {}
    }
    if raw.schedule.as_ref().is_some_and(|s| !s.is_clean()) {
        findings.push("schedule analysis not clean".into());
    }
    if findings.is_empty() {
        Verdict::Ok
    } else {
        Verdict::Broken(findings.join(", "))
    }
}

/// A report that failed to serialize would be a program defect.
fn check_json(json: Option<&str>, spec: &OpSpec, book: &mut Book) {
    if spec.report && json.is_none_or(|j| !j.starts_with('{')) {
        book.problem(format!(
            "{}: report().to_json() produced no JSON object",
            spec.label
        ));
    }
}

/// Residual check of an Execute factor; a bit-identical factor seen before
/// for this op reuses its residual.
fn check_factor<S: Scalar>(
    i: usize,
    spec: &OpSpec,
    factor: Option<&Matrix<S>>,
    a: Option<&Matrix<S>>,
    book: &mut Book,
) -> Verdict {
    if !spec.mode.executes() {
        return Verdict::Ok;
    }
    let (Some(l), Some(a)) = (factor, a) else {
        return Verdict::Broken("Execute run returned no factor".into());
    };
    let fp = oracle::fingerprint(l);
    let resid = *book
        .residuals
        .entry((i, fp))
        .or_insert_with(|| oracle::residual(l, a, spec.b));
    let bound = match spec.precision {
        Precision::F64 => oracle::F64_RESIDUAL_BOUND,
        Precision::F32 => oracle::F32_CLEAN_RESIDUAL_BOUND,
    };
    if resid.is_finite() && resid < bound {
        Verdict::Ok
    } else {
        Verdict::Wrong(format!(
            "silently wrong factor: residual {resid:.3e}, bound {bound:.0e}"
        ))
    }
}

/// Virtual-side quantities read from a run's own metrics and span tree.
fn virt_side(m: &MetricsRegistry, spans: &SpanRecorder, mode: ExecMode, ex: &mut Exact) {
    let count = |k: &str| m.count(k) as f64;
    ex.insert("faults.injected".into(), count("faults.injected"));
    ex.insert("faults.detected".into(), count("verify.detections"));
    ex.insert("faults.corrected".into(), count("verify.corrected_data"));
    ex.insert("verify.batches".into(), count("verify.batches"));
    ex.insert("verify.tiles".into(), count("verify.tiles"));
    ex.insert("virt.queue_delay_s".into(), m.sum("sched.queue_delay_secs"));
    let prefixed = |prefix: &str| {
        let mut v: Vec<(&String, &u64)> = m
            .counts
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .collect();
        v.sort();
        v
    };
    let pcie: u64 = prefixed("pcie.bytes.").iter().map(|(_, &v)| v).sum();
    ex.insert("virt.pcie_bytes".into(), pcie as f64);
    if mode.executes() {
        let flops: u64 = prefixed("flops.cat.")
            .iter()
            .filter(|(k, _)| k.as_str() != "flops.cat.Transfer")
            .map(|(_, &v)| v)
            .sum();
        ex.insert("blas.flops".into(), flops as f64);
    }
    let mut engines: Vec<(&String, &f64)> = m
        .sums
        .iter()
        .filter(|(k, _)| k.starts_with("busy_secs.engine."))
        .collect();
    engines.sort_by(|a, b| a.0.cmp(b.0));
    for (k, &v) in engines {
        let e = k.trim_start_matches("busy_secs.engine.");
        let e = if ENGINES.contains(&e) { e } else { "other" };
        *ex.entry(format!("virt.busy.{e}_s")).or_insert(0.0) += v;
    }
    let mut phases: Vec<(String, f64)> = spans.phase_totals().into_iter().collect();
    phases.sort_by(|a, b| a.0.cmp(&b.0));
    for (p, v) in phases {
        let p = if PHASES.contains(&p.as_str()) {
            p.as_str()
        } else {
            "other"
        };
        *ex.entry(format!("virt.phase.{p}_s")).or_insert(0.0) += v;
    }
}

/// Host time of the pieces `run` hides, measured by separate calls.
#[derive(Clone, Default)]
pub struct Probe {
    /// Building the op's plan with the options `run_scheme` resolves.
    pub plan_s: f64,
    /// The same run in TimingOnly mode with the schedule trace off.
    pub t0_s: Option<f64>,
    /// The same run in TimingOnly mode with the schedule trace on.
    pub t1_s: Option<f64>,
    pub nodes: usize,
    pub edges: usize,
}

/// Measure one op's probes (traced runs only; never inside a pass).
pub fn probe(spec: &OpSpec) -> Probe {
    let nt = spec.nt();
    let faulty = !spec.faults.is_empty();
    let t = Instant::now();
    let built: FactorPlan = match spec.routine {
        Routine::Magma => plan::for_magma(nt),
        Routine::Cula => plan::for_cula(nt),
        Routine::Scheme(k) => plan::for_scheme(k, nt, &resolve(k, spec), faulty),
    };
    let plan_s = t.elapsed().as_secs_f64();
    let mut pr = Probe {
        plan_s,
        nodes: built.len(),
        edges: built.edge_count(),
        ..Probe::default()
    };
    drop(built);
    let timing = |trace: bool| {
        let opts = AbftOptions {
            trace_schedule: trace,
            ..spec.opts.clone()
        };
        let (p, n, b, mode) = (&spec.profile, spec.n, spec.b, ExecMode::TimingOnly);
        let t = Instant::now();
        let ok = match (spec.routine, spec.precision) {
            (Routine::Magma, _) => factor_magma(p, mode, n, b, None, false).is_ok(),
            (Routine::Cula, _) => factor_cula(p, mode, n, b, None).is_ok(),
            (Routine::Scheme(k), Precision::F64) => {
                run_scheme_typed::<f64>(k, p, mode, n, b, &opts, spec.faults.clone(), None).is_ok()
            }
            (Routine::Scheme(k), Precision::F32) => {
                run_scheme_typed::<f32>(k, p, mode, n, b, &opts, spec.faults.clone(), None).is_ok()
            }
        };
        std::hint::black_box(ok);
        t.elapsed().as_secs_f64()
    };
    let scheme = matches!(spec.routine, Routine::Scheme(_));
    if spec.mode.executes() || spec.static_proof {
        pr.t0_s = Some(timing(false));
    }
    if spec.mode.executes() && scheme && spec.opts.trace_schedule {
        pr.t1_s = Some(timing(true));
    }
    pr
}

/// Split the host time of one `run` call into plan build, simulation,
/// schedule trace and numerics, by difference against the op's probe
/// medians. The parts sum to `run` exactly; the last part in the chain
/// takes the remainder.
pub fn split_run(spec: &OpSpec, run: f64, m: &Probe) -> [f64; 4] {
    let plan = m.plan_s;
    match (spec.mode.executes(), m.t0_s) {
        (true, Some(t0)) => {
            let base = m.t1_s.unwrap_or(t0);
            [plan, t0 - plan, base - t0, run - base]
        }
        (false, Some(t0)) => [plan, t0 - plan, run - t0, 0.0],
        _ => [plan, run - plan, 0.0, 0.0],
    }
}
