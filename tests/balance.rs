//! Integration: the runtime feedback load balancer and adaptive
//! verification (DESIGN.md §11).
//!
//! The controller is exercised through whole factorizations: placement
//! migration on a profile the static analytic model gets wrong, adaptive-K
//! bounds under injected faults, and — via recorded rewritten plans — a
//! mechanical re-proof that every mid-run rewrite still satisfies the
//! static ABFT contract.

use hchol::prelude::*;
use hchol_analyze::check_plan;
use hchol_core::options::BalanceOptions as B;
use hchol_faults::{FaultKind, FaultSpec, FaultTarget, InjectionPoint};

fn fault_at(iter: usize, bi: usize, bj: usize, kind: FaultKind) -> FaultSpec {
    FaultSpec {
        point: InjectionPoint::PostGemm { iter },
        target: FaultTarget {
            bi,
            bj,
            row: 3,
            col: 5,
        },
        kind,
    }
}

fn adaptive(b: B) -> AbftOptions {
    AbftOptions::default().with_balance(b)
}

/// On the skewed Tardis (degraded PCIe link) the analytic model still
/// places checksum updating on the CPU — its `max` assumes the mirror
/// traffic overlaps, so link speed never changes its answer; the balancer
/// observes the saturated DMA lane and migrates to the GPU, beating the
/// static run.
#[test]
fn balancer_beats_static_placement_on_skewed_profile() {
    let p = SystemProfile::tardis_skewed();
    let (n, b) = (2048usize, 128usize);
    let stat = run_clean(
        SchemeKind::Enhanced,
        &p,
        ExecMode::TimingOnly,
        n,
        b,
        &AbftOptions::default(),
        None,
    )
    .expect("static run");
    // The control that gives the test teeth: the model must actually pick
    // the CPU here, otherwise nothing is being corrected.
    assert_eq!(stat.opts.placement, ChecksumPlacement::Cpu);

    let out = run_clean(
        SchemeKind::Enhanced,
        &p,
        ExecMode::TimingOnly,
        n,
        b,
        &adaptive(B::default().with_update_interval(2).with_k_bounds(1, 1)),
        None,
    )
    .expect("balanced run");
    let log = out.balance_log.as_ref().expect("balanced run keeps a log");
    assert!(
        log.switches() >= 1,
        "expected a CPU→GPU migration, decisions: {:?}",
        log.decisions
    );
    assert_eq!(out.ctx.obs.metrics.count("balance.switches") as usize, {
        log.switches()
    });
    assert!(
        out.time.as_secs() < stat.time.as_secs(),
        "adaptive {:.4}s must beat static {:.4}s on the skewed profile",
        out.time.as_secs(),
        stat.time.as_secs()
    );
}

/// On the real (well-described) machines the static model is already
/// right, so the balancer must not make things worse: no migration, and a
/// makespan within a whisker of the static run (the controller itself is
/// free — it only reads counters).
#[test]
fn balancer_is_no_worse_on_balanced_profiles() {
    for p in [SystemProfile::tardis(), SystemProfile::bulldozer64()] {
        let (n, b) = (2048usize, 256usize);
        let stat = run_clean(
            SchemeKind::Enhanced,
            &p,
            ExecMode::TimingOnly,
            n,
            b,
            &AbftOptions::default(),
            None,
        )
        .expect("static run");
        let out = run_clean(
            SchemeKind::Enhanced,
            &p,
            ExecMode::TimingOnly,
            n,
            b,
            &adaptive(B::default().with_update_interval(2).with_k_bounds(1, 1)),
            None,
        )
        .expect("balanced run");
        let log = out.balance_log.as_ref().unwrap();
        assert_eq!(log.switches(), 0, "{}: {:?}", p.name, log.decisions);
        assert!(
            out.time.as_secs() <= stat.time.as_secs() * 1.001,
            "{}: adaptive {:.4}s vs static {:.4}s",
            p.name,
            out.time.as_secs(),
            stat.time.as_secs()
        );
    }
}

/// Runtime adaptive-K: quiet windows relax the interval toward `k_max`,
/// faults snap it back, and no decision ever leaves the configured bounds.
#[test]
fn adaptive_k_stays_in_bounds_under_faults() {
    let (k_min, k_max) = (1usize, 3usize);
    let plan = FaultPlan {
        faults: vec![
            fault_at(5, 7, 5, FaultKind::storage()),
            fault_at(9, 11, 9, FaultKind::computing()),
        ],
        ..FaultPlan::default()
    };
    let out = run_scheme(
        SchemeKind::Enhanced,
        &SystemProfile::test_profile(),
        ExecMode::TimingOnly,
        1024,
        64,
        &adaptive(
            B::default()
                .with_update_interval(2)
                .with_k_bounds(k_min, k_max),
        ),
        plan,
        None,
    )
    .expect("faulty balanced run");
    let log = out.balance_log.as_ref().unwrap();
    assert!(!log.decisions.is_empty());
    for d in &log.decisions {
        assert!(
            (k_min..=k_max).contains(&d.k),
            "K={} escaped [{k_min}, {k_max}] at iter {}",
            d.k,
            d.at_iter
        );
    }
    // The run saw both quiet and faulty windows: K must have moved off its
    // floor and been snapped back at least once.
    assert!(log.max_k() > k_min, "quiet windows never relaxed K");
    assert!(
        log.decisions
            .iter()
            .any(|d| d.window_faults > 0 && d.k == k_min),
        "a faulty window must snap K to k_min: {:?}",
        log.decisions
    );
    let gauge = out.ctx.obs.metrics.gauge("balance.k").expect("k gauge");
    assert!((k_min as f64..=k_max as f64).contains(&gauge));
}

/// Contract re-proof: every plan the balancer rewrote mid-run — placement
/// migrations and K re-gating alike — still passes the static ABFT
/// checker, under the verify-interval contract matching the K the rewrite
/// installed.
#[test]
fn every_rewritten_plan_passes_the_static_checker() {
    let plan = FaultPlan::single(fault_at(7, 9, 7, FaultKind::storage()));
    let out = run_scheme(
        SchemeKind::Enhanced,
        &SystemProfile::tardis_skewed(),
        ExecMode::TimingOnly,
        2048,
        128,
        &adaptive(
            B::default()
                .with_update_interval(2)
                .with_k_bounds(1, 4)
                .with_record_plans(true),
        ),
        plan,
        None,
    )
    .expect("balanced run");
    let log = out.balance_log.as_ref().unwrap();
    assert!(
        !log.rewrites.is_empty(),
        "the run must have rewritten the plan at least once: {:?}",
        log.decisions
    );
    // A rewrite only re-gates *future* iterations, so a plan that was ever
    // gated at K > 1 keeps relaxed-rule obligations in its executed prefix
    // even after K returns to 1: each snapshot is checked under the
    // loosest interval installed so far (K=1 throughout ⇒ the full rule).
    let mut loosest = 1usize;
    for rw in &log.rewrites {
        loosest = loosest.max(rw.k);
        let opts = out.opts.clone().with_interval(loosest);
        let check = check_plan(SchemeKind::Enhanced, &rw.plan, &opts);
        assert!(
            check.is_clean(),
            "rewrite at iter {} (K={}, {:?}) violates the contract:\n{}",
            rw.at_iter,
            rw.k,
            rw.placement,
            check.render_text()
        );
    }
}

/// `balance: None` (the default) records none of the balance machinery:
/// no log, no `balance.*` metrics, no extra config keys — the byte-stable
/// default path the golden fixtures pin.
#[test]
fn balance_off_leaves_no_trace() {
    let out = run_clean(
        SchemeKind::Enhanced,
        &SystemProfile::test_profile(),
        ExecMode::TimingOnly,
        256,
        32,
        &AbftOptions::default(),
        None,
    )
    .expect("static run");
    assert!(out.balance_log.is_none());
    assert_eq!(out.ctx.obs.metrics.count("balance.updates"), 0);
    assert!(out.ctx.obs.metrics.gauge("balance.k").is_none());
    let json = serde_json::to_string(&out.report()).unwrap();
    assert!(!json.contains("balance"));
}

/// Balanced runs restart like static ones: an uncorrectable Offline-style
/// escape is impossible under Enhanced, but a storage hit on a verified
/// tile is corrected in place — the balanced run must still complete
/// cleanly and keep its factor bit-exact against the static run.
#[test]
fn balanced_execute_run_matches_static_factor() {
    use hchol_matrix::generate::spd_diag_dominant;
    let (n, b) = (192usize, 32usize);
    let a = spd_diag_dominant(n, 3);
    let stat = run_clean(
        SchemeKind::Enhanced,
        &SystemProfile::tardis_skewed(),
        ExecMode::Execute,
        n,
        b,
        &AbftOptions::default(),
        Some(&a),
    )
    .expect("static run");
    let bal = run_clean(
        SchemeKind::Enhanced,
        &SystemProfile::tardis_skewed(),
        ExecMode::Execute,
        n,
        b,
        &adaptive(B::default().with_update_interval(1).with_k_bounds(1, 2)),
        Some(&a),
    )
    .expect("balanced run");
    let (f1, f2) = (stat.factor.unwrap(), bal.factor.unwrap());
    assert_eq!(
        f1.as_slice(),
        f2.as_slice(),
        "balancing must not perturb numerics"
    );
}

/// A rewrite is a re-emission: after `BalanceController::rewrite(plan, j)`
/// installs placement P and interval K, the plan from iteration `j` onward
/// is, node for node (kind, span label, iteration), the suffix of a fresh
/// plan built with P and K, and the executed prefix is untouched. Covers
/// Enhanced and Online, both switch directions, a K change without a
/// switch, and a second rewrite on an already rewritten plan.
#[test]
fn rewritten_suffix_matches_a_fresh_build() {
    use hchol_core::plan::for_scheme;
    use hchol_gpusim::EngineWindow;

    type Row = (String, Option<String>, Option<usize>);
    let rows = |plan: &FactorPlan| -> Vec<Row> {
        plan.order()
            .iter()
            .map(|&id| {
                let n = plan.node(id);
                let label = n.scope.map(|s| plan.scopes()[s.0].label.clone());
                (format!("{:?}", n.kind), label, n.iter)
            })
            .collect()
    };
    // Position of iteration `j`'s first node.
    let cut = |plan: &FactorPlan, j: usize| {
        plan.order()
            .iter()
            .position(|&id| plan.node(id).iter == Some(j))
            .expect("plan has iteration j")
    };
    let window = |gpu: f64, cpu: f64, queue: f64| {
        Some(EngineWindow {
            wall_secs: 1.0,
            gpu_util: gpu,
            cpu_util: cpu,
            dma_util: 0.0,
            queue_frac: queue,
        })
    };
    let to_cpu = window(0.9, 0.1, 0.6);
    let to_gpu = window(0.1, 0.9, 0.0);
    let quiet = window(0.5, 0.5, 0.0);

    let nt = 12;
    let cases = [
        (
            SchemeKind::Enhanced,
            ChecksumPlacement::Gpu,
            [to_cpu, to_gpu],
        ),
        (
            SchemeKind::Enhanced,
            ChecksumPlacement::Cpu,
            [to_gpu, quiet],
        ),
        (SchemeKind::Enhanced, ChecksumPlacement::Gpu, [quiet, quiet]),
        (SchemeKind::Online, ChecksumPlacement::Gpu, [to_cpu, to_gpu]),
        (SchemeKind::Online, ChecksumPlacement::Cpu, [to_gpu, to_cpu]),
    ];
    for (kind, start, windows) in cases {
        for faulty in [false, true] {
            let opts = AbftOptions::default()
                .with_placement(start)
                .with_balance(B::default().with_k_bounds(1, 3).with_cooldown(0));
            let mut plan = for_scheme(kind, nt, &opts, faulty);
            let mut ctrl = BalanceController::new(kind, &opts);
            let mut switched = 0;
            for (w, j) in windows.into_iter().zip([4usize, 7]) {
                let before = rows(&plan);
                let keep = cut(&plan, j);
                let d = ctrl.step_window(j, w, 0);
                switched += usize::from(d.switched);
                ctrl.rewrite(&mut plan, j);
                let fresh = for_scheme(
                    kind,
                    nt,
                    &opts
                        .clone()
                        .with_placement(ctrl.placement())
                        .with_interval(ctrl.k()),
                    faulty,
                );
                let got = rows(&plan);
                let what = format!("{kind:?} from {start:?} faulty={faulty}, rewrite at j={j}");
                assert_eq!(got[..keep], before[..keep], "{what}: prefix changed");
                assert_eq!(
                    got[keep..],
                    rows(&fresh)[cut(&fresh, j)..],
                    "{what} to {:?} K={}",
                    ctrl.placement(),
                    ctrl.k()
                );
            }
            let expect_switches = windows.iter().filter(|w| **w != quiet).count();
            assert_eq!(switched, expect_switches, "{kind:?} from {start:?}");
        }
    }
}
