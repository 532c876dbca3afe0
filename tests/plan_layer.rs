//! Integration: the two execution modes the plan layer unlocked.
//!
//! The legacy imperative drivers hard-coded Algorithm 1's one-iteration
//! pipelining and drove exactly one factorization per context. With schemes
//! expressed as [`FactorPlan`]s the executor can (a) issue
//! dependency-satisfied nodes across iteration boundaries (`lookahead`) and
//! (b) interleave several plans round-robin through one simulator
//! (`run_batch`). Both modes must stay race-free under the vector-clock
//! analyzer — the derived plan edges, not the authored order, are what
//! guarantees correctness once nodes move.

use hchol::prelude::*;
use hchol_analyze::analyze_outcome;
use hchol_core::options::ShardOptions;

fn batch_request(kind: SchemeKind, n: usize, b: usize) -> BatchRequest {
    BatchRequest {
        kind,
        n,
        b,
        opts: AbftOptions::default(),
    }
}

/// Acceptance: a batch of 4 concurrent n=512 runs beats the same 4 runs
/// back to back on virtual makespan — one plan's host-blocking POTF2 and
/// verification stalls are reclaimed by the other plans' device work.
#[test]
fn batch_of_four_beats_sequential() {
    let p = SystemProfile::test_profile();
    let (n, b) = (512usize, 64usize);

    let sequential: f64 = (0..4)
        .map(|_| {
            run_clean(
                SchemeKind::Enhanced,
                &p,
                ExecMode::TimingOnly,
                n,
                b,
                &AbftOptions::default(),
                None,
            )
            .expect("scheme runs")
            .time
            .as_secs()
        })
        .sum();

    let reqs: Vec<BatchRequest> = (0..4)
        .map(|_| batch_request(SchemeKind::Enhanced, n, b))
        .collect();
    let batch = run_batch(&p, &reqs).expect("batch runs");
    let batched = batch.time.as_secs();

    assert_eq!(batch.runs.len(), 4);
    assert!(
        batched < sequential,
        "batched makespan {batched} should beat sequential total {sequential}"
    );
    // Sanity: the batch cannot be faster than one member run on its own.
    assert!(
        batched > sequential / 4.0,
        "batched makespan {batched} vs single-run time {}",
        sequential / 4.0
    );
    assert_eq!(batch.ctx.obs.metrics.count("plan.batch.plans"), 4);
}

/// A batch the executor cannot run is refused with a typed error, not a
/// panic: an empty request list, a sharded request, and a request whose
/// options `validate_options` refuses.
#[test]
fn bad_batches_are_refused_with_typed_errors() {
    let p = SystemProfile::test_profile();
    let refused = |reqs: &[BatchRequest]| {
        matches!(
            run_batch(&p, reqs),
            Err(hchol_matrix::MatrixError::UnsupportedConfig(_))
        )
    };
    assert!(refused(&[]));
    let mut sharded = batch_request(SchemeKind::Enhanced, 256, 64);
    sharded.opts = AbftOptions::default().with_shard(ShardOptions::new(2));
    assert!(refused(&[
        batch_request(SchemeKind::Online, 256, 64),
        sharded
    ]));
    let mut invalid = batch_request(SchemeKind::Enhanced, 256, 64);
    invalid.opts = AbftOptions::default()
        .with_balance(BalanceOptions::default())
        .with_lookahead(2);
    assert!(refused(&[invalid]));
}

/// Mixed batches work: different schemes (different plan shapes and node
/// counts) interleave in one context without tripping the race detector.
#[test]
fn mixed_scheme_batch_is_race_free() {
    let p = SystemProfile::test_profile();
    let reqs = vec![
        batch_request(SchemeKind::Enhanced, 256, 64),
        batch_request(SchemeKind::Online, 256, 64),
        batch_request(SchemeKind::Offline, 256, 64),
    ];
    let batch = run_batch(&p, &reqs).expect("batch runs");
    assert!(batch.time.as_secs() > 0.0);
    let analysis = hchol_analyze::analyze_schedule(&batch.ctx.trace);
    assert!(analysis.ops > 0, "batch must record a program");
    assert!(analysis.is_clean(), "{}", analysis.render_text());
}

/// Lookahead issue actually reorders nodes, never regresses the makespan,
/// and the reordered program is still race-free *and* conformant with the
/// Enhanced verify-before-read protocol — the plan's dependency edges carry
/// the whole correctness argument once the authored order is abandoned.
#[test]
fn lookahead_reorders_without_racing_or_regressing() {
    let p = SystemProfile::test_profile();
    let (n, b) = (512usize, 64usize);
    let base = run_clean(
        SchemeKind::Enhanced,
        &p,
        ExecMode::TimingOnly,
        n,
        b,
        &AbftOptions::default(),
        None,
    )
    .expect("scheme runs");

    for depth in [1usize, 2, 4] {
        let out = run_clean(
            SchemeKind::Enhanced,
            &p,
            ExecMode::TimingOnly,
            n,
            b,
            &AbftOptions::default().with_lookahead(depth),
            None,
        )
        .expect("scheme runs");
        let analysis = analyze_outcome(&out);
        assert!(
            analysis.is_clean(),
            "lookahead={depth}:\n{}",
            analysis.render_text()
        );
        assert!(
            out.time.as_secs() <= base.time.as_secs() * (1.0 + 1e-9),
            "lookahead={depth}: {} vs in-order {}",
            out.time,
            base.time
        );
        assert!(
            out.ctx.obs.metrics.count("plan.nodes") > 0,
            "reordered runs must report plan-shape metrics"
        );
        if depth > 1 {
            assert!(
                out.ctx.obs.metrics.count("plan.reordered") > 0,
                "lookahead={depth} should move at least one node"
            );
        }
    }
}

/// Lookahead in Execute mode computes the same factor bits as in-order:
/// reordering is a schedule transformation, not a numerical one.
#[test]
fn lookahead_execute_matches_in_order_factor() {
    use hchol_matrix::generate::spd_diag_dominant;
    let (n, b) = (96usize, 16usize);
    let a = spd_diag_dominant(n, 3);
    let p = SystemProfile::test_profile();
    let run = |depth: usize| {
        run_clean(
            SchemeKind::Enhanced,
            &p,
            ExecMode::Execute,
            n,
            b,
            &AbftOptions::default().with_lookahead(depth),
            Some(&a),
        )
        .expect("scheme runs")
        .factor
        .expect("Execute mode factor")
    };
    let base = run(0);
    let reordered = run(2);
    let (rows, cols) = base.shape();
    for i in 0..rows {
        for j in 0..cols {
            assert_eq!(
                base.get(i, j).to_bits(),
                reordered.get(i, j).to_bits(),
                "factor bits differ at ({i},{j})"
            );
        }
    }
}

/// FNV-1a over a plan's authored order: each node's kind (`{:?}`), its
/// scope's label and phase (and whether it shares its predecessor's span
/// instance), and its iteration. Node and scope ids do not enter, so two
/// plans agree exactly when they issue the same work under the same spans
/// in the same order.
fn order_fingerprint(plan: &FactorPlan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |s: &str| {
        for b in s.bytes().chain([0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut prev = None;
    for &id in plan.order() {
        let node = plan.node(id);
        eat(&format!("{:?}", node.kind));
        match node.scope {
            Some(s) => {
                let spec = &plan.scopes()[s.0];
                eat(&spec.label);
                eat(&format!("{:?}", spec.phase));
                eat(if prev == Some(s) {
                    "same span"
                } else {
                    "new span"
                });
            }
            None => eat("-"),
        }
        eat(&format!("{:?}", node.iter));
        prev = node.scope;
    }
    h
}

/// Every plan configuration whose authored order the fingerprint table
/// pins, labelled.
fn fingerprinted_plans() -> Vec<(String, FactorPlan)> {
    use hchol_core::plan::{for_cula, for_magma, for_scheme};
    let grids = [1usize, 2, 3, 8];
    let mut out = Vec::new();
    for nt in grids {
        out.push((format!("magma nt={nt}"), for_magma(nt)));
        out.push((format!("cula nt={nt}"), for_cula(nt)));
    }
    let placements = [
        ChecksumPlacement::Gpu,
        ChecksumPlacement::Cpu,
        ChecksumPlacement::Inline,
    ];
    for kind in SchemeKind::all() {
        for placement in placements {
            for k in [1usize, 3] {
                for nt in grids {
                    for faulty in [false, true] {
                        let opts = AbftOptions::default()
                            .with_placement(placement)
                            .with_interval(k);
                        out.push((
                            format!("{kind:?} {placement:?} K={k} nt={nt} faulty={faulty}"),
                            for_scheme(kind, nt, &opts, faulty),
                        ));
                    }
                }
            }
        }
    }
    for placement in [ChecksumPlacement::Gpu, ChecksumPlacement::Cpu] {
        for k in [1usize, 3] {
            for nt in grids {
                let opts = AbftOptions::default()
                    .with_placement(placement)
                    .with_interval(k)
                    .with_chk_fused(true);
                out.push((
                    format!("Enhanced fused {placement:?} K={k} nt={nt}"),
                    for_scheme(SchemeKind::Enhanced, nt, &opts, false),
                ));
            }
        }
    }
    for devices in [2usize, 4] {
        for kind in SchemeKind::all() {
            for nt in grids {
                let opts = AbftOptions::default()
                    .with_placement(ChecksumPlacement::Gpu)
                    .with_shard(ShardOptions::new(devices));
                out.push((
                    format!("{kind:?} shard D={devices} nt={nt}"),
                    for_scheme(kind, nt, &opts, true),
                ));
            }
        }
    }
    // The balancer's mid-run rewrites on the skewed Tardis: a clean
    // migration run and a faulted adaptive-K run.
    let faulted = FaultPlan::single(FaultSpec {
        point: hchol_faults::InjectionPoint::PostGemm { iter: 7 },
        target: hchol_faults::FaultTarget {
            bi: 9,
            bj: 7,
            row: 3,
            col: 5,
        },
        kind: FaultKind::storage(),
    });
    let runs = [
        (
            "migration",
            BalanceOptions::default()
                .with_update_interval(2)
                .with_k_bounds(1, 1),
            FaultPlan::none(),
        ),
        (
            "adaptive-K",
            BalanceOptions::default()
                .with_update_interval(2)
                .with_k_bounds(1, 4),
            faulted,
        ),
    ];
    for (name, b, faults) in runs {
        let run = run_scheme(
            SchemeKind::Enhanced,
            &SystemProfile::tardis_skewed(),
            ExecMode::TimingOnly,
            2048,
            128,
            &AbftOptions::default().with_balance(b.with_record_plans(true)),
            faults,
            None,
        )
        .expect("balanced run");
        let log = run.balance_log.expect("balanced run keeps a log");
        for (r, rw) in log.rewrites.into_iter().enumerate() {
            out.push((
                format!(
                    "balance {name} rewrite {r} at j={} K={} {:?}",
                    rw.at_iter, rw.k, rw.placement
                ),
                rw.plan,
            ));
        }
    }
    out
}

/// The authored order and edge count of every plan above, pinned. The table was captured
/// from the pass-based planner the one-pass emitter replaced; any change
/// to one node's kind, span or iteration in any configuration fails here.
#[test]
fn plan_orders_match_the_pinned_fingerprints() {
    let got: Vec<(String, usize, usize, u64)> = fingerprinted_plans()
        .into_iter()
        .map(|(label, plan)| {
            let fp = order_fingerprint(&plan);
            (label, plan.len(), plan.edge_count(), fp)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(l, n, e, fp)| format!("    (\"{l}\", {n}, {e}, 0x{fp:016x}),\n"))
        .collect();
    let want: Vec<(String, usize, usize, u64)> = PINNED_ORDERS
        .iter()
        .map(|&(l, n, e, fp)| (l.to_string(), n, e, fp))
        .collect();
    assert_eq!(got, want, "computed table:\n{table}");
}

#[rustfmt::skip]
const PINNED_ORDERS: &[(&str, usize, usize, u64)] = &[
    ("magma nt=1", 12, 14, 0xd3a9e43a7bccbca2),
    ("cula nt=1", 12, 14, 0x7d491c224c2ec36c),
    ("magma nt=2", 23, 34, 0x92e87beab9138736),
    ("cula nt=2", 23, 34, 0x29fa16c5fba0bbc2),
    ("magma nt=3", 34, 57, 0x555793815fb0a5ac),
    ("cula nt=3", 34, 57, 0x562cd572366ad3ea),
    ("magma nt=8", 89, 202, 0xaa49a5bf34271628),
    ("cula nt=8", 89, 202, 0x4d11147adf495758),
    ("Enhanced Gpu K=1 nt=1 faulty=false", 16, 31, 0xad588719ebd114d5),
    ("Enhanced Gpu K=1 nt=1 faulty=true", 16, 36, 0xad588719ebd114d5),
    ("Enhanced Gpu K=1 nt=2 faulty=false", 35, 94, 0xac8247cfe5913ee8),
    ("Enhanced Gpu K=1 nt=2 faulty=true", 35, 106, 0xac8247cfe5913ee8),
    ("Enhanced Gpu K=1 nt=3 faulty=false", 60, 189, 0xb3bab0a3cfe193bd),
    ("Enhanced Gpu K=1 nt=3 faulty=true", 60, 210, 0xb3bab0a3cfe193bd),
    ("Enhanced Gpu K=1 nt=8 faulty=false", 215, 874, 0x4a568fe71a877faa),
    ("Enhanced Gpu K=1 nt=8 faulty=true", 215, 940, 0x4a568fe71a877faa),
    ("Enhanced Gpu K=3 nt=1 faulty=false", 16, 31, 0xad588719ebd114d5),
    ("Enhanced Gpu K=3 nt=1 faulty=true", 16, 36, 0xad588719ebd114d5),
    ("Enhanced Gpu K=3 nt=2 faulty=false", 35, 94, 0xac8247cfe5913ee8),
    ("Enhanced Gpu K=3 nt=2 faulty=true", 35, 106, 0xac8247cfe5913ee8),
    ("Enhanced Gpu K=3 nt=3 faulty=false", 56, 169, 0xe02116dc6a41e1e1),
    ("Enhanced Gpu K=3 nt=3 faulty=true", 56, 190, 0xe02116dc6a41e1e1),
    ("Enhanced Gpu K=3 nt=8 faulty=false", 199, 834, 0x2cc7df5cf7fe5b88),
    ("Enhanced Gpu K=3 nt=8 faulty=true", 199, 900, 0x2cc7df5cf7fe5b88),
    ("Enhanced Cpu K=1 nt=1 faulty=false", 17, 33, 0x4899f60605991f7f),
    ("Enhanced Cpu K=1 nt=1 faulty=true", 17, 38, 0x4899f60605991f7f),
    ("Enhanced Cpu K=1 nt=2 faulty=false", 37, 104, 0x52e1b844fa039f9c),
    ("Enhanced Cpu K=1 nt=2 faulty=true", 37, 116, 0x52e1b844fa039f9c),
    ("Enhanced Cpu K=1 nt=3 faulty=false", 63, 210, 0x9cf4d8e012e03267),
    ("Enhanced Cpu K=1 nt=3 faulty=true", 63, 231, 0x9cf4d8e012e03267),
    ("Enhanced Cpu K=1 nt=8 faulty=false", 223, 950, 0x6eaa42d49bb443b6),
    ("Enhanced Cpu K=1 nt=8 faulty=true", 223, 1016, 0x6eaa42d49bb443b6),
    ("Enhanced Cpu K=3 nt=1 faulty=false", 17, 33, 0x4899f60605991f7f),
    ("Enhanced Cpu K=3 nt=1 faulty=true", 17, 38, 0x4899f60605991f7f),
    ("Enhanced Cpu K=3 nt=2 faulty=false", 37, 104, 0x52e1b844fa039f9c),
    ("Enhanced Cpu K=3 nt=2 faulty=true", 37, 116, 0x52e1b844fa039f9c),
    ("Enhanced Cpu K=3 nt=3 faulty=false", 59, 189, 0x3038af4cefbc0f0b),
    ("Enhanced Cpu K=3 nt=3 faulty=true", 59, 210, 0x3038af4cefbc0f0b),
    ("Enhanced Cpu K=3 nt=8 faulty=false", 207, 918, 0xffb49be620d8e984),
    ("Enhanced Cpu K=3 nt=8 faulty=true", 207, 984, 0xffb49be620d8e984),
    ("Enhanced Inline K=1 nt=1 faulty=false", 16, 31, 0xad588719ebd114d5),
    ("Enhanced Inline K=1 nt=1 faulty=true", 16, 36, 0xad588719ebd114d5),
    ("Enhanced Inline K=1 nt=2 faulty=false", 35, 94, 0xac8247cfe5913ee8),
    ("Enhanced Inline K=1 nt=2 faulty=true", 35, 106, 0xac8247cfe5913ee8),
    ("Enhanced Inline K=1 nt=3 faulty=false", 60, 189, 0xb3bab0a3cfe193bd),
    ("Enhanced Inline K=1 nt=3 faulty=true", 60, 210, 0xb3bab0a3cfe193bd),
    ("Enhanced Inline K=1 nt=8 faulty=false", 215, 874, 0x4a568fe71a877faa),
    ("Enhanced Inline K=1 nt=8 faulty=true", 215, 940, 0x4a568fe71a877faa),
    ("Enhanced Inline K=3 nt=1 faulty=false", 16, 31, 0xad588719ebd114d5),
    ("Enhanced Inline K=3 nt=1 faulty=true", 16, 36, 0xad588719ebd114d5),
    ("Enhanced Inline K=3 nt=2 faulty=false", 35, 94, 0xac8247cfe5913ee8),
    ("Enhanced Inline K=3 nt=2 faulty=true", 35, 106, 0xac8247cfe5913ee8),
    ("Enhanced Inline K=3 nt=3 faulty=false", 56, 169, 0xe02116dc6a41e1e1),
    ("Enhanced Inline K=3 nt=3 faulty=true", 56, 190, 0xe02116dc6a41e1e1),
    ("Enhanced Inline K=3 nt=8 faulty=false", 199, 834, 0x2cc7df5cf7fe5b88),
    ("Enhanced Inline K=3 nt=8 faulty=true", 199, 900, 0x2cc7df5cf7fe5b88),
    ("Online Gpu K=1 nt=1 faulty=false", 21, 37, 0xcb8cbbc36b889623),
    ("Online Gpu K=1 nt=1 faulty=true", 21, 47, 0xcb8cbbc36b889623),
    ("Online Gpu K=1 nt=2 faulty=false", 43, 112, 0xcda55ffbbc3b7738),
    ("Online Gpu K=1 nt=2 faulty=true", 43, 133, 0xcda55ffbbc3b7738),
    ("Online Gpu K=1 nt=3 faulty=false", 69, 215, 0x06f38743937a4db9),
    ("Online Gpu K=1 nt=3 faulty=true", 69, 248, 0x06f38743937a4db9),
    ("Online Gpu K=1 nt=8 faulty=false", 229, 1050, 0xcd7939960f0cff4d),
    ("Online Gpu K=1 nt=8 faulty=true", 229, 1143, 0xcd7939960f0cff4d),
    ("Online Gpu K=3 nt=1 faulty=false", 21, 37, 0xcb8cbbc36b889623),
    ("Online Gpu K=3 nt=1 faulty=true", 21, 47, 0xcb8cbbc36b889623),
    ("Online Gpu K=3 nt=2 faulty=false", 43, 112, 0xcda55ffbbc3b7738),
    ("Online Gpu K=3 nt=2 faulty=true", 43, 133, 0xcda55ffbbc3b7738),
    ("Online Gpu K=3 nt=3 faulty=false", 69, 215, 0x06f38743937a4db9),
    ("Online Gpu K=3 nt=3 faulty=true", 69, 248, 0x06f38743937a4db9),
    ("Online Gpu K=3 nt=8 faulty=false", 229, 1050, 0xcd7939960f0cff4d),
    ("Online Gpu K=3 nt=8 faulty=true", 229, 1143, 0xcd7939960f0cff4d),
    ("Online Cpu K=1 nt=1 faulty=false", 22, 43, 0x4d7fefa1c40da7f1),
    ("Online Cpu K=1 nt=1 faulty=true", 22, 53, 0x4d7fefa1c40da7f1),
    ("Online Cpu K=1 nt=2 faulty=false", 45, 127, 0x3c8124434b7dd8fe),
    ("Online Cpu K=1 nt=2 faulty=true", 45, 148, 0x3c8124434b7dd8fe),
    ("Online Cpu K=1 nt=3 faulty=false", 72, 239, 0x029ffa15d0414ee5),
    ("Online Cpu K=1 nt=3 faulty=true", 72, 272, 0x029ffa15d0414ee5),
    ("Online Cpu K=1 nt=8 faulty=false", 237, 1119, 0x69b6eb6a53b41df5),
    ("Online Cpu K=1 nt=8 faulty=true", 237, 1212, 0x69b6eb6a53b41df5),
    ("Online Cpu K=3 nt=1 faulty=false", 22, 43, 0x4d7fefa1c40da7f1),
    ("Online Cpu K=3 nt=1 faulty=true", 22, 53, 0x4d7fefa1c40da7f1),
    ("Online Cpu K=3 nt=2 faulty=false", 45, 127, 0x3c8124434b7dd8fe),
    ("Online Cpu K=3 nt=2 faulty=true", 45, 148, 0x3c8124434b7dd8fe),
    ("Online Cpu K=3 nt=3 faulty=false", 72, 239, 0x029ffa15d0414ee5),
    ("Online Cpu K=3 nt=3 faulty=true", 72, 272, 0x029ffa15d0414ee5),
    ("Online Cpu K=3 nt=8 faulty=false", 237, 1119, 0x69b6eb6a53b41df5),
    ("Online Cpu K=3 nt=8 faulty=true", 237, 1212, 0x69b6eb6a53b41df5),
    ("Online Inline K=1 nt=1 faulty=false", 21, 37, 0xcb8cbbc36b889623),
    ("Online Inline K=1 nt=1 faulty=true", 21, 47, 0xcb8cbbc36b889623),
    ("Online Inline K=1 nt=2 faulty=false", 43, 112, 0xcda55ffbbc3b7738),
    ("Online Inline K=1 nt=2 faulty=true", 43, 133, 0xcda55ffbbc3b7738),
    ("Online Inline K=1 nt=3 faulty=false", 69, 215, 0x06f38743937a4db9),
    ("Online Inline K=1 nt=3 faulty=true", 69, 248, 0x06f38743937a4db9),
    ("Online Inline K=1 nt=8 faulty=false", 229, 1050, 0xcd7939960f0cff4d),
    ("Online Inline K=1 nt=8 faulty=true", 229, 1143, 0xcd7939960f0cff4d),
    ("Online Inline K=3 nt=1 faulty=false", 21, 37, 0xcb8cbbc36b889623),
    ("Online Inline K=3 nt=1 faulty=true", 21, 47, 0xcb8cbbc36b889623),
    ("Online Inline K=3 nt=2 faulty=false", 43, 112, 0xcda55ffbbc3b7738),
    ("Online Inline K=3 nt=2 faulty=true", 43, 133, 0xcda55ffbbc3b7738),
    ("Online Inline K=3 nt=3 faulty=false", 69, 215, 0x06f38743937a4db9),
    ("Online Inline K=3 nt=3 faulty=true", 69, 248, 0x06f38743937a4db9),
    ("Online Inline K=3 nt=8 faulty=false", 229, 1050, 0xcd7939960f0cff4d),
    ("Online Inline K=3 nt=8 faulty=true", 229, 1143, 0xcd7939960f0cff4d),
    ("Offline Gpu K=1 nt=1 faulty=false", 19, 31, 0x5516964413ccf12c),
    ("Offline Gpu K=1 nt=1 faulty=true", 19, 40, 0x5516964413ccf12c),
    ("Offline Gpu K=1 nt=2 faulty=false", 35, 82, 0x23875f8005fc4c14),
    ("Offline Gpu K=1 nt=2 faulty=true", 35, 100, 0x23875f8005fc4c14),
    ("Offline Gpu K=1 nt=3 faulty=false", 53, 153, 0x5a10a8bb4fbce647),
    ("Offline Gpu K=1 nt=3 faulty=true", 53, 180, 0x5a10a8bb4fbce647),
    ("Offline Gpu K=1 nt=8 faulty=false", 173, 848, 0x6ad6ae32f613792f),
    ("Offline Gpu K=1 nt=8 faulty=true", 173, 920, 0x6ad6ae32f613792f),
    ("Offline Gpu K=3 nt=1 faulty=false", 19, 31, 0x5516964413ccf12c),
    ("Offline Gpu K=3 nt=1 faulty=true", 19, 40, 0x5516964413ccf12c),
    ("Offline Gpu K=3 nt=2 faulty=false", 35, 82, 0x23875f8005fc4c14),
    ("Offline Gpu K=3 nt=2 faulty=true", 35, 100, 0x23875f8005fc4c14),
    ("Offline Gpu K=3 nt=3 faulty=false", 53, 153, 0x5a10a8bb4fbce647),
    ("Offline Gpu K=3 nt=3 faulty=true", 53, 180, 0x5a10a8bb4fbce647),
    ("Offline Gpu K=3 nt=8 faulty=false", 173, 848, 0x6ad6ae32f613792f),
    ("Offline Gpu K=3 nt=8 faulty=true", 173, 920, 0x6ad6ae32f613792f),
    ("Offline Cpu K=1 nt=1 faulty=false", 20, 37, 0x919669c47574cfc8),
    ("Offline Cpu K=1 nt=1 faulty=true", 20, 46, 0x919669c47574cfc8),
    ("Offline Cpu K=1 nt=2 faulty=false", 37, 96, 0x25a490329172fa2a),
    ("Offline Cpu K=1 nt=2 faulty=true", 37, 114, 0x25a490329172fa2a),
    ("Offline Cpu K=1 nt=3 faulty=false", 56, 175, 0x9386b4db240920d3),
    ("Offline Cpu K=1 nt=3 faulty=true", 56, 202, 0x9386b4db240920d3),
    ("Offline Cpu K=1 nt=8 faulty=false", 181, 910, 0x85396920cfa9b207),
    ("Offline Cpu K=1 nt=8 faulty=true", 181, 982, 0x85396920cfa9b207),
    ("Offline Cpu K=3 nt=1 faulty=false", 20, 37, 0x919669c47574cfc8),
    ("Offline Cpu K=3 nt=1 faulty=true", 20, 46, 0x919669c47574cfc8),
    ("Offline Cpu K=3 nt=2 faulty=false", 37, 96, 0x25a490329172fa2a),
    ("Offline Cpu K=3 nt=2 faulty=true", 37, 114, 0x25a490329172fa2a),
    ("Offline Cpu K=3 nt=3 faulty=false", 56, 175, 0x9386b4db240920d3),
    ("Offline Cpu K=3 nt=3 faulty=true", 56, 202, 0x9386b4db240920d3),
    ("Offline Cpu K=3 nt=8 faulty=false", 181, 910, 0x85396920cfa9b207),
    ("Offline Cpu K=3 nt=8 faulty=true", 181, 982, 0x85396920cfa9b207),
    ("Offline Inline K=1 nt=1 faulty=false", 19, 31, 0x5516964413ccf12c),
    ("Offline Inline K=1 nt=1 faulty=true", 19, 40, 0x5516964413ccf12c),
    ("Offline Inline K=1 nt=2 faulty=false", 35, 82, 0x23875f8005fc4c14),
    ("Offline Inline K=1 nt=2 faulty=true", 35, 100, 0x23875f8005fc4c14),
    ("Offline Inline K=1 nt=3 faulty=false", 53, 153, 0x5a10a8bb4fbce647),
    ("Offline Inline K=1 nt=3 faulty=true", 53, 180, 0x5a10a8bb4fbce647),
    ("Offline Inline K=1 nt=8 faulty=false", 173, 848, 0x6ad6ae32f613792f),
    ("Offline Inline K=1 nt=8 faulty=true", 173, 920, 0x6ad6ae32f613792f),
    ("Offline Inline K=3 nt=1 faulty=false", 19, 31, 0x5516964413ccf12c),
    ("Offline Inline K=3 nt=1 faulty=true", 19, 40, 0x5516964413ccf12c),
    ("Offline Inline K=3 nt=2 faulty=false", 35, 82, 0x23875f8005fc4c14),
    ("Offline Inline K=3 nt=2 faulty=true", 35, 100, 0x23875f8005fc4c14),
    ("Offline Inline K=3 nt=3 faulty=false", 53, 153, 0x5a10a8bb4fbce647),
    ("Offline Inline K=3 nt=3 faulty=true", 53, 180, 0x5a10a8bb4fbce647),
    ("Offline Inline K=3 nt=8 faulty=false", 173, 848, 0x6ad6ae32f613792f),
    ("Offline Inline K=3 nt=8 faulty=true", 173, 920, 0x6ad6ae32f613792f),
    ("Enhanced fused Gpu K=1 nt=1", 16, 31, 0xad588719ebd114d5),
    ("Enhanced fused Gpu K=1 nt=2", 35, 92, 0xff214c4e79cbb30f),
    ("Enhanced fused Gpu K=1 nt=3", 62, 189, 0x2ad35131acd5111d),
    ("Enhanced fused Gpu K=1 nt=8", 227, 899, 0x46db0ca9cd883073),
    ("Enhanced fused Gpu K=3 nt=1", 16, 31, 0xad588719ebd114d5),
    ("Enhanced fused Gpu K=3 nt=2", 35, 92, 0xff214c4e79cbb30f),
    ("Enhanced fused Gpu K=3 nt=3", 56, 165, 0x571f2f0a596e1ff6),
    ("Enhanced fused Gpu K=3 nt=8", 203, 831, 0xd3bd53c7cc182797),
    ("Enhanced fused Cpu K=1 nt=1", 17, 33, 0x4899f60605991f7f),
    ("Enhanced fused Cpu K=1 nt=2", 37, 102, 0xda0abec1dda5d53d),
    ("Enhanced fused Cpu K=1 nt=3", 65, 210, 0x4ddc410a2762b4dd),
    ("Enhanced fused Cpu K=1 nt=8", 235, 975, 0x4f330dd9accd1deb),
    ("Enhanced fused Cpu K=3 nt=1", 17, 33, 0x4899f60605991f7f),
    ("Enhanced fused Cpu K=3 nt=2", 37, 102, 0xda0abec1dda5d53d),
    ("Enhanced fused Cpu K=3 nt=3", 59, 185, 0xd5378a3695000e86),
    ("Enhanced fused Cpu K=3 nt=8", 211, 915, 0xdb1da953683b731f),
    ("Enhanced shard D=2 nt=1", 17, 39, 0x4ec4d7670f390cb1),
    ("Enhanced shard D=2 nt=2", 41, 127, 0x21b93667f1004ad2),
    ("Enhanced shard D=2 nt=3", 76, 272, 0x7467b3bf62fd18b2),
    ("Enhanced shard D=2 nt=8", 286, 1304, 0x3243e93989cb4f01),
    ("Online shard D=2 nt=1", 20, 46, 0x4d0bae7249873f4f),
    ("Online shard D=2 nt=2", 46, 148, 0xbd363ac036e72cdc),
    ("Online shard D=2 nt=3", 80, 300, 0x71c354e53aa824eb),
    ("Online shard D=2 nt=8", 295, 1532, 0xc1b4bfb122a7ae91),
    ("Offline shard D=2 nt=1", 18, 40, 0x870a5626fbd314ca),
    ("Offline shard D=2 nt=2", 38, 119, 0x22168dd01d91ce0a),
    ("Offline shard D=2 nt=3", 62, 232, 0x32539179403ea6d6),
    ("Offline shard D=2 nt=8", 217, 1239, 0x056d4c2de9aebf34),
    ("Enhanced shard D=4 nt=1", 17, 39, 0x4ec4d7670f390cb1),
    ("Enhanced shard D=4 nt=2", 41, 127, 0x21b93667f1004ad2),
    ("Enhanced shard D=4 nt=3", 79, 283, 0x2ec355ece27714f1),
    ("Enhanced shard D=4 nt=8", 362, 1639, 0x80e81a609195c951),
    ("Online shard D=4 nt=1", 20, 46, 0x4d0bae7249873f4f),
    ("Online shard D=4 nt=2", 46, 148, 0xbd363ac036e72cdc),
    ("Online shard D=4 nt=3", 83, 311, 0xdb12683c081af53c),
    ("Online shard D=4 nt=8", 367, 1911, 0x3d0a2943fc1c12f3),
    ("Offline shard D=4 nt=1", 18, 40, 0x870a5626fbd314ca),
    ("Offline shard D=4 nt=2", 38, 119, 0x22168dd01d91ce0a),
    ("Offline shard D=4 nt=3", 65, 244, 0x8a8b1e3ffd36397b),
    ("Offline shard D=4 nt=8", 257, 1484, 0x1c99e14ac436154e),
    ("balance migration rewrite 0 at j=2 K=1 Gpu", 569, 2730, 0xc13aa6fbcd8279a8),
    ("balance adaptive-K rewrite 0 at j=2 K=2 Gpu", 545, 2850, 0xe2f1272f55ac18f2),
    ("balance adaptive-K rewrite 1 at j=4 K=3 Gpu", 533, 2900, 0x4aa27b490864ba60),
    ("balance adaptive-K rewrite 2 at j=6 K=4 Gpu", 529, 3000, 0xf460f11543af6e34),
    ("balance adaptive-K rewrite 3 at j=8 K=1 Gpu", 549, 3023, 0x8f51b608d9637704),
    ("balance adaptive-K rewrite 4 at j=10 K=2 Cpu", 547, 3035, 0xd395e412f7109516),
    ("balance adaptive-K rewrite 5 at j=12 K=3 Cpu", 543, 3018, 0xfaa4a38027bfc9e2),
    ("balance adaptive-K rewrite 6 at j=14 K=4 Gpu", 541, 3010, 0x0ad9ba92deb18d72),
];
