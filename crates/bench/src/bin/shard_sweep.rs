//! Multi-device sharding sweep (DESIGN.md §12): strong and weak scaling
//! of the 2D block-cyclic factorization over D ∈ {1, 2, 4, 8} simulated
//! GPUs, plus the cost of a mid-run device-loss recovery →
//! `BENCH_shard.json` at the repo root (`target/bench-quick/` under
//! `--quick`).
//!
//! Strong scaling fixes the matrix and grows the grid; the per-iteration
//! panel must amortize the ring broadcast and parity traffic before extra
//! devices pay off, so small matrices *lose* (the crossover sits near
//! n = 4096 on Tardis — see EXPERIMENTS.md) and the gate only requires
//! the win at the sweep's largest size. Weak scaling holds per-device
//! tile memory roughly constant (n ∝ √D) and reports per-device
//! throughput. The device-loss entry runs the same sharded configuration
//! with one device lost halfway and accounts the XOR-reconstruction pause
//! against the fault-free makespan.
//!
//! Usage: `cargo run --release -p hchol-bench --bin shard_sweep [--quick]`.
//! `--quick` caps the sweep at n = 8192 on Tardis only (the CI
//! configuration).

use hchol_core::options::{AbftOptions, ChecksumPlacement, ShardOptions};
use hchol_core::schemes::{run_clean, run_scheme, FactorOutcome, SchemeKind};
use hchol_faults::FaultPlan;
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::ExecMode;

#[derive(serde::Serialize)]
struct StrongEntry {
    system: String,
    scheme: &'static str,
    n: usize,
    block: usize,
    devices: usize,
    secs: f64,
    /// `t(D=1) / t(D)` — above 1.0 the grid pays for itself.
    speedup_vs_one: f64,
    /// Peer-link traffic of the whole run (0 for D = 1).
    link_gib: f64,
    /// Mean per-device kernel-busy fraction of the makespan (D > 1 only).
    mean_dev_busy_frac: f64,
}

#[derive(serde::Serialize)]
struct WeakEntry {
    system: String,
    scheme: &'static str,
    n: usize,
    block: usize,
    devices: usize,
    secs: f64,
    /// `(n³/3) / (D · t)` — flat means perfect weak scaling.
    per_device_gflops: f64,
}

#[derive(serde::Serialize)]
struct LossEntry {
    system: String,
    scheme: &'static str,
    n: usize,
    block: usize,
    devices: usize,
    lost_device: usize,
    loss_iter: usize,
    faultfree_secs: f64,
    loss_secs: f64,
    recovery_secs: f64,
    recovered_tiles: u64,
    /// `(loss − faultfree) / faultfree`, percent.
    overhead_pct: f64,
}

#[derive(serde::Serialize)]
struct Report {
    quick: bool,
    strong: Vec<StrongEntry>,
    weak: Vec<WeakEntry>,
    device_loss: Vec<LossEntry>,
}

const DEVICES: &[usize] = &[1, 2, 4, 8];

fn opts_for(d: usize) -> AbftOptions {
    let o = AbftOptions::default().with_placement(ChecksumPlacement::Gpu);
    if d > 1 {
        o.with_shard(ShardOptions::new(d))
    } else {
        o
    }
}

fn timed(kind: SchemeKind, p: &SystemProfile, n: usize, b: usize, d: usize) -> FactorOutcome {
    run_clean(kind, p, ExecMode::TimingOnly, n, b, &opts_for(d), None)
        .unwrap_or_else(|e| panic!("{} n={n} D={d}: {e}", kind.name()))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let b = 256usize;
    let strong_sizes: &[usize] = if quick {
        &[2048, 8192]
    } else {
        &[2048, 4096, 8192, 16384]
    };
    let profiles: &[SystemProfile] = &if quick {
        vec![SystemProfile::tardis()]
    } else {
        vec![SystemProfile::tardis(), SystemProfile::bulldozer64()]
    };
    let schemes = [SchemeKind::Enhanced, SchemeKind::Offline];

    let mut strong = Vec::new();
    for p in profiles {
        for &kind in &schemes {
            for &n in strong_sizes {
                let mut t1 = f64::NAN;
                for &d in DEVICES {
                    let out = timed(kind, p, n, b, d);
                    let secs = out.time.as_secs();
                    if d == 1 {
                        t1 = secs;
                    }
                    let m = &out.ctx.obs.metrics;
                    let busy: f64 = (0..d)
                        .map(|i| m.sum(&format!("shard.dev.{i}.busy_secs")))
                        .sum();
                    let e = StrongEntry {
                        system: p.name.clone(),
                        scheme: kind.name(),
                        n,
                        block: b,
                        devices: d,
                        secs,
                        speedup_vs_one: t1 / secs,
                        link_gib: m.count("shard.link.bytes") as f64 / (1u64 << 30) as f64,
                        mean_dev_busy_frac: if d > 1 && secs > 0.0 {
                            busy / (d as f64 * secs)
                        } else {
                            0.0
                        },
                    };
                    println!(
                        "strong {:<12} {:<13} n={:<6} D={d}: {:>8.4}s  speedup {:>5.2}x  link {:>7.3} GiB  busy {:>5.1}%",
                        e.system,
                        e.scheme,
                        n,
                        secs,
                        e.speedup_vs_one,
                        e.link_gib,
                        e.mean_dev_busy_frac * 100.0
                    );
                    strong.push(e);
                }
            }
        }
    }

    // Weak scaling: per-device tile memory ≈ constant → n ∝ √D, rounded
    // to whole blocks.
    let n_base = if quick { 4096usize } else { 8192 };
    let mut weak = Vec::new();
    for &kind in &schemes {
        let p = SystemProfile::tardis();
        for &d in DEVICES {
            let n = ((n_base as f64 * (d as f64).sqrt()) / b as f64).round() as usize * b;
            let out = timed(kind, &p, n, b, d);
            let secs = out.time.as_secs();
            let e = WeakEntry {
                system: p.name.clone(),
                scheme: kind.name(),
                n,
                block: b,
                devices: d,
                secs,
                per_device_gflops: (n as f64).powi(3) / 3.0 / (d as f64 * secs) / 1e9,
            };
            println!(
                "weak   {:<12} {:<13} n={:<6} D={d}: {:>8.4}s  {:>8.1} GFLOP/s per device",
                e.system, e.scheme, n, secs, e.per_device_gflops
            );
            weak.push(e);
        }
    }

    // Device-loss recovery overhead: same grid, one device lost halfway.
    let mut device_loss = Vec::new();
    {
        let p = SystemProfile::tardis();
        let (n, d) = if quick {
            (2048usize, 4usize)
        } else {
            (8192, 4)
        };
        let nt = n / b;
        for &kind in &schemes {
            let clean = timed(kind, &p, n, b, d);
            let lost = run_scheme(
                kind,
                &p,
                ExecMode::TimingOnly,
                n,
                b,
                &opts_for(d),
                FaultPlan::device_loss(1, nt / 2),
                None,
            )
            .unwrap_or_else(|e| panic!("{} device-loss run: {e}", kind.name()));
            assert_eq!(lost.attempts, 1, "recovery must not restart the run");
            let (tf, tl) = (clean.time.as_secs(), lost.time.as_secs());
            let m = &lost.ctx.obs.metrics;
            let e = LossEntry {
                system: p.name.clone(),
                scheme: kind.name(),
                n,
                block: b,
                devices: d,
                lost_device: 1,
                loss_iter: nt / 2,
                faultfree_secs: tf,
                loss_secs: tl,
                recovery_secs: m.sum("shard.recovery_secs"),
                recovered_tiles: m.count("shard.recovered_tiles"),
                overhead_pct: (tl - tf) / tf * 100.0,
            };
            println!(
                "loss   {:<12} {:<13} n={:<6} D={d}: fault-free {:>8.4}s  with loss {:>8.4}s  recovery {:>8.4}s  (+{:.2}%)",
                e.system, e.scheme, n, e.faultfree_secs, e.loss_secs, e.recovery_secs, e.overhead_pct
            );
            device_loss.push(e);
        }
    }

    // Acceptance gates: at the sweep's largest size the 4-device grid
    // beats one device on Tardis for every scheme, and losing a device
    // costs measurable-but-bounded recovery time.
    let n_max = *strong_sizes.last().expect("sizes nonempty");
    for &kind in &schemes {
        let find = |d: usize| {
            strong
                .iter()
                .find(|e| {
                    e.system == "Tardis"
                        && e.scheme == kind.name()
                        && e.n == n_max
                        && e.devices == d
                })
                .expect("entry exists")
        };
        let (t1, t4) = (find(1).secs, find(4).secs);
        assert!(
            t4 < t1,
            "{} n={n_max}: D=4 ({t4:.4}s) must beat D=1 ({t1:.4}s)",
            kind.name()
        );
    }
    for e in &device_loss {
        assert!(e.recovery_secs > 0.0, "{}: free recovery", e.scheme);
        assert!(
            e.overhead_pct < 100.0,
            "{}: recovery more than doubled the run ({:.1}%)",
            e.scheme,
            e.overhead_pct
        );
    }

    let report = Report {
        quick,
        strong,
        weak,
        device_loss,
    };
    let path = hchol_bench::report::write_bench_artifact(
        "shard",
        quick,
        serde::Serialize::to_value(&report),
    );
    println!("wrote {}", path.display());
}
