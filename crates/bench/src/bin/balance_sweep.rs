//! Static vs. adaptive checksum-update placement: the feedback load
//! balancer (DESIGN.md §11) against the paper's one-shot Optimization-2
//! decision, on both paper systems and the deliberately mis-described
//! `Tardis-Skewed` (degraded PCIe link) → `BENCH_balance.json` at the repo
//! root (`target/bench-quick/` under `--quick`).
//!
//! On the well-described machines the analytic model is already right, so
//! the balancer's job is to stay out of the way (`switches == 0`, times
//! within noise). On the skewed profile the model's `max` hides the mirror
//! traffic the degraded link can no longer absorb; the static run keeps
//! shipping panel mirrors over the saturated link while the balancer
//! migrates updating to the GPU and wins outright.
//!
//! Usage: `cargo run --release -p hchol-bench --bin balance_sweep [--quick]`.
//! `--quick` stops at n = 2048 (the CI configuration).

use hchol_core::options::{AbftOptions, BalanceOptions};
use hchol_core::schemes::{run_clean, SchemeKind};
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::ExecMode;

#[derive(serde::Serialize)]
struct Entry {
    system: String,
    n: usize,
    block: usize,
    /// Placement the analytic model picked for the static run.
    static_placement: String,
    static_secs: f64,
    adaptive_secs: f64,
    /// (static − adaptive) / static, percent; positive = balancer wins.
    adaptive_gain_pct: f64,
    switches: usize,
    /// Largest verify interval the adaptive run ever installed.
    max_k: usize,
    /// Final `balance.*` gauges of the adaptive run's last window.
    gpu_util: f64,
    cpu_util: f64,
    dma_util: f64,
    queue_frac: f64,
}

#[derive(serde::Serialize)]
struct Report {
    scheme: &'static str,
    quick: bool,
    balance: BalanceOptions,
    results: Vec<Entry>,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick {
        &[1024, 2048]
    } else {
        &[1024, 2048, 4096]
    };
    let balance = BalanceOptions::default().with_update_interval(2);
    let mut results = Vec::new();
    for profile in [
        SystemProfile::tardis(),
        SystemProfile::bulldozer64(),
        SystemProfile::tardis_skewed(),
    ] {
        for &n in sizes {
            let b = 128usize.min(n / 4);
            let run = |opts: &AbftOptions| {
                run_clean(
                    SchemeKind::Enhanced,
                    &profile,
                    ExecMode::TimingOnly,
                    n,
                    b,
                    opts,
                    None,
                )
                .expect("Enhanced run")
            };
            let stat = run(&AbftOptions::default());
            let adap = run(&AbftOptions::default().with_balance(balance.clone()));
            let (ts, ta) = (stat.time.as_secs(), adap.time.as_secs());
            let log = adap.balance_log.as_ref().expect("adaptive run keeps a log");
            let m = &adap.ctx.obs.metrics;
            let entry = Entry {
                system: profile.name.clone(),
                n,
                block: b,
                static_placement: format!("{:?}", stat.opts.placement),
                static_secs: ts,
                adaptive_secs: ta,
                adaptive_gain_pct: (ts - ta) / ts * 100.0,
                switches: log.switches(),
                max_k: log.max_k(),
                gpu_util: m.gauge("balance.gpu_util").unwrap_or(0.0),
                cpu_util: m.gauge("balance.cpu_util").unwrap_or(0.0),
                dma_util: m.gauge("balance.dma_util").unwrap_or(0.0),
                queue_frac: m.gauge("balance.queue_frac").unwrap_or(0.0),
            };
            println!(
                "{:<14} n={:<5} b={:<4} static({:<4}) {:>8.4}s adaptive {:>8.4}s | gain {:>6.2}% switches {} max_k {}",
                entry.system,
                n,
                b,
                entry.static_placement,
                ts,
                ta,
                entry.adaptive_gain_pct,
                entry.switches,
                entry.max_k
            );
            results.push(entry);
        }
    }
    // The acceptance gate: adaptive is never worse than static beyond
    // noise, and strictly faster where the static placement is wrong.
    for e in &results {
        assert!(
            e.adaptive_gain_pct > -0.5,
            "{} n={}: adaptive lost {:.2}%",
            e.system,
            e.n,
            -e.adaptive_gain_pct
        );
        if e.system == "Tardis-Skewed" {
            assert!(
                e.switches >= 1 && e.adaptive_gain_pct > 5.0,
                "{} n={}: expected a migration and a clear win, got {} switches / {:.2}%",
                e.system,
                e.n,
                e.switches,
                e.adaptive_gain_pct
            );
        }
    }
    let report = Report {
        scheme: SchemeKind::Enhanced.name(),
        quick,
        balance,
        results,
    };
    let path = hchol_bench::report::write_bench_artifact(
        "balance",
        quick,
        serde::Serialize::to_value(&report),
    );
    println!("wrote {}", path.display());
}
