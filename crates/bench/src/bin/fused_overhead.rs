//! Fused-epilogue verification overhead: Enhanced Online-ABFT with
//! `chk_fused` on vs. the separate-recalc baseline, against bare MAGMA,
//! on both paper systems → `BENCH_fused.json` at the repo root
//! (`target/bench-quick/` under `--quick`).
//!
//! For each system and size this reports the scheme's verification
//! overhead relative to the no-ABFT MAGMA baseline, with the checksum
//! recalculation either issued as separate GEMV-class kernels (the
//! paper's pipeline) or deposited by the SYRK/GEMM fused epilogue while
//! the output tiles are cache-hot. The JSON also splits the time the
//! verification pipeline spends on each path (`recalc_secs` vs
//! `epilogue_secs`) so the drop is attributable, not just visible.
//!
//! Usage: `cargo run --release -p hchol-bench --bin fused_overhead [--quick]`.
//! `--quick` stops at n = 1024 (the CI configuration).

use hchol_core::magma::factor_magma;
use hchol_core::options::AbftOptions;
use hchol_core::schemes::{run_clean, SchemeKind};
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::ExecMode;

#[derive(serde::Serialize)]
struct Entry {
    system: String,
    n: usize,
    block: usize,
    magma_secs: f64,
    unfused_secs: f64,
    fused_secs: f64,
    /// (scheme − MAGMA) / MAGMA, percent.
    unfused_overhead_pct: f64,
    fused_overhead_pct: f64,
    /// Overhead removed by fusion, as a fraction of the unfused overhead.
    overhead_drop_pct: f64,
    /// Virtual time on separate recalculation kernels, each variant.
    unfused_recalc_secs: f64,
    fused_recalc_secs: f64,
    /// Virtual time charged to fused epilogues (zero for unfused).
    fused_epilogue_secs: f64,
}

#[derive(serde::Serialize)]
struct Report {
    scheme: &'static str,
    quick: bool,
    results: Vec<Entry>,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick {
        &[512, 1024]
    } else {
        &[512, 1024, 2048]
    };
    let mut results = Vec::new();
    for profile in [SystemProfile::tardis(), SystemProfile::bulldozer64()] {
        for &n in sizes {
            let b = profile.default_block.min(n / 4);
            let magma = factor_magma(&profile, ExecMode::TimingOnly, n, b, None, false)
                .expect("MAGMA baseline")
                .time
                .as_secs();
            let run = |fused: bool| {
                // The unfused baseline opts into recalc-time reporting so
                // both variants expose `verify.recalc_secs`.
                let opts = AbftOptions::default()
                    .with_chk_fused(fused)
                    .with_report_recalc_secs(true);
                run_clean(
                    SchemeKind::Enhanced,
                    &profile,
                    ExecMode::TimingOnly,
                    n,
                    b,
                    &opts,
                    None,
                )
                .expect("Enhanced run")
            };
            let unfused = run(false);
            let fused = run(true);
            let (tu, tf) = (unfused.time.as_secs(), fused.time.as_secs());
            let ou = (tu - magma) / magma * 100.0;
            let of = (tf - magma) / magma * 100.0;
            let entry = Entry {
                system: profile.name.clone(),
                n,
                block: b,
                magma_secs: magma,
                unfused_secs: tu,
                fused_secs: tf,
                unfused_overhead_pct: ou,
                fused_overhead_pct: of,
                overhead_drop_pct: (ou - of) / ou * 100.0,
                unfused_recalc_secs: unfused.ctx.obs.metrics.sum("verify.recalc_secs"),
                fused_recalc_secs: fused.ctx.obs.metrics.sum("verify.recalc_secs"),
                fused_epilogue_secs: fused.ctx.obs.metrics.sum("verify.fused.epilogue_secs"),
            };
            println!(
                "{:<12} n={:<5} b={:<4} MAGMA {:>8.4}s | overhead unfused {:>6.2}% fused {:>6.2}% | drop {:>5.2}%",
                entry.system, n, b, magma, ou, of, entry.overhead_drop_pct
            );
            results.push(entry);
        }
    }
    let report = Report {
        scheme: SchemeKind::Enhanced.name(),
        quick,
        results,
    };
    let path = hchol_bench::report::write_bench_artifact(
        "fused",
        quick,
        serde::Serialize::to_value(&report),
    );
    println!("wrote {}", path.display());
}
