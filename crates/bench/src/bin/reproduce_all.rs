//! One-command reproduction: runs every paper experiment (and the
//! extensions) back to back. `--quick` trims sweeps for a fast smoke pass.
//!
//! Each experiment is an independent binary; this driver just invokes their
//! entry logic via `cargo run`-equivalent process spawns so output ordering
//! matches the paper's section order.

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "fig01_trace",
    "fig02_design",
    "table01_verification",
    "table03_06_overhead",
    "table07_capability",
    "fig08_09_opt1",
    "fig10_11_opt2",
    "fig12_13_opt3",
    "fig14_15_overhead",
    "fig16_17_performance",
    "ablation_block",
    "ablation_ecc",
    "campaign_survival",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exe = std::env::current_exe().expect("own path");
    let bin_dir = exe.parent().expect("bin dir");
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        println!("\n######## {name} ########");
        let path = bin_dir.join(name);
        let status = Command::new(&path)
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("spawn {name}: {e} (build with --release first)"));
        if !status.success() {
            failures.push(*name);
        }
    }
    if failures.is_empty() {
        println!("\nall {} experiments completed", EXPERIMENTS.len());
    } else {
        eprintln!("\nFAILED: {failures:?}");
        std::process::exit(1);
    }
}
