//! Regenerate the golden-equivalence fixtures under `tests/fixtures/golden/`.
//!
//! Each fixture pins the exact observable behavior of one driver
//! configuration: the serialized `RunReport` bytes and an FNV-1a hash of
//! the factor bits (Execute mode). The integration test
//! `tests/golden_equivalence.rs` replays the same configurations and
//! requires byte-identical reports and bit-identical factors.
//!
//! Run from the repository root (`cargo run --release -p hchol-bench --bin
//! golden_capture`) only when a schedule change is *intentional*; the diff
//! of the regenerated fixtures then documents exactly what moved.

use hchol_core::cula::factor_cula;
use hchol_core::magma::factor_magma;
use hchol_core::options::{AbftOptions, ChecksumPlacement, ShardOptions};
use hchol_core::schemes::{run_scheme, SchemeKind};
use hchol_faults::FaultPlan;
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::ExecMode;
use hchol_matrix::generate::spd_diag_dominant;
use hchol_matrix::Matrix;
use std::fs;
use std::path::PathBuf;

fn hash_factor(m: &Matrix) -> u64 {
    let (rows, cols) = m.shape();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..rows {
        for j in 0..cols {
            for byte in m.get(i, j).to_bits().to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn scheme_slug(kind: SchemeKind) -> &'static str {
    match kind {
        SchemeKind::Offline => "offline",
        SchemeKind::Online => "online",
        SchemeKind::Enhanced => "enhanced",
    }
}

/// One captured case: a stable file slug plus the closure that produces
/// (report JSON, factor hash).
struct Case {
    slug: String,
    report_json: String,
    factor_hash: u64,
}

fn scheme_case(
    kind: SchemeKind,
    n: usize,
    b: usize,
    opts: &AbftOptions,
    faulted: bool,
    tag: &str,
) -> Case {
    let a = spd_diag_dominant(n, 7);
    let nt = n / b;
    let plan = if faulted {
        FaultPlan::paper_computing_error(nt, b).merged(FaultPlan::paper_storage_error(nt, b))
    } else {
        FaultPlan::none()
    };
    let out = run_scheme(
        kind,
        &SystemProfile::test_profile(),
        ExecMode::Execute,
        n,
        b,
        opts,
        plan,
        Some(&a),
    )
    .expect("scheme runs");
    Case {
        slug: format!("{}_{n}_{tag}", scheme_slug(kind)),
        report_json: serde_json::to_string(&out.report()).expect("report serializes"),
        factor_hash: hash_factor(&out.factor.expect("Execute mode yields a factor")),
    }
}

fn baseline_case(name: &str, n: usize, b: usize) -> Case {
    let a = spd_diag_dominant(n, 7);
    let p = SystemProfile::test_profile();
    let rep = match name {
        "magma" => factor_magma(&p, ExecMode::Execute, n, b, Some(&a), false).expect("magma runs"),
        "cula" => factor_cula(&p, ExecMode::Execute, n, b, Some(&a)).expect("cula runs"),
        _ => unreachable!(),
    };
    let display = if name == "magma" {
        "MAGMA hybrid"
    } else {
        "CULA dpotrf"
    };
    Case {
        slug: format!("{name}_{n}"),
        report_json: serde_json::to_string(&rep.report(display)).expect("report serializes"),
        factor_hash: hash_factor(&rep.factor.expect("Execute mode yields a factor")),
    }
}

fn main() {
    let dir = PathBuf::from("tests/fixtures/golden");
    fs::create_dir_all(&dir).expect("create fixture dir");
    let b = 32usize;
    let mut cases: Vec<Case> = Vec::new();

    for kind in SchemeKind::all() {
        for n in [64usize, 192, 256] {
            for faulted in [false, true] {
                let tag = if faulted { "faulted" } else { "clean" };
                cases.push(scheme_case(
                    kind,
                    n,
                    b,
                    &AbftOptions::default(),
                    faulted,
                    tag,
                ));
            }
        }
    }
    // Option-space corners: CPU placement (mirror/flush path), the
    // unoptimized baseline (inline updates, serial recalc), K-gated verify.
    cases.push(scheme_case(
        SchemeKind::Enhanced,
        192,
        b,
        &AbftOptions::default().with_placement(ChecksumPlacement::Cpu),
        false,
        "cpu",
    ));
    cases.push(scheme_case(
        SchemeKind::Enhanced,
        192,
        b,
        &AbftOptions::unoptimized(),
        false,
        "unopt",
    ));
    cases.push(scheme_case(
        SchemeKind::Enhanced,
        256,
        b,
        &AbftOptions::default().with_interval(4),
        false,
        "k4",
    ));
    // The two opt-in rewrites under faults: the fused checksum epilogue
    // and a two-device sharded run.
    cases.push(scheme_case(
        SchemeKind::Enhanced,
        256,
        b,
        &AbftOptions::default().with_chk_fused(true),
        true,
        "fused_faulted",
    ));
    cases.push(scheme_case(
        SchemeKind::Offline,
        256,
        b,
        &AbftOptions::default().with_shard(ShardOptions::new(2)),
        true,
        "shard2_faulted",
    ));
    cases.push(baseline_case("magma", 192, b));
    cases.push(baseline_case("cula", 192, b));

    let mut manifest = String::from("{\n");
    for (i, c) in cases.iter().enumerate() {
        let path = dir.join(format!("{}.report.json", c.slug));
        fs::write(&path, &c.report_json).expect("write fixture");
        println!("wrote {}", path.display());
        manifest.push_str(&format!(
            "  \"{}\": \"{:016x}\"{}\n",
            c.slug,
            c.factor_hash,
            if i + 1 == cases.len() { "" } else { "," }
        ));
    }
    manifest.push_str("}\n");
    fs::write(dir.join("factors.json"), manifest).expect("write manifest");
    println!("wrote {} fixtures", cases.len());
}
