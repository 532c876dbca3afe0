//! Two-clock benchmark of the hchol workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-sim|execute-faults|static-proof> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets up its workload, runs one untimed warm-up pass, then
//! measures whole passes (every op once, in a fixed order) for about
//! `--seconds`. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! alternates untraced and traced passes with probe calls and prints the
//! per-layer metrics. The last line of standard output is one JSON object.
//! See `perfbench/README.md` for the metric definitions.

mod host;
mod layers;
mod ops;
mod oracle;
mod stats;
mod trace;

use host::HostInfo;
use ops::{Exact, Prepared, Probe, Workload};
use oracle::Book;
use stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Set-up (input generation and reference data) is repeated this many
/// times; `setup_s` uses the median.
const SETUP_REPEATS: usize = 3;
/// Fewest measured passes in an untraced run, and fewest rounds of
/// (untraced pass, traced pass, probes) in a traced run.
const MIN_PASSES: usize = 3;
const MIN_ROUNDS: usize = 2;
/// No new pass starts once it would end past this many seconds after
/// process start (the run must exit well within 180 s).
const HARD_LIMIT_S: f64 = 140.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{k}`"))?
            .to_string();
        let v = it.next().ok_or_else(|| format!("`{k}` needs a value"))?;
        kv.insert(key, v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = Workload::parse(get("workload")?).ok_or_else(|| {
        "unknown --workload (expected paper-sim, execute-faults or static-proof)".to_string()
    })?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got `{t}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-sim|execute-faults|static-proof> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf();
    match run(&args, &root, start) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One pass's host time: the sum of its ops' timed sections.
struct PassTime {
    secs: f64,
    op_secs: Vec<f64>,
}

/// Everything that persists across the passes of one run.
struct Bench<'a> {
    prep: &'a Prepared,
    book: Book,
    tracer: Tracer,
    reference: Option<Vec<Exact>>,
    passes: usize,
}

impl Bench<'_> {
    /// Run every op once. Only the library calls are timed; digesting the
    /// outcome (exact counts, oracle) happens between timed sections.
    fn pass(&mut self, traced: bool, measured: bool) -> PassTime {
        let idx = self.passes;
        self.passes += 1;
        self.tracer.set_on(traced);
        self.tracer.set_pass(idx);
        let mut op_secs = Vec::with_capacity(self.prep.ops.len());
        let mut exact = Vec::with_capacity(self.prep.ops.len());
        for (i, spec) in self.prep.ops.iter().enumerate() {
            let t = Instant::now();
            self.tracer.begin_op(i);
            let raw = ops::run_op(spec, &self.prep.inputs, &mut self.tracer);
            self.tracer.end_op();
            op_secs.push(t.elapsed().as_secs_f64());
            exact.push(ops::digest(
                i,
                spec,
                raw,
                &self.prep.inputs,
                &mut self.book,
                measured,
            ));
        }
        self.tracer.set_on(false);
        match &self.reference {
            None => self.reference = Some(exact),
            Some(reference) => {
                for (i, (want, got)) in reference.iter().zip(&exact).enumerate() {
                    if let Some(msg) = exact_diff(want, got) {
                        let label = &self.prep.ops[i].label;
                        self.book.problem(format!("pass {idx}, {label}: {msg}"));
                    }
                }
            }
        }
        PassTime {
            secs: op_secs.iter().sum(),
            op_secs,
        }
    }
}

/// First quantity that differs bit for bit between two digests.
fn exact_diff(want: &Exact, got: &Exact) -> Option<String> {
    if want.len() != got.len() || want.keys().ne(got.keys()) {
        return Some("different set of exact quantities".into());
    }
    want.iter()
        .zip(got.values())
        .find(|((_, a), b)| a.to_bits() != b.to_bits())
        .map(|((k, a), b)| format!("{k} changed from {a} to {b}"))
}

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn push(v: &mut Vec<Metric>, name: impl Into<String>, unit: &'static str, value: f64) {
    v.push(Metric {
        name: name.into(),
        unit,
        value,
    });
}

fn run(args: &Args, root: &Path, start: Instant) -> Result<(), String> {
    let host = HostInfo::detect();
    let w = args.workload;

    // Set-up, repeated: inputs from the seed and reference data.
    let mut prep_secs = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        prepared = Some(ops::prepare(w, args.seed, root)?);
        prep_secs.push(t.elapsed().as_secs_f64());
    }
    let prep = prepared.expect("set-up ran at least once");
    let mut bench = Bench {
        prep: &prep,
        book: Book::default(),
        tracer: Tracer::new(start),
        reference: None,
        passes: 0,
    };
    let warm = bench.pass(false, false);
    let setup_s = median(&prep_secs) + warm.secs;

    let measure_start = Instant::now();
    let mut untraced: Vec<PassTime> = Vec::new();
    let mut traced: Vec<PassTime> = Vec::new();
    let mut probes: Vec<Vec<Probe>> = Vec::new();
    loop {
        let done = if args.trace {
            traced.len()
        } else {
            untraced.len()
        };
        let min = if args.trace { MIN_ROUNDS } else { MIN_PASSES };
        let est = median(&untraced.iter().map(|p| p.secs).collect::<Vec<_>>()).max(warm.secs)
            * if args.trace { 2.2 } else { 1.0 };
        let over_budget = measure_start.elapsed().as_secs_f64() + est > args.seconds;
        let over_limit = start.elapsed().as_secs_f64() + est > HARD_LIMIT_S;
        if (done >= min && over_budget) || (done >= 2 && over_limit) {
            break;
        }
        if !args.trace {
            untraced.push(bench.pass(false, true));
            continue;
        }
        // Alternate which kind of pass opens a round, so neither side
        // always follows the probe calls.
        if traced.len().is_multiple_of(2) {
            untraced.push(bench.pass(false, true));
            traced.push(bench.pass(true, true));
        } else {
            traced.push(bench.pass(true, true));
            untraced.push(bench.pass(false, true));
        }
        probes.push(prep.ops.iter().map(ops::probe).collect());
    }
    let measured_s = measure_start.elapsed().as_secs_f64();

    let mut e2e = Vec::new();
    let mut per_layer = Vec::new();
    let mut notes = Vec::new();
    let reference = bench.reference.clone().expect("warm-up pass ran");
    let pass_secs: Vec<f64> = untraced.iter().map(|p| p.secs).collect();
    let pass_s = median(&pass_secs);
    let (q1, q3) = quartiles(&pass_secs);
    notes.push(format!(
        "pass_s: median {pass_s:.4} s, quartiles {q1:.4} / {q3:.4} s, n={} untraced passes {:.4?}; warm-up {:.4} s",
        pass_secs.len(),
        pass_secs,
        warm.secs
    ));

    // Tail: each op's time relative to that op's median, pooled over every
    // untraced pass, at the highest percentile that keeps ten samples
    // beyond it, applied to the median pass.
    let nops = prep.ops.len();
    let mut ratios = Vec::new();
    for i in 0..nops {
        let xs: Vec<f64> = untraced.iter().map(|p| p.op_secs[i]).collect();
        let m = median(&xs);
        if m > 0.0 {
            ratios.extend(xs.iter().map(|x| x / m));
        }
    }
    let (tail_ratio, tail_pct) = stats::tail_with_ten_beyond(&ratios).unwrap_or_else(|| {
        let max = ratios.iter().copied().fold(1.0, f64::max);
        (max, 100.0)
    });
    let pass_tail_s = pass_s * tail_ratio;

    notes.push(format!(
        "pass_tail_s: p{tail_pct:.1} of per-op time relative to the op's median (×{tail_ratio:.4}), \
         over n={} op samples from {} passes",
        ratios.len(),
        pass_secs.len()
    ));

    let total = |key: &str| pass_total(&reference, key);
    let virt_s = total("virt_s");
    let overhead_pct = {
        let sum = |pred: &dyn Fn(&ops::OpSpec) -> bool| -> f64 {
            prep.ops
                .iter()
                .zip(&reference)
                .filter(|(s, _)| s.overhead_term && pred(s))
                .filter_map(|(_, e)| e.get("virt_s"))
                .sum()
        };
        let enhanced = sum(&|s| matches!(s.routine, ops::Routine::Scheme(_)));
        let magma = prep
            .magma_ref_virt
            .unwrap_or_else(|| sum(&|s| s.routine == ops::Routine::Magma));
        100.0 * (enhanced / magma - 1.0)
    };
    let peak_rss_mb = host::peak_rss_bytes().map_or(0.0, |b| b as f64 / 1e6);

    push(&mut e2e, "setup_s", "s", setup_s);
    push(&mut e2e, "pass_s", "s", pass_s);
    push(&mut e2e, "pass_tail_s", "s", pass_tail_s);
    push(&mut e2e, "virt_s", "virt-s", virt_s);
    push(&mut e2e, "enhanced_overhead_pct", "%", overhead_pct);
    push(&mut e2e, "peak_rss_mb", "MB", peak_rss_mb);

    let attempted = bench.book.attempted.max(1) as f64;
    let failed_frac = bench.book.failed as f64 / attempted;
    let wrong_frac = bench.book.wrong as f64 / attempted;

    if args.trace {
        per_layer = layer_metrics(
            &prep,
            &bench.tracer.spans,
            &untraced,
            &traced,
            &probes,
            &reference,
            &mut bench.book,
            &mut notes,
        );
        push(&mut per_layer, "failed_frac", "ratio", failed_frac);
        push(&mut per_layer, "wrong_frac", "ratio", wrong_frac);
        let labels: Vec<String> = prep.ops.iter().map(|o| o.label.clone()).collect();
        let spans = bench.tracer.to_chrome_json(&labels);
        let path = out_dir(root)?.join(format!("spans-{}-seed{}.json", w.name(), args.seed));
        std::fs::write(&path, spans).map_err(|e| format!("write {}: {e}", path.display()))?;
        notes.push(format!("spans written to {}", path.display()));
    }

    notes.push(format!(
        "oracle: {} op executions measured, {} failed (Err, gave up, refused or finding), \
         {} silently wrong, {} contract violations",
        bench.book.attempted, bench.book.failed, bench.book.wrong, bench.book.violations
    ));
    let shown = if args.trace { &per_layer } else { &e2e };
    for m in shown.iter().filter(|m| !m.value.is_finite()) {
        bench
            .book
            .problem(format!("metric {} is not a finite number", m.name));
    }
    let correct = bench.book.problems.is_empty();

    // Human-readable report, then the result line.
    println!("# host: {}", host.to_json());
    println!(
        "# workload {} seed {} trace {}: {} measured pass(es) + 1 warm-up in {:.1} s, {:.1} s since start",
        w.name(),
        args.seed,
        u8::from(args.trace),
        untraced.len() + traced.len(),
        measured_s,
        start.elapsed().as_secs_f64()
    );
    for n in &notes {
        println!("# {n}");
    }
    for p in &bench.book.problems {
        println!("# PROBLEM: {p}");
    }
    for k in &bench.book.known {
        println!("# KNOWN DEFECT: {k}");
    }
    for m in e2e.iter().chain(&per_layer) {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let metrics = shown
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                host::quote(&m.name),
                json_num(m.value),
                host::quote(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        bench.book.attempted.max(1),
        bench.book.violations
    );
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"host\": {}, \"problems\": [{}], \"known_defects\": [{}], \"result\": {result}}}\n",
        host::quote(w.name()),
        args.seed,
        args.trace,
        host.to_json(),
        quote_all(&bench.book.problems),
        quote_all(&bench.book.known)
    );
    let path = out_dir(root)?.join(format!(
        "result-{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, record).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{result}");
    Ok(())
}

/// Sum of one exact quantity over a pass's ops (0 when no op has it).
fn pass_total(reference: &[Exact], key: &str) -> f64 {
    reference
        .iter()
        .filter_map(|e| e.get(key))
        .fold(0.0, |a, b| a + b)
}

/// Comma-separated JSON string literals.
fn quote_all(v: &[String]) -> String {
    v.iter()
        .map(|s| host::quote(s))
        .collect::<Vec<_>>()
        .join(", ")
}

/// JSON number with every digit Rust's shortest round-trip form keeps.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn out_dir(root: &Path) -> Result<PathBuf, String> {
    let d = root.join("perfbench").join("out");
    std::fs::create_dir_all(&d).map_err(|e| format!("create {}: {e}", d.display()))?;
    Ok(d)
}

/// Per-layer metrics of a traced run.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    prep: &Prepared,
    spans: &[trace::Span],
    untraced: &[PassTime],
    traced: &[PassTime],
    probes: &[Vec<Probe>],
    reference: &[Exact],
    book: &mut Book,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let mut v = Vec::new();
    let nops = prep.ops.len();
    // Per-op probe medians.
    let probe_med: Vec<Probe> = (0..nops)
        .map(|i| {
            let col = |f: &dyn Fn(&Probe) -> Option<f64>| {
                let xs: Vec<f64> = probes.iter().filter_map(|r| f(&r[i])).collect();
                (!xs.is_empty()).then(|| median(&xs))
            };
            Probe {
                plan_s: col(&|p| Some(p.plan_s)).unwrap_or(0.0),
                t0_s: col(&|p| p.t0_s),
                t1_s: col(&|p| p.t1_s),
                nodes: probes[0][i].nodes,
                edges: probes[0][i].edges,
            }
        })
        .collect();
    for round in probes {
        for (i, p) in round.iter().enumerate() {
            if (p.nodes, p.edges) != (probe_med[i].nodes, probe_med[i].edges) {
                book.problem(format!(
                    "{}: plan size changed between probes",
                    prep.ops[i].label
                ));
            }
        }
    }

    // Attribution of every traced pass: call spans by layer, `run` split by
    // difference, op self time into `other`.
    const LAYERS: [&str; 11] = [
        "plan.build_s",
        "sim.run_s",
        "gpusim.trace_s",
        "exec.numerics_s",
        "obs.report_s",
        "analyze.plancheck_s",
        "analyze.coverage_s",
        "analyze.liveness_s",
        "analyze.schedule_s",
        "schemes.validate_s",
        "other_s",
    ];
    let mut sums: BTreeMap<&str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    let mut add = |l: &'static str, x: f64| *sums.get_mut(l).expect("known layer") += x;
    let traced_total: f64 = traced.iter().map(|p| p.secs).sum();
    let mut covered = 0.0;
    for s in spans.iter().filter(|s| s.parent.is_some()) {
        let spec = &prep.ops[s.op];
        let d = s.secs();
        covered += d;
        match s.name {
            "run" => {
                let [p, sim, tr, num] = ops::split_run(spec, d, &probe_med[s.op]);
                add("plan.build_s", p);
                add("sim.run_s", sim);
                add("gpusim.trace_s", tr);
                add("exec.numerics_s", num);
            }
            "plan" => add("plan.build_s", d),
            "report" => add("obs.report_s", d),
            "validate" => add("schemes.validate_s", d),
            "analyze.plancheck" => add("analyze.plancheck_s", d),
            "analyze.coverage" => add("analyze.coverage_s", d),
            "analyze.liveness" => add("analyze.liveness_s", d),
            "analyze.schedule" => add("analyze.schedule_s", d),
            other => unreachable!("unattributed call span {other}"),
        }
    }
    add("other_s", traced_total - covered);
    let k = traced.len().max(1) as f64;
    let trace_pass = traced_total / k;
    let attributed: f64 = sums.values().sum::<f64>() / k;
    for (&l, &x) in &sums {
        push(&mut v, l, "s", x / k);
    }
    notes.push(format!(
        "attribution: layer self times + other_s = {attributed:.6} s; traced pass_s (mean of {}) = {trace_pass:.6} s",
        traced.len()
    ));
    notes.push(format!(
        "traced passes {:.4?}, untraced passes {:.4?}",
        traced.iter().map(|p| p.secs).collect::<Vec<_>>(),
        untraced.iter().map(|p| p.secs).collect::<Vec<_>>()
    ));
    let untraced_med = median(&untraced.iter().map(|p| p.secs).collect::<Vec<_>>());
    push(&mut v, "trace.pass_s", "s", trace_pass);
    push(&mut v, "trace.untraced_pass_s", "s", untraced_med);
    push(
        &mut v,
        "trace.overhead_s",
        "s",
        median(&traced.iter().map(|p| p.secs).collect::<Vec<_>>()) - untraced_med,
    );

    let nodes: usize = probe_med.iter().map(|p| p.nodes).sum();
    let edges: usize = probe_med.iter().map(|p| p.edges).sum();
    push(&mut v, "plan.nodes", "count", nodes as f64);
    push(&mut v, "plan.edges", "count", edges as f64);
    push(
        &mut v,
        "sim.us_per_node",
        "us",
        sums["sim.run_s"] / k / nodes.max(1) as f64 * 1e6,
    );

    let b = ops::EXEC_B;
    let names = ["gemm", "syrk", "trsm", "potf2"];
    for (name, rate) in names.iter().zip(layers::blas_gflops::<f64>(b)) {
        push(&mut v, format!("blas.{name}.gflops"), "GFLOP/s", rate);
    }
    for (name, rate) in names.iter().zip(layers::blas_gflops::<f32>(b)) {
        push(&mut v, format!("blas.{name}.f32.gflops"), "GFLOP/s", rate);
    }
    let [enc, vclean, vplanted] = layers::checksum_costs(b);
    push(&mut v, "chk.encode_s", "s", enc);
    push(&mut v, "chk.verify_clean_s", "s", vclean);
    push(&mut v, "chk.verify_planted_s", "s", vplanted);

    let total = |key: &str| pass_total(reference, key);
    let counts: [(&str, &'static str); 10] = [
        ("blas.flops", "flop"),
        ("faults.injected", "count"),
        ("faults.detected", "count"),
        ("faults.corrected", "count"),
        ("run.attempts", "count"),
        ("verify.batches", "count"),
        ("verify.tiles", "count"),
        ("virt.pcie_bytes", "B"),
        ("virt.queue_delay_s", "virt-s"),
        ("analyze.sites", "count"),
    ];
    for (key, unit) in counts {
        push(&mut v, key, unit, total(key));
    }
    for p in ops::PHASES {
        let key = format!("virt.phase.{p}_s");
        push(&mut v, key.clone(), "virt-s", total(&key));
    }
    for e in ops::ENGINES {
        let key = format!("virt.busy.{e}_s");
        push(&mut v, key.clone(), "virt-s", total(&key));
    }
    v
}
