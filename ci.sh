#!/usr/bin/env bash
# Local CI: everything the repo expects to stay green, in the order that
# fails fastest. Offline by design — all external crates are in-repo shims
# (see DESIGN.md §3), so no network is needed.
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==== %s ====\n' "$*"; }

step "format check"
cargo fmt --all --check

step "clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

step "build (release)"
cargo build --release --workspace

# perfbench/ is a workspace of its own, so the workspace build above does
# not compile it; building it here turns a change that breaks the public
# API the benchmark calls into a CI failure.
step "benchmark package builds against the public API (perfbench)"
cargo build --offline --release --manifest-path perfbench/Cargo.toml

# The static-proof workload proves every scheme x opt-in rewrite clean at
# nt=20 (plan check, coverage, liveness, schedule); its last line is the
# JSON result, which must report the run correct.
step "static proof at benchmark scale (perfbench static-proof, nt=20)"
proof=$(cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload static-proof --seed 1 --seconds 2 --trace 0 | tail -n 1)
case "$proof" in
    *'"correct": true'*) ;;
    *) echo "static-proof run is not correct: $proof" >&2; exit 1 ;;
esac

# The paper-sim workload replays the paper's Fig. 16/17 configurations in
# TimingOnly mode (Tardis n=20480, Bulldozer64 n=30720); its last line must
# report every pass exact and the committed figure anchors met.
step "paper-scale simulation (perfbench paper-sim)"
sim=$(cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload paper-sim --seed 1 --seconds 2 --trace 0 | tail -n 1)
case "$sim" in
    *'"correct": true'*) ;;
    *) echo "paper-sim run is not correct: $sim" >&2; exit 1 ;;
esac

step "tests: tier-1 (root package)"
cargo test -q

step "tests: full workspace"
cargo test --workspace -q

step "tests: hchol-blas without default features (no 'parallel')"
cargo test -q -p hchol-blas --no-default-features

step "rustdoc (deny warnings + broken intra-doc links, no deps)"
RUSTDOCFLAGS="-D warnings -D rustdoc::broken-intra-doc-links" \
    cargo doc --no-deps --workspace

step "doctests"
cargo test --doc --workspace -q

step "source lint (SAFETY comments, obs names, wall-clock)"
cargo run --release -q -p hchol-analyze --bin lint

step "schedule analyzer (races + ABFT protocol conformance, all schemes)"
cargo run --release -q -p hchol-analyze --bin analyze > /dev/null

step "plan checker (static ABFT contract over plan edges, all schemes)"
cargo run --release -q -p hchol-analyze --bin plan_check > /dev/null

step "static fault-coverage sweep (every site proven) -> COVERAGE_static.json"
cargo run --release -q -p hchol-analyze --bin coverage_check > /dev/null
# The sweep is deterministic: a regenerated artifact that differs from the
# committed one means the plans (or the checker) changed.
git diff --exit-code -- COVERAGE_static.json

step "liveness sweep (deadlock-freedom + receive-completeness, all schemes)"
cargo run --release -q -p hchol-analyze --bin liveness_check > /dev/null

# Mutation controls: each deliberately broken plan MUST be caught (the
# mutated run exits nonzero). A passing mutated run means the checker
# went blind, so CI fails on success here.
step "coverage mutation control: stripped verify batch must be caught"
if cargo run --release -q -p hchol-analyze --bin coverage_check -- --mutate=strip-verify > /dev/null 2>&1; then
    echo "mutation control strip-verify NOT caught" >&2; exit 1
fi

step "coverage mutation control: severed ring-recv edge must be caught"
if cargo run --release -q -p hchol-analyze --bin coverage_check -- --mutate=sever-recv > /dev/null 2>&1; then
    echo "mutation control sever-recv NOT caught" >&2; exit 1
fi

step "coverage mutation control: dropped parity refresh must be caught"
if cargo run --release -q -p hchol-analyze --bin coverage_check -- --mutate=drop-parity > /dev/null 2>&1; then
    echo "mutation control drop-parity NOT caught" >&2; exit 1
fi

step "static vs dynamic cross-validation (coverage verdicts vs injection)"
cargo test -q --test coverage_static

step "reduced-precision suite (f32 fault matrix + adaptive-tolerance closure)"
cargo test -q --test fault_matrix
cargo test -q --test precision_properties

step "configuration-space closure (clean plans or typed refusal)"
cargo test -q --test config_space

step "fused-epilogue ABFT suite (plan rewrite, conformance, properties)"
cargo test -q --test fused_abft

step "golden equivalence (default unfused path byte-identical)"
cargo test -q --test golden_equivalence

step "feedback balancer suite (migration, adaptive K, contract re-proof)"
cargo test -q --test balance

step "multi-device sharding suite (bit-identity, device loss, conformance)"
cargo test -q --test shard

# Quick sweeps write target/bench-quick/BENCH_<name>.json; only a full
# run replaces the committed artifact at the repo root.
quick=target/bench-quick

step "kernel bench sweep (quick) -> $quick/BENCH_kernels.json"
cargo bench -p hchol-bench --bench kernels -- --quick

step "fused verification overhead sweep (quick) -> $quick/BENCH_fused.json"
cargo run --release -q -p hchol-bench --bin fused_overhead -- --quick

step "static vs adaptive placement sweep (quick) -> $quick/BENCH_balance.json"
cargo run --release -q -p hchol-bench --bin balance_sweep -- --quick

step "multi-device scaling sweep (quick) -> $quick/BENCH_shard.json"
cargo run --release -q -p hchol-bench --bin shard_sweep -- --quick

step "precision sweep, fixed vs adaptive tolerance (quick) -> $quick/BENCH_precision.json"
cargo run --release -q -p hchol-bench --bin precision_sweep -- --quick

# These four sweeps run on the virtual clock only, so their quick output
# is deterministic and must match the committed artifacts byte for byte
# (BENCH_kernels.json holds wall-clock GFLOP/s and is not compared).
step "deterministic quick sweeps match the committed artifacts"
for name in fused balance shard precision; do
    cmp "$quick/BENCH_$name.json" "BENCH_$name.json"
done

step "artifacts (BENCH_*, COVERAGE_*) conform to the report envelope schema"
cargo run --release -q -p hchol-analyze --bin check_artifacts
cargo run --release -q -p hchol-analyze --bin check_artifacts -- "$quick"

step "the run left the working tree clean"
if [ -n "$(git status --porcelain)" ]; then
    git status --porcelain >&2
    echo "ci.sh modified or created tracked-area files" >&2
    exit 1
fi

step "done"
