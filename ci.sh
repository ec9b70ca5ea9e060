#!/usr/bin/env bash
# Full offline CI gate. Every step is a cargo command that fails by exit
# code; every assertion lives in a Rust test or in a bin that checks itself.
# The workspace has no registry dependencies, so --offline must always work.
# Nothing here times anything: performance claims are held against
# `benchmark/` (BENCHMARK.json), and a run leaves `git status` clean.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build"
cargo build --release --offline --workspace

echo "== tests (unit, integration, and the process-level gates:"
echo "   crates/server/tests/serve_process.rs, crates/bench/tests/cli_gates.rs)"
cargo test -q --offline --workspace

echo "== simulator loop advance vs stepping (release: float rounding and inlining as shipped)"
cargo test -q --release --offline -p pphw-sim
cargo test -q --release --offline --test sim_jump --test golden_equivalence

echo "== per-pass verifier switched on by PPHW_VERIFY (release: the only profile where it decides)"
PPHW_VERIFY=1 cargo test -q --release --offline --test differential --test verify -- \
  gemm_differential deep_verifier_runs_after_every_tiling_pass

echo "== benchmark/ self-checks (every workload at 1/100 scale, exact metrics repeat)"
# Cargo rewrites benchmark/Cargo.lock when a workspace crate has gained a
# dependency edge the lock does not record yet; the lock belongs to
# benchmark/, so it is put back however the run ends.
cp benchmark/Cargo.lock target/benchmark-Cargo.lock
trap 'cp target/benchmark-Cargo.lock benchmark/Cargo.lock' EXIT
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== self-checking bins, release profile"
cargo run --release --offline -p pphw-bench --bin verify -- --max-severity none
cargo run --release --offline -p pphw-bench --bin dse -- --quick --threads 2
cargo run --release --offline -p pphw-bench --bin faults
cargo run --release --offline -p pphw-bench --bin tables -- --ablation

echo "== fuzz smokes on seeds the workspace run did not use"
PPHW_PROP_SEED=0xC1C1C1C1 PPHW_PROP_CASES=64 \
  cargo test -q --offline --test robustness fuzzed_pipeline_returns_errors_never_panics
PPHW_PROP_SEED=0xF0F0F0F0 PPHW_PROP_CASES=64 \
  cargo test -q --offline --test frontend_fuzz
PPHW_PROP_SEED=0xA5A5A5A5 PPHW_PROP_CASES=64 \
  cargo test -q --offline --test frontend_roundtrip random_programs_round_trip

echo "== fmt, clippy"
cargo fmt --all -- --check
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "CI OK"
