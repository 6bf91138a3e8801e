#!/usr/bin/env bash
# Tier-1 gate: everything CI enforces, runnable locally.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all --check
# Benches must keep compiling (full runs stay manual; see
# BENCH_control_plane.json for the recorded numbers).
cargo bench --workspace --no-run
# Smoke-run the multi-job control-plane bench (small fleets, minimal
# sampling) so the sharded path is exercised end to end, not just
# compiled.
JOCKEY_BENCH_SMOKE=1 cargo bench -p jockey-bench --bench control_plane
# Smoke-run the simulation-kernel bench so both queue backends (heap
# and adaptive), the dense/sparse engine regimes, the dyn/enum
# sampling pair and the C(p, a) table path all execute.
JOCKEY_BENCH_SMOKE=1 cargo bench -p jockey-bench --bench simrt_kernel
# Smoke-run the engine bench: events_per_sec plus both training paths
# (train_one_model and the dense-kernel train_one_model_batched)
# execute end to end on the adaptive-queue default.
JOCKEY_BENCH_SMOKE=1 cargo bench -p jockey-bench --bench engine
# Smoke-run the service NFR bench: the open-loop driver end to end
# (multi-threaded admission, churn, drain; recorded numbers live in
# BENCH_service.json). The bench asserts zero leaked reservations.
JOCKEY_BENCH_SMOKE=1 cargo bench -p jockey-bench --bench service
# Smoke-run the online-model NFR bench: absorb, store-publish and
# window-retrain on a live C(p, a) (recorded numbers live in
# BENCH_online.json; the 20x absorb-vs-retrain floor is asserted by
# the full run).
JOCKEY_BENCH_SMOKE=1 cargo bench -p jockey-bench --bench online
# Legacy-model gate: the flat (no-topology) training path must stay
# bit-identical across the topology/scenario work. The example prints
# an FNV-1a digest of a fixed-seed C(p, a) table.
cargo run --release -p jockey-core --example train_digest \
  | grep -qx 'digest=39c32f08b9cd7eea' \
  || { echo "tier1: flat-model training digest drifted from 39c32f08b9cd7eea" >&2; exit 1; }
# Multi-job example: the offline arbitrate split plus a live run whose
# jobs enter a ControlPlane through admission (each prints admitted or
# refused, then met, missed or incomplete).
cargo run --release --example multi_job_arbiter \
  || { echo "tier1: multi_job_arbiter example failed" >&2; exit 1; }
# Scenario-engine smoke: the registry lists by name and one named
# scenario runs end to end (topology build, retrain, controlled runs).
./target/release/jockey-cli scenario list | grep -q 'hetero-mix' \
  || { echo "tier1: scenario registry missing hetero-mix" >&2; exit 1; }
./target/release/jockey-cli scenario hetero-mix --seed 7 --runs 1 \
  || { echo "tier1: scenario smoke run failed" >&2; exit 1; }
# Speculation smoke: the heavy-tailed straggler scenario runs end to
# end — workload shaping, C(p, a, s) training under clone-on-slow,
# and a speculative controlled run.
./target/release/jockey-cli scenario list | grep -q 'straggler' \
  || { echo "tier1: scenario registry missing straggler" >&2; exit 1; }
./target/release/jockey-cli scenario straggler --seed 7 --runs 1 \
  || { echo "tier1: straggler scenario smoke run failed" >&2; exit 1; }
# Golden-digest gate: run cheap figures (including the scenario and
# speculation sweeps) through the pipeline CLI at smoke scale
# (parallel) and diff their emitted-TSV digests against the committed
# goldens, making "byte-identical to baseline" a regression gate
# instead of a manual check.
golden_out="$(mktemp -d)"
trap 'rm -rf "$golden_out"' EXIT
JOCKEY_SCALE=smoke JOCKEY_SEED=42 \
  ./target/release/jockey-repro --only table2,fig1,scenarios,speculation --jobs 2 \
  --out "$golden_out" --digests \
  | grep '^digest' | cut -f2,3 \
  | diff <(grep -v '^#' crates/experiments/tests/golden_smoke_digests.tsv) - \
  || { echo "tier1: smoke digests drifted from golden_smoke_digests.tsv" >&2; exit 1; }
echo "tier1: OK"
