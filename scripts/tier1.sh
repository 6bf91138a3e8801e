#!/usr/bin/env bash
# Tier-1 gate: everything CI enforces, runnable locally.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all --check
# Rustdoc gate: a doc link to a renamed, deleted or private item fails
# here instead of rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
# The benchmark package (its own workspace under perfbench/) calls the
# library's public API; its tests fail here, not at benchmark time, if
# a change removes or renames something it uses.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
# Full-scale outcome gate: the benchmark's simulation workloads at
# seed 1 must keep their outcome digests, so "byte-identical" holds at
# full scale and not only for the smoke goldens below.
for gate in train:45c285bffc109a4e slo:d74d82e51fd2a6a7 scenarios:82b130b99cb395b4; do
  workload="${gate%%:*}"
  digest="${gate#*:}"
  out="$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 0.1 --trace 0)"
  grep -q "digest=$digest" <<<"$out" \
    || { echo "tier1: perfbench $workload digest drifted from $digest" >&2; exit 1; }
done
# The service workload runs one plane per available core and digests
# every plane's counts, so its digest depends on the core count. Pinned
# to one CPU it runs one plane, and the digest is the same on every
# machine (859b6d06a5aa0f45 is the two-plane digest of a 2-core run).
service_digest=5c311e8762d1906d
command -v taskset >/dev/null \
  || { echo "tier1: the service digest gate needs taskset (util-linux)" >&2; exit 1; }
# The first CPU this shell may run on (the list reads like "0-3,8").
cpu="$(taskset -pc $$ | sed 's/.*: *//; s/[-,].*//')"
out="$(taskset -c "$cpu" cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
  --workload service --seed 1 --seconds 0.1 --trace 0)"
grep -q "digest=$service_digest" <<<"$out" \
  || { echo "tier1: perfbench service digest drifted from $service_digest" >&2; exit 1; }
# Plane split gate: the perfbench gate above runs only the online,
# pinned path, and no figure golden touches the plane. One service
# driver worker runs deterministically, so every line it prints except
# the wall-clock `throughput:` and `tick latency:` lines is pinned, once
# with per-job closed-form models (`exact`, no pinning) and once with a
# shared online model (`online`, one pinned view per refresh).
service_lines() {
  ./target/release/jockey-cli service --workers 1 --concurrent 128 --budget 192 \
    --jobs 4000 --seed 3 --model "$1" | grep -v '^throughput:\|^tick latency:'
}
diff - <(service_lines exact) <<'EOF' \
  || { echo "tier1: jockey-cli service --model exact counts drifted" >&2; exit 1; }
service: 4000 submitted, 188 admitted (4.7%), 3812 capacity-rejected, 0 infeasible
SLO: 188/188 met (100.0%), 26 mid-flight deadline changes
plane: 8408 ticks, 171 refreshes (49 ticks/refresh), 0 over-committed rounds, peak 84 slots
drain: 0 tokens reserved, 0 jobs active after shutdown
EOF
diff - <(service_lines online) <<'EOF' \
  || { echo "tier1: jockey-cli service --model online counts drifted" >&2; exit 1; }
service: 4000 submitted, 3792 admitted (94.8%), 208 capacity-rejected, 0 infeasible
SLO: 3792/3792 met (100.0%), 541 mid-flight deadline changes
plane: 169401 ticks, 1673 refreshes (101 ticks/refresh), 0 over-committed rounds, peak 128 slots
model: 3792 generations published, 2 drift fires, 0 prior hits / 1 misses
drain: 0 tokens reserved, 0 jobs active after shutdown
EOF
# Benches must keep compiling (full runs stay manual; DESIGN.md §9,
# §10, §12, §13 and §15 hold the recorded numbers).
cargo bench --workspace --no-run
# Smoke-run the multi-job control-plane bench (small fleets, minimal
# sampling) so the sharded path is exercised end to end, not just
# compiled.
JOCKEY_BENCH_SMOKE=1 cargo bench -p jockey-bench --bench control_plane
# Smoke-run the simulation-kernel bench so the event queue's hold
# model, the dense/sparse engine regimes, the enum sampling row and
# the C(p, a) table path all execute.
JOCKEY_BENCH_SMOKE=1 cargo bench -p jockey-bench --bench simrt_kernel
# Smoke-run the engine bench: events_per_sec (plain and speculative)
# and the train_one_model training path execute end to end.
JOCKEY_BENCH_SMOKE=1 cargo bench -p jockey-bench --bench engine
# Smoke-run the service NFR bench: the open-loop driver end to end
# (multi-threaded admission, churn, drain; recorded numbers live in
# DESIGN.md §12). The bench asserts zero leaked reservations.
JOCKEY_BENCH_SMOKE=1 cargo bench -p jockey-bench --bench service
# Smoke-run the online-model NFR bench: absorb, store-publish and
# window-retrain on a live C(p, a) (recorded numbers live in
# DESIGN.md §13; the 20x absorb-vs-retrain floor is asserted by the
# full run).
JOCKEY_BENCH_SMOKE=1 cargo bench -p jockey-bench --bench online
# Legacy-model gate: the flat (no-topology) training path must stay
# bit-identical across the topology/scenario work. The example prints
# an FNV-1a digest of a fixed-seed C(p, a) table, whose exact-mode
# cells have one level each, and a bounded_digest of a capacity-8
# sketch model trained on the same profile, whose serialized cells
# carry upper levels and compaction counters. It runs twice: with one
# training worker per available core, and pinned to one CPU, where
# training runs a single worker inline. Both must print the same
# digests, so the training schedule's thread-count independence is
# gated on a machine of any core count.
for pin in "" "taskset -c $cpu"; do
  out="$($pin cargo run --release -p jockey-core --example train_digest)"
  grep -qx 'digest=39c32f08b9cd7eea' <<<"$out" \
    || { echo "tier1: flat-model training digest drifted from 39c32f08b9cd7eea${pin:+ under $pin}" >&2; exit 1; }
  grep -qx 'bounded_digest=fc165bebcfa7d846' <<<"$out" \
    || { echo "tier1: bounded-sketch model digest drifted from fc165bebcfa7d846${pin:+ under $pin}" >&2; exit 1; }
done
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
# Golden-digest gate: run cheap figures (including the controller
# figures 6, 7, 12 and 13, the extensions table, and the scenario and
# speculation sweeps) through the pipeline CLI at smoke scale
# (parallel) and diff their emitted-TSV digests against the committed
# goldens, making "byte-identical to baseline" a regression gate
# instead of a manual check.
golden_out="$(mktemp -d)"
trap 'rm -rf "$golden_out"' EXIT
JOCKEY_SCALE=smoke JOCKEY_SEED=42 \
  ./target/release/jockey-repro \
  --only table2,fig1,scenarios,speculation,fig6,fig7,fig12,fig13,ext --jobs 2 \
  --out "$golden_out" --digests \
  | grep '^digest' | cut -f2,3 \
  | diff <(grep -v '^#' crates/experiments/tests/golden_smoke_digests.tsv) - \
  || { echo "tier1: smoke digests drifted from golden_smoke_digests.tsv" >&2; exit 1; }
# Full-scale golden gate: every registered experiment at the scale
# EXPERIMENTS.md reports (seed 42; about 5 s on 2 cores), so
# "byte-identical" covers every controller-driven figure at full
# scale, not only the smoke subset above.
JOCKEY_SCALE=full JOCKEY_SEED=42 \
  ./target/release/jockey-repro --jobs 2 --out "$golden_out/full" --digests \
  | grep '^digest' | cut -f2,3 \
  | diff <(grep -v '^#' crates/experiments/tests/golden_full_digests.tsv) - \
  || { echo "tier1: full-scale digests drifted from golden_full_digests.tsv" >&2; exit 1; }
echo "tier1: OK"
