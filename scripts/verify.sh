#!/usr/bin/env bash
# Full verification gate: release build, tests, lints, formatting.
# Run from the repository root. Pass --offline-only is implicit: the
# workspace has no registry dependencies, so everything works air-gapped.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline --workspace

echo "==> cargo test"
cargo test -q --offline --workspace

echo "==> storage failover smoke (release, fixed seed)"
cargo test -q --release --offline -p fireflyer --test storage_failover

echo "==> HAI platform full-scale smoke (release, fixed seed)"
cargo test -q --release --offline -p ff-bench --test hai_platform_smoke

echo "==> serving co-schedule smoke (release, fixed seed)"
cargo test -q --release --offline -p ff-bench --test serving_smoke

echo "==> fleet sweep smoke (release, fixed seed, golden digest)"
cargo test -q --release --offline -p ff-bench --test fleet_smoke

echo "==> fleet sweep determinism check (release, vs committed BENCH_fleet.json)"
# Re-runs the small CI grid and compares its digest against the one
# embedded in the committed aggregate. Regenerate with `fleet --write`
# when a PR deliberately moves scenario outcomes.
cargo run -q --release --offline -p ff-bench --bin fleet -- --check

echo "==> gray-failure detector smoke (release, fixed seed, golden digest)"
cargo test -q --release --offline -p ff-bench --test detector_smoke

echo "==> detector sweep determinism check (release, vs committed BENCH_detector.json)"
# Re-runs the sensitivity x slowdown grid and compares its digest against
# the one embedded in the committed aggregate. Regenerate with
# `detector_bench --write` when a PR deliberately moves detection behavior.
cargo run -q --release --offline -p ff-bench --bin detector_bench -- --check

echo "==> fabric transport smoke (release, TCP vs in-mem golden digest)"
cargo test -q --release --offline -p ff-bench --test fabric_smoke

echo "==> fabric transport invariance check (release, vs committed BENCH_fabric.json)"
# Re-proves the small-world trace digest is identical over in-memory
# channels and real localhost TCP, and that the committed artifacts are
# structurally sound. Regenerate with `fabric_bench --write` when a PR
# deliberately changes the collectives' communication schedule.
cargo run -q --release --offline -p ff-bench --bin fabric_bench -- --check

echo "==> fluid solver perf smoke (release, vs committed BENCH_fluid.json)"
# Deterministic solver mix: event count must match the committed baseline
# bit-for-bit, and events/sec must stay within a 20% regression budget.
# Regenerate the artifact with `fluid_bench --write` when a PR moves it.
cargo run -q --release --offline -p ff-bench --bin fluid_bench -- --check

echo "==> benchmark unit tests and collectives smoke (release, bit-exact)"
# Every grad-sync and allreduce-latency operation is compared bit for bit
# with reference_sum: the last JSON line must report correct with no
# failed operation. Timings are not compared.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
for w in grad-sync allreduce-latency; do
  cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$w" --seed 1 --seconds 3 --trace 0 | tail -n 1 | python3 -c "
import json, sys
r = json.load(sys.stdin)
assert r['correct'] is True and r['failed'] == 0, r
print('$w: correct, %d operations checked' % r['attempted'])
"
done

echo "==> cargo clippy -D warnings (ff-platform)"
cargo clippy --offline -p ff-platform --all-targets -- -D warnings

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify.sh: all gates passed"
