#!/usr/bin/env sh
# Offline CI gate for the CrowdLearn workspace. Mirrors the tier-1 verify
# (build + test) and adds formatting and lint gates. Everything runs
# against the vendored path dependencies — no network access required.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> detlint (determinism & hygiene + codec drift, rules D1-D9)"
# The JSON report is a build artifact alongside the bench JSONs; the gate
# still fails on findings, after printing the human-readable diagnostics.
detlint_status=0
cargo run -q -p detlint --offline -- --json > DETLINT_REPORT.json || detlint_status=$?
findings=$(grep -o '"code":' DETLINT_REPORT.json | wc -l | tr -d ' ')
echo "detlint: ${findings} finding(s) -- report in DETLINT_REPORT.json"
if [ "${detlint_status}" -ne 0 ]; then
    cargo run -q -p detlint --offline || true
    exit "${detlint_status}"
fi

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test"
cargo test -q --offline

# Example smokes: every example runs the public API end to end, and those
# with claims (byte-identical resume, tap-vs-report agreement, ...) assert
# them, exiting non-zero on a violation.
for example in quickstart earthquake_response drift_adaptation checkpoint_resume \
    metrics_tap multi_stream adaptive_window chaos; do
    echo "==> example smoke (${example})"
    cargo run -q --release --offline --example "${example}"
done

echo "==> runtime makespan bench (emits BENCH_runtime.json)"
cargo run -q --release --offline -p crowdlearn-bench --bin makespan

echo "==> fleet contention bench (emits BENCH_fleet.json)"
cargo run -q --release --offline -p crowdlearn-bench --bin fleet

echo "==> committee inference bench (emits BENCH_inference.json)"
cargo run -q --release --offline -p crowdlearn-bench --bin inference

echo "==> adaptive window bench (emits BENCH_adaptive.json)"
cargo run -q --release --offline -p crowdlearn-bench --bin adaptive

echo "==> fault injection bench (emits BENCH_faults.json)"
cargo run -q --release --offline -p crowdlearn-bench --bin faults

# perfbench as a correctness smoke, with the command BENCHMARK.json declares:
# its output checks (resume equals uninterrupted, tapped equals untapped,
# stage replay equals Static(1), 1-shard fleet equals bare runtime) exit 1
# on failure. Wall times are printed but not gated.
for workload in paper_stream fleet_contended chaos_checkpoint; do
    echo "==> perfbench correctness smoke (${workload})"
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "${workload}" --seconds 1 --trace 0
done

# Net line count, reported and never gated: every .rs line under crates/,
# src/, tests/ and examples/, and the non-test share of it (files outside
# tests/ and benches/ directories, up to their first `#[cfg(test)]`).
echo "==> rust line count"
rs_total=$(find crates src tests examples -name '*.rs' -not -path '*/vendor/*' \
    -not -path '*/perfbench/*' -exec cat {} + | wc -l | tr -d ' ')
rs_non_test=$(find crates src examples -name '*.rs' -not -path '*/tests/*' \
    -not -path '*/benches/*' -exec awk '
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { nextfile }
        { n++ }
        END { print n }' {} + | awk '{ s += $1 } END { print s }')
echo "rust lines: ${rs_total} (non-test: ${rs_non_test})"

echo "CI green."
