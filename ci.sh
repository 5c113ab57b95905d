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
# The JSON report is a build artifact; the gate still fails on findings,
# after printing the human-readable diagnostics.
detlint_status=0
cargo run -q -p detlint --offline -- --json > DETLINT_REPORT.json || detlint_status=$?
findings=$(grep -o '"code":' DETLINT_REPORT.json | wc -l | tr -d ' ')
echo "detlint: ${findings} finding(s) -- report in DETLINT_REPORT.json"
if [ "${detlint_status}" -ne 0 ]; then
    cargo run -q -p detlint --offline || true
    exit "${detlint_status}"
fi

# Intra-doc links: a deleted type that a doc comment still links to fails
# here. The vendored stand-ins under vendor/ are not held to it.
echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline \
    --exclude proptest --exclude rand --exclude serde --exclude serde_derive

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test"
test_started=$(date +%s)
cargo test -q --offline
test_secs=$(( $(date +%s) - test_started ))

# The root package's tests above do not reach the member crates' own tests
# (the runtime's window-1 golden pin, the GBDT golden digests, every crate's
# check-vs-decoder agreement test, the experiments' reuse test).
echo "==> cargo test (workspace crates, release)"
cargo test --workspace --release --exclude crowdlearn-suite -q --offline

# The GBDT fit grows each round's class trees on up to one thread per
# class. Pinned to one CPU (an affinity for this process only), the fit
# takes its one-worker path, which must meet the same digests.
echo "==> CQC boot pins and GBDT goldens on one CPU"
taskset -c 0 cargo test --release -q --offline -p crowdlearn --lib cqc::tests::boot_cqc
taskset -c 0 cargo test --release -q --offline -p crowdlearn-gbdt --test golden

# Every paper table and figure and the runtime sections (pipelining, fleet
# contention, adaptive window, outage degradation): the binary asserts each
# shape claim (exit non-zero on a violation), and its deterministic output
# must match the committed transcript byte for byte.
echo "==> experiments (diff against crates/bench/experiments.txt)"
experiments_out=$(mktemp)
trap 'rm -f "${experiments_out}"' EXIT
cargo run -q --release --offline -p crowdlearn-bench --bin experiments > "${experiments_out}"
diff -u crates/bench/experiments.txt "${experiments_out}"

# Example smokes: every example runs the public API end to end, and those
# with claims (byte-identical resume, tap-vs-report agreement, ...) assert
# them, exiting non-zero on a violation.
for example in quickstart earthquake_response incentive_tuning quality_control \
    drift_adaptation checkpoint_resume metrics_tap multi_stream adaptive_window chaos; do
    echo "==> example smoke (${example})"
    cargo run -q --release --offline --example "${example}"
done

# perfbench as a correctness smoke, with the command BENCHMARK.json declares:
# its output checks (resume equals uninterrupted, tapped equals untapped,
# stage replay equals Static(1), 1-shard fleet equals bare runtime) exit 1
# on failure. Wall times are printed but not gated. `--locked` fails the
# step when a dependency change would rewrite perfbench/Cargo.lock.
for workload in paper_stream fleet_contended chaos_checkpoint; do
    echo "==> perfbench correctness smoke (${workload})"
    cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "${workload}" --seconds 1 --trace 0
done

# Net line count and the debug `cargo test` step's wall seconds, reported
# and never gated: every .rs line under crates/, src/, tests/ and
# examples/, and the non-test share of it (files outside tests/ and
# benches/ directories, up to their first `#[cfg(test)]`).
echo "==> rust line count"
rs_total=$(find crates src tests examples -name '*.rs' -not -path '*/vendor/*' \
    -not -path '*/perfbench/*' -exec cat {} + | wc -l | tr -d ' ')
rs_non_test=$(find crates src examples -name '*.rs' -not -path '*/tests/*' \
    -not -path '*/benches/*' -exec awk '
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { nextfile }
        { n++ }
        END { print n }' {} + | awk '{ s += $1 } END { print s }')
echo "rust lines: ${rs_total} (non-test: ${rs_non_test}); debug cargo test: ${test_secs} s"

# The one wall-clock gate, run last so host noise cannot hide the steps
# above: batched committee inference must beat the per-image loop by the
# bound the binary asserts, measured as the median of scalar/batch pairs
# that alternate which side runs first. A failure still fails the script.
echo "==> committee inference bench"
cargo run -q --release --offline -p crowdlearn-bench --bin inference

echo "CI green."
