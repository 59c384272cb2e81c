#!/usr/bin/env bash
# CLI contract smoke: the subcommand form of every verb works, the
# removed flat-flag forms are rejected with exit 2 plus a hint naming
# the replacing subcommand, and unknown subcommands / flags /
# scenarios are rejected with exit 2 plus a "did you mean" hint
# instead of being silently ignored.
#
# Usage: scripts/cli_smoke.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  where pracbench lives (default: build)
#   OUT_DIR    scratch space (default: results/cli_smoke)

set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-results/cli_smoke}"
PRACBENCH="${BUILD_DIR}/pracbench"
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

if [[ ! -x "${PRACBENCH}" ]]; then
    echo "error: ${PRACBENCH} not found; build first" >&2
    exit 1
fi

rm -rf "${OUT_DIR}"
mkdir -p "${OUT_DIR}"

# --- a command must FAIL with exit 2 and print the expected hint ---
expect_reject() {
    local needle="$1"
    shift
    local rc=0 output
    output="$("$@" 2>&1)" || rc=$?
    if [[ "${rc}" -ne 2 ]]; then
        echo "error: expected exit 2 from: $* (got ${rc})" >&2
        echo "${output}" >&2
        exit 1
    fi
    if [[ "${output}" != *"${needle}"* ]]; then
        echo "error: expected '${needle}' in output of: $*" >&2
        echo "${output}" >&2
        exit 1
    fi
    echo "    rejected as expected: $*"
}

echo "==> list prints the scenario, mitigation and attacker catalogs"
"${PRACBENCH}" list > "${OUT_DIR}/list.txt"
grep -q "^fig07_tmax_analysis " "${OUT_DIR}/list.txt"
grep -q "^tprac " "${OUT_DIR}/list.txt"

echo "==> run sweeps a scenario named by position"
"${PRACBENCH}" run fig07_tmax_analysis --smoke --quiet --no-table \
    --out "${OUT_DIR}/run.json"
python3 -m json.tool "${OUT_DIR}/run.json" > /dev/null

echo "==> record/replay round-trip"
"${PRACBENCH}" record "${OUT_DIR}/traces" --workload h_rand_heavy \
    --set warmup=2000 --set measure=10000 --quiet
"${PRACBENCH}" replay "${OUT_DIR}/traces/h_rand_heavy.trc" \
    --verify --quiet --no-table --out "${OUT_DIR}/replay.json"
python3 -m json.tool "${OUT_DIR}/replay.json" > /dev/null

echo "==> help exits 0 in both spellings"
"${PRACBENCH}" help > /dev/null
"${PRACBENCH}" --help > /dev/null

echo "==> the removed flat flags are rejected with exit 2 and a hint"
expect_reject "use \`pracbench list\`" "${PRACBENCH}" --list
expect_reject "use \`pracbench run NAME\`" \
    "${PRACBENCH}" --scenario fig07_tmax_analysis --smoke
expect_reject "use \`pracbench record DIR\`" \
    "${PRACBENCH}" --record-trace "${OUT_DIR}/flat_traces" \
    --workload h_rand_heavy
expect_reject "use \`pracbench replay FILE\`" \
    "${PRACBENCH}" --replay "${OUT_DIR}/traces/h_rand_heavy.trc"
expect_reject "name scenarios by position" \
    "${PRACBENCH}" run --scenario fig07_tmax_analysis --smoke

echo "==> typos are rejected with exit 2 and a hint"
expect_reject "did you mean 'merge'" "${PRACBENCH}" mrege
expect_reject "did you mean '--shard'" \
    "${PRACBENCH}" run fig07_tmax_analysis --shrad 0/2
expect_reject "did you mean 'fig07_tmax_analysis'" \
    "${PRACBENCH}" run fig07_tmax_analysiss --smoke
expect_reject "unknown" \
    "${PRACBENCH}" run fig07_tmax_analysis --frobnicate
expect_reject "unknown" "${PRACBENCH}" --scenario nope_not_real

echo "cli smoke passed"
