#!/usr/bin/env bash
# Event-vs-lockstep scheduler perf smoke (CI gate).
#
# Runs the eventqueue_benchmark scenario at a reduced horizon and
# fails when the event scheduler's sweep speedup drops below the
# checked-in floor, when any sweep point's statistics diverge from
# lockstep, or when the same-defense replay stops being bit-identical
# to its recording.  The floor is deliberately far below the numbers
# in results/eventqueue_bench.json (shared CI runners are noisy); it
# exists to catch the scheduler regressing to lockstep-equivalent
# cost, not to pin the exact speedup.
#
# Also archives the scheduler-efficiency counters (ticks fired vs
# cycles jumped, nextWorkAt cache behaviour, banks evaluated, queue
# occupancy) from a defense_matrix_perf smoke run next to OUT_JSON,
# so CI keeps a history of how much work the event scheduler
# actually skips.
#
# usage: perf_smoke.sh [BUILD_DIR [OUT_JSON]]
#   PERF_SMOKE_FLOOR    minimum sweep speedup   (default 2.0)
#   PERF_SMOKE_MEASURE  measured cycles per recording (default 60000)
set -euo pipefail

build=${1:-build}
out=${2:-$(mktemp -t perf_smoke.XXXXXX.json)}
floor=${PERF_SMOKE_FLOOR:-2.0}
measure=${PERF_SMOKE_MEASURE:-60000}
sched_out=${out%.json}_sched.json

"$build/pracbench" run eventqueue_benchmark --jobs 1 --quiet \
    --no-table --set "measure=$measure" --out "$out"

python3 - "$out" "$floor" <<'EOF'
import json
import sys

document = json.load(open(sys.argv[1]))
floor = float(sys.argv[2])
summary = document["summary"][0]
speedup = summary["speedup"]
print(f"perf_smoke: sweep speedup {speedup:.2f}x "
      f"(lockstep {summary['sweep_lockstep_seconds']:.2f}s, "
      f"event {summary['sweep_event_seconds']:.2f}s), "
      f"floor {floor:.2f}x")

failures = []
if summary["non_identical_points"] != 0:
    failures.append(f"{summary['non_identical_points']} sweep "
                    f"points diverged from lockstep statistics")
if not summary["all_bit_identical"]:
    failures.append("same-defense replay is not bit-identical "
                    "to its recording")
if speedup < floor:
    failures.append(f"speedup {speedup:.2f}x is below the "
                    f"floor {floor:.2f}x")
for failure in failures:
    print(f"perf_smoke: FAIL: {failure}")
sys.exit(1 if failures else 0)
EOF

"$build/pracbench" run defense_matrix_perf --smoke --jobs 1 --quiet \
    --no-table --out "$sched_out"

python3 - "$sched_out" <<'EOF'
import json
import sys

document = json.load(open(sys.argv[1]))
rows = document["rows"]
failures = []
for row in rows:
    ticks = row["ticks_fired"]
    jumped = row["cycles_jumped"]
    label = f"{row['mitigation']}/{row['entry']}"
    print(f"perf_smoke: sched {label}: {ticks} ticks fired, "
          f"{jumped} cycles jumped, "
          f"{row['nextwork_cache_hits']} nextWorkAt cache hits, "
          f"{row['nextwork_rebuilds']} rebuilds, "
          f"{row['banks_evaluated']} banks evaluated")
    if ticks <= 0:
        failures.append(f"{label}: no ticks fired")
    if jumped <= 0:
        failures.append(f"{label}: event scheduler jumped no cycles "
                        "(lockstep-equivalent cost)")
    if "queue_occupancy" not in row:
        failures.append(f"{label}: missing queue_occupancy histogram")
for failure in failures:
    print(f"perf_smoke: FAIL: {failure}")
sys.exit(1 if failures else 0)
EOF
