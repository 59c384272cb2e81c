#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny] [--pins FILE]
                             [--write-pins FILE]

Run from the root of a checkout.  The first call configures and builds
perfbench/ (the pracleak library from ../src plus the benchmark program)
as an optimised Release build under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls only rebuild what changed.
The benchmark's last stdout line is the result object; before printing
it, this script checks that it names exactly the metrics BENCHMARK.json
declares for the pass (end_to_end untraced, per_layer traced) with the
declared units.  The exit code is the benchmark's, or 1 when the build
or that check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"


def build():
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return out / "perfbench"


def check_metrics(result, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = declared["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in table}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: "
                 f"missing {missing}, extra {extra}, unit mismatch {units}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--size", default="full")
    parser.add_argument("--pins", default=str(PINS))
    parser.add_argument("--write-pins")
    args = parser.parse_args()

    binary = build()
    command = [str(binary), "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--size", args.size, "--pins", args.pins]
    if args.write_pins:
        command += ["--write-pins", args.write_pins]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if not lines:
        sys.exit(done.returncode or 1)
    result = json.loads(lines[-1])
    check_metrics(result, args.trace == "1")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
