#!/usr/bin/env python3
"""Checks that BENCHMARK.json and the benchmark binary agree.

Usage: check_benchmark_json.py <path/to/e2ebench> <path/to/BENCHMARK.json>

The workload names, the end-to-end metrics (name and unit) and the
per-layer metrics (name and unit) the binary reports must be exactly the
ones BENCHMARK.json declares, in the same order.
"""

import json
import subprocess
import sys


def main(binary, spec_path):
    with open(spec_path) as f:
        spec = json.load(f)
    out = subprocess.run([binary, "--list-metrics"], capture_output=True,
                         text=True, check=True).stdout
    listed = {"end_to_end": [], "per_layer": []}
    for line in out.splitlines():
        kind, name, unit = line.split()
        listed[kind].append((name, unit))
    ok = True
    for kind in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in spec[kind]]
        if want != listed[kind]:
            print(f"{kind} differs:\n  BENCHMARK.json {want}\n"
                  f"  binary         {listed[kind]}")
            ok = False
    workloads = [w["name"] for w in spec["workloads"]]
    if workloads != ["mt_stream", "mlp_serve", "mt_beam"]:
        print(f"unexpected workloads {workloads}")
        ok = False
    print("BENCHMARK.json matches the binary" if ok else "mismatch")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
