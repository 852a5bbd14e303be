#!/usr/bin/env python3
"""Checks that the benchmark's declarations agree with each other.

Every metric the program can print (``perfbench --list-metrics``) is
declared in BENCHMARK.json with the same unit, and every declared metric is
printed; perfbench/config.json names accuracy bounds for every workload
and says, for every per-layer metric, which end-to-end metric and workload
it should move.

Usage: test_names.py PATH_TO_PERFBENCH_BINARY
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def main() -> int:
    binary = sys.argv[1]
    printed = json.loads(
        subprocess.run([binary, "--list-metrics"], check=True,
                       capture_output=True, text=True).stdout)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((HERE.parent / "config.json").read_text())
    errors = []

    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in bench[kind]}
        emitted = {m["name"]: m["unit"] for m in printed[kind]}
        for name, unit in emitted.items():
            if name not in declared:
                errors.append(f"{kind}: {name} printed but not declared")
            elif declared[name] != unit:
                errors.append(f"{kind}: {name} unit {unit} != {declared[name]}")
        for name in declared:
            if name not in emitted:
                errors.append(f"{kind}: {name} declared but never printed")

    workloads = [w["name"] for w in bench["workloads"]]
    # A layer metric moves a bounded end-to-end metric or one of the
    # wall-clock end-to-end figures the traced run reports.
    movable = {m["name"] for m in bench["end_to_end"]} | {
        "setup_wall_s", "corrections_per_s", "correction_p50_us",
        "correction_p90_us", "correction_p99_us", "push_p90_us",
        "push_p99_us"}
    for w in workloads:
        if w not in config["accuracy_bounds"]:
            errors.append(f"config.json: no accuracy bound for {w}")
    for name in {m["name"] for m in bench["per_layer"]}:
        target = config["layer_map"].get(name)
        if target is None:
            errors.append(f"config.json: layer_map lacks {name}")
            continue
        for moved in target["moves"]:
            if moved not in movable:
                errors.append(f"layer_map[{name}] moves unknown {moved}")
        for w in target["workloads"]:
            if w not in workloads:
                errors.append(f"layer_map[{name}] names unknown workload {w}")
    for name in config["layer_map"]:
        if name not in {m["name"] for m in bench["per_layer"]}:
            errors.append(f"config.json: layer_map names undeclared {name}")

    for e in errors:
        print(e, file=sys.stderr)
    if not errors:
        print("perfbench names: declarations agree")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
