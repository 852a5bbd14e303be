#!/usr/bin/env python3
"""Builds and runs the tofmcl benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the library from ../src plus the benchmark program, Release)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. The
program's human-readable lines ('#' lines: host metadata, host Table I /
Fig 10, checks) are passed through, and the last line of standard output
is one JSON object with exactly the keys correct, attempted, failed and
metrics. Records and span dumps land in .bench_out/.

Exit status: 0 when every check passed, 1 when a check failed (the result
line says correct: false), 2 when the benchmark could not run (no result
line), e.g. when the tofmcl sources are not next to this directory.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
START = time.monotonic()
# A run must end within 180 s, or 900 s when it builds first.
RUN_BUDGET_S = 175
BUILD_RUN_BUDGET_S = 890


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, budget_s, **kwargs):
    """Runs cmd in its own process group; kills the whole group when the
    deadline passes, and always waits for it to end."""
    timeout = budget_s - (time.monotonic() - START)
    if timeout <= 0:
        die(f"no time left to run {cmd[0]}")
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"{cmd[0]} did not finish in time")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    """Configures (once) and builds the benchmark; returns its path and
    whether this call had to build it."""
    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    binary = build_dir / "perfbench"
    fresh = not binary.exists()
    budget = BUILD_RUN_BUDGET_S if fresh else RUN_BUDGET_S
    if not (build_dir / "CMakeCache.txt").exists():
        rc, _ = run_group(["cmake", "-S", str(HERE), "-B", str(build_dir),
                           "-DCMAKE_BUILD_TYPE=Release"], budget,
                          stdout=sys.stderr)
        if rc != 0:
            die("cmake configure failed")
    rc, _ = run_group(["cmake", "--build", str(build_dir), "--target",
                       "perfbench", "--parallel", "4"], budget,
                      stdout=sys.stderr)
    if rc != 0 or not binary.exists():
        die("build failed")
    return binary, fresh


def source_id():
    """The git commit when run from a git checkout, and a digest of the
    library sources either way."""
    commit = "none"
    if (ROOT / ".git").exists():
        try:
            rc, out = run_group(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                RUN_BUDGET_S, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
            if rc == 0:
                commit = out.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return f"commit={commit} src_sha256={digest.hexdigest()[:16]}"


def validate(result, declared):
    """Problems with the result line against the contract and the metrics
    BENCHMARK.json declares for this mode."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = result["metrics"]
    for name, unit in declared.items():
        if name not in metrics:
            problems.append(f"metric {name} missing")
        elif metrics[name].get("unit") != unit:
            problems.append(f"metric {name} unit {metrics[name].get('unit')}")
    for name in metrics:
        if name not in declared:
            problems.append(f"metric {name} not declared in BENCHMARK.json")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"the tofmcl sources are not next to {HERE.name}/")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((HERE / "config.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        die(f"unknown workload {args.workload}")
    if args.seconds < 1 or args.seed < 0:
        die("--seconds must be >= 1 and --seed >= 0")
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[kind]}
    bounds = config["accuracy_bounds"][args.workload]

    binary, fresh = build()
    out_dir = ROOT / ".bench_out"
    rc, out = run_group(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", str(out_dir), "--ate-max", str(bounds["ate_max_m"]),
         "--success-min", str(bounds["success_min"]),
         "--source-id", source_id()],
        BUILD_RUN_BUDGET_S if fresh else RUN_BUDGET_S,
        stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    if rc not in (0, 1) or not lines:
        die(f"benchmark program exited with status {rc}")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("benchmark program printed no result line")
    problems = validate(result, declared)
    if problems:
        for p in problems:
            print(f"# check result_contract FAIL {p}")
        result["correct"] = False
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result.get("correct") is True and rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
