"""riccilab benchmark: wall time to a fixed simulated horizon on three scenario
workloads, with a traced per-module breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports riccilab from src/.  Every
iteration is a fresh child interpreter (perfbench/worker.py), started one at a
time with single-threaded BLAS, that parses and builds the workload's
scenario, runs it, writes the run directory and checks the results.
Iterations repeat until S seconds are spent, at least three per mode.

With --trace 0 the last output line holds the end-to-end metrics named in
BENCHMARK.json, each the median over the iterations.  With --trace 1 the
driver alternates untraced and traced iterations and the last line holds the
per-layer metrics, each the median over the traced iterations.  The line
before it, prefixed "perfbench:", gives every iteration's samples, every
named metric, the monitors.csv digest and the machine.  Run directories,
generated inputs and the last traced run's spans go under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spans import LAYER_UNITS
from workloads import WORKLOADS, scenario_text

HERE = Path(__file__).resolve().parent
MIN_PER_MODE = 3
CHILD_TIMEOUT_S = 90
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, input_path: Path, out: Path, traced: bool, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--input", str(input_path), "--out", str(out)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(now())], env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": traced,
                "failures": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"ok": False, "failures": [f"exit {proc.returncode} without a result"]}
    if not result["ok"]:
        sys.stderr.write(proc.stderr[-4000:])
        print("iteration failed: " + "; ".join(result["failures"]), file=sys.stderr)
    result["traced"] = traced
    return result


def machine(results) -> dict:
    caches = {}
    for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            out = ""
        caches[name.lower()] = int(out) if out.isdigit() else None
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": next((r["numpy"] for r in results if "numpy" in r), None),
            "machine": platform.machine(), **caches}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "riccilab" / "__init__.py").is_file():
        print(f"no riccilab package under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]

    out = root / ".perfbench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    input_path = out / "input.cfg"
    input_path.write_text(scenario_text(WORKLOADS[args.workload], args.seed))
    env = child_env(root)
    # compile the package's bytecode and warm the file cache before timing
    warm = subprocess.run([sys.executable, "-c", "import riccilab.outputs, riccilab.blowup"],
                          env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if warm.returncode != 0:
        print(f"cannot import riccilab from src/:\n{warm.stderr}", file=sys.stderr)
        return 2

    modes = (False, True) if args.trace else (False,)
    results: list[dict] = []
    start, last = now(), 0.0
    while True:
        done = [sum(r["traced"] == m for r in results) for m in modes]
        if min(done) >= MIN_PER_MODE and now() - start + last > args.seconds:
            break
        t = now()
        results.append(run_child(args, input_path, out,
                                 modes[len(results) % len(modes)], env))
        last = now() - t

    # every run of one code version and seed must write the same monitors.csv
    digests = Counter(r["digest"] for r in results if "digest" in r)
    digest = digests.most_common(1)[0][0] if digests else None
    for r in results:
        if "digest" in r and r["digest"] != digest:
            r["ok"] = False
            r["failures"].append("monitors.csv digest differs from the other runs")
    failed = sum(not r["ok"] for r in results)
    # a run whose checks failed still reached its horizon and is timed
    plain = [r for r in results if "wall_s" in r and not r["traced"]]
    traced = [r for r in results if "layers" in r]
    if not plain or (args.trace and not traced):
        print("no iteration reached its horizon; see the failures above", file=sys.stderr)
        return 1

    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "error_rate": failed / len(results),
    }
    units = dict(E2E_UNITS)
    if args.trace:
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
        metrics["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced) / metrics["wall_s"] - 1.0)
        units.update(LAYER_UNITS)

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": len(results), "failed": failed,
        "monitors_csv_sha256": digest,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "iterations": [{k: r.get(k) for k in ("traced", "ok", "failures", "wall_s",
                                              "cpu_s", "setup_s", "peak_rss_mb", "n_steps")}
                       for r in results],
        "machine": machine(results),
    }
    (out / "report.json").write_text(json.dumps(detail, indent=1) + "\n")
    print("perfbench: " + json.dumps(detail))
    for m in section:
        if units[m["name"]] != m["unit"]:
            raise ValueError(f"BENCHMARK.json gives {m['name']} in {m['unit']}, "
                             f"the benchmark measures {units[m['name']]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in section},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
