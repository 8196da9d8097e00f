"""Paired parent/change runs of one benchmark workload, with the verdicts a
performance claim needs.

    python3 bench/ab.py --parent DIR --change DIR --workload W --pairs N
                        [--seconds S] [--seed K]

DIR is the root of a checkout.  Pair k runs `perfbench/run.py --trace 0` once
from each checkout's root at seed K + k, for S seconds (default: the
benchmark's run_seconds), alternating which side runs first: the parent on
even pairs, the change on odd ones.  Each run's last output line gives the
median of its iterations for every end-to-end metric in the parent's
BENCHMARK.json.

Per metric it prints each side's median, first and third quartile over the
pairs, the pairs the change won (ties count for neither side), and two
verdicts:

  gain   the change won at least 9/10 of the pairs and its median is better
         than the parent's by more than the parent's interquartile range;
  worse  the change's median is past the metric's relative bound from the
         parent's median.

Beside the verdicts it prints a 95% bootstrap confidence interval of the
median paired change/parent ratio: the pairs are resampled with replacement
10,000 times (stdlib random, fixed seed), and the interval runs from the
2.5th to the 97.5th percentile of the resampled medians.  It does not enter
the verdicts.

A metric whose parent IQR exceeds its bound is flagged as unresolved unless
every change run beat every parent run.  A cpu_s row follows: each run's
median CPU seconds over its untraced iterations, taken from the "perfbench:"
detail line, with medians, quartiles, wins and the interval but no verdict, since
BENCHMARK.json fixes no bound for it.  Last it prints failed/attempted per
side, both perfbench runs and the iterations they report, and exits 1 when a
run failed.

Each run gets its own memory layout, so that a claimed gain is not one
layout's luck (Mytkowicz et al., ASPLOS 2009; Curtsinger and Berger,
ASPLOS 2013).  A random.Random seeded by the pair's seed and the side draws
an environment pad of 0 to PAD_MAX - 1 bytes, the value of AB_LAYOUT_PAD,
which shifts the initial stack, and a glibc.malloc.top_pad of 0 to
TOP_PAD_MAX - 4096 bytes in whole pages, set through GLIBC_TUNABLES (after
any tunables already set), which shifts where the heap grows; riccilab
pins only the mmap and trim thresholds, so the pad still acts.  The
perfbench run and its workers inherit both.  Each run's draw is printed
with its pair.  Running a checkout against itself measures the spread
layout alone gives a metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9
RESAMPLES = 10_000
BOOTSTRAP_SEED = 0
PAD_MAX = 4096
TOP_PAD_MAX = 1 << 21


def quartiles(xs) -> tuple:
    """(q1, median, q3) with the inclusive method; one value is its own
    quartiles."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def ratio_ci(parent, change) -> tuple:
    """(low, high): the 95% percentile bootstrap interval of the median of
    change[k] / parent[k], over RESAMPLES resamplings of the pairs drawn
    from random.Random(BOOTSTRAP_SEED)."""
    ratios = [c / p for p, c in zip(parent, change)]
    rng = random.Random(BOOTSTRAP_SEED)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(RESAMPLES))
    return medians[round(0.025 * (RESAMPLES - 1))], medians[round(0.975 * (RESAMPLES - 1))]


def compare(parent, change, better: str, bound: float) -> dict:
    """The statistics of one metric over paired runs: parent[k] and change[k]
    ran as pair k.  `better` is "lower" or "higher"; `bound` is the relative
    worsening the benchmark allows."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    sign = 1.0 if better == "lower" else -1.0     # signed values: lower is better
    sp, sc = [sign * v for v in parent], [sign * v for v in change]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    wins = sum(c < p for p, c in zip(sp, sc))
    return {"parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
            "wins": wins, "pairs": len(parent), "ratio_ci": ratio_ci(parent, change),
            "gain": wins >= WIN_SHARE * len(parent) and sign * (p_med - c_med) > iqr,
            "worse": sign * (c_med - p_med) > bound * abs(p_med),
            "unresolved": iqr > bound * abs(p_med) and not max(sc) < min(sp)}


def median_cpu_s(stdout: str) -> float | None:
    """The median per-iteration cpu_s of the untraced iterations listed in a
    perfbench run's "perfbench:" detail line; None without such a line or
    iteration."""
    for line in stdout.splitlines():
        if line.startswith("perfbench: "):
            detail = json.loads(line[len("perfbench: "):])
            cpu = [it["cpu_s"] for it in detail["iterations"]
                   if not it["traced"] and it.get("cpu_s") is not None]
            return statistics.median(cpu) if cpu else None
    return None


def layout_env(seed: int, side: str, base: dict) -> tuple:
    """The environment of the `side` run of the pair with seed `seed`: `base`
    with a random environment pad and glibc heap top pad, and the draw as
    "pad=<bytes> top_pad=<bytes>"."""
    rng = random.Random(f"layout:{seed}:{side}")
    pad, top_pad = rng.randrange(PAD_MAX), rng.randrange(0, TOP_PAD_MAX, 4096)
    tunable = f"glibc.malloc.top_pad={top_pad}"
    env = dict(base, AB_LAYOUT_PAD="x" * pad,
               GLIBC_TUNABLES=":".join(filter(None, (base.get("GLIBC_TUNABLES"), tunable))))
    return env, f"pad={pad} top_pad={top_pad}"


def run_side(root: Path, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """One perfbench run from `root` in `env`: its last-line result, or a
    failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, env=env)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["ok"] = proc.returncode == 0 and result.get("correct") is True
    result["cpu_s"] = median_cpu_s(proc.stdout)
    if not result["ok"]:
        sys.stderr.write(f"{root} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return result


def _ci_cell(st: dict) -> str:
    return "[{:.4f}, {:.4f}]".format(*st["ratio_ci"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed", type=int, default=0, help="seed of pair 0")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    declared = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or declared["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = {side: [] for side in sides}
    layouts = []
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        drawn = {}
        for side in order:
            env, drawn[side] = layout_env(args.seed + k, side, os.environ)
            results[side].append(run_side(sides[side], args.workload, args.seed + k,
                                          seconds, env))
        layouts.append(f"pair {k} seed {args.seed + k} ({order[0]} first): "
                       f"parent {drawn['parent']}, change {drawn['change']}")
        print(layouts[-1], file=sys.stderr, flush=True)

    print(f"workload {args.workload}: {args.pairs} pairs of {seconds:g} s, "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}")
    print("\n".join(layouts))
    print(f"{'metric':<12} {'unit':<4} {'parent median [q1, q3]':<28} "
          f"{'change median [q1, q3]':<28} {'wins':>7}  {'ratio 95% CI':<16}  gain  worse")
    for m in declared["end_to_end"]:
        name = m["name"]
        timed = [k for k in range(args.pairs)
                 if all(name in results[s][k]["metrics"] for s in sides)]
        if not timed:
            print(f"{name:<12} no pair measured it")
            continue
        values = {s: [results[s][k]["metrics"][name]["value"] for k in timed] for s in sides}
        st = compare(values["parent"], values["change"], m["better"], m["bound"])
        cells = ["{:.4g} [{:.4g}, {:.4g}]".format(*st[s]) for s in sides]
        note = "  (parent IQR exceeds the bound: unresolved)" if st["unresolved"] else ""
        print(f"{name:<12} {m['unit']:<4} {cells[0]:<28} {cells[1]:<28} "
              f"{st['wins']:>3}/{st['pairs']:<3}  {_ci_cell(st):<16}  "
              f"{'yes' if st['gain'] else 'no':<4}  {'yes' if st['worse'] else 'no'}{note}")
    timed = [k for k in range(args.pairs) if all(results[s][k]["cpu_s"] is not None
                                                 for s in sides)]
    if timed:
        cpu = {s: [results[s][k]["cpu_s"] for k in timed] for s in sides}
        st = compare(cpu["parent"], cpu["change"], "lower", math.inf)
        cells = ["{:.4g} [{:.4g}, {:.4g}]".format(*st[s]) for s in sides]
        print(f"{'cpu_s':<12} {'s':<4} {cells[0]:<28} {cells[1]:<28} "
              f"{st['wins']:>3}/{st['pairs']:<3}  {_ci_cell(st):<16}  -     -     "
              "(no bound: not judged)")

    failed = False
    for side, runs in results.items():
        bad = sum(not r["ok"] for r in runs)
        iters = sum(r["attempted"] for r in runs)
        iter_bad = sum(r["failed"] for r in runs)
        failed |= bad > 0
        print(f"{side}: runs failed/attempted {bad}/{len(runs)}, "
              f"iterations failed/attempted {iter_bad}/{iters}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
