"""The paired-run statistics of bench/ab.py on fixed numbers."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from ab import (PAD_MAX, TOP_PAD_MAX, compare, layout_env, median_cpu_s,  # noqa: E402
                quartiles, ratio_ci)

PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]


def test_quartiles_inclusive():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_gain_needs_nine_wins_and_a_gap_past_the_parent_iqr():
    # parent median 12.25, q1 11.125, q3 13.375: IQR 2.25
    st = compare(PARENT, [p - 3.0 for p in PARENT], "lower", 0.1)
    assert st["parent"] == (12.25, 11.125, 13.375)
    assert st["change"] == (9.25, 8.125, 10.375)
    assert st["wins"] == 10 and st["gain"] and not st["worse"]
    # every pair won, but a gap of 2.0 is inside the IQR
    st = compare(PARENT, [p - 2.0 for p in PARENT], "lower", 0.1)
    assert st["wins"] == 10 and not st["gain"]
    # a gap of 3.0, but two pairs lost: 8/10 wins
    change = [p - 3.0 for p in PARENT]
    change[0], change[5] = 10.0, 11.0
    st = compare(PARENT, change, "lower", 0.1)
    assert st["wins"] == 8 and not st["gain"]


def test_ties_count_for_neither_side():
    change = [p - 3.0 for p in PARENT]
    change[3] = PARENT[3]
    st = compare(PARENT, change, "lower", 0.1)
    assert st["wins"] == 9 and st["gain"]


def test_worse_past_the_relative_bound_either_direction():
    # lower is better: 12.25 * 1.1 = 13.475
    assert compare(PARENT, [p + 1.2 for p in PARENT], "lower", 0.1)["worse"] is False
    assert compare(PARENT, [p + 1.3 for p in PARENT], "lower", 0.1)["worse"] is True
    # higher is better: a lower change median is the worse one
    st = compare(PARENT, [p - 1.3 for p in PARENT], "higher", 0.1)
    assert st["worse"] and st["wins"] == 0 and not st["gain"]
    st = compare(PARENT, [p + 3.0 for p in PARENT], "higher", 0.1)
    assert st["gain"] and not st["worse"]


def test_unresolved_when_the_parent_spread_exceeds_the_bound():
    # parent IQR 2.25 on a 12.25 median is 18%, past a 10% bound
    assert compare(PARENT, [p + 0.1 for p in PARENT], "lower", 0.1)["unresolved"]
    # unless every change run beats every parent run
    assert not compare(PARENT, [9.0] * 10, "lower", 0.1)["unresolved"]
    assert not compare(PARENT, PARENT, "lower", 0.25)["unresolved"]


def test_ratio_ci_brackets_the_median_paired_ratio():
    # equal ratios: every resampled median is that ratio
    assert ratio_ci(PARENT, [p / 2 for p in PARENT]) == (0.5, 0.5)
    assert compare(PARENT, [p / 2 for p in PARENT], "lower", 0.1)["ratio_ci"] == (0.5, 0.5)
    # ratios 0.60..0.69, median 0.645: the interval holds the median, lies
    # within the ratios and is the same on every call
    change = [0.60 + 0.01 * k for k in range(10)]
    lo, hi = ratio_ci([1.0] * 10, change)
    assert 0.60 <= lo < 0.645 < hi <= 0.69
    assert ratio_ci([1.0] * 10, change) == (lo, hi)
    # one wild pair moves a resampled median only when drawn five times or
    # more, about 0.2% of the resamples: the interval stays where it was
    wild = change[:-1] + [100.0]
    assert ratio_ci([1.0] * 10, wild)[1] <= 0.69
    assert ratio_ci([2.0], [1.0]) == (0.5, 0.5)


def test_unpaired_values_rejected():
    with pytest.raises(ValueError):
        compare([1.0, 2.0], [1.0], "lower", 0.1)
    with pytest.raises(ValueError):
        compare([], [], "lower", 0.1)


def test_cpu_s_is_the_median_of_the_untraced_iterations():
    detail = {"workload": "cigar", "seed": 0, "attempted": 5, "failed": 1,
              "iterations": [
                  {"traced": False, "ok": True, "cpu_s": 1.5, "wall_s": 1.6},
                  {"traced": True, "ok": True, "cpu_s": 9.0, "wall_s": 9.1},
                  {"traced": False, "ok": True, "cpu_s": 1.25, "wall_s": 1.3},
                  {"traced": False, "ok": False, "cpu_s": None, "wall_s": None},
                  {"traced": False, "ok": True, "cpu_s": 1.75, "wall_s": 1.8}]}
    stdout = ("iteration log\nperfbench: " + json.dumps(detail) + "\n"
              + json.dumps({"correct": False, "metrics": {}}) + "\n")
    assert median_cpu_s(stdout) == 1.5
    assert median_cpu_s(json.dumps({"correct": True}) + "\n") is None
    detail["iterations"] = [it for it in detail["iterations"] if it["traced"]]
    assert median_cpu_s("perfbench: " + json.dumps(detail)) is None


def test_layout_env_is_a_seeded_draw_per_pair_and_side():
    base = {"PATH": "/bin"}
    env, drawn = layout_env(7, "parent", base)
    assert layout_env(7, "parent", base) == (env, drawn)
    assert base == {"PATH": "/bin"} and env["PATH"] == "/bin"
    pad, top_pad = (int(part.split("=")[1]) for part in drawn.split())
    assert drawn == f"pad={pad} top_pad={top_pad}"
    assert env["AB_LAYOUT_PAD"] == "x" * pad
    assert env["GLIBC_TUNABLES"] == f"glibc.malloc.top_pad={top_pad}"
    # every draw lies in range, top pads in whole pages, and the draws vary
    # with the seed and the side
    draws = [layout_env(seed, side, base)[1] for seed in range(40)
             for side in ("parent", "change")]
    pads = [[int(part.split("=")[1]) for part in d.split()] for d in draws]
    assert all(0 <= p < PAD_MAX and 0 <= t < TOP_PAD_MAX and t % 4096 == 0
               for p, t in pads)
    assert len(set(draws)) == len(draws)


def test_layout_env_keeps_tunables_already_set():
    env, drawn = layout_env(3, "change", {"GLIBC_TUNABLES": "glibc.malloc.arena_max=1"})
    top_pad = drawn.split("top_pad=")[1]
    assert env["GLIBC_TUNABLES"] == f"glibc.malloc.arena_max=1:glibc.malloc.top_pad={top_pad}"
