"""Acceptance gate: every monitored guarantee at its pinned tolerance.

One pass/fail line is printed per criterion (run with -s to watch them live).
The same suites back `riccilab verify`.  This module takes about 15 s on a
2-vCPU x86_64 host, about 10 s of it the cigar run; runs are cached across
suites within the session.
"""

import math

import pytest

from riccilab.acceptance import SUITES, _order

_ORDER = list(SUITES)


@pytest.mark.parametrize("sizes", [(64, 128), (65, 129, 257)])
@pytest.mark.parametrize("p", [0.5, 1.5, 2.0, 3.7])
def test_order_of_an_exact_power_law(sizes, p):
    # errors C n^-p give order p; on a doubling pair, the log2 ratio of the errors
    errors = [3.0 * n ** -p for n in sizes]
    assert abs(_order(sizes, errors) - p) <= 1e-12
    if len(sizes) == 2:
        assert abs(_order(sizes, errors) - math.log2(errors[0] / errors[1])) <= 1e-12


@pytest.mark.parametrize("suite", _ORDER)
def test_acceptance_suite(suite):
    results = SUITES[suite]()
    assert results, f"suite {suite} produced no criteria"
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(r.line() for r in failed)
