"""Acceptance gate: every monitored guarantee at its pinned tolerance.

One pass/fail line is printed per criterion (run with -s to watch them live).
The same suites back `riccilab verify`.  This module takes about 15 s on a
2-vCPU x86_64 host, about 10 s of it the cigar run; runs are cached across
suites within the session.
"""

import pytest

from riccilab.acceptance import SUITES

_ORDER = list(SUITES)


@pytest.mark.parametrize("suite", _ORDER)
def test_acceptance_suite(suite):
    results = SUITES[suite]()
    assert results, f"suite {suite} produced no criteria"
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(r.line() for r in failed)
