"""The benchmark's workloads: frozen scenario texts, seed jitter and per-run gates.

Each workload's scenario lives in perfbench/scenarios, so an edit to the
repository's own scenarios/ cannot silently change what is measured.  Seed 0
runs the frozen text as written.  Any other seed scales each listed continuous
shape parameter by an independent factor drawn uniformly from [0.9, 1.1];
grid size, horizon and cadence never change, so the work per run stays
comparable across seeds.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parent / "scenarios"
JITTER = 0.10
_TRAILING_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str                     # file under perfbench/scenarios
    jitter_keys: tuple = ()           # scenario keys a nonzero seed perturbs
    reload: bool = False              # read the run back and rescale it, timed
    required_verdicts: tuple = ()     # summary.json verdicts that must exist and pass
    sup_r_range: tuple | None = None  # every record's sup R must lie in this range


WORKLOADS = {w.name: w for w in (
    Workload("cigar", "cigar.cfg", sup_r_range=(3.92, 4.08)),
    Workload("coupled-torus", "coupled-torus.cfg",
             jitter_keys=("metric.amplitude", "form.main", "subsolution.amplitude"),
             required_verdicts=("gauge.equivalence", "subsolution.mass_inequality")),
    Workload("neck-snapshots", "neck-snapshots.cfg",
             jitter_keys=("metric.dip", "metric.width"), reload=True,
             required_verdicts=("main.length_bound", "main.pairing_invariance")),
)}


def scenario_text(workload: Workload, seed: int) -> str:
    """The scenario text one run parses: the frozen file, with the workload's
    shape parameters jittered when the seed is nonzero."""
    text = (SCENARIOS / workload.scenario).read_text()
    if seed == 0:
        return text
    rng = random.Random(f"{workload.name}:{seed}")
    lines, seen = [], set()
    for line in text.splitlines():
        key = line.partition("=")[0].strip()
        if key in workload.jitter_keys:
            number = _TRAILING_NUMBER.search(line)
            value = float(number.group()) * (1.0 + rng.uniform(-JITTER, JITTER))
            line = line[:number.start()] + repr(value)
            seen.add(key)
        lines.append(line)
    missing = set(workload.jitter_keys) - seen
    if missing:
        raise ValueError(f"{workload.scenario} lacks jittered keys {sorted(missing)}")
    return "\n".join(lines) + "\n"
