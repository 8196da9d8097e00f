"""Scenario configuration: a flat `section.key = value` text format, validation
that collects every problem instead of failing fast, and builders that turn a
spec into an initial state plus flow problem.

Each geometry family is one row of `_FAMILIES`: its grid factory, its default
grid sizes and its initial metric.  Each tracked-form preset is one row of
`_FORM_PRESETS`: "dtheta", "sinx_dx", and "dtheta_dsinx:<c>" which is
dtheta + c d(sin x); all are exactly closed at the stencil level.
"""

from __future__ import annotations

import difflib
import hashlib
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import DegenerateMetricError, ScenarioError
from .flows import FlowProblem, FlowState, IntegratorSpec
from .functionals import ThetaCircle, make_probe
from .geometry import (Grid2D, MetricField, MetricInvariants, OneFormField,
                       conformal_metric, flat_metric, warped_metric)

@dataclass
class FormSpec:
    label: str
    preset: str            # a key of _FORM_PRESETS
    coeff: float = 0.0

    def token(self) -> str:
        if self.preset == "dtheta_dsinx":
            return f"{self.preset}:{self.coeff!r}"
        return self.preset


@dataclass
class ProbeSpec:
    label: str
    form: str
    cycle_x: int | None = None    # None = the grid origin column


@dataclass
class ScenarioSpec:
    name: str = "scenario"
    family: str = "flat-torus"
    nx: int = 0                   # 0 = family default
    ny: int = 0
    lx: float = 0.0
    ly: float = 0.0
    metric_amplitude: float = 0.05    # conformal-torus seed
    metric_outer: float = 2.0         # warped: f = outer - dip * exp(-(x/width)^2)
    metric_dip: float = 1.0
    metric_width: float = 1.0
    forms: list = field(default_factory=list)        # [FormSpec]
    probes: list = field(default_factory=list)       # [ProbeSpec]
    gauge_form: str = ""              # label of the form the gauge flow shadows
    subsolution: str = "none"         # none | one-plus-cos | bump
    sub_amplitude: float = 1.0
    sub_width: float = 2.0
    sink: float = 0.0
    integrator: IntegratorSpec = field(default_factory=IntegratorSpec)
    buffer_threshold: float = 1e-6
    monitor_energy: bool = True


# ------------------------------------------------------------------- key table
def key_value_lines(text: str, problems: list):
    """The (line number, key, value) of each `key = value` line of `text`, in
    order, stripped; blank lines and # comments are skipped.  A line without
    '=' or a key given twice is appended to `problems`, naming its line, and
    skipped."""
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            problems.append(f"line {lineno}: expected 'key = value', got {line!r}")
        elif key in seen:
            problems.append(f"line {lineno}: {key!r} repeats line {seen[key]}")
        else:
            seen[key] = lineno
            yield lineno, key, value.strip()


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "yes", "on", "1"):
        return True
    if s.lower() in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float(s: str) -> float:
    if s.lower() in ("inf", "infinity"):
        return math.inf
    value = float(s)
    if math.isnan(value):
        raise ValueError(f"not a number: {s!r}")
    return value


# key -> (ScenarioSpec field, or integrator.<field>, and the parser of its
# value); parsing and serialize_scenario both walk it, in this order.  The
# tracked forms and the probes take the keys form.<label> and
# probe.<label>.form / .cycle_x, handled beside it.
_KEYS = {
    "name": ("name", str),
    "family": ("family", str),
    "grid.nx": ("nx", int),
    "grid.ny": ("ny", int),
    "grid.lx": ("lx", _parse_float),
    "grid.ly": ("ly", _parse_float),
    "metric.amplitude": ("metric_amplitude", _parse_float),
    "metric.outer_radius": ("metric_outer", _parse_float),
    "metric.dip": ("metric_dip", _parse_float),
    "metric.width": ("metric_width", _parse_float),
    "gauge.form": ("gauge_form", str),
    "subsolution.preset": ("subsolution", str),
    "subsolution.amplitude": ("sub_amplitude", _parse_float),
    "subsolution.width": ("sub_width", _parse_float),
    "subsolution.sink": ("sink", _parse_float),
    "integrator.scheme": ("integrator.scheme", str),
    "integrator.cfl": ("integrator.cfl", _parse_float),
    "integrator.dt_cap": ("integrator.dt_cap", _parse_float),
    "integrator.t_final": ("integrator.t_final", _parse_float),
    "integrator.max_steps": ("integrator.max_steps", int),
    "output.cadence": ("integrator.cadence", int),
    "output.snapshot_every": ("integrator.snapshot_every", int),
    "buffer.threshold": ("buffer_threshold", _parse_float),
    "monitor.energy": ("monitor_energy", _parse_bool),
}


# a parser -> what its keys hold, named, and the types a value may have
_KINDS = {str: ("text", (str,)), int: ("an integer", (int,)),
          _parse_float: ("a number", (int, float)), _parse_bool: ("a boolean", (bool,))}


def _slot(spec: ScenarioSpec, target: str):
    """The object and attribute a key's target names."""
    owner, _, name = target.rpartition(".")
    return (spec.integrator if owner else spec), name


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse and validate; raises ScenarioError carrying every problem found."""
    spec = ScenarioSpec()
    problems, forms, probes = [], {}, {}
    for lineno, key, value in key_value_lines(text, problems):
        try:
            if key in _KEYS:
                target, parse = _KEYS[key]
                setattr(*_slot(spec, target), parse(value))
            elif key.startswith("form.") and key.count(".") == 1:
                label = key.split(".", 1)[1]
                preset, _, coeff = value.partition(":")
                forms[label] = FormSpec(label, preset, float(coeff) if coeff else 0.0)
            elif key.startswith("probe.") and key.endswith((".form", ".cycle_x")):
                label = key.split(".")[1]
                probe = probes.setdefault(label, ProbeSpec(label, ""))
                if key.endswith(".form"):
                    probe.form = value
                else:
                    probe.cycle_x = None if value == "auto" else int(value)
            else:
                near = difflib.get_close_matches(key, list(_KEYS), n=1, cutoff=0.0)
                hint = f" (nearest valid key: {near[0]!r})" if near else ""
                problems.append(f"line {lineno}: unknown key {key!r}{hint}")
        except (ValueError, TypeError) as e:
            problems.append(f"line {lineno}: bad value for {key!r}: {e}")
    spec.forms, spec.probes = list(forms.values()), list(probes.values())

    _fill_defaults(spec)
    problems.extend(validate(spec))
    if problems:
        raise ScenarioError(problems)
    return spec


def _fill_defaults(spec: ScenarioSpec):
    defaults = _FAMILIES.get(spec.family, _FAMILIES["flat-torus"])[1]
    for key, default in zip(("nx", "ny", "lx", "ly"), defaults):
        setattr(spec, key, getattr(spec, key) or default)
    spec.probes.sort(key=lambda p: p.label)
    spec.forms.sort(key=lambda f: f.label)


def validate(spec: ScenarioSpec) -> list:
    """Every problem found; each comparison is written so that NaN fails."""
    # each key holds the type its parser gives, as the checks below compare
    # values; a bool is no count or number, and a flag is a bool alone
    problems = [f"{key} must be {_KINDS[parse][0]}" for key, (target, parse) in _KEYS.items()
                if type(getattr(*_slot(spec, target))) not in _KINDS[parse][1]]
    if problems:
        return problems
    if spec.family not in FAMILIES:
        near = difflib.get_close_matches(spec.family, FAMILIES, n=1)
        hint = f" (did you mean {near[0]!r}?)" if near else ""
        problems.append(f"unknown family {spec.family!r}{hint}")
        return problems
    if not (spec.nx >= 8 and spec.ny >= 8):
        problems.append(f"grid {spec.nx}x{spec.ny} too small (need >= 8 per axis)")
    if not (0 < spec.lx < math.inf and 0 < spec.ly < math.inf):
        problems.append("domain lengths must be positive and finite")
    for key, value in (("metric.amplitude", spec.metric_amplitude),
                       ("metric.outer_radius", spec.metric_outer),
                       ("metric.dip", spec.metric_dip)):
        if not math.isfinite(value):
            problems.append(f"{key} must be finite")
    if spec.family == "warped-cylinder":
        if not spec.metric_outer - spec.metric_dip > 0:
            problems.append(
                f"f not positive: outer_radius - dip = "
                f"{spec.metric_outer - spec.metric_dip:g} <= 0")
        if not spec.metric_width > 0:
            problems.append("neck width must be positive")
    elif math.isnan(spec.metric_width):
        problems.append("metric.width must not be NaN")
    for fs in spec.forms:
        if fs.preset not in _FORM_PRESETS:
            problems.append(f"form {fs.label!r}: unknown preset {fs.preset!r}")
        elif fs.coeff and fs.preset != "dtheta_dsinx":   # which token() would drop
            problems.append(f"form {fs.label!r}: preset {fs.preset!r} takes no coefficient")
        if not math.isfinite(fs.coeff):
            problems.append(f"form {fs.label!r}: coefficient must be finite")
    labels = {fs.label for fs in spec.forms}
    for p in spec.probes:
        if p.form not in labels:
            problems.append(f"probe {p.label!r} references unknown form {p.form!r}")
        if p.cycle_x is not None and type(p.cycle_x) is not int:
            problems.append(f"probe {p.label!r}: cycle_x must be an integer")
        elif p.cycle_x is not None and not (0 <= p.cycle_x < max(spec.nx, 1)):
            problems.append(f"probe {p.label!r}: cycle_x {p.cycle_x} outside the grid")
    if spec.probes and spec.family == "conformal-plane":
        problems.append("theta-circle probes need a periodic theta axis")
    if spec.gauge_form and spec.gauge_form not in labels:
        problems.append(f"gauge form {spec.gauge_form!r} is not tracked")
    if spec.subsolution not in ("none", "one-plus-cos", "bump"):
        problems.append(f"unknown subsolution preset {spec.subsolution!r}")
    if not math.isfinite(spec.sub_amplitude):
        problems.append("subsolution amplitude must be finite")
    if not 0 < spec.sub_width < math.inf:
        problems.append("subsolution width must be positive and finite")
    if not 0 <= spec.sink < math.inf:
        problems.append("subsolution sink must be finite and >= 0")
    if not spec.buffer_threshold > 0:
        problems.append("buffer threshold must be positive")
    problems.extend(spec.integrator.validate())
    return problems


def serialize_scenario(spec: ScenarioSpec) -> str:
    """Canonical text form; parse(serialize(spec)) reproduces the spec."""
    lines = []
    for key, (target, parse) in _KEYS.items():
        value = getattr(*_slot(spec, target))
        if key == "gauge.form" and not value:
            continue                    # no gauge flow
        if parse is _parse_bool:
            value = str(value).lower()
        elif parse is not str:
            value = repr(value)
        lines.append(f"{key} = {value}")
    for fs in spec.forms:
        lines.append(f"form.{fs.label} = {fs.token()}")
    for p in spec.probes:
        lines.append(f"probe.{p.label}.form = {p.form}")
        cyc = "auto" if p.cycle_x is None else str(p.cycle_x)
        lines.append(f"probe.{p.label}.cycle_x = {cyc}")
    return "\n".join(lines) + "\n"


def scenario_hash(spec: ScenarioSpec) -> str:
    return hashlib.sha256(serialize_scenario(spec).encode()).hexdigest()[:16]


# ------------------------------------------------------------------- builders
def _conformal_torus(spec: ScenarioSpec, grid: Grid2D) -> MetricField:
    X, _ = grid.mesh()
    return conformal_metric(grid, spec.metric_amplitude * np.sin(2 * math.pi * X / spec.lx))


def _neck(spec: ScenarioSpec, grid: Grid2D) -> MetricField:
    x = grid.x
    f = spec.metric_outer - spec.metric_dip * np.exp(-(x / spec.metric_width) ** 2)
    return warped_metric(grid, np.ones_like(x), f)


def _cigar(spec: ScenarioSpec, grid: Grid2D) -> MetricField:
    X, T = grid.mesh()
    return conformal_metric(grid, -0.5 * np.log1p(X ** 2 + T ** 2))


# family -> (its grid factory, its default (nx, ny, lx, ly), its initial metric)
_FAMILIES = {
    # periodic x periodic, identity metric (held exactly flat)
    "flat-torus": (Grid2D.torus, (64, 64, 2 * math.pi, 2 * math.pi),
                   lambda spec, grid: flat_metric(grid)),
    # periodic x periodic, u(0) = amplitude * sin(2 pi x / lx)
    "conformal-torus": (Grid2D.torus, (64, 64, 2 * math.pi, 2 * math.pi), _conformal_torus),
    # truncated x, periodic theta; h = 1, f = outer - dip * exp(-(x / width)^2)
    "warped-cylinder": (Grid2D.cylinder, (256, 32, 20.0, 2 * math.pi), _neck),
    # both axes truncated; the cigar profile u = -log(1 + r^2) / 2
    "conformal-plane": (Grid2D.plane, (129, 129, 16.0, 16.0), _cigar),
}
FAMILIES = tuple(_FAMILIES)


def build_geometry(spec: ScenarioSpec) -> tuple[Grid2D, MetricField]:
    """The grid and the initial metric of spec's family, from its row."""
    make_grid, _, make_metric = _FAMILIES[spec.family]
    grid = make_grid(spec.nx, spec.ny, spec.lx, spec.ly)
    return grid, make_metric(spec, grid)


# preset -> its (dx, dtheta) components on the mesh X, with k = 2 pi / lx
_FORM_PRESETS = {
    "dtheta": lambda fs, k, X: (np.zeros_like(X), np.ones_like(X)),
    "sinx_dx": lambda fs, k, X: (np.sin(k * X), np.zeros_like(X)),
    # dtheta + c d(sin kx): the exact gradient is added analytically, so the
    # discrete form is exactly closed
    "dtheta_dsinx": lambda fs, k, X: (fs.coeff * k * np.cos(k * X), np.ones_like(X)),
}


def build_form(fs: FormSpec, grid: Grid2D) -> OneFormField:
    X, _ = grid.mesh()
    return OneFormField(*_FORM_PRESETS[fs.preset](fs, 2 * math.pi / grid.lx, X))


def build_subsolution(spec: ScenarioSpec, grid: Grid2D) -> np.ndarray | None:
    if spec.subsolution == "none":
        return None
    X, _ = grid.mesh()
    if spec.subsolution == "one-plus-cos":
        k = 2 * math.pi / grid.lx
        return spec.sub_amplitude * (1.0 + np.cos(k * X))
    # compactly supported C^1 bump in x; on a tiny width (X / w)^2 overflows
    # to inf off the center, which the clip maps to the right value, 0
    with np.errstate(over="ignore"):
        s = np.clip(1.0 - (X / spec.sub_width) ** 2, 0.0, None)
    return spec.sub_amplitude * s ** 2


@dataclass
class RunSetup:
    name: str
    scenario_hash: str
    state: FlowState
    problem: FlowProblem
    integrator: IntegratorSpec


def build(spec: ScenarioSpec) -> RunSetup:
    problems = validate(spec)
    if problems:
        raise ScenarioError(problems)
    grid, metric = build_geometry(spec)
    try:
        geo = MetricInvariants(metric, grid)
    except DegenerateMetricError as e:     # rejected here, not mid-run
        raise ScenarioError([f"initial {e}"]) from e
    forms = {fs.label: build_form(fs, grid) for fs in spec.forms}

    probes = {}
    for p in spec.probes:
        cyc = ThetaCircle(grid.origin[0] if p.cycle_x is None else p.cycle_x)
        probes[p.form] = make_probe(p.form, forms[p.form], cyc, geo)

    gauge = None
    gauge_base = None
    if spec.gauge_form:
        gauge = np.zeros((grid.nx, grid.ny))
        gauge_base = forms[spec.gauge_form].copy()

    state = FlowState(
        t=0.0, grid=grid, metric=metric, forms=forms, gauge=gauge,
        subsolution=build_subsolution(spec, grid),
    )
    problem = FlowProblem(
        gauge_base=gauge_base,
        gauge_label=spec.gauge_form or None,
        sink=spec.sink,
        probes=probes,
        buffer_threshold=spec.buffer_threshold,
        monitor_energy=spec.monitor_energy,
    )
    return RunSetup(spec.name, scenario_hash(spec), state, problem, spec.integrator)


def make_scenario(**overrides) -> ScenarioSpec:
    """Programmatic construction with the same defaults and validation as the
    text format."""
    spec = ScenarioSpec()
    integ_fields = {f.name: overrides.pop(f.name) for f in fields(IntegratorSpec)
                    if f.name in overrides}
    for key, val in overrides.items():
        if not hasattr(spec, key):
            raise ScenarioError([f"unknown scenario field {key!r}"])
        setattr(spec, key, val)
    if integ_fields:
        spec.integrator = replace(spec.integrator, **integ_fields)
    _fill_defaults(spec)
    problems = validate(spec)
    if problems:
        raise ScenarioError(problems)
    return spec
