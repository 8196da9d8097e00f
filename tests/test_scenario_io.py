"""Config parsing and validation, run artifacts, snapshots, and the CLI."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riccilab.cli import main
from riccilab.errors import RicciLabError, ScenarioError
from riccilab.flows import FlowProblem, FlowState, IntegratorSpec, run_flow
from riccilab.geometry import Grid2D, MetricField, OneFormField, general_metric
from riccilab.outputs import (load_run, load_snapshots, monitors_csv_text, read_index,
                              write_outputs, write_snapshots)
from riccilab.scenario import (FAMILIES, FormSpec, ProbeSpec, RunSetup, build, make_scenario,
                               parse_scenario, scenario_hash, serialize_scenario)

MINIMAL = "family = flat-torus\n"

NECK_CFG = """\
name = neck-test
family = warped-cylinder
grid.nx = 64
grid.ny = 16
grid.lx = 20
metric.outer_radius = 2.0
metric.dip = 1.0
form.main = dtheta
probe.loop.form = main
probe.loop.cycle_x = auto
integrator.t_final = 0.05
output.cadence = 2
output.snapshot_every = 1
"""


# ----------------------------------------------------------------- parsing
def test_minimal_scenario_fills_defaults():
    spec = parse_scenario(MINIMAL)
    assert spec.family == "flat-torus"
    assert spec.nx == 64 and spec.ny == 64
    assert spec.lx == pytest.approx(2 * np.pi)
    assert spec.integrator.cfl == 0.2


# each family's topologies and default (nx, ny, lx, ly)
FAMILY_GRIDS = {
    "flat-torus": ("periodic", "periodic", (64, 64, 2 * np.pi, 2 * np.pi)),
    "conformal-torus": ("periodic", "periodic", (64, 64, 2 * np.pi, 2 * np.pi)),
    "warped-cylinder": ("truncated", "periodic", (256, 32, 20.0, 2 * np.pi)),
    "conformal-plane": ("truncated", "truncated", (129, 129, 16.0, 16.0)),
}
SIZED = dict(nx=24, ny=12, lx=7.0, ly=5.0, metric_amplitude=0.2, metric_outer=3.0,
             metric_dip=0.5, metric_width=2.0)


def _bits(a):
    return a.shape, a.dtype, np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("params", [{}, SIZED], ids=["defaults", "sized"])
@pytest.mark.parametrize("family", FAMILIES)
def test_family_initial_data_is_its_closed_form(family, params):
    # every family's grid and initial metric, and every form preset on it, bit
    # for bit against its formula
    spec = make_scenario(family=family, **params, forms=[
        FormSpec("a", "dtheta"), FormSpec("b", "sinx_dx"), FormSpec("c", "dtheta_dsinx", 0.3)])
    state = build(spec).state
    grid, metric = state.grid, state.metric
    topology_x, topology_y, defaults = FAMILY_GRIDS[family]
    nx, ny, lx, ly = [params.get(key, d) for key, d in zip(("nx", "ny", "lx", "ly"), defaults)]
    assert (grid.topology_x, grid.topology_y) == (topology_x, topology_y)
    assert (grid.nx, grid.ny, grid.lx, grid.ly) == (nx, ny, lx, ly)

    X, T = grid.mesh()
    if family == "warped-cylinder":
        f = spec.metric_outer - spec.metric_dip * np.exp(-(grid.x / spec.metric_width) ** 2)
        assert _bits(metric.h) == _bits(np.ones(nx))
        assert _bits(metric.f) == _bits(f)
    else:
        u = {"flat-torus": np.zeros((nx, ny)),
             "conformal-torus": spec.metric_amplitude * np.sin(2 * np.pi * X / lx),
             "conformal-plane": -0.5 * np.log1p(X ** 2 + T ** 2)}[family]
        assert _bits(metric.u) == _bits(u)

    k = 2 * np.pi / lx
    zero, one = np.zeros((nx, ny)), np.ones((nx, ny))
    for label, (dx, dtheta) in {"a": (zero, one), "b": (np.sin(k * X), zero),
                                "c": (0.3 * k * np.cos(k * X), one)}.items():
        assert _bits(state.forms[label].x) == _bits(dx)
        assert _bits(state.forms[label].theta) == _bits(dtheta)


# e^{2u} with u = -7 sin x falls under the det floor at one node
DEGENERATE_CFG = ("family = conformal-torus\ngrid.nx = 16\ngrid.ny = 16\n"
                  "metric.amplitude = 7.0\n")


def test_warped_negative_profile_rejected():
    # and a degenerate initial metric: both are rejected before any step runs
    text = "family = warped-cylinder\nmetric.outer_radius = 1\nmetric.dip = 2\n"
    for text, problem in ((text, "f not positive"),
                          (DEGENERATE_CFG, "initial metric degenerate at node (12, 0): "
                                           "det g = 6.9144e-13")):
        with pytest.raises(ScenarioError) as err:
            build(parse_scenario(text))
        assert any(problem in p for p in err.value.problems)


def test_unknown_key_reported_with_suggestion():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL + "ricci_mode = fast\ngrid.nX = 32\n")
    msgs = err.value.problems
    assert len(msgs) == 2
    for msg in msgs:
        assert "nearest valid key" in msg   # every unknown key names a neighbor
    assert "ricci_mode" in msgs[0] and "grid.nX" in msgs[1]


def test_all_errors_collected_not_fail_fast():
    text = ("family = warped-cylinder\nmetric.dip = 5\n"
            "integrator.cfl = 0.9\nbogus_key = 1\n")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert len(err.value.problems) >= 3


def test_negative_step_budget_and_snapshot_cadence_rejected():
    # 0 stays valid for both: an empty budget, and automatic snapshot spacing
    for key in ("integrator.max_steps", "output.snapshot_every"):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(MINIMAL + f"{key} = -1\n")
        assert len(err.value.problems) == 1 and ">= 0" in err.value.problems[0]
        parse_scenario(MINIMAL + f"{key} = 0\n")
    spec = parse_scenario(MINIMAL)
    spec.integrator.snapshot_every = -3
    with pytest.raises(ScenarioError) as err:
        build(spec)
    assert any("snapshot_every" in p for p in err.value.problems)


NAN_BASE = "family = conformal-torus\ngrid.nx = 16\ngrid.ny = 16\nsubsolution.preset = bump\n"


@pytest.mark.parametrize("key", ["metric.amplitude", "grid.lx", "integrator.t_final",
                                 "subsolution.amplitude", "subsolution.sink"])
def test_nan_value_rejected_at_parse(key, tmp_path):
    # NaN compares False with every bound, so it used to pass validation and
    # fail mid-run; it is rejected where it is read, and inf stays valid
    for nan in ("nan", "NaN", "-nan"):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(NAN_BASE + f"{key} = {nan}\n")
        assert len(err.value.problems) == 1
        assert key in err.value.problems[0] and "not a number" in err.value.problems[0]
    assert parse_scenario(NAN_BASE + "integrator.dt_cap = inf\n").integrator.dt_cap \
        == float("inf")
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(NAN_BASE + f"{key} = nan\n")
    r = _cli("run", str(cfg), "--out", str(tmp_path / "o"))
    assert r.returncode == 2 and "not a number" in r.stderr


@pytest.mark.parametrize("field", ["dt_cap", "t_final", "buffer_threshold", "sink",
                                   "metric_width"])
def test_nan_field_rejected_at_validation(field):
    # make_scenario takes floats unparsed, so a NaN reaches validation, where
    # it must fail its bound, on every family; -0.0 is a valid sink, and an
    # infinite width stays valid off the cylinder too
    with pytest.raises(ScenarioError) as err:
        make_scenario(family="flat-torus", **{field: math.nan})
    assert len(err.value.problems) == 1
    assert make_scenario(family="flat-torus", sink=-0.0).sink == 0.0
    assert make_scenario(family="flat-torus", metric_width=math.inf).metric_width == math.inf


def _assert_unknown_key(line, tmp_path):
    """`line` is one unknown-key problem, and `riccilab run` exits 2 on it
    without writing a run directory."""
    text = MINIMAL + line + "\n"
    problem = f"unknown key {line.partition(' =')[0]!r}"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert len(err.value.problems) == 1
    assert problem in err.value.problems[0]
    cfg = tmp_path / "retired.cfg"
    cfg.write_text(text)
    r = _cli("run", str(cfg), "--out", str(tmp_path / "o"))
    assert r.returncode == 2 and problem in r.stderr
    assert not (tmp_path / "o").exists()


def test_metric_path_key_rejected(tmp_path):
    # the metric's tag is the one dispatch: there is no path key to select
    _assert_unknown_key("metric.path = general", tmp_path)


@pytest.mark.parametrize("line", ["flow.evolve_metric = false",
                                  "flow.form_operator = bochner"])
def test_retired_flow_keys_rejected(line, tmp_path):
    # the metric always evolves and the forms always follow the factorized
    # Hodge Laplacian: neither switch is a key
    _assert_unknown_key(line, tmp_path)


# each used to parse and then end blow-up-detected after 0 steps, or, for an
# infinite domain length, run on NaN coordinates
BAD_VALUES = [("subsolution.amplitude = inf", "subsolution amplitude must be finite"),
              ("subsolution.width = 0", "subsolution width must be positive and finite"),
              ("subsolution.width = inf", "subsolution width must be positive and finite"),
              ("form.main = dtheta_dsinx:inf", "form 'main': coefficient must be finite"),
              ("form.main = dtheta_dsinx:nan", "form 'main': coefficient must be finite"),
              ("subsolution.sink = inf", "subsolution sink must be finite and >= 0"),
              ("grid.lx = inf", "domain lengths must be positive and finite"),
              ("grid.ly = inf", "domain lengths must be positive and finite"),
              ("form.main = dtheta2", "form 'main': unknown preset 'dtheta2'")]


@pytest.mark.parametrize("line, problem", BAD_VALUES)
def test_bad_value_rejected_at_validation(line, problem):
    text = "family = flat-torus\ngrid.nx = 16\ngrid.ny = 16\nsubsolution.preset = bump\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text + line + "\n")
    assert err.value.problems == [problem]


@pytest.mark.parametrize("preset", ["dtheta", "sinx_dx"])
def test_coefficient_on_a_preset_without_one_rejected(preset):
    # serialize_scenario writes these presets without a coefficient, so one
    # given would not survive the round trip; a zero is the default itself
    with pytest.raises(ScenarioError) as err:
        parse_scenario(f"family = flat-torus\nform.main = {preset}:0.3\n")
    assert err.value.problems == [f"form 'main': preset {preset!r} takes no coefficient"]
    with pytest.raises(ScenarioError):
        make_scenario(family="flat-torus", forms=[FormSpec("main", preset, 0.3)])
    spec = parse_scenario(f"family = flat-torus\nform.main = {preset}:0\n")
    assert parse_scenario(serialize_scenario(spec)) == spec


@pytest.mark.parametrize("overrides", [
    {"sub_amplitude": math.nan}, {"sub_width": math.nan}, {"sub_width": 0.0},
    {"forms": [FormSpec("main", "dtheta_dsinx", math.nan)]},
    {"sink": math.inf}, {"lx": math.nan}, {"ly": math.inf},
    {"nx": 16.0}, {"max_steps": True}, {"cadence": 2.5},
    {"forms": [FormSpec("main", "dtheta")], "probes": [ProbeSpec("p", "main", 2.0)]},
    {"name": 5}, {"nx": "16"}, {"cadence": "2"}, {"lx": "3"},
    {"monitor_energy": 1}, {"monitor_energy": "yes"}, {"monitor_energy": 0.0}])
def test_bad_field_rejected_by_make_scenario(overrides):
    # make_scenario takes values unparsed, so NaN reaches validation too, and
    # so does a count that is not an int, a text key that is not a str or a
    # flag that is not a bool, which would serialize to text that parses to
    # another value or not at all
    with pytest.raises(ScenarioError) as err:
        make_scenario(family="flat-torus", subsolution="bump", **overrides)
    assert len(err.value.problems) == 1


@pytest.mark.parametrize("width", [1e-300, 5e-324])
def test_tiny_bump_width_builds_without_warning(width):
    # (x / w)^2 overflows to inf off the center, which the clip maps to 0: the
    # bump is its amplitude on the x = 0 column and 0 elsewhere, silently
    spec = make_scenario(family="flat-torus", subsolution="bump", sub_width=width,
                         nx=16, ny=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        setup = build(spec)
    X, _ = setup.state.grid.mesh()
    assert np.array_equal(setup.state.subsolution, np.where(X == 0.0, 1.0, 0.0))


# each used to pass validation and then fail the SPD check in build, naming
# node (0, 0) and det g = nan or inf instead of the key; an infinite neck
# width stays valid, a flat cylinder
METRIC_FAMILY = {"metric.amplitude": "conformal-torus", "metric.outer_radius": "warped-cylinder",
                 "metric.dip": "warped-cylinder"}


@pytest.mark.parametrize("key, value", [("metric.amplitude", "inf"),
                                        ("metric.outer_radius", "inf"),
                                        ("metric.dip", "-inf")])
def test_infinite_metric_parameter_rejected_at_validation(key, value, tmp_path):
    text = f"family = {METRIC_FAMILY[key]}\ngrid.nx = 16\ngrid.ny = 16\n{key} = {value}\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert err.value.problems == [f"{key} must be finite"]
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(text)
    r = _cli("run", str(cfg), "--out", str(tmp_path / "o"))
    assert r.returncode == 2 and f"{key} must be finite" in r.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, field", [("metric.amplitude", "metric_amplitude"),
                                        ("metric.outer_radius", "metric_outer"),
                                        ("metric.dip", "metric_dip")])
def test_nan_metric_parameter_rejected_by_make_scenario(key, field):
    # the warped family also fails outer_radius - dip > 0, which NaN fails
    with pytest.raises(ScenarioError) as err:
        make_scenario(family=METRIC_FAMILY[key], nx=16, ny=16, **{field: math.nan})
    assert err.value.problems[0] == f"{key} must be finite"


def test_infinite_neck_width_builds_a_flat_cylinder():
    setup = build(parse_scenario("family = warped-cylinder\ngrid.nx = 16\ngrid.ny = 16\n"
                                 "metric.width = inf\n"))
    assert np.all(setup.state.metric.gtt == 1.0)


def test_probe_needs_tracked_form():
    text = MINIMAL + "probe.p.form = ghost\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert any("ghost" in p for p in err.value.problems)


def test_round_trip_identity():
    specs = [
        parse_scenario(MINIMAL),
        parse_scenario(NECK_CFG),
        make_scenario(name="full", family="conformal-torus",
                      metric_amplitude=0.07,
                      forms=[FormSpec("a", "dtheta_dsinx", 0.3),
                             FormSpec("b", "sinx_dx")],
                      probes=[ProbeSpec("p", "a", 5)],
                      gauge_form="a", subsolution="bump", sink=0.25,
                      scheme="rk4", dt_cap=1e-3, t_final=0.4),
    ]
    for spec in specs:
        assert parse_scenario(serialize_scenario(spec)) == spec


# finite floats with the edges named, and positive ones: subnormal, tiny and huge
_EDGES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
          1.7976931348623157e308, -1e-300, -1.7976931348623157e308]
_FINITE = st.sampled_from(_EDGES) | st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.sampled_from([x for x in _EDGES if x > 0]) | st.floats(
    min_value=5e-324, allow_nan=False, allow_infinity=False)
_LABEL = st.text(alphabet="abcxyz019_", min_size=1, max_size=6)


@st.composite
def _resolved_specs(draw):
    """Valid specs through make_scenario, which fills the grid sizes."""
    family = draw(st.sampled_from(FAMILIES))
    kw = {"name": draw(st.text(alphabet="ab XY09-_.:=#", max_size=16)).strip(),
          "family": family,
          "nx": draw(st.just(0) | st.integers(8, 4096)),
          "ny": draw(st.just(0) | st.integers(8, 4096)),
          "lx": draw(st.just(0.0) | _POSITIVE), "ly": draw(st.just(0.0) | _POSITIVE),
          "metric_amplitude": draw(_FINITE),
          "metric_outer": draw(_FINITE), "metric_dip": draw(_FINITE),
          "metric_width": draw(_POSITIVE if family == "warped-cylinder" else _FINITE),
          "subsolution": draw(st.sampled_from(["none", "one-plus-cos", "bump"])),
          "sub_amplitude": draw(_FINITE), "sub_width": draw(_POSITIVE),
          "sink": draw(st.just(-0.0) | _POSITIVE),
          "buffer_threshold": draw(_POSITIVE),
          "monitor_energy": draw(st.booleans()),
          "scheme": draw(st.sampled_from(["rk2", "rk4"])),
          "cfl": draw(st.sampled_from([5e-324, 0.5]) | st.floats(0.0, 0.5, exclude_min=True)),
          "dt_cap": draw(st.just(math.inf) | _POSITIVE),
          "t_final": draw(_POSITIVE),
          "max_steps": draw(st.integers(0, 10 ** 9)),
          "cadence": draw(st.integers(1, 10 ** 6)),
          "snapshot_every": draw(st.integers(0, 10 ** 6))}
    if family == "warped-cylinder":
        assume(kw["metric_outer"] - kw["metric_dip"] > 0)
    labels = draw(st.lists(_LABEL, max_size=3, unique=True))
    kw["forms"] = []
    for label in labels:
        preset = draw(st.sampled_from(["dtheta", "sinx_dx", "dtheta_dsinx"]))
        coeff = draw(_FINITE) if preset == "dtheta_dsinx" else 0.0
        kw["forms"].append(FormSpec(label, preset, coeff))
    kw["probes"] = []
    if labels and family != "conformal-plane":
        nx = make_scenario(family=family, nx=kw["nx"]).nx
        for label in draw(st.lists(_LABEL, max_size=2, unique=True)):
            cycle = draw(st.none() | st.integers(0, nx - 1))
            kw["probes"].append(ProbeSpec(label, draw(st.sampled_from(labels)), cycle))
    kw["gauge_form"] = draw(st.sampled_from([""] + labels))
    return make_scenario(**kw)


@settings(max_examples=200)
@given(spec=_resolved_specs())
def test_round_trip_property(spec):
    text = serialize_scenario(spec)
    back = parse_scenario(text)
    assert back == spec
    assert serialize_scenario(back) == text       # and the sign of every -0.0


ROOT = Path(__file__).resolve().parents[1]
SCENARIO_HASHES = {
    "scenarios/cigar.cfg": "7a12a66b16a4fabe",
    "scenarios/conformal-torus.cfg": "30cea678410fe48a",
    "scenarios/flat-torus.cfg": "559e83236623db39",
    "scenarios/neck-cylinder.cfg": "8d51aac1d9228565",
    "perfbench/scenarios/cigar.cfg": "12943fd7b8f0a1dc",
    "perfbench/scenarios/coupled-torus.cfg": "e186ad64b93aedd6",
    "perfbench/scenarios/neck-snapshots.cfg": "0ff0b1103b5aac95",
}


def test_shipped_scenario_hashes_pinned():
    # the serialized text, not only its round trip: a change to the key
    # table's order, names or number formats moves these hashes
    paths = sorted(str(p.relative_to(ROOT)) for d in ("scenarios", "perfbench/scenarios")
                   for p in (ROOT / d).glob("*.cfg"))
    assert paths == sorted(SCENARIO_HASHES)
    for path, digest in SCENARIO_HASHES.items():
        assert scenario_hash(parse_scenario((ROOT / path).read_text())) == digest, path


# ----------------------------------------------------------------- outputs
@pytest.fixture(scope="module")
def neck_run(tmp_path_factory):
    spec = parse_scenario(NECK_CFG)
    setup = build(spec)
    traj = run_flow(setup)
    out = tmp_path_factory.mktemp("neckrun")
    write_outputs(traj, out, problem=setup.problem)
    return spec, setup, traj, out


def test_monitor_csv_schema(neck_run):
    _, _, traj, out = neck_run
    lines = (out / "monitors.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["t", "dt", "sup_R", "min_R", "vol"]
    assert "main_l2" in header and "L_alpha" in header
    assert len(lines) == len(traj.records) + 1
    # shortest round-trip decimals: every float survives text -> float -> text
    for token in lines[1].split(","):
        assert repr(float(token)) == token


def test_summary_contents(neck_run):
    _, _, traj, out = neck_run
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "completed"
    assert summary["grid_hash"] == traj.grid.hash_hex
    assert "main.sup_monotone" in summary["verdicts"]
    assert "main.length_bound" in summary["verdicts"]
    assert summary["all_pass"]


def test_byte_identical_reruns(neck_run):
    spec, _, traj, _ = neck_run
    again = run_flow(build(spec))
    assert monitors_csv_text(again) == monitors_csv_text(traj)


def _state_arrays(st):
    g = st.metric
    arrays = {"gxx": g.gxx, "gxt": g.gxt, "gtt": g.gtt}
    arrays.update((k, getattr(g, k)) for k in ("u", "h", "f") if getattr(g, k) is not None)
    for label, phi in st.forms.items():
        arrays[label + ".x"], arrays[label + ".theta"] = phi.x, phi.theta
    if st.gauge is not None:
        arrays["gauge"] = st.gauge
    if st.subsolution is not None:
        arrays["sub"] = st.subsolution
    return arrays


def _read_whole(directory):
    # every field of every snapshot of the store under `directory`, read
    # whole and widened through its index's window to the full grid
    index, layout = read_index(directory)
    vecs = np.fromfile(Path(directory) / "data.bin", dtype="<f8").reshape(-1, layout.size)
    states = []
    for vec, snap in zip(vecs, index["snapshots"], strict=True):
        wide, vec = layout.widen(vec.copy())
        states.append(wide.unpack(vec, snap["t"], snap["step"]))
    return states


def _general_torus_setup():
    grid = Grid2D.torus(16, 16)
    X, T = grid.mesh()
    g = general_metric(1 + 0.2 * np.sin(X), 0.05 * np.cos(T), 1 + 0.2 * np.cos(X + T))
    st = FlowState(0.0, grid, g, {"main": OneFormField(np.sin(X), np.ones_like(X))})
    return RunSetup("general", "g" * 16, st, FlowProblem(),
                    IntegratorSpec(t_final=0.02, cadence=2, snapshot_every=1))


def test_snapshot_round_trip(neck_run, tmp_path):
    # every field, t and step reload bitwise, for each metric tag: the warped
    # neck with a form, a conformal torus with form, gauge and subsolution, and
    # a general-metric torus with a form, and a metric-only conformal plane.
    # Each store is index.json and data.bin, which holds the vectors as
    # stepped, back to back, the index's window naming the nodes: the (nx, 1)
    # columns of the theta-invariant neck and torus, the plane's quadrant
    # from its center node, the general torus's full grid
    _, _, traj, out = neck_run
    conformal = make_scenario(name="conformal", family="conformal-torus", nx=16, ny=16,
                              forms=[FormSpec("main", "dtheta_dsinx", 0.3)],
                              gauge_form="main", subsolution="one-plus-cos",
                              t_final=0.05, cadence=2, snapshot_every=1)
    plane = make_scenario(name="plane", family="conformal-plane", nx=33, ny=33, lx=4.0,
                          ly=4.0, buffer_threshold=1.0, t_final=0.01, cadence=2,
                          snapshot_every=1)
    runs = [(traj, out, "warped", {"h", "f", "main.x"}, [[0, 64], [0, 1]])]
    for name, tag, setup, carried, window in (
            ("conformal", "conformal", build(conformal), {"u", "main.x", "gauge", "sub"},
             [[0, 16], [0, 1]]),
            ("general", "general", _general_torus_setup(), {"main.x"}, [[0, 16], [0, 16]]),
            ("plane", "conformal", build(plane), {"u"}, [[16, 33], [16, 33]])):
        run = run_flow(setup)
        write_outputs(run, tmp_path / name, problem=setup.problem)
        runs.append((run, tmp_path / name, tag, carried, window))
    for run, directory, tag, carried, window in runs:
        assert _store_files(directory) == ["data.bin", "index.json"]
        index, layout = read_index(directory / "snapshots")
        assert index["window"] == window
        assert (directory / "snapshots" / "data.bin").stat().st_size == \
            8 * layout.size * len(run.snapshots)
        loaded = _read_whole(directory / "snapshots")
        assert len(loaded) == len(run.snapshots) > 1
        for a, b in zip(run.snapshots, loaded):
            assert (a.t, a.step, b.metric.tag) == (b.t, b.step, tag)
            fa, fb = _state_arrays(a), _state_arrays(b)
            assert fa.keys() == fb.keys() and carried <= fa.keys()
            assert all(np.array_equal(fa[k], fb[k]) for k in fa)
            if tag == "conformal":   # one shared e^{2u}, as in the state it copies
                assert a.metric.gxx is a.metric.gtt and b.metric.gxx is b.metric.gtt
    # per-stage metric invariants are never cached on a metric that outlives
    # its stage, in memory or reloaded
    names = {f.name for f in dataclasses.fields(MetricField)}
    for snap in (*traj.snapshots, *load_run(out).snapshots):
        assert set(vars(snap.metric)) == names


def _store_files(run_dir: Path) -> list:
    return sorted(p.name for p in (run_dir / "snapshots").iterdir())


def _rewrite_index(index_path: Path, **changes) -> None:
    """Set keys of a snapshot store's index.json."""
    index = json.loads(index_path.read_text())
    index.update(changes)
    index_path.write_text(json.dumps(index))


def test_a_run_writes_two_snapshot_files(many_snapshots_run, tmp_path):
    # a run's snapshots are index.json and data.bin whatever their count:
    # perfbench's 512x64 neck (98 snapshots) and many_snapshots_run (over 90)
    setup = build(parse_scenario((ROOT / "perfbench/scenarios/neck-snapshots.cfg").read_text()))
    neck = run_flow(setup)
    write_outputs(neck, tmp_path, problem=setup.problem)
    out, n = many_snapshots_run
    assert len(neck.snapshots) == 98 and n > 90
    for run_dir, count in ((tmp_path, 98), (out / "run", n)):
        assert _store_files(run_dir) == ["data.bin", "index.json"]
        assert len(load_run(run_dir).snapshots) == count


def test_per_snapshot_directory_rejected_by_name(neck_run, tmp_path):
    # a directory of the dropped per-snapshot layout, snap_*.json and .bin
    # files with no index.json, is rejected naming it, and rescale exits 2
    # writing nothing
    out = tmp_path / "run"
    shutil.copytree(neck_run[3], out)
    snaps = out / "snapshots"
    (snaps / "index.json").rename(snaps / "snap_00000.json")
    (snaps / "data.bin").rename(snaps / "snap_00000.bin")
    with pytest.raises(RicciLabError) as err:
        load_run(out)
    assert str(snaps) in str(err.value) and "re-run the scenario" in str(err.value)
    sched = tmp_path / "sched.cfg"
    sched.write_text("policy = by-curvature\n")
    r = _cli("rescale", str(out), "--schedule", str(sched))
    assert r.returncode == 2 and str(snaps) in r.stderr and "Traceback" not in r.stderr
    assert not (out / "rescale_report.json").exists()


# each family at small size, carrying what it can: a form, gauge and
# subsolution on the conformal torus, a probe on the cylinder, the plane
# stepped as its quadrant
FIXED_POINT_RUNS = {
    "flat-torus": dict(nx=16, ny=16, forms=[FormSpec("main", "sinx_dx")]),
    "conformal-torus": dict(nx=16, ny=16, forms=[FormSpec("main", "dtheta_dsinx", 0.3)],
                            gauge_form="main", subsolution="one-plus-cos"),
    "warped-cylinder": dict(nx=32, ny=8, lx=20.0, forms=[FormSpec("main", "dtheta")],
                            probes=[ProbeSpec("loop", "main")]),
    "conformal-plane": dict(nx=17, ny=17, lx=4.0, ly=4.0, buffer_threshold=1.0),
}


def _files(run_dir: Path) -> dict:
    return {str(p.relative_to(run_dir)): p.read_bytes()
            for p in sorted(run_dir.rglob("*")) if p.is_file()}


def _report_and_rescale(run_dir: Path, out: Path, capsys) -> list:
    """What `riccilab report` and a by-curvature `riccilab rescale` print on
    `run_dir` (the rescale report goes to `out`), the paths spelled alike,
    and the report's bytes."""
    out.parent.mkdir()
    (out.parent / "sched.cfg").write_text("policy = by-curvature\n")
    printed = []
    for argv in (["report", str(run_dir)],
                 ["rescale", str(run_dir), "--schedule", str(out.parent / "sched.cfg"),
                  "--out", str(out)]):
        code = main(argv)
        text = "".join(capsys.readouterr())
        printed.append((code, text.replace(str(out), "OUT").replace(str(run_dir), "RUN")))
    return printed + [out.read_bytes() if out.exists() else None]


@pytest.mark.parametrize("snapshots", [True, False], ids=["snapshots", "none"])
@pytest.mark.parametrize("family", FAMILIES)
def test_a_run_directory_is_a_fixed_point_of_reload_and_write(family, snapshots, tmp_path,
                                                              capsys):
    # write_outputs(load_run(d)) reproduces every file of d byte for byte,
    # into a new directory and in place, and report and rescale print on the
    # rewritten directory what they print on d
    assert FIXED_POINT_RUNS.keys() == set(FAMILIES)
    setup = build(make_scenario(name=family, family=family, t_final=0.02, cadence=2,
                                snapshot_every=1, **FIXED_POINT_RUNS[family]))
    run_dir, other = tmp_path / "run", tmp_path / "other"
    write_outputs(run_flow(setup, collect_snapshots=snapshots), run_dir,
                  problem=setup.problem)
    files = _files(run_dir)
    assert sorted(files) == sorted(["monitors.csv", "summary.json"] + snapshots * [
        "snapshots/data.bin", "snapshots/index.json"])
    printed = _report_and_rescale(run_dir, tmp_path / "a" / "report.json", capsys)
    # a flat run's sup |R| = 0 gives the by-curvature policy no factor
    assert printed[0][0] == 0 and (printed[2] is not None) == (snapshots and
                                                               family != "flat-torus")
    write_outputs(load_run(run_dir), other, problem=setup.problem)
    assert _files(other) == files
    assert _report_and_rescale(other, tmp_path / "b" / "report.json", capsys) == printed
    write_outputs(load_run(run_dir), run_dir, problem=setup.problem)
    assert _files(run_dir) == files


@pytest.mark.parametrize("key", ["grid", "record_steps"])
def test_summary_without_reload_keys_rejected_by_name(neck_run, tmp_path, key):
    # a summary.json written before it kept the grid and the record steps
    # is rejected naming it and the key, and rescale exits 2 writing nothing
    out = tmp_path / "run"
    shutil.copytree(neck_run[3], out)
    summary = json.loads((out / "summary.json").read_text())
    del summary[key]
    (out / "summary.json").write_text(json.dumps(summary))
    with pytest.raises(RicciLabError) as err:
        load_run(out)
    assert str(out / "summary.json") in str(err.value) and repr(key) in str(err.value)
    sched = tmp_path / "sched.cfg"
    sched.write_text("policy = by-curvature\n")
    r = _cli("rescale", str(out), "--schedule", str(sched))
    assert r.returncode == 2 and repr(key) in r.stderr and "Traceback" not in r.stderr
    assert not (out / "rescale_report.json").exists()


@pytest.mark.parametrize("window, problem", [
    ([[0, 64]], "is not one [start, stop] per axis"),
    ([[0, 64], [0, 1, 2]], "is not one [start, stop] per axis"),
    ([[0, 64], [0.0, 1]], "is not one [start, stop] per axis"),
    ("column", "is not one [start, stop] per axis"),
    ([[0, 64], [0, 2]], "is not one [start, stop] per axis"),
    ([[32, 64], [0, 1]], "is not one [start, stop] per axis"),   # 64 nodes: no center
    ([[0, 64], [0, 16]], "field form.main.phi_x has shape [64, 1]"),
])
def test_bad_snapshot_window_rejected_before_any_read(neck_run, tmp_path, window, problem):
    # a window that is malformed, or that disagrees with a 2-D field's shape,
    # is rejected by the index's name with data.bin gone (so before any of
    # it is read), and rescale exits 2 writing nothing
    out = tmp_path / "run"
    shutil.copytree(neck_run[3], out)
    snap = out / "snapshots" / "index.json"
    _rewrite_index(snap, window=window)
    (out / "snapshots" / "data.bin").unlink()
    with pytest.raises(RicciLabError) as err:
        load_snapshots(out / "snapshots")
    assert str(snap) in str(err.value) and problem in str(err.value)
    sched = tmp_path / "sched.cfg"
    sched.write_text("policy = by-curvature\n")
    r = _cli("rescale", str(out), "--schedule", str(sched))
    assert r.returncode == 2 and str(snap) in r.stderr
    assert not (out / "rescale_report.json").exists()


def test_load_run(neck_run):
    _, _, traj, out = neck_run
    run = load_run(out)
    assert run.status == "completed"
    assert (run.t_end, run.n_steps, run.scenario_name, run.scenario_hash,
            run.monitor_labels, run.grid.hash_hex) == (
        traj.t_end, traj.n_steps, traj.scenario_name, traj.scenario_hash,
        traj.monitor_labels, traj.grid.hash_hex)
    assert len(run.records) == len(traj.records)
    assert [r.step for r in run.records] == [r.step for r in traj.records]
    assert run.grid == traj.grid
    assert run.records[-1].values["main_l2"] == traj.records[-1].values["main_l2"]


def test_blowup_status_in_summary(tmp_path):
    from riccilab.geometry import warped_metric

    grid = Grid2D.cylinder(1024, 8, 0.5)
    prof = 2e-3 * np.ones(1024)
    setup = RunSetup("thin", "y" * 16, FlowState(0.0, grid, warped_metric(grid, prof, prof)),
                     FlowProblem(), IntegratorSpec(t_final=1.0))
    traj = run_flow(setup)
    summary = write_outputs(traj, tmp_path)
    assert summary["status"] == "blow-up-detected"
    assert summary["t_end"] == 0.0


def test_rerun_replaces_old_snapshots(tmp_path):
    # a shorter rerun into the same directory leaves none of the longer run's
    # snapshots behind, with or without snapshots of its own
    def run_into(t_final, snapshots=True):
        spec = make_scenario(name="rerun", family="flat-torus", nx=16, ny=16,
                             t_final=t_final, cadence=1, snapshot_every=1)
        traj = run_flow(spec, collect_snapshots=snapshots)
        write_outputs(traj, tmp_path)
        return traj

    (tmp_path / "snapshots" / "notes.txt").parent.mkdir()
    (tmp_path / "snapshots" / "notes.txt").write_text("kept")
    assert len(run_into(0.2).snapshots) == 8
    short = run_into(0.02)
    run = load_run(tmp_path)
    assert len(run.snapshots) == len(short.snapshots) == 2
    assert run.snapshots[-1].t == run.t_end == short.t_end
    run_into(0.2)
    run_into(0.02, snapshots=False)
    assert load_run(tmp_path).snapshots == []
    assert (tmp_path / "snapshots" / "notes.txt").read_text() == "kept"


# ----------------------------------------------------------------- CLI
def _cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "riccilab", *args],
                          capture_output=True, text=True, cwd=cwd)


def test_cli_run_report_rescale(tmp_path):
    cfg = tmp_path / "neck.cfg"
    cfg.write_text(NECK_CFG)
    out = tmp_path / "run"
    r = _cli("run", str(cfg), "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert (out / "monitors.csv").exists()
    assert (out / "summary.json").exists()

    r2 = _cli("report", str(out))
    assert r2.returncode == 0
    assert "PASS" in r2.stdout and "completed" in r2.stdout

    sched = tmp_path / "sched.cfg"
    sched.write_text("policy = explicit\ntimes = 0.0, 0.02, 0.04\n"
                     "lambdas = 1, 2, 4\nsigma = 1.0\nradii = 3.0, 5.0\n")
    r3 = _cli("rescale", str(out), "--schedule", str(sched))
    assert r3.returncode == 0, r3.stderr
    report = json.loads((out / "rescale_report.json").read_text())
    assert len(report["points"]) == 3
    assert report["points"][2]["lambda"] == 4.0
    assert report["points"][2]["curvature_scale_residual"] < 1e-12
    assert (out / "decay_profiles.csv").exists()


def test_cli_missing_scenario_exits_2(tmp_path):
    r = _cli("run", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o"))
    assert r.returncode == 2


def test_cli_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    for text, problem in (("family = warped-cylinder\nmetric.dip = 9\n", "f not positive"),
                          ("family = conformal-tori\n", "did you mean 'conformal-torus'"),
                          (DEGENERATE_CFG, "node (12, 0)")):
        cfg.write_text(text)
        r = _cli("run", str(cfg), "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert problem in r.stderr


@pytest.fixture(scope="module")
def flat_run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("flat16")
    spec = make_scenario(name="flat16", family="flat-torus", nx=16, ny=16,
                         t_final=0.02, cadence=2)
    write_outputs(run_flow(spec), out)
    return out


@pytest.mark.parametrize("schedule, problem", [
    ("lambdas = a, b\n", "could not convert string to float"),
    ("times = 0.005, 0.0\nlambdas = 1, 2\n", "schedule times must be strictly increasing"),
    ("lambdas = -1\n", "scale factors must be positive"),
    ("policy = by-curvature\n", "scale factors must be positive"),   # sup |R| = 0
    ("policy = by_curvature\nlambdas = 1\n", "unknown schedule policy"),
    ("times = 0.0\nlambdas = 1\ncycle_x = 16\n", "cycle_x 16 outside the grid"),
    ("policy = by-curvature\ntimes 0.005\nradius = 1,2\nsigma = 1\n",
     "line 2: expected 'key = value', got 'times 0.005'"),
    ("policy = by-curvature\nradius = 1,2\n", "line 2: unknown key 'radius'"),
    ("times = 0.0\nlambdas = 1\n\nsigma = 1\n", "line 4: sigma without radii"),
    ("times = 0.0\nlambdas = 1\nradii = 1, 2\n", "line 3: radii without sigma"),
    ("times = 0.0, nan\nlambdas = 1, 1\n", "schedule times must be finite, got nan"),
    ("policy = by-curvature\ntimes = 0.0, nan\n", "schedule times must be finite, got nan"),
    ("times = 0.0, 0.01\nlambdas = 1, inf\n",
     "scale factors must be positive and finite, got inf"),
    ("times = 0.0\nlambdas = 1\nsigma = nan\nradii = 1\n",
     "decay order sigma must be positive and finite, got nan"),
    ("times = 0.0\nlambdas = 1\nsigma = 1\nradii = 1, inf\n",
     "sample radii must be positive and finite, got inf"),
    ("policy = bogus\nlambdas = abc\n", "unknown schedule policy 'bogus'"),
])
def test_cli_bad_rescale_schedule_exits_2(flat_run_dir, tmp_path, schedule, problem):
    sched = tmp_path / "sched.cfg"
    sched.write_text(schedule)
    r = _cli("rescale", str(flat_run_dir), "--schedule", str(sched),
             "--out", str(tmp_path / "report.json"))
    assert r.returncode == 2, r.stderr
    assert f"schedule error: {problem}" in r.stderr
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("change", [-8, 8])
def test_snapshot_length_checked_against_header(neck_run, tmp_path, change):
    # a data.bin 8 bytes short or long of its index's snapshots of metric.h,
    # metric.f and 64x1 form fields is rejected by name, and rescale exits 2
    # writing nothing
    out = tmp_path / "run"
    shutil.copytree(neck_run[3], out)
    snap = out / "snapshots" / "data.bin"
    data = snap.read_bytes()
    expected, n = len(data) // 8, len(neck_run[2].snapshots)
    snap.write_bytes(data[:change] if change < 0 else data + bytes(change))
    with pytest.raises(RicciLabError) as err:
        load_snapshots(out / "snapshots")
    message = str(err.value)
    assert str(snap) in message
    assert f"lists {n} snapshots of {expected // n} float64 elements, {expected} in all" \
        in message
    assert f"holds {expected + change // 8}" in message
    sched = tmp_path / "sched.cfg"
    sched.write_text("policy = by-curvature\n")
    r = _cli("rescale", str(out), "--schedule", str(sched))
    assert r.returncode == 2 and str(snap) in r.stderr
    assert not (out / "rescale_report.json").exists()


def _conformal_run(amplitude=0.05):
    spec = make_scenario(name="conformal", family="conformal-torus", nx=16, ny=16,
                         metric_amplitude=amplitude,
                         forms=[FormSpec("main", "dtheta_dsinx", 0.3)],
                         gauge_form="main", subsolution="one-plus-cos",
                         t_final=0.05, cadence=2, snapshot_every=1)
    setup = build(spec)
    return run_flow(setup), setup.problem


def test_a_reload_carries_every_field_bitwise_the_runs(neck_run, tmp_path):
    # a reloaded snapshot carries every field of the run's snapshot, forms,
    # gauge and subsolution too, bitwise, with its t and step, in memory of
    # its own
    traj, problem = _conformal_run()
    write_outputs(traj, tmp_path, problem=problem)
    for run, out in ((neck_run[2], neck_run[3]), (traj, tmp_path)):
        snaps = load_run(out).snapshots
        assert len(snaps) == len(run.snapshots) > 1
        for a, b in zip(run.snapshots, snaps):
            assert (b.t, b.step, b.layout.fields) == (a.t, a.step, a.layout.fields)
            assert np.array_equal(a.vector.view(np.int64), b.vector.view(np.int64))
            fa, fb = _state_arrays(a), _state_arrays(b)
            assert fa.keys() == fb.keys()
            for key, arr in fb.items():
                assert np.array_equal(arr, fa[key])
                while arr is not None:
                    assert not isinstance(arr, np.memmap)
                    arr = arr.base
        assert not np.shares_memory(snaps[0].vector, snaps[1].vector)
    assert {"u", "main.x", "gauge", "sub"} <= _state_arrays(snaps[0]).keys()


def test_rewrite_leaves_a_live_reload_unchanged(tmp_path):
    # runs written into the directory of a reloaded run that is still alive,
    # by write_snapshots alone or by write_outputs, leave the reloaded bits as
    # they were; a fresh load sees the new run
    traj, problem = _conformal_run()
    write_outputs(traj, tmp_path, problem=problem)
    live = load_run(tmp_path).snapshots
    before = [{k: v.copy() for k, v in _state_arrays(s).items()} for s in live]
    for amplitude, write in ((0.07, lambda t, p: write_snapshots(t, tmp_path / "snapshots")),
                             (0.09, lambda t, p: write_outputs(t, tmp_path, problem=p))):
        other, problem = _conformal_run(amplitude)
        write(other, problem)
        for snap, kept in zip(live, before):
            arrays = _state_arrays(snap)
            assert arrays.keys() == kept.keys()
            assert all(np.array_equal(arrays[k], kept[k]) for k in kept)
        fresh = load_run(tmp_path).snapshots
        assert len(fresh) == len(live) == len(other.snapshots)
        assert all(np.array_equal(a.metric.u, b.metric.u)
                   for a, b in zip(fresh, other.snapshots))
        assert not np.array_equal(fresh[-1].metric.u, live[-1].metric.u)


@pytest.fixture(scope="module")
def many_snapshots_run(tmp_path_factory, many_snapshots_spec):
    # the run of many_snapshots_spec, written, and its by-curvature rescale
    # report
    out = tmp_path_factory.mktemp("many")
    write_outputs(run_flow(build(many_snapshots_spec)), out / "run")
    (out / "sched.cfg").write_text("policy = by-curvature\n")
    r = _cli("rescale", str(out / "run"), "--schedule", str(out / "sched.cfg"),
             "--out", str(out / "report.json"))
    assert r.returncode == 0, r.stderr
    return out, len(load_run(out / "run").snapshots)


RESCALE_UNDER_LIMIT = """\
import json, os, resource, sys
from riccilab.cli import main
from riccilab.outputs import load_run
run_dir, sched, out, limit = sys.argv[1:]
soft = len(os.listdir("/dev/fd")) + int(limit[1:]) if limit[0] == "+" else int(limit)
resource.setrlimit(resource.RLIMIT_NOFILE,
                   (soft, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
code = main(["rescale", run_dir, "--schedule", sched, "--out", out])
open_before = len(os.listdir("/dev/fd"))
snaps = load_run(run_dir).snapshots
open_after = len(os.listdir("/dev/fd"))
spare = [open(os.devnull) for _ in range(8)]
print(json.dumps({"code": code, "snapshots": len(snaps),
                  "open": [open_before, open_after]}))
"""


@pytest.mark.parametrize("limit", ["64", "+n"])
def test_rescale_under_a_low_descriptor_limit(many_snapshots_run, tmp_path, limit):
    # a live reload holds no descriptor, so a run of more snapshots than the
    # soft limit allows rescales to the same report, and files still open
    # after the load.  "+n" leaves exactly one descriptor per snapshot free
    out, n = many_snapshots_run
    assert n > 90
    r = subprocess.run([sys.executable, "-c", RESCALE_UNDER_LIMIT, str(out / "run"),
                        str(out / "sched.cfg"), str(tmp_path / "report.json"),
                        limit.replace("n", str(n))],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    got = json.loads(r.stdout.splitlines()[-1])
    assert got["code"] == 0 and got["snapshots"] == n
    assert got["open"][0] == got["open"][1]
    assert (tmp_path / "report.json").read_bytes() == (out / "report.json").read_bytes()


RESCALE_WITH_TABLE_FULL = """\
import os, resource, sys
from riccilab.cli import main
resource.setrlimit(resource.RLIMIT_NOFILE,
                   (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
held = []
try:
    while True:
        held.append(open(os.devnull))
except OSError:
    pass
sys.exit(main(["rescale", sys.argv[1], "--schedule", sys.argv[2]]))
"""


def test_reload_out_of_descriptors_is_named(many_snapshots_run):
    # with no descriptor free, rescale stops with exit 2 naming the path it
    # could not open, not with a traceback
    out, _ = many_snapshots_run
    r = subprocess.run([sys.executable, "-c", RESCALE_WITH_TABLE_FULL, str(out / "run"),
                        str(out / "sched.cfg")], capture_output=True, text=True)
    assert r.returncode == 2, r.stderr
    assert "Too many open files" in r.stderr and str(out / "run") in r.stderr
    assert "Traceback" not in r.stderr
    assert not (out / "run" / "rescale_report.json").exists()


def test_repeated_scenario_key_rejected(tmp_path):
    text = MINIMAL + "grid.nx = 16\ngrid.nx = 32\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert err.value.problems == ["line 3: 'grid.nx' repeats line 2"]
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(text)
    r = _cli("run", str(cfg), "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "line 3: 'grid.nx' repeats line 2" in r.stderr
    assert not (tmp_path / "o").exists()


def test_repeated_schedule_key_exits_2(flat_run_dir, tmp_path):
    sched = tmp_path / "sched.cfg"
    sched.write_text("times = 0.0\ntimes = 0.01\nlambdas = 2\n")
    r = _cli("rescale", str(flat_run_dir), "--schedule", str(sched),
             "--out", str(tmp_path / "report.json"))
    assert r.returncode == 2
    assert "schedule error: line 2: 'times' repeats line 1" in r.stderr
    assert not (tmp_path / "report.json").exists()


def test_cli_infinite_horizon_runs_to_its_budget(tmp_path):
    # the automatic snapshot spacing is estimated from a step count capped by
    # the budget, so an infinite horizon ends budget-exhausted
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(MINIMAL + "grid.nx = 16\ngrid.ny = 16\nintegrator.t_final = inf\n"
                   "integrator.max_steps = 5\n")
    r = _cli("run", str(cfg), "--out", str(tmp_path / "o"))
    assert r.returncode == 0, r.stderr
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert (summary["status"], summary["n_steps"]) == ("budget-exhausted", 5)


def test_cli_rescale_failure_writes_no_report(flat_run_dir, tmp_path):
    # a decay radius beyond the monitored interior fails the rescale before
    # any output is written
    sched = tmp_path / "sched.cfg"
    sched.write_text("times = 0.0\nlambdas = 2\nsigma = 1\nradii = 99\n")
    r = _cli("rescale", str(flat_run_dir), "--schedule", str(sched),
             "--out", str(tmp_path / "report.json"))
    assert r.returncode == 2
    assert "rescale failed: sample radius 99" in r.stderr
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "decay_profiles.csv").exists()


def test_cli_report_without_summary_exits_2(tmp_path):
    r = _cli("report", str(tmp_path))
    assert r.returncode == 2
    assert "summary.json" in r.stderr


def test_cli_unknown_suite_exits_2():
    r = _cli("verify", "not-a-suite")
    assert r.returncode == 2


def test_cli_verify_suite_passes():
    r = _cli("verify", "scaling-laws")
    assert r.returncode == 0
    assert r.stdout.count("[PASS]") == 3
