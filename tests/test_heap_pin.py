"""riccilab pins glibc's heap thresholds when it is imported, and imports and
runs as before where the C library has no mallopt (macOS, musl).  Each case
runs in a fresh interpreter, because the pin acts once per process."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import ctypes, sys
sys.path.insert(0, "src")
CASE = {case!r}
real, calls = ctypes.CDLL, []

class Libc(real):
    def __getattr__(self, name):
        if name != "mallopt":
            return super().__getattr__(name)
        if CASE == "no-mallopt":
            raise AttributeError(name)
        fn = super().__getattr__(name)
        return lambda param, value: calls.append((param, value)) or fn(param, value)

def cdll(name, *args, **kwargs):
    if CASE == "no-libc":
        raise OSError("no C library")
    return Libc(name, *args, **kwargs)

ctypes.CDLL = cdll
import riccilab
from riccilab.scenario import FormSpec, build, make_scenario
print(calls)
traj = riccilab.run_flow(build(make_scenario(
    name="pin", family="flat-torus", nx=16, ny=16, forms=[FormSpec("main", "sinx_dx")],
    t_final=0.01, cadence=1)))
assert traj.status == riccilab.COMPLETED and traj.n_steps > 0, traj.status
"""


@pytest.mark.parametrize("case, pinned", [
    ("glibc", "[(-3, 33554432), (-1, 33554432)]"),
    ("no-mallopt", "[]"),
    ("no-libc", "[]"),
])
def test_heap_pin_is_optional(case, pinned):
    if case == "glibc" and not sys.platform.startswith("linux"):
        pytest.skip("glibc's mallopt")
    proc = subprocess.run([sys.executable, "-c", SCRIPT.format(case=case)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [pinned]
