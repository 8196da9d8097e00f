"""riccilab: a numerical laboratory for 2-D Ricci flow coupled to heat flows on
scalar fields and 1-forms, with every monotonicity statement wired up as a
testable runtime monitor."""

import ctypes

from .geometry import (CONFORMAL, GENERAL, WARPED, Grid2D, MetricField,
                       MetricInvariants, OneFormField, christoffel,
                       codifferential, conformal_metric, curvature,
                       curvature_reduced, distance_field, exterior_derivative,
                       flat_metric, general_metric, hodge_laplacian,
                       laplace_beltrami, rough_laplacian, warped_metric)
from .flows import (BLOWUP, BUDGET, BUFFER_BREACH, COMPLETED, FlowProblem,
                    FlowState, IntegratorSpec, StateLayout, Trajectory, cfl_dt,
                    flow_step, run_flow)
from .functionals import (CohomologyProbe, MonitorRecord, ThetaCircle,
                          cutoff_eta, l2_norm_form, loop_length, lp_norm_scalar,
                          min_circumference, sup_norm_form)
from .scenario import ScenarioSpec, make_scenario, parse_scenario, serialize_scenario

__version__ = "0.1.0"


_HEAP_THRESHOLD = 32 << 20      # glibc's ceiling for M_MMAP_THRESHOLD on 64-bit


def _pin_heap_thresholds() -> None:
    """Fix glibc's mmap and heap-trim thresholds at 32 MiB, once.

    A flow step allocates and frees full-grid temporaries of 128 KB to 2 MB.
    Left dynamic, glibc raises both thresholds to the size of the last
    mmapped block freed, so whether a temporary is mmapped, and whether the
    freed top of the heap is trimmed and page-faulted back in on the next
    step, depends on which block was freed last: any change to the
    allocations moves the page faults somewhere else.  Pinned, every such
    temporary stays on the heap.  Where the C library has no mallopt (macOS,
    musl) nothing changes."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, _HEAP_THRESHOLD)    # M_MMAP_THRESHOLD
    mallopt(-1, _HEAP_THRESHOLD)    # M_TRIM_THRESHOLD


_pin_heap_thresholds()
