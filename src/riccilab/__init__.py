"""riccilab: a numerical laboratory for 2-D Ricci flow coupled to heat flows on
scalar fields and 1-forms, with every monotonicity statement wired up as a
testable runtime monitor."""

from .geometry import (CONFORMAL, GENERAL, WARPED, Grid2D, MetricField,
                       MetricInvariants, OneFormField, ScalarField,
                       christoffel, codifferential, conformal_metric,
                       curvature, curvature_reduced, distance_field,
                       exterior_derivative, flat_metric, general_metric,
                       hodge_laplacian, laplace_beltrami, rough_laplacian,
                       warped_metric)
from .flows import (BLOWUP, BUDGET, BUFFER_BREACH, COMPLETED, FlowProblem,
                    FlowState, IntegratorSpec, StateLayout, Trajectory, cfl_dt,
                    flow_step, run_flow)
from .functionals import (CohomologyProbe, MonitorRecord, ThetaCircle,
                          cutoff_eta, l2_norm_form, loop_length, lp_norm_scalar,
                          min_circumference, sup_norm_form)
from .scenario import ScenarioSpec, make_scenario, parse_scenario, serialize_scenario

__version__ = "0.1.0"
