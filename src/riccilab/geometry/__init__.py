from .grid import Grid2D, PERIODIC, TRUNCATED
from .fields import (CONFORMAL, GENERAL, WARPED, CurvatureData, MetricField,
                     MetricInvariants, OneFormField, ScalarField, conformal_metric,
                     flat_metric, general_metric, warped_metric)
from .operators import (christoffel, codifferential, covariant_derivative,
                        curvature, curvature_reduced, distance_field,
                        exterior_derivative, flat_laplacian, grad_norm_sq,
                        hodge_laplacian, laplace_beltrami,
                        reduced_scalar_curvature, rough_laplacian,
                        stage_curvature, volume_element, warped_gauss_curvature)

__all__ = [
    "Grid2D", "PERIODIC", "TRUNCATED",
    "CONFORMAL", "GENERAL", "WARPED",
    "CurvatureData", "MetricField", "MetricInvariants", "OneFormField",
    "ScalarField",
    "conformal_metric", "flat_metric", "general_metric", "warped_metric",
    "christoffel", "codifferential", "covariant_derivative", "curvature",
    "curvature_reduced", "distance_field", "exterior_derivative", "flat_laplacian",
    "grad_norm_sq", "hodge_laplacian", "laplace_beltrami",
    "reduced_scalar_curvature", "rough_laplacian", "stage_curvature",
    "volume_element", "warped_gauss_curvature",
]
