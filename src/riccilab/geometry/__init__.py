from .grid import Grid2D, PERIODIC, TRUNCATED
from .fields import (CONFORMAL, GENERAL, WARPED, MetricField, OneFormField,
                     conformal_metric, flat_metric, general_metric,
                     require_conformal_spd, unbroadcast, warped_metric)
from .operators import (MetricInvariants, christoffel, codifferential,
                        covariant_derivative, curvature, curvature_reduced,
                        distance_field, exterior_derivative, flat_laplacian,
                        grad_norm_sq, hodge_laplacian, laplace_beltrami,
                        reduced_scalar_curvature, rough_laplacian,
                        warped_gauss_curvature)

__all__ = [
    "Grid2D", "PERIODIC", "TRUNCATED",
    "CONFORMAL", "GENERAL", "WARPED",
    "MetricField", "MetricInvariants", "OneFormField",
    "conformal_metric", "flat_metric", "general_metric", "require_conformal_spd",
    "unbroadcast", "warped_metric",
    "christoffel", "codifferential", "covariant_derivative", "curvature",
    "curvature_reduced", "distance_field", "exterior_derivative", "flat_laplacian",
    "grad_norm_sq", "hodge_laplacian", "laplace_beltrami",
    "reduced_scalar_curvature", "rough_laplacian", "warped_gauss_curvature",
]
