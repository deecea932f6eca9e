"""Streaming-term geometry for frame-adapted transport coordinates.

Given an orthonormal frame field (n, t, b) and direction coordinates
(mu, omega), this package evaluates the coefficients of d/dmu and
d/domega in the streaming term Omega . grad Psi, together with the
curvature machinery behind them and independent verification oracles.
"""
from .catalog import (CatalogEntry, catalog_coefficients, catalog_entry,
                      printed_cyl2_grad_mu)
from .curvature import (CurvatureReport, ShapeOperator2x2, curvature_report,
                        curvature_from_parametrization, foliation_defect,
                        integral_curve_curvature, integrate_curve,
                        normal_curvature, parallel_transport_holonomy,
                        shape_operator, winding_term)
from .derivatives import (DEFAULT_CFG, DiffConfig, FrameJet, curl,
                          directional_derivative, frame_jet, jacobian)
from .errors import (DegenerateMetric, DegeneratePoint, DegenerateTangent,
                     DomainExit, EvaluationFailure, FoliationMissing,
                     FramestreamError, InconsistentBreakdown,
                     InconsistentDirection, InconsistentReport, LeftDomain,
                     NotOnLeaf, NotOrthonormal, NotUnitField, OutOfRange,
                     OutsideValidRegion, ParallelInput, PolarDirection,
                     UnwrapFailure)
from .frames import (AngularPoint, Constant, CylindricalI, CylindricalII,
                     Ellipsoid, FrameField, FramePoint, Graph, Paraboloid,
                     Sphere, angles_from_direction, builtin_frame,
                     direction_from_angles, orthonormalize)
from .streaming import (MuForm, OmegaForm, StreamingCoefficients,
                        apply_streaming, coefficients_from_jet, grad_mu,
                        grad_omega, streaming_coefficients)
from .verification import (CheckResult, ConservationReport, RayOracleResult,
                           conservation_check, kb_transform_residual,
                           ray_oracle, run_checks,
                           shape_operator_via_fundamental_forms)

__version__ = "0.1.0"

__all__ = [
    "AngularPoint", "CatalogEntry", "CheckResult", "Constant",
    "ConservationReport",
    "CurvatureReport", "CylindricalI", "CylindricalII", "DEFAULT_CFG",
    "DegenerateMetric", "DegeneratePoint", "DegenerateTangent", "DiffConfig",
    "DomainExit", "Ellipsoid", "EvaluationFailure", "FoliationMissing",
    "FrameField", "FrameJet", "FramePoint", "FramestreamError", "Graph",
    "InconsistentBreakdown", "InconsistentDirection", "InconsistentReport",
    "LeftDomain", "MuForm",
    "NotOnLeaf", "NotOrthonormal", "NotUnitField", "OmegaForm", "OutOfRange",
    "OutsideValidRegion",
    "ParallelInput", "Paraboloid", "PolarDirection", "RayOracleResult",
    "ShapeOperator2x2", "Sphere", "StreamingCoefficients", "UnwrapFailure",
    "angles_from_direction", "apply_streaming", "builtin_frame",
    "catalog_coefficients", "catalog_entry", "coefficients_from_jet",
    "conservation_check", "curl", "curvature_from_parametrization",
    "curvature_report", "direction_from_angles", "directional_derivative",
    "foliation_defect", "frame_jet", "grad_mu", "grad_omega",
    "integral_curve_curvature", "integrate_curve", "jacobian",
    "kb_transform_residual", "normal_curvature",
    "parallel_transport_holonomy", "printed_cyl2_grad_mu", "ray_oracle",
    "run_checks", "shape_operator", "shape_operator_via_fundamental_forms",
    "streaming_coefficients", "winding_term",
]
