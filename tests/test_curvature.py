import math

import numpy as np
import pytest

from framestream import (Constant, CylindricalI, CylindricalII,
                         DegenerateTangent, Ellipsoid, FrameField,
                         LeftDomain, NotOnLeaf, NotOrthonormal, NotUnitField,
                         OutOfRange, ShapeOperator2x2, Sphere,
                         builtin_frame, curvature_from_parametrization,
                         curvature_report, foliation_defect,
                         integral_curve_curvature, integrate_curve,
                         normal_curvature, parallel_transport_holonomy,
                         shape_operator, winding_term)
from framestream import dual as dm
from framestream.verification import default_frames, random_states


def latitude_loop(theta, steps, radius=1.0):
    phi = np.linspace(0.0, 2.0 * np.pi, steps + 1)
    return radius * np.column_stack([
        np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
        np.cos(theta) * np.ones_like(phi)])


# --- curvature of curves

def test_circle_curvature_points_outward():
    # kappa = -gamma'' for arc length; the azimuthal circle of radius 2
    kappa = curvature_from_parametrization((0.0, 1.0, 0.0),
                                           (-0.5, 0.0, 0.0))
    assert np.allclose(kappa, [0.5, 0.0, 0.0])


def test_line_curvature_is_zero():
    kappa = curvature_from_parametrization((1.0, 1.0, 0.0), (0.0, 0.0, 0.0))
    assert np.allclose(kappa, np.zeros(3))


def test_non_arclength_speed_correction():
    # gamma(t) = (cos 2t, sin 2t, 0): |g'| = 2, curvature still 1
    kappa = curvature_from_parametrization((0.0, 2.0, 0.0),
                                           (-4.0, 0.0, 0.0))
    assert np.allclose(np.linalg.norm(kappa), 1.0)


def test_degenerate_tangent_rejected():
    with pytest.raises(DegenerateTangent):
        curvature_from_parametrization((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))


def test_integral_curve_curvature_azimuthal():
    field = builtin_frame(CylindricalII())
    kappa = integral_curve_curvature(field.t_field, [2.0, 0.0, 0.5])
    assert np.allclose(kappa, [0.5, 0.0, 0.0], atol=1e-12)


def test_integral_curve_curvature_straight_ray():
    field = builtin_frame(Sphere())
    kappa = integral_curve_curvature(field.n_field, [1.0, 0.5, -0.3])
    assert np.max(np.abs(kappa)) < 1e-12


def test_integral_curve_requires_unit_field():
    with pytest.raises(NotUnitField):
        integral_curve_curvature(lambda p: (2.0, 0.0, 0.0), [0.0, 0.0, 0.0])


# --- shape operator

def test_sphere_shape_operator_isotropic():
    field = builtin_frame(Sphere())
    r = np.array([1.2, -0.4, 0.9])
    shape = shape_operator(field.n_field, field.t_field, field.b_field, r)
    rho = float(np.linalg.norm(r))
    assert np.allclose(shape.matrix, np.eye(2) / rho, atol=1e-12)
    assert abs(shape.trace - 2.0 / rho) < 1e-12
    assert abs(shape.determinant - 1.0 / rho ** 2) < 1e-12


def test_normal_curvature_quadratic_form():
    field = builtin_frame(CylindricalII())
    shape = shape_operator(field.n_field, field.t_field, field.b_field,
                           [2.0, 0.0, 0.0])
    # cylinder of radius 2: curvature 1/2 azimuthally, 0 axially
    assert abs(normal_curvature(shape, 0.0) - 0.5) < 1e-12
    assert abs(normal_curvature(shape, math.pi / 2)) < 1e-12


def test_shape_operator_basis_validation():
    with pytest.raises(ValueError):
        ShapeOperator2x2(matrix=np.eye(2),
                         basis1=np.array([1.0, 0.0, 0.0]),
                         basis2=np.array([1.0, 0.0, 0.0]),
                         normal=np.array([0.0, 0.0, 1.0]))


# --- foliation defect and winding

def test_nonintegrable_field_has_nonzero_defect():
    field = lambda p: dm.normalize3((-p[1], p[0], 1.0))
    assert abs(foliation_defect(field, [0.4, 0.1, 0.0])) > 0.1


def test_beltrami_defect_is_minus_one():
    field = lambda p: (0.0, dm.cos(p[0]), dm.sin(p[0]))
    assert abs(foliation_defect(field, [0.3, 1.0, -0.5]) + 1.0) < 1e-11


def test_builtin_normals_integrable():
    rng = np.random.default_rng(5)
    for fid in default_frames().values():
        field = builtin_frame(fid)
        for r, _, _ in random_states(fid, 10, rng):
            assert abs(foliation_defect(field.n_field, r)) < 1e-9


def test_winding_vanishes_for_builtin_frames():
    rng = np.random.default_rng(6)
    for fid in (CylindricalI(), CylindricalII(), Sphere()):
        field = builtin_frame(fid)
        for r, _, _ in random_states(fid, 10, rng):
            assert abs(winding_term(field, r)) < 1e-12


def test_winding_antisymmetry_violation_is_typed():
    # Orthonormal at z = 0 only: b tilts toward t along n, t does not.
    def raw(x, y, z):
        return (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (z, 1.0, 0.0)
    with pytest.raises(NotOrthonormal, match="winding antisymmetry"):
        winding_term(FrameField(raw, "tilting"), (0.0, 0.0, 0.0))


def test_winding_nonzero_on_ellipsoid():
    field = builtin_frame(Ellipsoid(2.0, 1.0, 1.0))
    r = np.array([1.22474487139159, 0.61237243569579, 0.5])
    assert abs(winding_term(field, r) + 0.166007905471) < 2e-9


# --- curve integration

def test_integrate_curve_circle():
    field = builtin_frame(CylindricalII()).t_field
    # unit-speed azimuthal flow: arc length 2pi is a half turn at rho=2
    pts = integrate_curve(field, [2.0, 0.0, 0.0], (0.0, 2.0 * math.pi), 400)
    assert pts.shape == (401, 3)
    assert np.allclose(pts[-1], [-2.0, 0.0, 0.0], atol=1e-9)
    assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), 2.0, atol=1e-9)


def test_integrate_curve_needs_steps():
    with pytest.raises(OutOfRange):
        integrate_curve(lambda p: (1.0, 0.0, 0.0), [0, 0, 0], (0, 1), 4)


def test_integrate_curve_domain_exit():
    field = builtin_frame(CylindricalI()).t_field
    # inward radial flow crosses the axis singularity
    with pytest.raises(LeftDomain):
        integrate_curve(lambda p: tuple(-v for v in field(p)),
                        [1.0, 0.0, 0.0], (0.0, 2.0), 64)


# --- holonomy

def test_holonomy_latitude_loop():
    sphere = builtin_frame(Sphere())
    theta = math.pi / 3
    v0 = np.array([math.cos(theta), 0.0, -math.sin(theta)])
    got = parallel_transport_holonomy(sphere, latitude_loop(theta, 4000), v0)
    want = 2.0 * math.pi * (1.0 - math.cos(theta))
    assert abs(got - want) < 1e-6


def test_holonomy_counts_full_turns():
    # equator: the transported vector returns to itself, so the
    # principal value is 0 and the answer is one full turn
    sphere = builtin_frame(Sphere())
    theta = math.pi / 2.0
    v0 = np.array([math.cos(theta), 0.0, -math.sin(theta)])
    got = parallel_transport_holonomy(sphere, latitude_loop(theta, 4000), v0)
    assert abs(got - 2.0 * math.pi) < 1e-9


def test_holonomy_clockwise_loop_flips_sign():
    sphere = builtin_frame(Sphere())
    theta = math.pi / 3.0
    loop = latitude_loop(theta, 4000)[::-1].copy()
    v0 = np.array([math.cos(theta), 0.0, -math.sin(theta)])
    got = parallel_transport_holonomy(sphere, loop, v0)
    assert abs(got + 2.0 * math.pi * (1.0 - math.cos(theta))) < 1e-6


def test_holonomy_planar_loop_is_zero():
    const = builtin_frame(Constant())
    phi = np.linspace(0.0, 2.0 * np.pi, 1001)
    loop = np.column_stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)])
    got = parallel_transport_holonomy(const, loop, np.array([1.0, 0.0, 0.0]))
    assert got == 0.0


def test_holonomy_requires_loop_on_leaf():
    sphere = builtin_frame(Sphere())
    theta = math.pi / 3
    loop = latitude_loop(theta, 500)
    loop[:, 2] += np.linspace(0.0, 0.3, 501)  # spiral off the sphere
    with pytest.raises(NotOnLeaf):
        parallel_transport_holonomy(sphere, loop,
                                    np.array([math.cos(theta), 0.0,
                                              -math.sin(theta)]))


def test_holonomy_second_order_convergence():
    sphere = builtin_frame(Sphere())
    theta = math.pi / 6
    want = 2.0 * math.pi * (1.0 - math.cos(theta))
    v0 = np.array([math.cos(theta), 0.0, -math.sin(theta)])
    errs = [abs(parallel_transport_holonomy(
        sphere, latitude_loop(theta, steps), v0) - want)
        for steps in (500, 1000, 2000)]
    assert errs[1] < errs[0] / 3.0
    assert errs[2] < errs[1] / 3.0


# --- the aggregate report

def test_curvature_report_sphere():
    field = builtin_frame(Sphere())
    r = np.array([2.0, 0.0, 0.0])
    rep = curvature_report(field, r)
    assert np.allclose(rep.kappa_n, np.zeros(3), atol=1e-12)
    # great-circle curvature 1/2 toward the center for both tangents
    assert np.allclose(rep.kappa_t, [0.5, 0.0, 0.0], atol=1e-12)
    assert np.allclose(rep.kappa_b, [0.5, 0.0, 0.0], atol=1e-12)
    assert np.allclose(rep.shape_n.matrix, np.eye(2) / 2.0, atol=1e-12)
    assert abs(rep.winding) < 1e-12
    assert abs(rep.foliation_defect_n) < 1e-12
    assert np.allclose(rep.point, r)


def test_curvature_report_scales_homothetically():
    field = builtin_frame(Ellipsoid(2.0, 1.0, 1.0))
    r = np.array([1.22474487139159, 0.61237243569579, 0.5])
    rep1 = curvature_report(field, r)
    rep2 = curvature_report(field, 2.0 * r)
    assert np.allclose(2.0 * rep2.kappa_n, rep1.kappa_n, atol=1e-10)
    assert np.allclose(2.0 * rep2.shape_n.matrix, rep1.shape_n.matrix,
                       atol=1e-10)
    assert abs(2.0 * rep2.winding - rep1.winding) < 1e-10
