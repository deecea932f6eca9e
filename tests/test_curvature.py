import json
import math

import numpy as np
import pytest

from framestream import (Constant, CylindricalI, CylindricalII,
                         DegenerateTangent, Ellipsoid, EvaluationFailure,
                         FrameField,
                         LeftDomain, NotOnLeaf, NotOrthonormal, NotUnitField,
                         OutOfRange, ShapeOperator2x2, Sphere,
                         builtin_frame, curvature_from_parametrization,
                         curvature_report, foliation_defect,
                         integral_curve_curvature, integrate_curve,
                         normal_curvature, parallel_transport_holonomy,
                         shape_operator, winding_term)
from framestream import dual as dm
from framestream.cli import main
from framestream.verification import (_circle_loop, _latitude_loop,
                                      default_frames, random_states,
                                      run_checks)


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


E_X, E_Y, E_Z = np.eye(3)


@pytest.mark.parametrize("vectors", [
    (np.array([math.nan, 0.0, 0.0]), E_Y, E_Z),
    (E_X, np.array([0.0, math.nan, 0.0]), E_Z),
    (E_X, E_Y, np.array([0.0, 0.0, math.nan])),
], ids=["basis1", "basis2", "normal"])
def test_shape_operator_rejects_a_nan_vector(vectors):
    b1, b2, normal = vectors
    with pytest.raises(NotOrthonormal):
        ShapeOperator2x2(matrix=np.eye(2), basis1=b1, basis2=b2,
                         normal=normal)


def test_shape_operator_of_a_nan_field_is_typed():
    field = builtin_frame(Sphere())
    with pytest.raises(NotOrthonormal, match="not orthogonal"):
        shape_operator(lambda p: (math.nan, 0.0, 0.0), field.t_field,
                       field.b_field, [1.2, -0.4, 0.9])


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


def test_winding_violation_prints_the_point_as_floats():
    def raw(x, y, z):
        return (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (z, 1.0, 0.0)
    with pytest.raises(NotOrthonormal, match=r" at \(0\.0, 0\.0, 0\.0\)$"):
        winding_term(FrameField(raw, "tilting"), np.zeros(3))


@pytest.mark.parametrize("call, message", [
    (integral_curve_curvature, r"\|u\| = nan at \(1.0, 0.2, 0.3\)"),
    (foliation_defect, r"\|V\| = nan at \(1.0, 0.2, 0.3\)"),
], ids=["integral-curve", "foliation-defect"])
def test_a_nan_field_is_not_unit(call, message):
    with pytest.raises(NotUnitField, match=f"^{message}$"):
        call(lambda p: (math.nan, 0.0, 0.0), [1.0, 0.2, 0.3])


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


# Only counts whose shape numpy rejects before it allocates anything.
@pytest.mark.parametrize("steps", [2**63, 2**70])
def test_integrate_curve_names_steps_no_array_can_hold(steps):
    with pytest.raises(OutOfRange, match=f"steps = {steps} asks for more"):
        integrate_curve(lambda p: (1.0, 0.0, 0.0), [0, 0, 0], (0, 1), steps)


def test_integrate_curve_names_the_point_as_floats():
    with pytest.raises(LeftDomain) as info:
        integrate_curve(lambda p: (math.log(p[1]), 0.0, 0.0),
                        [1.0, 0.0, 0.0], (0.0, 2.0), 16)
    assert str(info.value) == "field undefined near (1.0, 0.0, 0.0)"


def test_integrate_curve_takes_integer_steps_and_a_span_of_numbers():
    """numpy integers and a span of numeric strings run as before."""
    pts = integrate_curve(lambda p: (1.0, 0.0, 0.0), [0.0, 0.0, 0.0],
                          ("0", "1"), np.int64(16))
    assert pts.shape == (17, 3) and pts[-1].tolist() == [1.0, 0.0, 0.0]


def _raises(p):
    raise ValueError("boom")


def _two_vector(p):
    return (1.0, 0.0)


def _unit_x(p):
    return (1.0, 0.0, 0.0)


BASE = [1.0, 2.0, 3.0]
RAISED = "field raised at probe (1.0, 2.0, 3.0)"
SHAPE_2 = ("field returned a value of shape (2,), not a 3-vector, at probe "
           "(1.0, 2.0, 3.0)")


@pytest.mark.parametrize("call, message", [
    (lambda: foliation_defect(_raises, BASE), RAISED),
    (lambda: foliation_defect(_two_vector, BASE), SHAPE_2),
    (lambda: integral_curve_curvature(_raises, BASE), RAISED),
    (lambda: integral_curve_curvature(_two_vector, BASE), SHAPE_2),
    (lambda: shape_operator(_two_vector, _unit_x, _unit_x, BASE), SHAPE_2),
    (lambda: shape_operator(_unit_x, _raises, _unit_x, BASE), RAISED),
    (lambda: shape_operator(_unit_x, _unit_x, lambda p: ("a", 0.0, 0.0),
                            BASE),
     "field returned no array of numbers at probe (1.0, 2.0, 3.0)"),
    (lambda: integrate_curve(_two_vector, BASE, (0.0, 1.0), 16), SHAPE_2),
], ids=["foliation-raises", "foliation-2-vector", "integral-curve-raises",
        "integral-curve-2-vector", "shape-normal-2-vector",
        "shape-basis-raises", "shape-basis-string", "integrate-2-vector"])
def test_a_generic_field_value_is_one_evaluated_3_vector(call, message):
    """Each generic field is evaluated through the probe that the
    differential engines use, and its value must be a 3-vector."""
    with pytest.raises(EvaluationFailure) as info:
        call()
    assert str(info.value) == message


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


def test_holonomy_clockwise_loop_takes_the_left_cap():
    # Run backwards, the latitude loop has the south cap on its left.
    sphere = builtin_frame(Sphere())
    theta = math.pi / 3.0
    loop = latitude_loop(theta, 4000)[::-1].copy()
    v0 = np.array([math.cos(theta), 0.0, -math.sin(theta)])
    want = 2.0 * math.pi * (1.0 + math.cos(theta))
    assert abs(parallel_transport_holonomy(sphere, loop, v0) - want) < 1e-6
    backtracked = np.vstack([loop[:12], loop[10:]])
    assert abs(parallel_transport_holonomy(sphere, backtracked, v0)
               - want) < 1e-6


def test_holonomy_planar_loop_is_zero():
    const = builtin_frame(Constant())
    phi = np.linspace(0.0, 2.0 * np.pi, 1001)
    loop = np.column_stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)])
    got = parallel_transport_holonomy(const, loop, np.array([1.0, 0.0, 0.0]))
    assert got == 0.0


def test_holonomy_clockwise_planar_loop_is_two_full_turns():
    # Its tangent turns -2 pi against the parallel vector, so 2 pi minus
    # the turning is 4 pi: the loop's left is the plane outside it.
    loop, v0, _ = _circle_loop(1.0, 1000)
    got = parallel_transport_holonomy(builtin_frame(Constant()),
                                      loop[::-1].copy(), v0)
    assert abs(got - 4.0 * math.pi) < 1e-12


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


# Angles of the per-step loop implementation, recorded before the step
# rotations were composed by a prefix scan: (theta, steps, direction,
# angle), direction -1 running the latitude loop backwards.  That
# implementation guessed each loop's orientation from a Gauss-Bonnet
# turning sum, and so gave minus the smaller cap's angle where the left
# cap is the larger one: the reversed loops at theta < pi / 2 and the
# forward loops at theta > pi / 2.  The left cap is the whole sphere's
# 4 pi minus the other cap, so those rows move by exactly 4 pi.
PINNED_HOLONOMY = [
    (0.5235987755982988, 500, 1, 0.8417693130300827),
    (0.5235987755982988, 500, -1, -0.8417693130300823),
    (0.5235987755982988, 2000, 1, 0.8417860956344364),
    (0.5235987755982988, 2000, -1, -0.8417860956344342),
    (0.5235987755982988, 10000, 1, 0.841787169723242),
    (0.5235987755982988, 10000, -1, -0.8417871697232417),
    (1.0471975511965976, 500, 1, 3.141561647007091),
    (1.0471975511965976, 500, -1, -3.141561647007091),
    (1.0471975511965976, 2000, 1, 3.141590715696307),
    (1.0471975511965976, 2000, -1, -3.141590715696307),
    (1.0471975511965976, 10000, 1, 3.141592576074098),
    (1.0471975511965976, 10000, -1, -3.1415925760740966),
    (1.5707963267948966, 500, 1, 6.283185307179586),
    (1.5707963267948966, 500, -1, 6.283185307179586),
    (1.5707963267948966, 2000, 1, 6.283185307179586),
    (1.5707963267948966, 2000, -1, 6.283185307179586),
    (1.5707963267948966, 10000, 1, 6.283185307179586),
    (1.5707963267948966, 10000, -1, 6.283185307179586),
    (2.0, 500, 1, -3.668429168178409),
    (2.0, 500, -1, 3.6684291681784087),
    (2.0, 2000, 1, -3.668455840053118),
    (2.0, 2000, -1, 3.66845584005312),
    (2.0, 10000, 1, -3.668457547033188),
    (2.0, 10000, -1, 3.6684575470331877),
    (2.8, 500, 1, -0.36301899784043673),
    (2.8, 500, -1, 0.3630189978404368),
    (2.8, 2000, 1, -0.3630271937941426),
    (2.8, 2000, -1, 0.3630271937941421),
    (2.8, 10000, 1, -0.36302771833793035),
    (2.8, 10000, -1, 0.3630277183379306),
]


def latitude_v0(theta):
    return np.array([math.cos(theta), 0.0, -math.sin(theta)])


def left_cap_is_larger(theta, direction):
    """Whether the latitude loop at theta, run forward (direction 1) or
    backwards (-1), has the larger of its two caps on its left."""
    return direction * (theta - math.pi / 2.0) > 0.0


@pytest.mark.parametrize("theta, steps, direction, want", PINNED_HOLONOMY)
def test_holonomy_matches_pinned_loop_angles(theta, steps, direction, want):
    loop = latitude_loop(theta, steps)[::direction].copy()
    got = parallel_transport_holonomy(builtin_frame(Sphere()), loop,
                                      latitude_v0(theta))
    if left_cap_is_larger(theta, direction):
        want += 4.0 * math.pi
    assert abs(got - want) < 1e-12


# Angles of 50-step loops that walk one step back and forth after vertex
# k: ..., p_k, p_{k+1}, p_k, p_{k+1}, ..., so the central tangent at the
# repeated p_k is zero.  A turn count taken from the Gauss-Bonnet sum
# alone moves each of them by a full turn.
BACK_AND_FORTH = [
    ("sphere", math.pi / 3, 3.138488963509641),
    ("sphere", 2.5, 11.319291796595621),
    ("plane", None, 0.0),
]


@pytest.mark.parametrize("k", [0, 10, 25, 48])
@pytest.mark.parametrize("frame, theta, want", BACK_AND_FORTH)
def test_holonomy_of_a_loop_that_steps_back_and_forth(frame, theta, want, k):
    if frame == "sphere":
        loop, v0, _ = _latitude_loop(theta, 50)
        field = builtin_frame(Sphere())
    else:
        loop, v0, _ = _circle_loop(1.0, 50)
        field = builtin_frame(Constant())
    loop = np.vstack([loop[:k + 2], loop[k:]])
    assert abs(parallel_transport_holonomy(field, loop, v0) - want) < 1e-12


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("frame, theta", [("sphere", math.pi / 3),
                                          ("sphere", 2.5), ("plane", None)])
def test_a_step_back_and_forth_changes_no_angle(frame, theta, direction):
    if frame == "sphere":
        loop, v0, _ = _latitude_loop(theta, 50)
        field = builtin_frame(Sphere())
    else:
        loop, v0, _ = _circle_loop(1.0, 50)
        field = builtin_frame(Constant())
    loop = loop[::direction].copy()
    want = parallel_transport_holonomy(field, loop, v0)
    for k in (0, 10, 25, 48):
        backtracked = np.vstack([loop[:k + 2], loop[k:]])
        assert abs(parallel_transport_holonomy(field, backtracked, v0)
                   - want) < 1e-12


# The holonomy check's reference is the left cap 2 pi (1 - cos theta),
# on both sides of the equator.
@pytest.mark.parametrize("theta", np.linspace(0.1, math.pi - 0.1, 5).tolist()
                         + [1.75, 2.0, 2.8])
def test_holonomy_check_passes_past_the_equator(theta):
    result, = run_checks(check_filter="holonomy", holonomy_theta=theta)
    assert result.status == "pass"


def test_cli_holonomy_past_the_equator_matches_its_expected(capsys):
    assert main(["holonomy", "--theta", "2", "--no-timestamp"]) == 0
    doc = json.loads(capsys.readouterr().out)["holonomy"]
    assert doc["error"] < 1e-3


# diag(1, -1, -1) maps the sphere frame's n to itself, and the forward
# latitude loop at theta onto the reversed loop at pi - theta, so the
# two loops have one angle.  Hence no full-turn convention gives the
# forward loop at theta 2 pi (1 - cos theta) on all of (0, pi) and
# negates the angle of every reversed loop: the reversed loop at
# pi - theta would need -2 pi (1 + cos theta), 4 pi away.  Both loops
# have the north cap at theta on their left, and both give its angle.
_FLIP = np.array([1.0, -1.0, -1.0])


def _random_rotation(seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.mark.parametrize("theta",
                         np.linspace(0.1, math.pi - 0.1, 8).tolist())
def test_holonomy_is_invariant_under_rotations_of_the_sphere(theta):
    sphere = builtin_frame(Sphere())
    loop, v0, _ = _latitude_loop(theta, 1000)
    want = parallel_transport_holonomy(sphere, loop, v0)
    assert parallel_transport_holonomy(sphere, loop * _FLIP,
                                       v0 * _FLIP) == want
    reversed_loop = _latitude_loop(math.pi - theta, 1000)[0][::-1].copy()
    assert abs(parallel_transport_holonomy(sphere, reversed_loop, v0 * _FLIP)
               - want) < 1e-9
    q = _random_rotation(7)
    assert abs(parallel_transport_holonomy(sphere, loop @ q.T, v0 @ q.T)
               - want) < 1e-12


def test_rotated_loop_past_the_equator_is_pinned():
    sphere = builtin_frame(Sphere())
    loop, v0, _ = _latitude_loop(2.0, 2000)
    # 2 pi (1 - cos 2) to 2e-6: the other cap's -3.6684558400531198 plus
    # 4 pi, exactly.
    want = 8.897914774306052
    assert parallel_transport_holonomy(sphere, loop, v0) == want
    assert parallel_transport_holonomy(sphere, loop * _FLIP,
                                       v0 * _FLIP) == want
    reversed_loop = _latitude_loop(math.pi - 2.0, 2000)[0][::-1].copy()
    assert abs(parallel_transport_holonomy(sphere, reversed_loop, v0 * _FLIP)
               - want) < 1e-9


@pytest.mark.parametrize("theta", [math.pi / 6, 1.2, 2.0, 2.8])
def test_holonomy_independent_of_v0_direction(theta):
    sphere = builtin_frame(Sphere())
    loop = latitude_loop(theta, 1000)
    v0 = latitude_v0(theta)
    w0 = np.cross(sphere.raw(*loop[0].tolist())[0], v0)
    want = parallel_transport_holonomy(sphere, loop, v0)
    rng = np.random.default_rng(17)
    for beta in rng.uniform(0.0, 2.0 * math.pi, 6):
        rotated = math.cos(beta) * v0 + math.sin(beta) * w0
        got = parallel_transport_holonomy(sphere, loop, rotated)
        assert abs(got - want) < 1e-12


def small_circle(axis, alpha, steps):
    """Circle at angular radius alpha about the unit ``axis`` on the unit
    sphere, counterclockwise seen from outside, and its start tangent
    toward the axis' antipode."""
    e1 = np.cross(axis, [1.0, 0.0, 0.0] if abs(axis[0]) < 0.9
                  else [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    phi = np.linspace(0.0, 2.0 * np.pi, steps + 1)[:, None]
    loop = (math.cos(alpha) * axis
            + math.sin(alpha) * (np.cos(phi) * e1 + np.sin(phi) * e2))
    return loop, -math.sin(alpha) * axis + math.cos(alpha) * e1


@pytest.mark.parametrize("seed", range(6))
def test_holonomy_of_rotated_small_circles(seed):
    rng = np.random.default_rng(seed)
    while True:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        alpha = rng.uniform(0.2, 1.2)
        # keep the circle 0.2 rad clear of the sphere frame's poles
        if math.acos(abs(axis[2])) > alpha + 0.2:
            break
    sphere = builtin_frame(Sphere())
    # The cap on the circle's left: its own, or run backwards the rest.
    for direction in (1, -1):
        want = 2.0 * math.pi * (1.0 - direction * math.cos(alpha))
        errs = []
        for steps in (400, 800, 1600):
            loop, v0 = small_circle(axis, alpha, steps)
            got = parallel_transport_holonomy(
                sphere, loop[::direction].copy(), v0)
            errs.append(abs(got - want))
        assert errs[0] < 1e-3
        assert errs[1] < errs[0] / 3.0 and errs[2] < errs[1] / 3.0


@pytest.mark.parametrize("moved, first", [
    ((1, 300), 0), ((137, 301), 136), ((250, 251), 249), ((499,), 0)])
def test_not_on_leaf_names_first_offending_vertex(moved, first):
    # Lifting vertex j off the sphere tilts the central-difference
    # tangents of its neighbours j - 1 and j + 1 (cyclic, 500 vertices).
    theta = math.pi / 3
    loop = latitude_loop(theta, 500)
    for j in moved:
        loop[j] *= 1.0001
    with pytest.raises(NotOnLeaf, match=f"at index {first}$"):
        parallel_transport_holonomy(builtin_frame(Sphere()), loop,
                                    latitude_v0(theta))


def test_cli_holonomy_at_pole_exits_3_with_plain_floats(capsys):
    rc = main(["holonomy", "--theta", "0", "--steps", "100"])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert "frame undefined at loop point (0.0, 0.0, 1.0)" in err
    assert "np.float64" not in err


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


def test_curvature_report_at_a_nan_point_is_typed():
    with pytest.raises(EvaluationFailure,
                       match="kappa_n not orthogonal to n"):
        curvature_report(builtin_frame(Sphere()), [math.nan, 0.0, 1.0])


def test_curvature_report_names_the_point_and_the_cause():
    # n = (x, 0, 1) is not unit, so n . kappa_n = -x^2, finite.
    skew = FrameField(lambda x, y, z: ((x, 0.0, 1.0), (1.0, 0.0, 0.0),
                                       (0.0, 1.0, 0.0)), "skew")
    with pytest.raises(EvaluationFailure) as info:
        curvature_report(builtin_frame(Sphere()), [math.nan, 0.0, 1.0])
    at_nan = str(info.value)
    with pytest.raises(EvaluationFailure) as info:
        curvature_report(skew, [1.0, 0.5, 0.25])
    skewed = str(info.value)
    assert at_nan == ("kappa_n not orthogonal to n at (nan, 0.0, 1.0): "
                      "n . kappa_n is nan: the frame or its Jacobian is "
                      "not finite")
    assert skewed == ("kappa_n not orthogonal to n at (1.0, 0.5, 0.25): "
                      "n . kappa_n = -1.000e+00 exceeds 1e-08, so the "
                      "frame is not orthonormal")


def test_curvature_report_scales_homothetically():
    field = builtin_frame(Ellipsoid(2.0, 1.0, 1.0))
    r = np.array([1.22474487139159, 0.61237243569579, 0.5])
    rep1 = curvature_report(field, r)
    rep2 = curvature_report(field, 2.0 * r)
    assert np.allclose(2.0 * rep2.kappa_n, rep1.kappa_n, atol=1e-10)
    assert np.allclose(2.0 * rep2.shape_n.matrix, rep1.shape_n.matrix,
                       atol=1e-10)
    assert abs(2.0 * rep2.winding - rep1.winding) < 1e-10


@pytest.mark.parametrize("bad", [0, 3, 499])
def test_holonomy_names_first_non_finite_vertex(bad):
    theta = math.pi / 3
    loop = latitude_loop(theta, 500)
    loop[bad, 1] = np.nan
    loop[bad + 1:, 2] = np.inf
    with pytest.raises(LeftDomain, match=f"loop vertex {bad} is not finite"):
        parallel_transport_holonomy(builtin_frame(Sphere()), loop,
                                    latitude_v0(theta))


# --- holonomy of far and tiny loops

def _cli_holonomy(capsys, *flags):
    rc = main(["holonomy", "--steps", "1000", "--no-timestamp", *flags])
    out, err = capsys.readouterr()
    return rc, (json.loads(out)["holonomy"] if out else None), err


@pytest.mark.parametrize("radius", ["1e-12", "1e-100", "1e-139", "1e150"])
def test_cli_holonomy_far_and_tiny_latitude_loops(radius, capsys):
    # The loop scales by the radius; its holonomy does not.
    _, unit, _ = _cli_holonomy(capsys)
    rc, got, err = _cli_holonomy(capsys, "--radius", radius)
    assert rc == 0 and err == ""
    assert abs(got["angle"] - unit["angle"]) < 1e-13
    assert got["error"] < 1e-5


@pytest.mark.parametrize("radius", ["1e160", "1e300"])
def test_cli_holonomy_overflowing_normals_exit_3(radius, capsys):
    rc, got, err = _cli_holonomy(capsys, "--radius", radius)
    assert rc == 3 and got is None
    assert err.startswith("error: frame normal at loop vertex 0 is not a "
                          "finite unit vector: (8.66")
    assert "np.float64" not in err


@pytest.mark.parametrize("radius", ["1e-150", "1e-300"])
def test_cli_holonomy_at_the_origin_exits_3_typed(radius, capsys):
    rc, got, err = _cli_holonomy(capsys, "--radius", radius)
    assert rc == 3 and got is None
    assert err.startswith("error: frame undefined at loop point (8.66")
    assert "Traceback" not in err


@pytest.mark.parametrize("radius", ["1e-200", "1e160", "1e300"])
def test_cli_holonomy_far_and_tiny_planar_loops_are_zero(radius, capsys):
    rc, got, _ = _cli_holonomy(capsys, "--frame", "constant",
                               "--radius", radius)
    assert rc == 0 and got["angle"] == 0.0


@pytest.mark.parametrize("bad", [0, 5, 99])
def test_holonomy_names_first_vertex_with_a_bad_normal(bad):
    sphere = builtin_frame(Sphere())

    def raw(x, y, z):
        n, t, b = sphere.raw(x, y, z)
        if abs(x - loop[bad][0]) < 1e-15 and abs(y - loop[bad][1]) < 1e-15:
            n = (0.0, 0.0, 0.0)
        return n, t, b

    theta = math.pi / 3
    loop = latitude_loop(theta, 100)
    with pytest.raises(LeftDomain, match=f"loop vertex {bad} is not a "
                                         "finite unit vector"):
        parallel_transport_holonomy(FrameField(raw, "holed"), loop,
                                    latitude_v0(theta))


@pytest.mark.parametrize("radius", [1e-8, 1e-100])
def test_small_open_loop_closes_like_the_closed_loop(radius):
    # The closure gap is measured against the loop's own extent, so an
    # open loop (last vertex not repeating the first) is closed even
    # when the whole loop is far smaller than 1.
    theta = math.pi / 3
    closed = latitude_loop(theta, 1000, radius)
    sphere = builtin_frame(Sphere())
    v0 = latitude_v0(theta)
    want = parallel_transport_holonomy(sphere, closed, v0)
    got = parallel_transport_holonomy(sphere, closed[:-1].copy(), v0)
    assert abs(got - want) < 1e-12
    assert abs(want - math.pi) < 1e-4
