"""Engine checks: the dual-number path and the central-difference path
must agree with each other and with hand-derived Jacobians."""
import math

import numpy as np
import pytest

from framestream import (DiffConfig, EvaluationFailure, builtin_frame, curl,
                         directional_derivative, frame_jet, jacobian, Sphere)
from framestream import dual as dm

FD = DiffConfig(engine="fd", fd_step=1e-5)


def test_jacobian_constant_field():
    field = lambda p: (1.0, 2.0, 3.0)
    assert np.allclose(jacobian(field, [0.3, -1.0, 2.0]), np.zeros((3, 3)))


def test_jacobian_identity_field():
    field = lambda p: (p[0], p[1], p[2])
    for cfg in (None, FD):
        j = jacobian(field, [0.3, -1.0, 2.0]) if cfg is None else \
            jacobian(field, [0.3, -1.0, 2.0], cfg)
        assert np.allclose(j, np.eye(3), atol=1e-10)


def test_jacobian_sphere_normal_on_axis_point():
    # grad(r/|r|) = (I - n n^T)/|r|; at (0,0,2) this is diag(1,1,0)/2
    n_only = lambda p: dm.normalize3((p[0], p[1], p[2]))
    want = 0.5 * np.diag([1.0, 1.0, 0.0])
    assert np.allclose(jacobian(n_only, [0.0, 0.0, 2.0]), want, atol=1e-12)
    assert np.allclose(jacobian(n_only, [0.0, 0.0, 2.0], FD), want,
                       atol=1e-9)


def test_curl_constant_is_zero():
    field = lambda p: (0.4, 0.5, 0.6)
    assert np.allclose(curl(field, [1.0, 2.0, 3.0]), np.zeros(3))


def test_curl_rotation_field():
    field = lambda p: (-p[1], p[0], 0.0)
    assert np.allclose(curl(field, [0.7, -0.2, 1.1]), [0.0, 0.0, 2.0],
                       atol=1e-13)


def test_curl_beltrami_field():
    field = lambda p: (0.0, dm.cos(p[0]), dm.sin(p[0]))
    r = np.array([0.3, 1.0, -0.5])
    v = np.array([0.0, math.cos(0.3), math.sin(0.3)])
    assert np.allclose(curl(field, r), -v, atol=1e-12)
    assert np.allclose(curl(field, r, FD), -v, atol=1e-9)


def test_engines_agree_on_analytic_fields():
    rng = np.random.default_rng(0)

    def field(p):
        return (dm.sin(p[0]) * p[1], p[2] * p[2], dm.cos(p[1] + p[2]))

    for _ in range(200):
        r = rng.uniform(-2.0, 2.0, 3)
        h = rng.normal(size=3)
        h /= np.linalg.norm(h)
        a = directional_derivative(field, r, h)
        b = directional_derivative(field, r, h, FD)
        assert np.max(np.abs(a - b)) < 1e-7


def test_directional_derivative_matches_jacobian_column():
    field = lambda p: (p[0] * p[1], dm.sin(p[2]), p[0] + p[2])
    r = np.array([0.5, -1.2, 0.8])
    j = jacobian(field, r)
    for k, h in enumerate(np.eye(3)):
        assert np.allclose(directional_derivative(field, r, h), j[:, k])


def test_frame_jet_consistency():
    field = builtin_frame(Sphere())
    r = np.array([1.0, 0.4, -0.6])
    jet = frame_jet(field, r)
    h = np.array([0.3, -0.5, 0.2])
    want = directional_derivative(field.n_field, r, h)
    assert np.allclose(jet.jn @ h, want, atol=1e-13)


def test_frame_jet_engines_agree():
    field = builtin_frame(Sphere())
    r = np.array([0.9, -0.2, 0.5])
    jd = frame_jet(field, r)
    jf = frame_jet(field, r, FD)
    assert np.max(np.abs(jd.jn - jf.jn)) < 1e-8
    assert np.max(np.abs(jd.jt - jf.jt)) < 1e-8
    assert np.max(np.abs(jd.jb - jf.jb)) < 1e-8


def test_raising_field_wrapped():
    def field(p):
        raise ZeroDivisionError("boom")

    with pytest.raises(EvaluationFailure):
        jacobian(field, [0.0, 0.0, 1.0])


def test_plain_math_field_fails_under_dual_engine():
    # math.cos rejects Dual scalars on purpose; fields for the dual
    # engine must use framestream.dual, or select engine="fd".
    field = lambda p: (0.0, math.cos(p[0]), math.sin(p[0]))
    with pytest.raises(EvaluationFailure):
        jacobian(field, [0.3, 0.0, 0.0])
    v = np.array([0.0, math.cos(0.3), math.sin(0.3)])
    assert np.allclose(curl(field, [0.3, 0.0, 0.0], FD), -v, atol=1e-9)


# --- fields whose values are nested or scalar --------------------------------

NESTED_POINT = [1.0, 0.4, 0.3]


def _sphere_triple():
    sphere = builtin_frame(Sphere())
    return lambda p: sphere.raw(*p)


def test_dual_jacobian_of_stacked_vectors_matches_fd():
    field = _sphere_triple()
    jd = jacobian(field, NESTED_POINT)
    jf = jacobian(field, NESTED_POINT, FD)
    assert jd.shape == jf.shape == (3, 3, 3)
    assert np.max(np.abs(jd - jf)) < 1e-9
    # Each block is the Jacobian of one frame vector.
    jet = frame_jet(builtin_frame(Sphere()), NESTED_POINT)
    assert np.array_equal(jd, np.array([jet.jn, jet.jt, jet.jb]))


def test_dual_directional_derivative_of_stacked_vectors_matches_fd():
    field = _sphere_triple()
    h = [0.3, 0.2, -0.1]
    dd = directional_derivative(field, NESTED_POINT, h)
    df = directional_derivative(field, NESTED_POINT, h, FD)
    assert dd.shape == df.shape == (3, 3)
    assert np.max(np.abs(dd - df)) < 1e-9
    assert np.allclose(dd, jacobian(field, NESTED_POINT) @ h, rtol=0.0,
                       atol=1e-15)


def test_scalar_field_gradient_on_both_engines():
    field = lambda p: p[0] * p[1] + 2.0 * p[2]
    want = np.array([0.4, 1.0, 2.0])
    assert np.array_equal(jacobian(field, NESTED_POINT), want)
    assert np.allclose(jacobian(field, NESTED_POINT, FD), want, atol=1e-9)


@pytest.mark.parametrize("field", [
    lambda p: ((p[0], p[1]), (p[2],)),
    lambda p: (p[0], "a", p[1]),
], ids=["ragged", "string"])
def test_dual_engine_rejects_values_that_are_not_numbers(field):
    with pytest.raises(EvaluationFailure, match="not a number"):
        jacobian(field, NESTED_POINT)
    with pytest.raises(EvaluationFailure, match="not a number"):
        directional_derivative(field, NESTED_POINT, [1.0, 0.0, 0.0])
