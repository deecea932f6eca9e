import math

import numpy as np
import pytest

from framestream import (Constant, CylindricalI, CylindricalII, DegeneratePoint,
                         Ellipsoid, FramePoint, FramestreamError, Graph,
                         NotOrthonormal, OutOfRange, ParallelInput,
                         Paraboloid, PolarDirection, Sphere,
                         angles_from_direction, builtin_frame,
                         direction_from_angles, orthonormalize)
from framestream.verification import default_frames, random_states


def test_frame_point_accepts_canonical_triple():
    fp = FramePoint((0, 0, 1), (1, 0, 0), (0, 1, 0))
    assert np.allclose(fp.n, [0, 0, 1])


def test_frame_point_rejects_non_unit():
    with pytest.raises(ValueError):
        FramePoint((0, 0, 2), (1, 0, 0), (0, 1, 0))


def test_frame_point_rejects_non_orthogonal():
    s = 1.0 / math.sqrt(2.0)
    with pytest.raises(ValueError):
        FramePoint((0, 0, 1), (1, 0, 0), (s, s, 0))


def test_frame_point_rejects_left_handed():
    with pytest.raises(ValueError):
        FramePoint((0, 0, 1), (1, 0, 0), (0, -1, 0))


def test_frame_point_loose_tolerance():
    eps = 1e-10
    n = np.array([0.0, 0.0, 1.0 + eps])
    with pytest.raises(ValueError):
        FramePoint(n, (1, 0, 0), (0, 1, 0))
    fp = FramePoint.loose(n, (1, 0, 0), (0, 1, 0))
    assert fp.n[2] == 1.0 + eps


def test_orthonormalize_basic():
    t, b = orthonormalize((1.0, 0.0, 0.0), (0.5, 2.0, 0.0))
    assert np.allclose(b, [0, 1, 0])
    assert abs(t @ b) < 1e-15


def test_orthonormalize_rejects_parallel():
    with pytest.raises(ParallelInput):
        orthonormalize((1.0, 0.0, 0.0), (2.0, 1e-12, 0.0))


def test_orthonormalize_requires_unit_t():
    with pytest.raises(OutOfRange):
        orthonormalize((2.0, 0.0, 0.0), (0.0, 1.0, 0.0))


def test_angle_roundtrip():
    rng = np.random.default_rng(42)
    frame = builtin_frame(Sphere()).eval([1.0, 0.5, 0.7])
    for _ in range(100):
        mu = rng.uniform(-0.95, 0.95)
        omega = rng.uniform(0.0, 2.0 * math.pi)
        d = direction_from_angles(frame, mu, omega)
        ang = angles_from_direction(frame, d)
        assert abs(ang.mu - mu) < 1e-12
        assert abs(ang.omega - omega) < 1e-12 or \
            abs(ang.omega - omega - 2 * math.pi) < 1e-12


def test_angles_reject_polar_direction():
    frame = builtin_frame(Constant()).eval([0.0, 0.0, 1.0])
    with pytest.raises(PolarDirection):
        angles_from_direction(frame, (0.0, 0.0, 1.0))


def test_direction_rejects_bad_mu():
    frame = builtin_frame(Constant()).eval([0.0, 0.0, 1.0])
    with pytest.raises(OutOfRange):
        direction_from_angles(frame, 1.5, 0.0)


def test_builtin_frames_are_orthonormal_everywhere():
    rng = np.random.default_rng(7)
    for fid in default_frames().values():
        field = builtin_frame(fid)
        for r, _, _ in random_states(fid, 50, rng):
            field.eval(r)  # FramePoint validates at 1e-12


def test_cylindrical_frames_on_axis():
    for fid in (CylindricalI(), CylindricalII()):
        with pytest.raises(DegeneratePoint):
            builtin_frame(fid).eval([0.0, 0.0, 1.0])


def test_sphere_frame_at_pole_and_origin():
    field = builtin_frame(Sphere())
    with pytest.raises(DegeneratePoint):
        field.eval([0.0, 0.0, 2.0])
    with pytest.raises(DegeneratePoint):
        field.eval([0.0, 0.0, 0.0])


def test_sphere_frame_vectors():
    field = builtin_frame(Sphere())
    fp = field.eval([2.0, 0.0, 0.0])
    assert np.allclose(fp.n, [1, 0, 0], atol=1e-15)
    assert np.allclose(fp.t, [0, 0, -1], atol=1e-15)
    assert np.allclose(fp.b, [0, 1, 0], atol=1e-15)


def test_ellipsoid_reduces_to_sphere():
    ell = builtin_frame(Ellipsoid(1.0, 1.0, 1.0))
    sph = builtin_frame(Sphere())
    r = np.array([0.3, -0.8, 0.4])
    fe, fsph = ell.eval(r), sph.eval(r)
    assert np.allclose(fe.n, fsph.n, atol=1e-12)
    assert np.allclose(fe.t, fsph.t, atol=1e-12)
    assert np.allclose(fe.b, fsph.b, atol=1e-12)


def test_ellipsoid_rejects_bad_axes():
    with pytest.raises(OutOfRange):
        Ellipsoid(2.0, -1.0, 1.0)


def test_graph_requires_callables():
    with pytest.raises(OutOfRange):
        Graph(f=1.0, f_x=None, f_y=None, f_xx=None, f_xy=None, f_yy=None)


def test_graph_normal_is_upward():
    fid = Graph(f=lambda x, y: 0.0, f_x=lambda x, y: 0.0,
                f_y=lambda x, y: 0.0, f_xx=lambda x, y: 0.0,
                f_xy=lambda x, y: 0.0, f_yy=lambda x, y: 0.0)
    fp = builtin_frame(fid).eval([0.2, 0.4, 0.0])
    assert np.allclose(fp.n, [0, 0, 1], atol=1e-15)


def test_paraboloid_matches_quadratic_graph():
    par = builtin_frame(Paraboloid(1.0, 2.0))
    gid = Graph(f=lambda x, y: x * x + 2 * y * y,
                f_x=lambda x, y: 2 * x, f_y=lambda x, y: 4 * y,
                f_xx=lambda x, y: 2.0, f_xy=lambda x, y: 0.0,
                f_yy=lambda x, y: 4.0)
    gra = builtin_frame(gid)
    r = np.array([0.5, -0.3, 0.43])
    fp, fg = par.eval(r), gra.eval(r)
    assert np.allclose(fp.n, fg.n, atol=1e-14)
    assert np.allclose(fp.t, fg.t, atol=1e-14)


def test_unknown_frame_id_rejected():
    with pytest.raises(OutOfRange):
        builtin_frame("sphere")


@pytest.mark.parametrize("n, t, b", [
    ((0, 0, 2), (1, 0, 0), (0, 1, 0)),
    ((0, 0, 1), (1, 0, 0), (0, -1, 0)),
    ((0, 0, math.nan), (1, 0, 0), (0, 1, 0)),
    ((0, 0, 1), (1, 0, math.inf), (0, 1, 0)),
    ((0, 0, 1), (1, 0), (0, 1, 0)),
])
def test_frame_point_raises_typed_error(n, t, b):
    with pytest.raises(NotOrthonormal) as exc:
        FramePoint.loose(n, t, b)
    assert isinstance(exc.value, FramestreamError)
    assert isinstance(exc.value, ValueError)


def test_frame_point_names_non_finite_vector():
    with pytest.raises(NotOrthonormal, match="t must be a finite 3-vector"):
        FramePoint((0, 0, 1), (math.nan, 0, 0), (0, 1, 0))
