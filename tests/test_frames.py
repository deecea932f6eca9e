import math

import numpy as np
import pytest

from framestream import (Constant, CylindricalI, CylindricalII, DegeneratePoint,
                         Ellipsoid, FramePoint, FramestreamError, Graph,
                         InconsistentDirection, NotOrthonormal, OutOfRange,
                         ParallelInput, Paraboloid, PolarDirection, Sphere,
                         angles_from_direction, apply_streaming,
                         builtin_frame, direction_from_angles,
                         orthonormalize, streaming_coefficients)
from framestream.frames import BUILTIN_FRAMES, check_mu, frame_defect
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


@pytest.mark.parametrize("t, b_tilde, want", [
    ((1.0, 0.0, 0.0), (0.0, 1e200, 1e200), (0.0, 0.5 ** 0.5, 0.5 ** 0.5)),
    ((1.0, 0.0, 0.0), (0.0, 1e308, 0.0), (0.0, 1.0, 0.0)),
    ((0.6, 0.8, 0.0), (1.5e308, 1.5e308, 0.0), (0.8, -0.6, 0.0)),
], ids=["squares-overflow", "1e308", "projection-overflows"])
def test_orthonormalize_rescales_a_huge_b_tilde(t, b_tilde, want):
    # Under the suite's warnings-as-errors, an overflow warning fails.
    _, b = orthonormalize(t, b_tilde)
    assert np.allclose(b, want, rtol=0.0, atol=1e-15)
    assert abs(float(b @ b) - 1.0) <= 1e-15


def test_orthonormalize_keeps_the_bits_of_ordinary_inputs():
    t, b_tilde = np.array([0.6, 0.8, 0.0]), np.array([0.3, -2.0, 1e-3])
    w = b_tilde - (t @ b_tilde) * t
    _, b = orthonormalize(t, b_tilde)
    assert b.tobytes() == (w / np.linalg.norm(w)).tobytes()
    with pytest.raises(ParallelInput):
        orthonormalize((1.0, 0.0, 0.0), (1e300, 0.0, 0.0))


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
    # One polar rule, check_mu's: mu = d . n is clamped to [-1, 1]
    # first, so a direction just past unit length along n is polar too.
    frame = builtin_frame(Constant()).eval([0.0, 0.0, 1.0])
    for direction in [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
                      (0.0, 0.0, 1.0 + 4e-11)]:
        with pytest.raises(PolarDirection) as info:
            angles_from_direction(frame, direction)
        assert str(info.value) == "omega undefined for mu at +-1", direction


def _apply_streaming(direction=None, grad=(0.5, -1.0, 0.25)):
    coeffs = streaming_coefficients(builtin_frame(Sphere()), (1.2, 0.3, 0.9),
                                     0.4, 2.0)
    if direction is None:
        direction = direction_from_angles(coeffs.frame, 0.4, 2.0)
    return apply_streaming(coeffs, direction, grad, 2.0, -3.0)


def _angles(direction):
    frame = builtin_frame(Sphere()).eval([1.0, 0.5, 0.7])
    return angles_from_direction(frame, direction)


NAN3 = (math.nan, 0.0, 0.0)


@pytest.mark.parametrize("call, expected", [
    (lambda: _apply_streaming(direction=NAN3), InconsistentDirection),
    (lambda: _apply_streaming(direction=(1.0, 0.0)), OutOfRange),
    (lambda: _apply_streaming(grad=NAN3), OutOfRange),
    (lambda: _apply_streaming(grad=(1.0, 0.0)), OutOfRange),
    (lambda: _angles(NAN3), OutOfRange),
    (lambda: _angles((math.inf, 0.0, 0.0)), OutOfRange),
    (lambda: _angles((0.6, 0.8)), OutOfRange),
    (lambda: _angles(("a", 0.0, 0.0)), OutOfRange),
    (lambda: orthonormalize(NAN3, (0.0, 1.0, 0.0)), OutOfRange),
    (lambda: orthonormalize((1.0, 0.0, 0.0), NAN3), OutOfRange),
    (lambda: orthonormalize((1.0, 0.0), (0.0, 1.0)), OutOfRange),
], ids=["apply-nan-direction", "apply-2-direction", "apply-nan-gradient",
        "apply-2-gradient", "angles-nan", "angles-inf", "angles-2",
        "angles-string", "orthonormalize-nan-t", "orthonormalize-nan-b",
        "orthonormalize-2"])
def test_direction_chart_rejects_bad_vectors(call, expected):
    with pytest.raises(expected):
        call()


@pytest.mark.parametrize("direction", [(0.1, 0.0, 0.0), (2.0, 0.0, 0.0)],
                         ids=["short", "long"])
def test_angles_reject_a_direction_that_is_not_unit(direction):
    with pytest.raises(OutOfRange, match="^direction must be unit$"):
        _angles(direction)


def test_check_mu_passes_an_empty_array():
    # No state, nothing to check.
    assert check_mu(np.empty(0)) is None


@pytest.mark.parametrize("mus, error, message", [
    ([0.2, -1.0, 0.5], PolarDirection, "omega undefined for mu at +-1"),
    ([0.2, 1.5, math.nan], OutOfRange, "mu = nan outside [-1, 1]"),
], ids=["polar", "nan-beyond-range"])
def test_check_mu_of_an_array_is_that_of_its_worst_entry(mus, error,
                                                         message):
    with pytest.raises(error) as info:
        check_mu(np.array(mus))
    assert str(info.value) == message


def test_direction_rejects_bad_mu():
    frame = builtin_frame(Constant()).eval([0.0, 0.0, 1.0])
    with pytest.raises(OutOfRange):
        direction_from_angles(frame, 1.5, 0.0)


@pytest.mark.parametrize("mu, omega, message", [
    (math.nan, 0.0, "mu = nan outside [-1, 1]"),
    (0.5, math.inf, "omega = inf is not finite"),
    (0.5, -math.inf, "omega = -inf is not finite"),
    (0.5, math.nan, "omega = nan is not finite"),
    ("a", 0.0, "mu and omega must be numbers"),
])
def test_direction_rejects_non_numbers_and_non_finite_angles(mu, omega,
                                                             message):
    frame = builtin_frame(Constant()).eval([0.0, 0.0, 1.0])
    with pytest.raises(OutOfRange) as info:
        direction_from_angles(frame, mu, omega)
    assert str(info.value).startswith(message)


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


# One frame of each failure kind and the message that names it.  The
# accept runs every test at once; a frame it rejects is named by the
# first test that fails, in the order n, t, b (finite, then unit), then
# orthogonality, then handedness.  The unit and orthogonality misses lie
# 1% beyond their bounds, so an accept looser than a test fails here.
FRAME_DEFECTS = {
    "non-finite": (((0, 0, 1), (1, 0, math.inf), (0, 1, 0)),
                   "t must be a finite 3-vector"),
    "nan": (((0, 0, 1), (1, 0, 0), (0, math.nan, 0)),
            "b must be a finite 3-vector"),
    "huge": (((0, 0, 1e200), (1, 0, 0), (0, 1, 0)),
             "n is not unit within 1e-08"),
    # b = n x t holds, so the unit test alone fails.
    "non-unit": (((0, 0, 1.0 + 1.01e-8), (1, 0, 0), (0, 1.0 + 1.01e-8, 0)),
                 "n is not unit within 1e-08"),
    "non-orthogonal": (((0, 0, 1), (1, 0, 1.01e-8), (0, 1, 0)),
                       "frame not orthogonal within 1e-08"),
    "left-handed": (((0, 0, 1), (1, 0, 0), (0, -1, 0)),
                    "frame not right-handed within 1e-08"),
}
CANONICAL = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


@pytest.mark.parametrize("kind", sorted(FRAME_DEFECTS))
def test_frame_defect_names_each_failure_kind(kind):
    (n, t, b), message = FRAME_DEFECTS[kind]
    with pytest.raises(NotOrthonormal) as info:
        FramePoint.loose(n, t, b)
    assert str(info.value) == message
    # A stack fails where one of its frames does, with the same message.
    stack = [np.array([c, v, c], dtype=float)
             for c, v in zip(CANONICAL, (n, t, b))]
    with pytest.raises(NotOrthonormal) as info:
        FramePoint.loose(*stack)
    assert str(info.value) == message
    with np.errstate(over="ignore", invalid="ignore"):
        assert frame_defect(*(v.T for v in stack), 1e-8) == message


def test_frame_defect_accepts_within_its_tolerances():
    # |n|^2 - 1 at just under 2 tol, and n . t just under tol.
    frame = ((0.0, 0.0, 1.0 + 0.99e-8), (1.0, 0.0, 0.99e-8), (0.0, 1.0, 0.0))
    assert frame_defect(*frame, 1e-8) is None
    FramePoint.loose(*frame)
    stack = FramePoint.loose(*(np.array([c, v])
                               for c, v in zip(CANONICAL, frame)))
    assert stack.n.shape == stack.t.shape == stack.b.shape == (2, 3)


@pytest.mark.parametrize("r", [(1.0, 0.5, 0.25, 2.0), (1.0, 0.5), 1.0,
                               ((1.0, 0.5, 0.25),)])
def test_frame_field_eval_rejects_a_point_that_is_not_a_3_vector(r):
    field = builtin_frame(Sphere())
    with pytest.raises(OutOfRange, match="point must be a 3-vector"):
        field.eval(r)
    with pytest.raises(OutOfRange, match="point must be a 3-vector"):
        field(r)


def test_frame_field_eval_keeps_the_raw_bits():
    field = builtin_frame(Ellipsoid(2.0, 1.0, 1.0))
    r = [1.1, -0.4, np.float64(0.3)]
    got = field.eval(r)
    want = field.raw(1.1, -0.4, 0.3)
    for vec, raw in zip((got.n, got.t, got.b), want):
        assert vec.tobytes() == np.array(raw).tobytes()


# --- singular-locus guards at tiny distances

@pytest.mark.parametrize("name", sorted(BUILTIN_FRAMES))
def test_raw_near_the_singular_locus_is_unit_or_degenerate(name):
    # Points 1e-12 to 1e-320 from the origin (and the z-axis): the frame
    # is either a finite orthonormal triple or DegeneratePoint, never a
    # raw ZeroDivisionError.
    raw = builtin_frame(BUILTIN_FRAMES[name].default).raw
    base = np.array([0.6, -0.48, 0.64])
    for k in range(12, 330, 4):
        x, y, z = (base * 10.0 ** -k).tolist()
        try:
            n, t, b = raw(x, y, z)
        except DegeneratePoint:
            assert k > 130
            continue
        FramePoint(n, t, b)


@pytest.mark.parametrize("fid, r", [
    (Sphere(), [6e-13, -4.8e-13, 6.4e-13]),
    (Sphere(), [6e-101, -4.8e-101, 6.4e-101]),
    (CylindricalI(), [6e-13, -8e-13, 3.0]),
    (CylindricalII(), [6e-101, -8e-101, -1.0]),
    (Ellipsoid(2.0, 1.0, 1.0), [6e-101, -4.8e-101, 6.4e-101])])
def test_frames_defined_close_to_the_singular_locus(fid, r):
    frame = builtin_frame(fid).eval(r)
    radial = np.array(r) / np.linalg.norm(r)
    if isinstance(fid, Sphere):
        assert np.allclose(frame.n, radial, atol=1e-15)
