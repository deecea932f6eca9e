"""The truth sources on stacks.

The catalog and the ray oracle take all of a frame's states as one
(N, 3) stack.  Each entry of a stacked result has the bits of one call
per state, and a stack that holds a failing state raises what the
per-state loop raises: the error of the first failing state.
"""
import ast
import math
from pathlib import Path

import numpy as np
import pytest

from framestream import (DegeneratePoint, DomainExit, EvaluationFailure,
                         FrameField, LeftDomain, OutOfRange,
                         OutsideValidRegion, PolarDirection, UnwrapFailure,
                         builtin_frame, catalog, catalog_coefficients)
from framestream.curvature import _loop_normals
from framestream.frames import BUILTIN_FRAMES, direction_from_angles
from framestream.verification import (_stacked_rays, default_frames,
                                      random_states, ray_oracle)

FRAMES = sorted(BUILTIN_FRAMES)


def _same(a, b) -> bool:
    """Equal bits: the same shape, dtype and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def _raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


# --- the catalog ----------------------------------------------------------

def _catalog_stack(states):
    return (np.array([r for r, _, _ in states]),
            np.array([mu for _, mu, _ in states]),
            np.array([omega for _, _, omega in states]))


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name", FRAMES)
def test_stacked_catalog_is_bit_equal_to_single_calls(name, seed):
    fid = default_frames()[name]
    states = random_states(fid, 200, np.random.default_rng(seed))
    single = np.array([catalog_coefficients(fid, r, mu, omega)
                       for r, mu, omega in states])
    a_mu, a_omega = catalog_coefficients(fid, *_catalog_stack(states))
    assert _same(a_mu, single[:, 0].copy())
    assert _same(a_omega, single[:, 1].copy())


def _with_bad_points(name, bad):
    """Five states of a frame whose points at the indices of ``bad`` are
    replaced by the given points."""
    fid = default_frames()[name]
    states = random_states(fid, 5, np.random.default_rng(3))
    for i, point in bad.items():
        states[i] = (np.array(point, dtype=float), *states[i][1:])
    return fid, states


@pytest.mark.parametrize("name, bad", [
    ("cylindrical-i", {2: (0.0, 0.0, 1.0)}),
    ("cylindrical-ii", {4: (0.0, 0.0, -3.0)}),
    ("sphere", {1: (0.0, 0.0, 2.0)}),
    # The pole comes first, so its error is raised, not the origin's.
    ("ellipsoid", {1: (0.0, 0.0, 1.5), 3: (0.0, 0.0, 0.0)}),
], ids=["cyl1-axis", "cyl2-axis", "sphere-pole", "ellipsoid-pole-origin"])
def test_stacked_catalog_raises_as_the_state_loop(name, bad):
    fid, states = _with_bad_points(name, bad)
    loop = _raised(lambda: [catalog_coefficients(fid, r, mu, omega)
                            for r, mu, omega in states])
    assert loop[0] is OutsideValidRegion
    assert _raised(lambda: catalog_coefficients(
        fid, *_catalog_stack(states))) == loop


def test_catalog_imports_no_differential_engine():
    tree = ast.parse(Path(catalog.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
            if node.module is None:
                modules.update(alias.name for alias in node.names)
    assert {m.rsplit(".", 1)[-1] for m in modules}.isdisjoint(
        {"derivatives", "streaming", "dual"})


# --- the ray oracle -------------------------------------------------------

class _Counted:
    """A frame field whose raw counts its calls."""

    def __init__(self, field):
        self.inner = field
        self.calls = 0

    def raw(self, x, y, z):
        self.calls += 1
        return self.inner.raw(x, y, z)


def _rays(field, states):
    return (np.array([r for r, _, _ in states]),
            np.array([direction_from_angles(field.eval(r), mu, omega)
                      for r, mu, omega in states]))


_RESULT_FIELDS = ("dmu_ds", "domega_ds", "richardson_error_estimate")


def _fields(oracles):
    """The result fields of single-ray results as arrays."""
    return [np.array([getattr(o, name) for o in oracles])
            for name in _RESULT_FIELDS]


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name", FRAMES)
def test_stacked_ray_oracle_is_bit_equal_to_single_calls(name, seed):
    fid = default_frames()[name]
    field = _Counted(builtin_frame(fid))
    states = random_states(fid, 40, np.random.default_rng(seed))
    points, dirs = _rays(field.inner, states)
    for step in (1e-3, 2.5e-4):
        single = _fields([ray_oracle(field, r, d, step)
                          for r, d in zip(points, dirs)])
        field.calls = 0
        stacked = ray_oracle(field, points, dirs, step)
        assert field.calls == 1  # one raw call on all 5 x 40 probes
        assert stacked.step == step
        for name, want in zip(_RESULT_FIELDS, single):
            assert _same(getattr(stacked, name), want)


def test_stacked_ray_oracle_keeps_a_nan_probe():
    sphere = builtin_frame(BUILTIN_FRAMES["sphere"].default)

    def raw(x, y, z):
        n, t, b = sphere.raw(x, y, z)
        # The s = +step probe of each ray has no azimuth reference.
        beyond = x > 1.0 + 5e-4
        nan = np.where(beyond, math.nan, 0.0)
        return n, tuple(c + nan for c in t), b

    field = FrameField(raw, "nan-beyond")
    states = [(np.array([1.0, 0.4, 0.3]) + 0.01 * k, 0.8, 0.9)
              for k in range(4)]
    points, dirs = _rays(sphere, states)
    stacked = ray_oracle(field, points, dirs)
    single = _fields([ray_oracle(field, r, d) for r, d in zip(points, dirs)])
    assert np.isnan(single[1]).all() and np.isnan(single[2]).all()
    for name, want in zip(_RESULT_FIELDS, single):
        assert _same(getattr(stacked, name), want)


def test_stacked_unwrap_crosses_the_branch_cut_beside_a_nan_probe():
    ellipsoid = builtin_frame(BUILTIN_FRAMES["ellipsoid"].default)

    def raw(x, y, z):
        n, t, b = ellipsoid.raw(x, y, z)
        # Probes beyond x = 1.9 have no azimuth reference.
        nan = np.where(x > 1.9, math.nan, 0.0)
        return n, tuple(c + nan for c in t), b

    field = _Counted(FrameField(raw, "nan-beyond"))
    # The first ray's azimuth sits at omega = pi at s = 0 and crosses the
    # branch cut of atan2 between its probes; the second's probes at
    # s > 0 are NaN.
    states = [(np.array([1.0, 0.4, 0.3]), 0.3, math.pi),
              (np.array([1.9, 0.3, 0.2]), 0.2, 0.4),
              (np.array([0.8, -0.5, 0.6]), -0.4, 2.0)]
    points, dirs = _rays(ellipsoid, states)
    r, d = points[0], dirs[0]
    azimuths = [math.atan2(d @ f.b, d @ f.t) for f in (
        ellipsoid.eval(r + s * d) for s in (-1e-3, 1e-3))]
    assert azimuths[0] > 3.0 and azimuths[1] < -3.0
    stacked = ray_oracle(field, points, dirs)
    assert field.calls == 1  # the array unwrap took the whole stack
    single = _fields([ray_oracle(field, r, d) for r, d in zip(points, dirs)])
    assert abs(single[1][0]) < 1.0  # unwrapped: no 2 pi / step
    assert np.isnan(single[1][1]) and np.isnan(single[2][1])
    for name, want in zip(_RESULT_FIELDS, single):
        assert _same(getattr(stacked, name), want)


def test_stacked_unwrap_raises_the_first_failing_rays_jump():
    sphere = builtin_frame(BUILTIN_FRAMES["sphere"].default)
    field = _Counted(sphere)
    # Rays 1 and 3 pass next to the z-axis, where the azimuth turns by
    # more than pi/2 between probes, by different angles.
    points = np.array([[1.0, 0.4, 0.3], [2.5e-4, 1e-4, 1.0],
                       [0.5, -0.2, 0.9], [2.5e-4, -1e-7, 1.0]])
    dirs = np.array([[0.0, 0.6, 0.8], [-1.0, 0.0, 0.0], [0.6, 0.8, 0.0],
                     [-1.0, 0.0, 0.0]])
    with pytest.raises(UnwrapFailure, match="azimuth jump"):
        _stacked_rays(sphere, points, dirs, 1e-3)
    loop = _raised(lambda: [ray_oracle(sphere, r, d)
                            for r, d in zip(points, dirs)])
    assert loop[0] is UnwrapFailure
    assert _raised(lambda: ray_oracle(field, points, dirs)) == loop
    assert field.calls == 1 + 2 * 5  # the stack, then rays 0 and 1


def _sphere_rays_with(bad):
    """Five sphere rays, those at the indices of ``bad`` replaced by the
    given (point, direction) pairs."""
    sphere = builtin_frame(BUILTIN_FRAMES["sphere"].default)
    states = random_states(BUILTIN_FRAMES["sphere"].default, 5,
                           np.random.default_rng(5))
    points, dirs = _rays(sphere, states)
    for i, (point, direction) in bad.items():
        points[i], dirs[i] = point, direction
    return sphere, points, dirs


# The s = +step/2 probe of this ray lands on the z-axis.
AXIS_EXIT = ((5e-4, 0.0, 1.0), (-1.0, 0.0, 0.0))
RADIAL = ((0.6, 0.0, 0.8), (0.6, 0.0, 0.8))
# This ray passes the z-axis between its s = 0 and s = +step/2 probes,
# where the azimuth turns by about pi.
POLE_CROSSING = ((2.5e-4, 1e-7, 1.0), (-1.0, 0.0, 0.0))
NOT_UNIT = ((1.0, 0.4, 0.3), (0.6, 0.0, 0.6))


@pytest.mark.parametrize("bad, expected", [
    ({2: AXIS_EXIT}, DomainExit),
    ({3: RADIAL}, PolarDirection),
    ({1: RADIAL, 3: AXIS_EXIT}, PolarDirection),
    ({1: AXIS_EXIT, 3: RADIAL}, DomainExit),
    ({1: NOT_UNIT}, OutOfRange),
    ({2: POLE_CROSSING}, UnwrapFailure),
], ids=["domain-exit", "polar", "polar-first", "exit-first", "not-unit",
        "azimuth-jump"])
def test_stacked_ray_oracle_raises_as_the_ray_loop(bad, expected):
    field, points, dirs = _sphere_rays_with(bad)
    loop = _raised(lambda: [ray_oracle(field, r, d)
                            for r, d in zip(points, dirs)])
    assert loop[0] is expected
    assert _raised(lambda: ray_oracle(field, points, dirs)) == loop


def test_failing_ray_stack_is_replayed_once():
    # The last of 40 sphere rays starts on the pole axis: one array
    # attempt, then the ray-by-ray loop alone (5 calls for each of the
    # 39 good rays, 1 for the failing centre probe).
    fid = BUILTIN_FRAMES["sphere"].default
    field = _Counted(builtin_frame(fid))
    states = random_states(fid, 40, np.random.default_rng(7))
    points, dirs = _rays(field.inner, states)
    points[-1] = (0.0, 0.0, 1.5)
    loop = _raised(lambda: [ray_oracle(field, r, d)
                            for r, d in zip(points, dirs)])
    assert loop[0] is DomainExit
    assert field.calls == 196
    field.calls = 0
    assert _raised(lambda: ray_oracle(field, points, dirs)) == loop
    assert field.calls == 197


def _long_normal(x, y, z):
    n, t, b = builtin_frame(BUILTIN_FRAMES["sphere"].default).raw(x, y, z)
    return (*n, 0.0), t, b


@pytest.mark.parametrize("raw, direction, expected, message", [
    (None, (math.nan, 0.0, 0.0), OutOfRange,
     r"^ray direction must be unit$"),
    (_long_normal, (0.0, 0.6, 0.8), EvaluationFailure,
     r"^field returned vectors of lengths \(4, 3, 3\), not 3, at probe "),
], ids=["nan-direction", "vectors-not-3-long"])
@pytest.mark.parametrize("stacked", [False, True])
def test_ray_oracle_raises_typed_errors(raw, direction, expected, message,
                                        stacked):
    sphere = builtin_frame(BUILTIN_FRAMES["sphere"].default)
    field = sphere if raw is None else FrameField(raw, "long-normal")
    points = np.array([[0.5, -0.2, 0.9], [1.0, 0.4, 0.3]])
    dirs = np.array([[0.6, 0.8, 0.0], direction])
    if not stacked:
        points, dirs = points[1], dirs[1]
    with pytest.raises(expected, match=message):
        ray_oracle(field, points, dirs)


# --- the loop normals of holonomy ---------------------------------------

def test_loop_normals_replay_a_raw_that_rejects_arrays():
    sphere = builtin_frame(BUILTIN_FRAMES["sphere"].default)
    calls = []

    def float_only(x, y, z):
        calls.append(type(x))
        math.sqrt(x * x)  # a TypeError on arrays of more than one entry
        return sphere.raw(x, y, z)

    pts = np.array([[1.0, 0.2, 0.3], [0.4, -1.0, 2.0], [2.0, 1.0, -1.0]])
    got = _loop_normals(FrameField(float_only, "float-only"), pts)
    assert calls == [np.ndarray, float, float, float]
    want = np.array([sphere.raw(*p)[0] for p in pts.tolist()])
    assert _same(got, want)
    assert _same(_loop_normals(sphere, pts), want)


def test_loop_normals_name_the_first_failing_point():
    sphere = builtin_frame(BUILTIN_FRAMES["sphere"].default)
    pts = np.array([[1.0, 0.2, 0.3], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    with pytest.raises(LeftDomain) as info:
        _loop_normals(sphere, pts)
    assert str(info.value) == "frame undefined at loop point (0.0, 0.0, 2.0)"
    assert isinstance(info.value.__cause__, DegeneratePoint)
    assert "poles" in str(info.value.__cause__)
