"""parallel_transport_holonomy against a frozen copy of the transport it
replaced, which composed the step rotations by a Hillis-Steele prefix
scan and took the drift from every prefix: each loop angle must keep its
bits, and each loop that fails must raise the same error."""
import math

import numpy as np
from framestream import (Constant, Sphere, builtin_frame,
                         parallel_transport_holonomy)
from framestream.curvature import _loop_normals, _tangential
from framestream.derivatives import _dot
from framestream.errors import FramestreamError, LeftDomain, NotOnLeaf
from framestream.errors import OutOfRange
from framestream.frames import float_array, float_vector
from framestream.verification import _circle_loop, _latitude_loop


# --- frozen copy of the scan-based transport ------------------------------

def _old_prefix_rotations(prev, nxt):
    ax = np.cross(np.eye(3), np.cross(prev, nxt)[:, None, :])
    rot = np.eye(3) + ax + (ax @ ax) / (1.0 + _dot(prev, nxt))[:, None, None]
    k = 1
    while k < len(rot):
        rot[k:] = rot[k:] @ rot[:-k]
        k *= 2
    return rot


def _old_holonomy(frame_field, loop, v0):
    pts = float_array(loop, "loop")
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 8:
        raise OutOfRange("loop must be an (N,3) array with N >= 8")
    not_finite = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if not_finite.size:
        i = not_finite[0]
        raise LeftDomain(f"loop vertex {i} is not finite: "
                         f"{tuple(pts[i].tolist())}")
    v = float_vector(v0, "v0")
    span = float(np.abs(pts).max())
    extent = float(np.ptp(pts, axis=0).max())
    if math.hypot(*(pts[0] - pts[-1]).tolist()) > 1e-9 * extent:
        pts = np.vstack([pts, pts[0]])
    m = pts.shape[0] - 1
    normals = _loop_normals(frame_field, pts[:m])
    not_unit = np.flatnonzero(~(np.abs(_dot(normals, normals) - 1.0)
                                <= 1e-8))
    if not_unit.size:
        i = not_unit[0]
        raise LeftDomain(f"frame normal at loop vertex {i} is not a finite "
                         f"unit vector: {tuple(pts[i].tolist())}")
    if extent == 0.0:
        raise OutOfRange(f"loop has no extent: all {len(pts)} vertices are "
                         f"{tuple(pts[0].tolist())}")
    pts = np.ldexp(pts, -math.frexp(span)[1])
    tang = np.roll(pts[:m], -1, axis=0) - np.roll(pts[:m], 1, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.abs(_dot(normals, tang)) / np.linalg.norm(tang, axis=1)
    off_leaf = np.flatnonzero(slope > 1e-6)
    if off_leaf.size:
        raise NotOnLeaf(
            f"loop tangent leaves the leaf at index {off_leaf[0]}")
    n0 = normals[0]
    v = v - float(v @ n0) * n0
    nv = float(np.linalg.norm(v))
    if nv < 1e-12:
        raise NotOnLeaf("v0 has no tangential part at the loop start")
    v_start = v / nv
    w_start = np.cross(n0, v_start)
    n_next = np.roll(normals, -1, axis=0)
    vecs = _old_prefix_rotations(normals, n_next) @ v_start
    vecs = _tangential(vecs, n_next)
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    u = _tangential(tang, normals)
    defined = np.linalg.norm(u, axis=1) != 0.0
    idx = np.arange(m + 1) % m
    carried = np.vstack([v_start, vecs])
    angles = np.arctan2(_dot(carried, np.cross(normals[idx], u[idx])),
                        _dot(carried, u[idx]))[defined[idx]]
    d = np.diff(angles)
    drift = float(np.sum(np.arctan2(np.sin(d), np.cos(d))))
    v_end = vecs[-1] - float(vecs[-1] @ n0) * n0
    v_end = v_end / float(np.linalg.norm(v_end))
    principal = math.atan2(float(v_end @ w_start), float(v_end @ v_start))
    estimate = 2.0 * math.pi + drift
    turns = round((estimate - principal) / (2.0 * math.pi))
    return principal + 2.0 * math.pi * turns


# --- the loop grid ---------------------------------------------------------

def _latitude(theta, steps, radius=1.0, times=1):
    """The latitude loop at theta in ``steps`` steps per turn, run
    ``times`` times, and a start vector tangent to it."""
    phi = np.linspace(0.0, 2.0 * np.pi * times, steps * times + 1)
    loop = radius * np.column_stack([
        np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
        np.cos(theta) * np.ones_like(phi)])
    return loop, np.array([math.cos(theta), 0.0, -math.sin(theta)])


def _circle(steps, radius):
    phi = np.linspace(0.0, 2.0 * np.pi, steps + 1)
    loop = radius * np.column_stack([np.cos(phi), np.sin(phi),
                                     np.zeros_like(phi)])
    return loop, np.array([1.0, 0.0, 0.0])


def _back_and_forth(loop, k, times=1):
    """The loop stepping back and forth ``times`` times after vertex k."""
    return np.vstack([loop[:k + 2]] + [loop[k:k + 2]] * (times - 1)
                     + [loop[k:]])


THETAS = np.linspace(0.15, math.pi - 0.15, 8).tolist()
STEPS = (8, 9, 50, 333, 1000)
RADII = [10.0 ** e for e in range(-150, 151, 25)]


def _grid():
    """(id, frame, loop, v0) over the grid: sphere latitude loops of 8
    polar angles, 5 step counts and both directions; 50-step ones that
    step back and forth once at 4 places or more than once at 2; planar
    circles of radius 1e-150 to 1e150 and sphere loops at those radii."""
    sphere, plane = builtin_frame(Sphere()), builtin_frame(Constant())
    for theta in THETAS:
        for direction in (1, -1):
            for steps in STEPS:
                loop, v0 = _latitude(theta, steps)
                yield (f"lat-{theta:.3f}-{steps}-{direction}", sphere,
                       loop[::direction].copy(), v0)
            loop, v0 = _latitude(theta, 50)
            loop = loop[::direction].copy()
            for k in (0, 10, 25, 48):
                yield (f"back-{theta:.3f}-{k}-{direction}", sphere,
                       _back_and_forth(loop, k), v0)
            for k in (10, 25):
                yield (f"back3-{theta:.3f}-{k}-{direction}", sphere,
                       _back_and_forth(loop, k, 3), v0)
    for radius in RADII:
        for direction in (1, -1):
            loop, v0 = _circle(64, radius)
            yield (f"circle-{radius:.0e}-{direction}", plane,
                   loop[::direction].copy(), v0)
            loop, v0 = _latitude(1.0, 64, radius)
            yield (f"sphere-{radius:.0e}-{direction}", sphere,
                   loop[::direction].copy(), v0)


def _outcome(call, field, loop, v0):
    """The angle's bytes, or the type and message of the error raised."""
    try:
        return np.float64(call(field, loop, v0)).tobytes()
    except FramestreamError as exc:
        return type(exc).__name__, str(exc)


def test_holonomy_keeps_the_bits_of_the_prefix_scan():
    grid = list(_grid())
    assert len(grid) == 228
    moved = [name for name, field, loop, v0 in grid
             if _outcome(parallel_transport_holonomy, field, loop, v0)
             != _outcome(_old_holonomy, field, loop, v0)]
    assert moved == []


def _stress_cases():
    """(id, frame, loop, v0) that stress the layouts the transport reads
    and its turn count: loops run more than once; Fortran-ordered,
    negative-stride, open and integer loops; a NaN vertex; a short loop that
    steps back and forth many times; and the loops of verify's holonomy
    check at four polar angles."""
    sphere, plane = builtin_frame(Sphere()), builtin_frame(Constant())
    for times in (2, 3):
        for direction in (1, -1):
            loop, v0 = _latitude(1.1, 64, times=times)
            yield (f"turns-{times}-{direction}", sphere,
                   loop[::direction].copy(), v0)
    loop, v0 = _latitude(0.7, 100)
    yield "fortran", sphere, np.asfortranarray(loop), v0
    yield "negative-stride", sphere, loop[::-1], v0
    yield "open", sphere, loop[:-1], v0
    square = [(0, 0, 3), (1, 0, 3), (2, 0, 3), (2, 1, 3), (2, 2, 3),
              (1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 0, 3)]
    yield "integer-plane", plane, np.array(square), np.array([1, 1, 0])
    yield ("integer-plane-open", plane, np.array(square[:-1]),
           np.array([1, 1, 0]))
    ring = [(5, 0, 0), (4, 3, 0), (3, 4, 0), (0, 5, 0), (-3, 4, 0),
            (-4, 3, 0), (-5, 0, 0), (-4, -3, 0), (-3, -4, 0), (0, -5, 0),
            (3, -4, 0), (4, -3, 0)]
    yield "integer-sphere", sphere, np.array(ring), np.array([0, 0, 1])
    nan_loop = loop.copy()
    nan_loop[5] = (np.nan, 0.0, 0.0)
    yield "nan-vertex-5", sphere, nan_loop, v0
    loop, v0 = _latitude(0.9, 10)
    yield "back-20", sphere, _back_and_forth(loop, 3, 20), v0
    for theta in (0.3, math.pi / 3.0, 2.0, 2.9):
        for steps in (1000, 2000):
            loop, v0, _ = _latitude_loop(theta, steps)
            yield f"check-{theta:.3f}-{steps}", sphere, loop, v0
    loop, v0, _ = _circle_loop(1.0, 2000)  # the same at every theta
    yield "check-circle", plane, loop, v0


def test_holonomy_keeps_the_bits_on_layouts_and_turn_counts():
    cases = list(_stress_cases())
    assert len(cases) == 21
    moved = [name for name, field, loop, v0 in cases
             if _outcome(parallel_transport_holonomy, field, loop, v0)
             != _outcome(_old_holonomy, field, loop, v0)]
    assert moved == []
    # The cases reach both outcomes, and the loop run three times turns
    # v0 by three times the cap's area, modulo full turns.
    outcomes = {name: _outcome(parallel_transport_holonomy, field, loop, v0)
                for name, field, loop, v0 in cases}
    assert outcomes["nan-vertex-5"][0] == "LeftDomain"
    assert "vertex 5 " in outcomes["nan-vertex-5"][1]
    assert isinstance(outcomes["integer-plane"], bytes)
    three = np.frombuffer(outcomes["turns-3-1"], dtype=np.float64)[0]
    cap = 2.0 * np.pi * (1.0 - math.cos(1.1))
    assert abs(math.remainder(three - 3.0 * cap, 2.0 * np.pi)) < 1e-2
