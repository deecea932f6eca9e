"""The catalog chain on explicit components, the Dual operations built
without __init__, and the fd one-point stencil, against frozen copies of
the code they replaced: every result must keep its bits, on floats and
on arrays, and the frame vector fields keep theirs."""
import functools
import math

import numpy as np
import pytest

from framestream import DiffConfig, builtin_frame, directional_derivative
from framestream import catalog, derivatives, jacobian
from framestream import dual as dm
from framestream.errors import EvaluationFailure
from framestream.frames import (Ellipsoid, Paraboloid, _each, _on_arrays,
                                raw_components)
from framestream.verification import default_frames, random_states

FD = DiffConfig(engine="fd")
ENGINES = [DiffConfig(), FD]
STATES_PER_FRAME = 12


def _leaves(x):
    """The float and array leaves of a nested tuple or list, each as
    (type name, bytes), so that two results compare bit for bit.  Every
    NaN reads as one: CPython's float product of two NaNs keeps either
    one's sign, depending on whether the bytecode has been specialized
    yet, so the sign of a NaN is not a property of the code."""
    if isinstance(x, (tuple, list)):
        return [leaf for item in x for leaf in _leaves(item)]
    a = np.asarray(x, dtype=float)
    return [(type(x).__name__, np.where(np.isnan(a), np.nan, a).tobytes())]


def _states(fid, seed):
    return random_states(fid, STATES_PER_FRAME, np.random.default_rng(seed))


# --- frozen copies of the catalog chain -----------------------------------

def _old_dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _old_cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _old_norm_chain(w, dw):
    nw = catalog._sqrt(_old_dot(w, w))
    v = (w[0] / nw, w[1] / nw, w[2] / nw)
    dv = []
    for d in dw:
        dv_coef = _old_dot(d, v)
        dv.append(tuple((d[i] - dv_coef * v[i]) / nw for i in range(3)))
    return v, dv


def _old_gram_schmidt_chain(t, dt, btil, dbtil):
    overlap = _old_dot(btil, t)
    g = tuple(btil[i] - overlap * t[i] for i in range(3))
    dg = []
    for k in range(2):
        coef = _old_dot(dbtil[k], t) + _old_dot(btil, dt[k])
        dg.append(tuple(dbtil[k][i] - coef * t[i] - overlap * dt[k][i]
                        for i in range(3)))
    return _old_norm_chain(g, dg)


def _old_along(dfield, ru, rv):
    d0, d1 = dfield
    return tuple(d0[i] * ru + d1[i] * rv for i in range(3))


def _old_chart_aux(n, t, b, dn, dt, db, rates):
    (u_t, u_b, u_n), (v_t, v_b, v_n) = rates
    dn_t, dn_b, dn_n = (_old_along(dn, u_t, v_t), _old_along(dn, u_b, v_b),
                        _old_along(dn, u_n, v_n))
    dt_t = _old_along(dt, u_t, v_t)
    db_b, db_n = _old_along(db, u_b, v_b), _old_along(db, u_n, v_n)
    d = _old_dot
    return (d(t, dn_t), d(t, dn_b), d(b, dn_t), d(b, dn_b), -d(t, dn_n),
            -d(b, dn_n), -d(b, dt_t), -d(t, db_b), d(t, db_n))


def _old_aux_ellipsoid(fid, x, y, z):
    a, bb, cc = fid.a, fid.b, fid.c
    px, py, pz = x / a, y / bb, z / cc
    lam = catalog._sqrt(px * px + py * py + pz * pz)
    sxy = _each(math.hypot, px, py)
    st, ct = sxy / lam, pz / lam
    cp, sp = px / sxy, py / sxy
    chart = (a * st * cp, bb * st * sp, cc * ct)
    x_th = (a * ct * cp, bb * ct * sp, -cc * st)
    x_ph = (-a * st * sp, bb * st * cp, 0.0)
    x_thph = (-a * ct * sp, bb * ct * cp, 0.0)
    w_n = (st * cp / a, st * sp / bb, ct / cc)
    w_n_th = (ct * cp / a, ct * sp / bb, -st / cc)
    w_n_ph = (-st * sp / a, st * cp / bb, 0.0)
    n, dn = _old_norm_chain(w_n, (w_n_th, w_n_ph))
    t, dt = _old_norm_chain(x_th, ((-chart[0], -chart[1], -chart[2]),
                                   x_thph))
    w_b = (-a * sp, bb * cp, 0.0)
    w_b_ph = (-a * cp, -bb * sp, 0.0)
    btil, dbtil = _old_norm_chain(w_b, ((0.0, 0.0, 0.0), w_b_ph))
    b, db = _old_gram_schmidt_chain(t, dt, btil, dbtil)
    c2 = (lam * x_th[0], lam * x_th[1], lam * x_th[2])
    c3 = (lam * x_ph[0], lam * x_ph[1], lam * x_ph[2])
    det = _old_dot(chart, _old_cross(c2, c3))
    rates = [tuple(_old_dot(row, v) / det for v in (t, b, n))
             for row in (_old_cross(c3, chart), _old_cross(chart, c2))]
    return _old_chart_aux(n, t, b, dn, dt, db, rates)


def _old_graph_aux(fx, fy, fxx, fxy, fyy):
    n, dn = _old_norm_chain((-fx, -fy, 1.0),
                            ((-fxx, -fxy, 0.0), (-fxy, -fyy, 0.0)))
    t, dt = _old_norm_chain((1.0, 0.0, fx),
                            ((0.0, 0.0, fxx), (0.0, 0.0, fxy)))
    btil, dbtil = _old_norm_chain((0.0, 1.0, fy),
                                  ((0.0, 0.0, fxy), (0.0, 0.0, fyy)))
    b, db = _old_gram_schmidt_chain(t, dt, btil, dbtil)
    return _old_chart_aux(n, t, b, dn, dt, db,
                          ((t[0], b[0], n[0]), (t[1], b[1], n[1])))


def _old_aux(fid, x, y, z):
    if isinstance(fid, Ellipsoid):
        return _old_aux_ellipsoid(fid, x, y, z)
    if isinstance(fid, Paraboloid):
        a, b = fid.a, fid.b
        return _old_graph_aux(2.0 * a * x, 2.0 * b * y, 2.0 * a, 0.0,
                              2.0 * b)
    fns = (fid.f_x, fid.f_y, fid.f_xx, fid.f_xy, fid.f_yy)
    if isinstance(x, np.ndarray):
        return _old_graph_aux(*(_on_arrays(fn, x, y) for fn in fns))
    return _old_graph_aux(*(float(fn(x, y)) for fn in fns))


CHART_FRAMES = ["ellipsoid", "paraboloid", "graph"]
# The chain helpers and their frozen copies.
HELPERS = {"_norm_chain": _old_norm_chain,
           "_gram_schmidt_chain": _old_gram_schmidt_chain,
           "_along": _old_along}


def _chart_id(name):
    return default_frames()[name]


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name", CHART_FRAMES)
def test_chart_aux_keeps_its_bits(name, seed, monkeypatch):
    """The aux of each chart frame, one state at a time and as a stack,
    against the frozen chain; and every call that the chain makes to a
    helper, replayed on the frozen helper."""
    fid = _chart_id(name)
    aux = catalog._row(fid)[0]
    calls = []
    for helper in HELPERS:
        def record(*args, _fn=getattr(catalog, helper), _name=helper):
            calls.append((_name, args))
            return _fn(*args)
        monkeypatch.setattr(catalog, helper, record)
    points = np.array([r for r, _, _ in _states(fid, seed)])
    for x, y, z in points.tolist():
        assert _leaves(aux(fid, x, y, z)) == _leaves(
            _old_aux(fid, x, y, z)), (name, (x, y, z))
    x, y, z = points.T
    assert _leaves(aux(fid, x, y, z)) == _leaves(_old_aux(fid, x, y, z))
    monkeypatch.undo()
    assert {helper for helper, _ in calls} == set(HELPERS)
    for helper, args in calls:
        assert _leaves(getattr(catalog, helper)(*args)) == _leaves(
            HELPERS[helper](*args)), helper


# --- frozen copy of the Dual operations ------------------------------------

class _OldDual:
    __slots__ = ("val", "e0", "e1", "e2")
    __array_ufunc__ = None

    def __init__(self, val, e0, e1, e2):
        self.val, self.e0, self.e1, self.e2 = val, e0, e1, e2

    def __add__(self, o):
        if isinstance(o, _OldDual):
            return _OldDual(self.val + o.val, self.e0 + o.e0,
                            self.e1 + o.e1, self.e2 + o.e2)
        return _OldDual(self.val + o, self.e0, self.e1, self.e2)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, _OldDual):
            return _OldDual(self.val - o.val, self.e0 - o.e0,
                            self.e1 - o.e1, self.e2 - o.e2)
        return _OldDual(self.val - o, self.e0, self.e1, self.e2)

    def __rsub__(self, o):
        return _OldDual(o - self.val, -self.e0, -self.e1, -self.e2)

    def __mul__(self, o):
        if isinstance(o, _OldDual):
            return _OldDual(self.val * o.val,
                            self.e0 * o.val + self.val * o.e0,
                            self.e1 * o.val + self.val * o.e1,
                            self.e2 * o.val + self.val * o.e2)
        return _OldDual(self.val * o, self.e0 * o, self.e1 * o, self.e2 * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, _OldDual):
            inv = 1.0 / o.val
            q = self.val * inv
            return _OldDual(q, (self.e0 - q * o.e0) * inv,
                            (self.e1 - q * o.e1) * inv,
                            (self.e2 - q * o.e2) * inv)
        return self * (1.0 / o)

    def __rtruediv__(self, o):
        inv = 1.0 / self.val
        q = o * inv
        f = -q * inv
        return _OldDual(q, f * self.e0, f * self.e1, f * self.e2)

    def __neg__(self):
        return _OldDual(-self.val, -self.e0, -self.e1, -self.e2)


def _old_sin(x):
    if isinstance(x, _OldDual):
        c = _old_cos(x.val)
        return _OldDual(_old_sin(x.val), c * x.e0, c * x.e1, c * x.e2)
    try:
        return math.sin(x)
    except TypeError:
        return np.sin(x)


def _old_cos(x):
    if isinstance(x, _OldDual):
        s = -_old_sin(x.val)
        return _OldDual(_old_cos(x.val), s * x.e0, s * x.e1, s * x.e2)
    try:
        return math.cos(x)
    except TypeError:
        return np.cos(x)


def _old_sqrt(x):
    if isinstance(x, _OldDual):
        root = _old_sqrt(x.val)
        f = 0.5 / root
        return _OldDual(root, f * x.e0, f * x.e1, f * x.e2)
    try:
        return math.sqrt(x)
    except TypeError:
        return np.sqrt(x)


SPECIALS = [0.0, -0.0, 1.5, -2.25, 1e-300, math.inf, -math.inf, math.nan]
BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
          "*": lambda a, b: a * b, "/": lambda a, b: a / b}
UNARY = {"neg": (lambda a: -a, lambda a: -a),
         "sqrt": (dm.sqrt, _old_sqrt), "sin": (dm.sin, _old_sin),
         "cos": (dm.cos, _old_cos)}


def _outcome(fn, *args):
    """The bits of fn(*args), a Dual or a number, or the type of the
    error it raises."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        return type(exc).__name__
    if isinstance(out, (dm.Dual, _OldDual)):
        return _leaves((out.val, out.e0, out.e1, out.e2))
    return _leaves(out)


def _float_operands(rng):
    """(new, old) Dual pairs of float components, each component one of
    SPECIALS or a random float."""
    pairs = []
    for _ in range(30):
        parts = [float(rng.choice(SPECIALS)) if rng.random() < 0.4
                 else float(rng.uniform(-3.0, 3.0)) for _ in range(4)]
        pairs.append((dm.Dual(*parts), _OldDual(*parts)))
    return pairs


def _array_operands(rng):
    """(new, old) Dual pairs with array values and array or float
    tangents (as a stacked seed has), the specials among the entries."""
    pairs = []
    for k in range(6):
        parts = [rng.uniform(-3.0, 3.0, size=len(SPECIALS))
                 for _ in range(4)]
        parts[k % 4][:] = np.roll(SPECIALS, k)
        if k >= 4:
            parts[1:] = [1.0, -0.0, 0.0]
        pairs.append((dm.Dual(*parts), _OldDual(*parts)))
    return pairs


@pytest.mark.parametrize("kind", ["floats", "arrays"])
def test_dual_operations_keep_their_bits(kind):
    rng = np.random.default_rng(20250828)
    duals = (_float_operands if kind == "floats" else _array_operands)(rng)
    numbers = [2.0, -0.0, 0.0, math.inf, math.nan, 0.3]
    if kind == "arrays":
        numbers.append(np.array(SPECIALS))
    for new, old in duals:
        for name, (fn, old_fn) in UNARY.items():
            assert _outcome(fn, new) == _outcome(old_fn, old), name
        for name, op in BINARY.items():
            for new_b, old_b in duals[:12]:
                assert _outcome(op, new, new_b) == _outcome(
                    op, old, old_b), name
            for x in numbers:
                # The Dual's own op and the reflected one of the number.
                assert _outcome(op, new, x) == _outcome(op, old, x), name
                assert _outcome(op, x, new) == _outcome(op, x, old), name


# --- frozen copy of the fd one-point stencil -------------------------------

def _old_probe(field, p):
    try:
        out = field(p)
    except EvaluationFailure:
        raise
    except Exception as exc:
        raise EvaluationFailure(
            f"field raised at probe {tuple(map(dm.value, p))}") from exc
    return out


def _old_richardson(h):
    two_h, two_half_h = 2.0 * h, 2.0 * (h / 2.0)

    def extrapolate(f_h, f_mh, f_h2, f_mh2):
        d = (f_h - f_mh) / two_h
        d_half = (f_h2 - f_mh2) / two_half_h
        return (4.0 * d_half - d) / 3.0
    return extrapolate


def _old_point_stencil(field, r, dirs, h):
    steps = (h, -h, h / 2.0, -h / 2.0)
    extrapolate = _old_richardson(h)
    x, y, z = r
    outs = [_old_probe(field, (x + u * s, y + v * s, z + w * s))
            for u, v, w in dirs for s in steps]
    return np.ascontiguousarray(np.array([
        list(map(extrapolate, *outs[k:k + len(steps)]))
        for k in range(0, len(outs), len(steps))], dtype=float).T)


def _same_array(a, b):
    return (a.shape == b.shape and a.flags.c_contiguous
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("h", [1e-5, 3e-4])
@pytest.mark.parametrize("seed", [7, 11])
def test_point_stencil_keeps_its_bits_on_every_frame(seed, h):
    for name, fid in default_frames().items():
        comps = functools.partial(raw_components, builtin_frame(fid))
        for r, _, _ in _states(fid, seed):
            p = np.asarray(r, dtype=float).tolist()
            assert _same_array(
                derivatives._point_stencil(comps, p, derivatives._AXES, h),
                _old_point_stencil(comps, p, derivatives._AXES, h)), name


def _generic(p):
    x, y, z = p
    return (math.sin(x) * y, x * z - y * y, math.exp(0.1 * z))


@pytest.mark.parametrize("seed", [7, 11])
def test_fd_directional_derivative_of_a_generic_field_keeps_its_bits(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        r = rng.uniform(-2.0, 2.0, size=3)
        h = rng.uniform(-2.0, 2.0, size=3)
        scale = float(np.linalg.norm(h))
        want = scale * _old_point_stencil(
            _generic, r.tolist(), [(h / scale).tolist()], FD.fd_step)[:, 0]
        got = directional_derivative(_generic, r, h, FD)
        assert got.tobytes() == want.tobytes()


# --- the frame vector fields ----------------------------------------------

@pytest.mark.parametrize("cfg", ENGINES, ids=["dual", "fd"])
def test_frame_vector_fields_keep_their_jacobian_bits(cfg):
    for fid in default_frames().values():
        field = builtin_frame(fid)
        raw = field.raw
        old = [lambda p, k=k: raw(p[0], p[1], p[2])[k] for k in range(3)]
        for r, _, _ in _states(fid, 7)[:4]:
            for new_field, old_field in zip(
                    (field.n_field, field.t_field, field.b_field), old):
                assert jacobian(new_field, r, cfg).tobytes() == jacobian(
                    old_field, r, cfg).tobytes(), field.name

