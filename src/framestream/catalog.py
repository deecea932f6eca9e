"""Closed-form coefficient catalog.

Every entry evaluates a_mu and a_omega from hand-differentiated chart
expressions, with no calls into the dual-number or finite-difference
engines, so the catalog is an independent cross-check of both.

The formulas are written once over the coordinates x, y, z, each a
Python float for one state or an array of one entry per state for a
stack.  Vectors are 3-tuples of such components.  Arithmetic rounds the
same on floats and on array entries; math.hypot, math.cos and math.sin
run per entry, since numpy's own may round otherwise.  So every entry of
a stacked result has the bits of the single-state call.

The chart chain (_norm_chain, _gram_schmidt_chain, _along and the
ellipsoid's chart rates) unpacks each vector once and writes every
component out, with the operations of the per-index formula in its
order, so one state runs no generator or helper call per component.
The angles share the coefficient path's domain (check_mu), but not its
conversion to sqrt(1 - mu^2), cos and sin.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import OutOfRange, OutsideValidRegion
from .frames import (Constant, CylindricalI, CylindricalII, Ellipsoid,
                     Graph, Paraboloid, Sphere, _each, _on_arrays,
                     any_true, check_mu, float_3vector, float_angles,
                     float_array, on_stack)

_AUX_KEYS = ("s_tt", "s_tb", "s_bt", "s_bb", "kn_t", "kn_b",
             "kt_b", "kb_t", "winding")


@dataclasses.dataclass(frozen=True)
class CatalogEntry:
    id: object
    coeff_formulas: object
    auxiliary: dict
    errata: tuple


def _sqrt(v):
    return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)


def _assemble(aux, mu, omega):
    """a_mu, a_omega from the nine auxiliary scalars, in _AUX_KEYS order;
    mu passes check_mu first, so s is never 0.

    Aux convention: s_ab = a . grad_b n; kn_t/kn_b are the t and b
    components of kappa^n = -grad_n n; kt_b = b . kappa^t;
    kb_t = t . kappa^b; winding = t . grad_n b.
    """
    check_mu(mu)
    s_tt, s_tb, s_bt, s_bb, kn_t, kn_b, kt_b, kb_t, winding = aux
    s = _sqrt(1.0 - mu * mu)
    c, sn = _each(math.cos, omega), _each(math.sin, omega)
    quad = c * c * s_tt + sn * c * (s_tb + s_bt) + sn * sn * s_bb
    a_mu = (1.0 - mu * mu) * quad - mu * s * (c * kn_t + sn * kn_b)
    t_dn = s * c * s_tt + s * sn * s_tb - mu * kn_t
    b_dn = s * c * s_bt + s * sn * s_bb - mu * kn_b
    tilt = -mu * (-sn * t_dn + c * b_dn) / s
    a_omega = s * (c * kt_b - sn * kb_t) + mu * winding + tilt
    return a_mu, a_omega


_ZERO_AUX = (0.0,) * 9


def _aux_constant(fid, x, y, z):
    return _ZERO_AUX


def _cyl_rho(x, y):
    rho = _each(math.hypot, x, y)
    if any_true(rho < 1e-8):
        raise OutsideValidRegion("cylindrical formulas undefined on the axis")
    return rho


def _aux_cyl1(fid, x, y, z):
    return (0.0,) * 7 + (1.0 / _cyl_rho(x, y), 0.0)


def _aux_cyl2(fid, x, y, z):
    return (1.0 / _cyl_rho(x, y),) + (0.0,) * 8


def _aux_sphere(fid, x, y, z):
    rho = _sqrt(x * x + y * y + z * z)
    rxy = _each(math.hypot, x, y)
    if any_true(rho < 1e-8) or any_true(rxy < 1e-8 * rho):
        raise OutsideValidRegion("sphere formulas undefined on the z-axis")
    inv = 1.0 / rho
    # kb_t = cot(theta) / rho
    return (inv, 0.0, 0.0, inv, 0.0, 0.0, 0.0, z / (rho * rxy), 0.0)


# 3-vectors as tuples of components.

def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _norm_chain(w, dw):
    """Value and chart partials of w/|w| given w and its two partials."""
    w0, w1, w2 = w
    nw = _sqrt(w0 * w0 + w1 * w1 + w2 * w2)
    v0, v1, v2 = w0 / nw, w1 / nw, w2 / nw
    (a0, a1, a2), (b0, b1, b2) = dw
    ca = a0 * v0 + a1 * v1 + a2 * v2
    cb = b0 * v0 + b1 * v1 + b2 * v2
    return (v0, v1, v2), (
        ((a0 - ca * v0) / nw, (a1 - ca * v1) / nw, (a2 - ca * v2) / nw),
        ((b0 - cb * v0) / nw, (b1 - cb * v1) / nw, (b2 - cb * v2) / nw))


def _gram_schmidt_chain(t, dt, btil, dbtil):
    """b = btil - (btil . t) t normalized, and its chart partials."""
    t0, t1, t2 = t
    (ta0, ta1, ta2), (tb0, tb1, tb2) = dt
    g0, g1, g2 = btil
    (ga0, ga1, ga2), (gb0, gb1, gb2) = dbtil
    overlap = g0 * t0 + g1 * t1 + g2 * t2
    ca = (ga0 * t0 + ga1 * t1 + ga2 * t2) + (g0 * ta0 + g1 * ta1 + g2 * ta2)
    cb = (gb0 * t0 + gb1 * t1 + gb2 * t2) + (g0 * tb0 + g1 * tb1 + g2 * tb2)
    return _norm_chain(
        (g0 - overlap * t0, g1 - overlap * t1, g2 - overlap * t2),
        ((ga0 - ca * t0 - overlap * ta0, ga1 - ca * t1 - overlap * ta1,
          ga2 - ca * t2 - overlap * ta2),
         (gb0 - cb * t0 - overlap * tb0, gb1 - cb * t1 - overlap * tb1,
          gb2 - cb * t2 - overlap * tb2)))


def _along(dfield, ru, rv):
    """The derivative of a field along a vector, from its partials along
    the two chart coordinates and their rates ru, rv along the vector."""
    (a0, a1, a2), (b0, b1, b2) = dfield
    return (a0 * ru + b0 * rv, a1 * ru + b1 * rv, a2 * ru + b2 * rv)


def _chart_aux(n, t, b, dn, dt, db, rates):
    """The nine auxiliary scalars from the frame's partials along two
    chart coordinates; rates[i][k] is the rate of coordinate i along
    t, b, n for k = 0, 1, 2."""
    (u_t, u_b, u_n), (v_t, v_b, v_n) = rates
    dn_t, dn_b, dn_n = (_along(dn, u_t, v_t), _along(dn, u_b, v_b),
                        _along(dn, u_n, v_n))
    dt_t = _along(dt, u_t, v_t)
    db_b, db_n = _along(db, u_b, v_b), _along(db, u_n, v_n)
    return (_dot(t, dn_t), _dot(t, dn_b), _dot(b, dn_t), _dot(b, dn_b),
            -_dot(t, dn_n), -_dot(b, dn_n), -_dot(b, dt_t), -_dot(t, db_b),
            _dot(t, db_n))


def _aux_ellipsoid(fid, x, y, z):
    a, bb, cc = fid.a, fid.b, fid.c
    px, py, pz = x / a, y / bb, z / cc
    lam = _sqrt(px * px + py * py + pz * pz)
    if any_true(lam < 1e-8):
        raise OutsideValidRegion("ellipsoid chart undefined at origin")
    sxy = _each(math.hypot, px, py)
    if any_true(sxy < 1e-8 * lam):
        raise OutsideValidRegion("ellipsoid chart undefined at poles")
    st, ct = sxy / lam, pz / lam
    cp, sp = px / sxy, py / sxy

    x0, x1, x2 = a * st * cp, bb * st * sp, cc * ct  # the chart point
    h0, h1, h2 = a * ct * cp, bb * ct * sp, -cc * st  # d/d theta
    f0, f1 = -a * st * sp, bb * st * cp  # d/d phi, third component 0
    x_thph = (-a * ct * sp, bb * ct * cp, 0.0)

    w_n = (st * cp / a, st * sp / bb, ct / cc)
    w_n_th = (ct * cp / a, ct * sp / bb, -st / cc)
    w_n_ph = (-st * sp / a, st * cp / bb, 0.0)
    n, dn = _norm_chain(w_n, (w_n_th, w_n_ph))
    t, dt = _norm_chain((h0, h1, h2), ((-x0, -x1, -x2), x_thph))
    w_b = (-a * sp, bb * cp, 0.0)
    w_b_ph = (-a * cp, -bb * sp, 0.0)
    btil, dbtil = _norm_chain(w_b, ((0.0, 0.0, 0.0), w_b_ph))
    b, db = _gram_schmidt_chain(t, dt, btil, dbtil)

    # Chart rates (d theta, d phi) along each frame vector v, by Cramer's
    # rule on the columns (d/d rho, d/d theta, d/d phi) = (chart,
    # lam x_th, lam x_ph): rows c3 x chart and chart x c2 over
    # det = chart . (c2 x c3), c3's third component 0.0.
    c20, c21, c22 = lam * h0, lam * h1, lam * h2
    c30, c31, c32 = lam * f0, lam * f1, lam * 0.0
    det = (x0 * (c21 * c32 - c22 * c31) + x1 * (c22 * c30 - c20 * c32)
           + x2 * (c20 * c31 - c21 * c30))
    p0, p1, p2 = c31 * x2 - c32 * x1, c32 * x0 - c30 * x2, c30 * x1 - c31 * x0
    q0, q1, q2 = x1 * c22 - x2 * c21, x2 * c20 - x0 * c22, x0 * c21 - x1 * c20
    (t0, t1, t2), (b0, b1, b2), (n0, n1, n2) = t, b, n
    rates = ((p0 * t0 + p1 * t1 + p2 * t2) / det,
             (p0 * b0 + p1 * b1 + p2 * b2) / det,
             (p0 * n0 + p1 * n1 + p2 * n2) / det), (
        (q0 * t0 + q1 * t1 + q2 * t2) / det,
        (q0 * b0 + q1 * b1 + q2 * b2) / det,
        (q0 * n0 + q1 * n1 + q2 * n2) / det)
    return _chart_aux(n, t, b, dn, dt, db, rates)


def _graph_aux(fx, fy, fxx, fxy, fyy):
    """The nine scalars of the frame of z = f(x, y) from f's first and
    second partials."""
    n, dn = _norm_chain((-fx, -fy, 1.0),
                        ((-fxx, -fxy, 0.0), (-fxy, -fyy, 0.0)))
    t, dt = _norm_chain((1.0, 0.0, fx), ((0.0, 0.0, fxx), (0.0, 0.0, fxy)))
    btil, dbtil = _norm_chain((0.0, 1.0, fy),
                              ((0.0, 0.0, fxy), (0.0, 0.0, fyy)))
    b, db = _gram_schmidt_chain(t, dt, btil, dbtil)
    # The chart is (x, y): its rates along a vector are the vector's
    # x and y components.
    return _chart_aux(n, t, b, dn, dt, db,
                      ((t[0], b[0], n[0]), (t[1], b[1], n[1])))


def _aux_graph(g: Graph, x, y, z):
    fns = (g.f_x, g.f_y, g.f_xx, g.f_xy, g.f_yy)
    if isinstance(x, np.ndarray):
        return _graph_aux(*(_on_arrays(fn, x, y) for fn in fns))
    return _graph_aux(*(float(fn(x, y)) for fn in fns))


def _aux_paraboloid(fid, x, y, z):
    """z = a x^2 + b y^2, its partials written here rather than read
    from as_graph(), which builds six closures per call."""
    a, b = fid.a, fid.b
    return _graph_aux(2.0 * a * x, 2.0 * b * y, 2.0 * a, 0.0, 2.0 * b)


def printed_cyl2_grad_mu(r, mu: float, omega: float) -> float:
    """Quoted variant of the cylinder-II mu-coefficient with a
    sqrt(1-mu^2) prefactor; agrees with the derived coefficient only
    at mu = 0.  Kept for inspection, never used in comparisons."""
    inv = 1.0 / _cyl_rho(float(r[0]), float(r[1]))  # the entry's rounding
    c = math.cos(omega)
    return math.sqrt(max(0.0, 1.0 - mu * mu)) * (c * c * inv)


_CYL2_NOTE = ("quoted mu-coefficient sqrt(1-mu^2)cos^2(omega)/rho matches "
              "the derived (1-mu^2)cos^2(omega)/rho only at mu = 0; the "
              "derived form is returned (printed_cyl2_grad_mu keeps the "
              "variant inspectable)")
_ELL_NOTE = ("quoted auxiliary closed forms for b, the winding term, and "
             "the kappa^t/kappa^b components disagree with the frame's "
             "measured derivatives; this entry assembles from exact chart "
             "derivatives instead")
_GRAPH_NOTE = ("quoted shape-operator entries carry a non-unit normal in "
               "their scaling and lose the symmetry of the true operator; "
               "this entry assembles from exact chart derivatives")


# Id type -> (aux(fid, x, y, z), errata, quoted variants kept for
# inspection).  The registry in frames.py holds everything else about a
# frame; this table stays here so the catalog remains independent.
_ENTRIES = {
    Constant: (_aux_constant, (), {}),
    CylindricalI: (_aux_cyl1, (), {}),
    CylindricalII: (_aux_cyl2, (_CYL2_NOTE,),
                    {"a_mu_printed": printed_cyl2_grad_mu}),
    Sphere: (_aux_sphere, (), {}),
    Ellipsoid: (_aux_ellipsoid, (_ELL_NOTE,), {}),
    Paraboloid: (_aux_paraboloid, (_GRAPH_NOTE,), {}),
    Graph: (_aux_graph, (_GRAPH_NOTE,), {}),
}


def _row(fid):
    row = _ENTRIES.get(type(fid))
    if row is None:
        raise OutsideValidRegion(f"no catalog entry for {fid!r}")
    return row


def _aux_at(fid, r):
    """The nine auxiliary scalars at one point r."""
    x, y, z = float_3vector(r, "point").tolist()
    return _row(fid)[0](fid, x, y, z)


def catalog_entry(fid) -> CatalogEntry:
    """Catalog entry for a closed-form frame identifier."""
    _, errata, printed = _row(fid)
    auxiliary = {key: (lambda r, i=i: _aux_at(fid, r)[i])
                 for i, key in enumerate(_AUX_KEYS)}
    auxiliary.update(printed)
    return CatalogEntry(id=fid,
                        coeff_formulas=functools.partial(catalog_coefficients,
                                                         fid),
                        auxiliary=auxiliary, errata=errata)


def catalog_coefficients(fid, r, mu, omega):
    """Closed-form (a_mu, a_omega) for a builtin frame identifier.

    r is one point, with float mu and omega; or an (N, 3) array of
    points, with arrays of N mu and N omega values, and the result is
    two arrays of N values.  A stack is one pass of array arithmetic,
    through on_stack.  Where that raises (a state on a singular locus,
    say), or where a point, mu or omega is not finite, the states go one
    by one through the single-state call, which raises the first failing
    state's error.  Every entry of a stacked result has the single-state bits.
    Each mu must pass check_mu, as in streaming_coefficients.
    """
    aux = _row(fid)[0]
    pts = float_array(r, "catalog point")
    if pts.shape == (3,):
        return _assemble(aux(fid, *pts.tolist()), *float_angles(mu, omega))
    mus = float_array(mu, "mu")
    omegas = float_array(omega, "omega")
    if pts.ndim != 2 or pts.shape[1] != 3 \
            or mus.shape != pts.shape[:1] or omegas.shape != mus.shape:
        raise OutOfRange("catalog point must be a 3-vector, or an (N, 3) "
                         "array with N mu and N omega values")
    return on_stack(lambda: _assemble(aux(fid, *pts.T), mus, omegas),
                    functools.partial(catalog_coefficients, fid),
                    pts, mus, omegas)
