"""Closed-form coefficient catalog.

Every entry evaluates a_mu and a_omega from hand-differentiated chart
expressions, with no calls into the dual-number or finite-difference
engines, so the catalog is an independent cross-check of both.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import OutsideValidRegion
from .frames import (Constant, CylindricalI, CylindricalII, Ellipsoid,
                     Graph, Paraboloid, Sphere)

_AUX_KEYS = ("s_tt", "s_tb", "s_bt", "s_bb", "kn_t", "kn_b",
             "kt_b", "kb_t", "winding")


@dataclasses.dataclass(frozen=True)
class CatalogEntry:
    id: object
    coeff_formulas: object
    auxiliary: dict
    errata: tuple


def _assemble(aux: dict, mu: float, omega: float):
    """a_mu, a_omega from the nine auxiliary scalars.

    Aux convention: s_ab = a . grad_b n; kn_t/kn_b are the t and b
    components of kappa^n = -grad_n n; kt_b = b . kappa^t;
    kb_t = t . kappa^b; winding = t . grad_n b.
    """
    s = math.sqrt(max(0.0, 1.0 - mu * mu))
    c, sn = math.cos(omega), math.sin(omega)
    quad = (c * c * aux["s_tt"] + sn * c * (aux["s_tb"] + aux["s_bt"])
            + sn * sn * aux["s_bb"])
    a_mu = ((1.0 - mu * mu) * quad
            - mu * s * (c * aux["kn_t"] + sn * aux["kn_b"]))
    t_dn = s * c * aux["s_tt"] + s * sn * aux["s_tb"] - mu * aux["kn_t"]
    b_dn = s * c * aux["s_bt"] + s * sn * aux["s_bb"] - mu * aux["kn_b"]
    tilt = 0.0 if s == 0.0 else -mu * (-sn * t_dn + c * b_dn) / s
    a_omega = (s * (c * aux["kt_b"] - sn * aux["kb_t"])
               + mu * aux["winding"] + tilt)
    return a_mu, a_omega


def _zero_aux():
    return {k: 0.0 for k in _AUX_KEYS}


def _aux_constant(r):
    return _zero_aux()


def _cyl_rho(r):
    rho = math.hypot(float(r[0]), float(r[1]))
    if rho < 1e-8:
        raise OutsideValidRegion("cylindrical formulas undefined on the axis")
    return rho


def _aux_cyl1(r):
    aux = _zero_aux()
    aux["kb_t"] = 1.0 / _cyl_rho(r)
    return aux


def _aux_cyl2(r):
    aux = _zero_aux()
    aux["s_tt"] = 1.0 / _cyl_rho(r)
    return aux


def _aux_sphere(r):
    x, y, z = (float(r[0]), float(r[1]), float(r[2]))
    rho = math.sqrt(x * x + y * y + z * z)
    rxy = math.hypot(x, y)
    if rho < 1e-8 or rxy < 1e-8 * rho:
        raise OutsideValidRegion("sphere formulas undefined on the z-axis")
    aux = _zero_aux()
    aux["s_tt"] = 1.0 / rho
    aux["s_bb"] = 1.0 / rho
    aux["kb_t"] = z / (rho * rxy)  # cot(theta)/rho
    return aux


def _norm_chain(w, dw):
    """Value and chart partials of w/|w| given w and its partials."""
    nw = np.linalg.norm(w)
    v = w / nw
    return v, [(d - float(d @ v) * v) / nw for d in dw]


def _gram_schmidt_chain(t, dt, btil, dbtil):
    """b = btil - (btil . t) t normalized, and its chart partials."""
    overlap = float(btil @ t)
    g = btil - overlap * t
    dg = [dbtil[k] - (float(dbtil[k] @ t) + float(btil @ dt[k])) * t
          - overlap * dt[k] for k in range(2)]
    return _norm_chain(g, dg)


def _chart_aux(n, t, b, dn, dt, db, rates):
    """The nine auxiliary scalars from the frame's partials along two
    chart coordinates; rates[i, k] is the rate of coordinate i along
    t, b, n for k = 0, 1, 2."""
    def grad(dfield, k):
        return dfield[0] * rates[0, k] + dfield[1] * rates[1, k]

    dn_t, dn_b, dn_n = (grad(dn, 0), grad(dn, 1), grad(dn, 2))
    dt_t = grad(dt, 0)
    db_b, db_n = grad(db, 1), grad(db, 2)
    return {"s_tt": float(t @ dn_t), "s_tb": float(t @ dn_b),
            "s_bt": float(b @ dn_t), "s_bb": float(b @ dn_b),
            "kn_t": -float(t @ dn_n), "kn_b": -float(b @ dn_n),
            "kt_b": -float(b @ dt_t), "kb_t": -float(t @ db_b),
            "winding": float(t @ db_n)}


def _make_aux_ellipsoid(a: float, bb: float, cc: float):
    def aux_fn(r):
        x, y, z = (float(r[0]), float(r[1]), float(r[2]))
        px, py, pz = x / a, y / bb, z / cc
        lam = math.sqrt(px * px + py * py + pz * pz)
        if lam < 1e-8:
            raise OutsideValidRegion("ellipsoid chart undefined at origin")
        sxy = math.hypot(px, py)
        if sxy < 1e-8 * lam:
            raise OutsideValidRegion("ellipsoid chart undefined at poles")
        st, ct = sxy / lam, pz / lam
        cp, sp = px / sxy, py / sxy

        chart = np.array([a * st * cp, bb * st * sp, cc * ct])
        x_th = np.array([a * ct * cp, bb * ct * sp, -cc * st])
        x_ph = np.array([-a * st * sp, bb * st * cp, 0.0])
        x_thph = np.array([-a * ct * sp, bb * ct * cp, 0.0])

        w_n = np.array([st * cp / a, st * sp / bb, ct / cc])
        w_n_th = np.array([ct * cp / a, ct * sp / bb, -st / cc])
        w_n_ph = np.array([-st * sp / a, st * cp / bb, 0.0])
        n, dn = _norm_chain(w_n, (w_n_th, w_n_ph))
        t, dt = _norm_chain(x_th, (-chart, x_thph))
        w_b = np.array([-a * sp, bb * cp, 0.0])
        w_b_ph = np.array([-a * cp, -bb * sp, 0.0])
        btil, dbtil = _norm_chain(w_b, (np.zeros(3), w_b_ph))
        b, db = _gram_schmidt_chain(t, dt, btil, dbtil)

        # Chart rates (d rho, d theta, d phi) along each frame vector.
        m = np.column_stack([chart, lam * x_th, lam * x_ph])
        rates = np.linalg.solve(m, np.column_stack([t, b, n]))
        return _chart_aux(n, t, b, dn, dt, db, rates[1:])
    return aux_fn


def _make_aux_graph(graph: Graph):
    def aux_fn(r):
        x, y = float(r[0]), float(r[1])
        fx, fy = float(graph.f_x(x, y)), float(graph.f_y(x, y))
        fxx, fxy, fyy = (float(graph.f_xx(x, y)), float(graph.f_xy(x, y)),
                         float(graph.f_yy(x, y)))
        w_n = np.array([-fx, -fy, 1.0])
        dw_n = (np.array([-fxx, -fxy, 0.0]), np.array([-fxy, -fyy, 0.0]))
        w_t = np.array([1.0, 0.0, fx])
        dw_t = (np.array([0.0, 0.0, fxx]), np.array([0.0, 0.0, fxy]))
        w_b = np.array([0.0, 1.0, fy])
        dw_b = (np.array([0.0, 0.0, fxy]), np.array([0.0, 0.0, fyy]))
        n, dn = _norm_chain(w_n, dw_n)
        t, dt = _norm_chain(w_t, dw_t)
        btil, dbtil = _norm_chain(w_b, dw_b)
        b, db = _gram_schmidt_chain(t, dt, btil, dbtil)
        # The chart is (x, y): its rates along a vector are the vector's
        # x and y components.
        return _chart_aux(n, t, b, dn, dt, db,
                          np.column_stack([t, b, n])[:2])
    return aux_fn


def printed_cyl2_grad_mu(r, mu: float, omega: float) -> float:
    """Quoted variant of the cylinder-II mu-coefficient with a
    sqrt(1-mu^2) prefactor; agrees with the derived coefficient only
    at mu = 0.  Kept for inspection, never used in comparisons."""
    inv = 1.0 / _cyl_rho(r)  # shared rounding with the catalog entry
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


# Id type -> (id -> aux function of r, errata, quoted variants kept for
# inspection).  The registry in frames.py holds everything else about a
# frame; this table stays here so the catalog remains independent.
_ENTRIES = {
    Constant: (lambda fid: _aux_constant, (), {}),
    CylindricalI: (lambda fid: _aux_cyl1, (), {}),
    CylindricalII: (lambda fid: _aux_cyl2, (_CYL2_NOTE,),
                    {"a_mu_printed": printed_cyl2_grad_mu}),
    Sphere: (lambda fid: _aux_sphere, (), {}),
    Ellipsoid: (lambda fid: _make_aux_ellipsoid(fid.a, fid.b, fid.c),
                (_ELL_NOTE,), {}),
    Paraboloid: (lambda fid: _make_aux_graph(fid.as_graph()),
                 (_GRAPH_NOTE,), {}),
    Graph: (_make_aux_graph, (_GRAPH_NOTE,), {}),
}


def catalog_entry(fid) -> CatalogEntry:
    """Catalog entry for a closed-form frame identifier."""
    row = _ENTRIES.get(type(fid))
    if row is None:
        raise OutsideValidRegion(f"no catalog entry for {fid!r}")
    make_aux, errata, printed = row
    aux_fn = make_aux(fid)

    def coeff(r, mu, omega):
        return _assemble(aux_fn(r), float(mu), float(omega))

    auxiliary = {key: (lambda r, k=key: aux_fn(r)[k]) for key in _AUX_KEYS}
    auxiliary.update(printed)
    return CatalogEntry(id=fid, coeff_formulas=coeff, auxiliary=auxiliary,
                        errata=errata)


def catalog_coefficients(fid, r, mu, omega):
    """Closed-form (a_mu, a_omega) for a builtin frame identifier."""
    return catalog_entry(fid).coeff_formulas(r, mu, omega)
