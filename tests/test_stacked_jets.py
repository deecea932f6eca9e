"""Stacked frame jets: an (N, 3) array of points gives the bits of N
single-point jets, from one raw call where the raw takes arrays (on
array Duals for the dual engine, on the points and their stencil probes
for fd) and point by point where it does not, with the single-point
errors."""
import hashlib
import math

import numpy as np
import pytest

from framestream import (DiffConfig, EvaluationFailure, FoliationMissing,
                         FrameField, MuForm, NotOrthonormal, OmegaForm,
                         OutOfRange, OutsideValidRegion, builtin_frame,
                         catalog_coefficients, frame_jet, grad_mu,
                         grad_omega, ray_oracle)
from framestream import dual as dm
from framestream.cli import main
from framestream.curvature import parallel_transport_holonomy
from framestream.derivatives import FrameJet, _direction, frame_scalars
from framestream.frames import BUILTIN_FRAMES, FramePoint, _angles
from framestream.streaming import (_FOLIATION_TOL, angle_arrays,
                                   checked_terms, coefficient_terms,
                                   grad_mu_from_jet, grad_omega_from_jet,
                                   leaf_defect)
from framestream.verification import _latitude_loop, random_states

ENGINES = [DiffConfig(), DiffConfig(engine="fd")]
JET_FIELDS = ("n", "t", "b", "jn", "jt", "jb")
ROUTES = ([(grad_mu_from_jet, form) for form in MuForm]
          + [(grad_omega_from_jet, form) for form in OmegaForm])


class _Counted:
    """A frame field whose raw counts its calls."""

    def __init__(self, raw):
        self.inner = raw
        self.calls = 0

    def raw(self, x, y, z):
        self.calls += 1
        return self.inner(x, y, z)


def _error(fn, *args):
    """Type and message of what fn raises, and of its cause."""
    with pytest.raises(Exception) as info:
        fn(*args)
    cause = info.value.__cause__
    return (type(info.value), str(info.value), type(cause), str(cause))


@pytest.mark.parametrize("cfg", ENGINES, ids=["dual", "fd"])
@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name", sorted(BUILTIN_FRAMES))
def test_stacked_jet_scalars_and_terms_are_bit_equal(name, seed, cfg):
    spec = BUILTIN_FRAMES[name]
    field = builtin_frame(spec.default)
    states = random_states(spec.default, 25, np.random.default_rng(seed))
    counted = _Counted(field.raw)
    jet = frame_jet(counted, np.array([r for r, _, _ in states]), cfg)
    assert counted.calls == 1  # no point-by-point replay, on either engine
    mu, s, c, sn = angle_arrays([m for _, m, _ in states],
                                [o for _, _, o in states])
    scalars = frame_scalars(jet)
    terms = coefficient_terms(jet, mu, s, c, sn)
    routes = [grad(jet, mu, s, c, sn, form) for grad, form in ROUTES]
    defects = [leaf_defect(jet, form) for _, form in ROUTES]
    for i, (r, _, _) in enumerate(states):
        one = frame_jet(field, r, cfg)
        for f in JET_FIELDS:
            assert getattr(one, f).tobytes() == getattr(jet, f)[i].tobytes()
        assert (np.array(frame_scalars(one)).tobytes()
                == np.array([k[i] for k in scalars]).tobytes())
        want = coefficient_terms(one, mu[i], s[i], c[i], sn[i])
        assert (np.array(want).tobytes()
                == np.array([t[i] for t in terms]).tobytes())
        # Each route and leaf defect as a single state computes it, on
        # the Python floats that _angles gives.
        angles = (float(mu[i]), float(s[i]), float(c[i]), float(sn[i]))
        assert (np.array([grad(one, *angles, form)
                          for grad, form in ROUTES]).tobytes()
                == np.array([v[i] for v in routes]).tobytes())
        assert (np.array([leaf_defect(one, form)
                          for _, form in ROUTES]).tobytes()
                == np.array([d[i] for d in defects]).tobytes())


@pytest.mark.parametrize("cfg", ENGINES, ids=["dual", "fd"])
@pytest.mark.parametrize("name, bad", [
    ("sphere", [0.0, 0.0, 1.5]),           # a pole
    ("sphere", [0.0, 0.0, 0.0]),           # the origin
    ("cylindrical-i", [0.0, 0.0, 0.7]),    # the axis
    ("ellipsoid", [0.0, 0.0, -0.5]),       # a pole
])
def test_batch_with_a_degenerate_point_raises_the_point_error(name, bad,
                                                              cfg):
    field = builtin_frame(BUILTIN_FRAMES[name].default)
    points = np.array([[1.0, 0.5, 0.25], [0.3, -0.8, 0.4], bad,
                       [0.0, 0.0, 2.0]])
    want = _error(frame_jet, field, np.array(bad), cfg)
    assert _error(frame_jet, field, points, cfg) == want
    assert want[2].__name__ == "DegeneratePoint"


def test_raw_that_rejects_arrays_is_replayed_point_by_point():
    sphere = builtin_frame(BUILTIN_FRAMES["sphere"].default)

    def scalar_only(x, y, z):
        if abs(dm.value(x) - 99.0) < 1e-15:  # ambiguous on arrays
            raise ValueError("no frame here")
        return sphere.raw(x, y, z)

    states = random_states(BUILTIN_FRAMES["sphere"].default, 12,
                           np.random.default_rng(3))
    points = np.array([r for r, _, _ in states])
    # The array attempt, then each point: one call on the dual engine;
    # the point and its 12 stencil probes on fd.
    for cfg, per_point in zip(ENGINES, (1, 13)):
        counted = _Counted(scalar_only)
        jet = frame_jet(counted, points, cfg)
        assert counted.calls == 1 + per_point * len(points)
        want = frame_jet(sphere, points, cfg)
        for f in JET_FIELDS:
            assert getattr(jet, f).tobytes() == getattr(want, f).tobytes()

    loop, v0, _ = _latitude_loop(math.pi / 3, 400)
    counted = _Counted(scalar_only)
    angle = parallel_transport_holonomy(counted, loop, v0)
    assert counted.calls == 1 + 400
    assert angle == parallel_transport_holonomy(sphere, loop, v0)


def test_holonomy_makes_one_raw_call_per_loop():
    sphere = builtin_frame(BUILTIN_FRAMES["sphere"].default)
    counted = _Counted(sphere.raw)
    loop, v0, _ = _latitude_loop(math.pi / 3, 1000)
    parallel_transport_holonomy(counted, loop, v0)
    assert counted.calls == 1


# --- a catalog stack with a non-finite state ------------------------------

def _catalog_states(count, seed):
    fid = BUILTIN_FRAMES["sphere"].default
    states = random_states(fid, count, np.random.default_rng(seed))
    return (fid, np.array([r for r, _, _ in states]),
            np.array([m for _, m, _ in states]),
            np.array([o for _, _, o in states]))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_catalog_stack_with_a_non_finite_omega_raises_its_state_error(bad):
    fid, pts, mus, omegas = _catalog_states(6, 5)
    omegas[3] = bad
    want = _error(catalog_coefficients, fid, pts[3], mus[3], omegas[3])
    assert want[:2] == (OutOfRange, f"omega = {bad} is not finite")
    assert _error(catalog_coefficients, fid, pts, mus, omegas) == want
    # A singular state before it raises first, as the state loop does.
    pts[1] = (0.0, 0.0, 2.0)
    want = _error(catalog_coefficients, fid, pts[1], mus[1], omegas[1])
    assert want[0] is OutsideValidRegion
    assert _error(catalog_coefficients, fid, pts, mus, omegas) == want


def test_catalog_stack_with_a_non_finite_point_has_the_state_bits():
    fid, pts, mus, omegas = _catalog_states(6, 5)
    pts[2] = (math.nan, 0.5, 0.5)
    pts[4] = (math.inf, 0.5, 0.5)
    got = catalog_coefficients(fid, pts, mus, omegas)
    want = [catalog_coefficients(fid, p, m, o)
            for p, m, o in zip(pts, mus.tolist(), omegas.tolist())]
    assert (np.array(got).tobytes()
            == np.array(want, dtype=float).T.copy().tobytes())


# --- the surface routes need their leaf ----------------------------------

def _ellipsoid_states(count, seed):
    field = builtin_frame(BUILTIN_FRAMES["ellipsoid"].default)
    states = random_states(field.fid, count, np.random.default_rng(seed))
    return field, states, frame_jet(field, np.array(
        [r for r, _, _ in states]))


def _surface_route(field, r, mu, omega, form):
    """grad_omega by ``form`` at one state, None where its leaf is
    missing."""
    try:
        return grad_omega(field, r, mu, omega, form)
    except FoliationMissing:
        return None


def test_surface_routes_need_a_leaf_at_all_but_a_few_ellipsoid_states():
    # b-leaves at 2 of the 200 states, t-leaves at none.
    field, states, jet = _ellipsoid_states(200, 7)
    angles = angle_arrays([mu for _, mu, _ in states],
                          [omega for _, _, omega in states])
    for form, kept in ((OmegaForm.SURFACE_B, 2), (OmegaForm.SURFACE_T, 0)):
        found = [_surface_route(field, *state, form) for state in states]
        on_leaf = [value is not None for value in found]
        assert sum(on_leaf) == kept, form
        # The stacked leaf defect marks the same states, and where the
        # leaf exists the route has the bits of its stacked value.
        assert (np.abs(leaf_defect(jet, form))
                <= _FOLIATION_TOL).tolist() == on_leaf, form
        stacked = grad_omega_from_jet(jet, *angles, form)
        assert [value for value in found if value is not None] == \
            stacked[on_leaf].tolist(), form


def test_a_nan_leaf_defect_keeps_its_route(monkeypatch):
    # A NaN defect is no evidence that the leaf is missing, so the route
    # returns its value where a finite defect would raise.
    from framestream import derivatives
    field, states, _ = _ellipsoid_states(6, 7)
    r, mu, omega = states[0]
    form = OmegaForm.SURFACE_B
    assert _surface_route(field, r, mu, omega, form) is None
    want = grad_omega_from_jet(frame_jet(field, r), *_angles(mu, omega),
                               form)
    assert math.isfinite(want)
    monkeypatch.setattr(derivatives, "axial_vector",
                        lambda j: np.full(j.shape[:-1], math.nan))
    assert math.isnan(leaf_defect(frame_jet(field, r), form))
    assert grad_omega(field, r, mu, omega, form) == want


def _twisted(x, y, z):
    # n = (cos z, sin z, 0) has n . curl n = -1: no n-leaf anywhere.
    c, s = dm.cos(z), dm.sin(z)
    return (c, s, 0.0), (0.0, 0.0, 1.0), (s, -c, 0.0)


def test_a_form_of_the_other_coefficient_is_unknown_before_any_leaf():
    twisted = FrameField(_twisted, "twisted")
    ellipsoid = builtin_frame(BUILTIN_FRAMES["ellipsoid"].default)
    r = [1.2, 0.6, 0.5]
    with pytest.raises(FoliationMissing, match=r"^n-foliation defect "
                       r"-1\.000e\+00 exceeds 1e-06$"):
        grad_mu(twisted, r, 0.3, 1.0, MuForm.SURFACE_CURVATURE)
    with pytest.raises(OutOfRange, match="^unknown omega form"):
        grad_omega(twisted, r, 0.3, 1.0, MuForm.SURFACE_CURVATURE)
    with pytest.raises(FoliationMissing, match=r"^b-foliation defect "):
        grad_omega(ellipsoid, r, 0.3, 1.0, OmegaForm.SURFACE_B)
    with pytest.raises(OutOfRange, match="^unknown mu form"):
        grad_mu(ellipsoid, r, 0.3, 1.0, OmegaForm.SURFACE_B)


# --- a raw whose vectors are not 3 long -----------------------------------

def _short_t(x, y, z):
    return (0.0, 0.0, 1.0), (1.0, 0.0), (0.0, 1.0, 0.0)


@pytest.mark.parametrize("cfg", ENGINES, ids=["dual", "fd"])
def test_short_vector_is_an_evaluation_failure(cfg):
    field = FrameField(_short_t, "short-t")
    with pytest.raises(EvaluationFailure) as info:
        frame_jet(field, [1.0, 0.5, 0.25], cfg)
    assert str(info.value) == ("field returned vectors of lengths (3, 2, 3),"
                               " not 3, at probe (1.0, 0.5, 0.25)")


@pytest.mark.parametrize("cfg", ENGINES, ids=["dual", "fd"])
def test_short_vector_in_a_stack_names_the_first_point(cfg):
    field = FrameField(_short_t, "short-t")
    with pytest.raises(EvaluationFailure) as info:
        frame_jet(field, [[2.0, 0.5, 0.25], [1.0, 0.5, 0.25]], cfg)
    assert str(info.value) == ("field returned vectors of lengths (3, 2, 3),"
                               " not 3, at probe (2.0, 0.5, 0.25)")


# --- vectorized checks with a per-state replay ----------------------------

def _loose_message(n, t, b):
    """The message of the NotOrthonormal that FramePoint.loose raises at
    (n, t, b), one frame or a stack, or None where it accepts them."""
    try:
        FramePoint.loose(n, t, b)
    except NotOrthonormal as exc:
        return str(exc)
    return None


def test_stacked_frame_point_agrees_with_frame_point_row_by_row():
    rng = np.random.default_rng(5)
    jet = frame_jet(builtin_frame(BUILTIN_FRAMES["ellipsoid"].default),
                    np.array([r for r, _, _ in random_states(
                        BUILTIN_FRAMES["ellipsoid"].default, 200, rng)]))
    # Perturbations from well inside to well outside the 1e-8 tolerance.
    noise = [10.0 ** rng.uniform(-10.0, -6.0, size=(200, 1))
             * rng.normal(size=(200, 3)) for _ in range(3)]
    n, t, b = jet.n + noise[0], jet.t + noise[1], jet.b + noise[2]
    # Then rows with a NaN, an inf or an overflowing entry in n, t or b.
    bad = [(v, x) for v in range(3)
           for x in (math.nan, math.inf, -math.inf, 1e200)]
    n, t, b = (np.concatenate([u, u[:len(bad)]]) for u in (n, t, b))
    for i, (v, x) in enumerate(bad, start=200):
        (n, t, b)[v][i, i % 3] = x
    messages = []
    for i in range(len(n)):
        messages.append(_loose_message(n[i], t[i], b[i]))
        assert _loose_message(n[i:i + 1], t[i:i + 1],
                              b[i:i + 1]) == messages[-1]
    accepted = [m is None for m in messages]
    assert 10 < sum(accepted) < 190 and not any(accepted[200:])
    # A stack raises the error of its first failing row, or accepts.
    first = next(m for m in messages if m is not None)
    assert _loose_message(n, t, b) == first
    assert _loose_message(n[200:], t[200:], b[200:]) == messages[200]
    good = np.array(accepted)
    assert _loose_message(n[good], t[good], b[good]) is None


@pytest.mark.parametrize("cfg", ENGINES, ids=["dual", "fd"])
@pytest.mark.parametrize("name", sorted(BUILTIN_FRAMES))
def test_grid_terms_are_bit_equal_to_per_point_terms(name, cfg):
    # N points by K directions: angles of shape (1, K), shared by every
    # point, or (N, K), against the stacked jet, give each point's
    # per-point terms over its K directions.
    spec = BUILTIN_FRAMES[name]
    field = builtin_frame(spec.default)
    rng = np.random.default_rng(13)
    points = np.array([r for r, _, _ in random_states(spec.default, 6,
                                                      rng)])
    mus = rng.uniform(-0.99, 0.99, size=(6, 9))
    omegas = rng.uniform(0.0, 2.0 * math.pi, size=(6, 9))
    jet = frame_jet(field, points, cfg)
    shared = angle_arrays(mus[0], omegas[0])
    own = [angle_arrays(m, o) for m, o in zip(mus, omegas)]
    by_row = tuple(np.array(column) for column in zip(*own))
    for angles, per_point in ((tuple(a[None] for a in shared),
                               [shared] * len(points)),
                              (by_row, own)):
        terms = checked_terms(jet, *angles)
        assert all(term.shape == (6, 9) for term in terms)
        for i, r in enumerate(points):
            want = coefficient_terms(frame_jet(field, r, cfg), *per_point[i])
            assert (np.array(want).tobytes()
                    == np.array([term[i] for term in terms]).tobytes())


def test_checked_terms_raise_the_first_failing_state_error():
    field = builtin_frame(BUILTIN_FRAMES["sphere"].default)
    states = random_states(BUILTIN_FRAMES["sphere"].default, 6,
                           np.random.default_rng(2))
    jet = frame_jet(field, np.array([r for r, _, _ in states]))
    angles = angle_arrays([m for _, m, _ in states],
                          [o for _, _, o in states])
    t = jet.t.copy()
    t[4] *= 1.001                               # not unit
    t[2] = t[2] + 1e-6 * jet.n[2]               # not orthogonal
    broken = FrameJet(jet.n, t, jet.b, jet.jn, jet.jt, jet.jb)
    with pytest.raises(NotOrthonormal) as info:
        checked_terms(broken, *angles)
    assert str(info.value) == "frame not orthogonal within 1e-08"


def test_checked_terms_replay_names_the_first_breakdown(monkeypatch):
    from framestream import InconsistentBreakdown, streaming
    terms_of = streaming.coefficient_terms

    def skewed(*args):
        terms = [np.array(term) for term in terms_of(*args)]
        terms[1][1] += 1.0    # state 1: a_omega off its parts
        terms[0][3] += 1.0    # state 3: a_mu off its parts
        return tuple(terms)

    field = builtin_frame(BUILTIN_FRAMES["sphere"].default)
    states = random_states(BUILTIN_FRAMES["sphere"].default, 5,
                           np.random.default_rng(4))
    jet = frame_jet(field, np.array([r for r, _, _ in states]))
    angles = angle_arrays([m for _, m, _ in states],
                          [o for _, _, o in states])
    monkeypatch.setattr(streaming, "coefficient_terms", skewed)
    # All states at once, a_mu is tested first; state by state, state 1
    # fails on a_omega before state 3 fails on a_mu.
    with pytest.raises(InconsistentBreakdown,
                       match="a_omega breakdown inconsistent"):
        checked_terms(jet, *angles)


def test_checked_terms_replay_raises_for_a_nan_row(monkeypatch):
    # A NaN in one point's jn passes the frame test but makes that
    # point's terms NaN: the stacked breakdown check fails and the
    # replay raises for that row, after passing the row before it.
    from framestream import InconsistentBreakdown, streaming
    check = streaming.check_breakdown
    calls = []

    def spied(*terms):
        calls.append(np.shape(terms[0]))
        check(*terms)
        calls.append("ok")

    field = builtin_frame(BUILTIN_FRAMES["sphere"].default)
    states = random_states(BUILTIN_FRAMES["sphere"].default, 3,
                           np.random.default_rng(4))
    jet = frame_jet(field, np.array([r for r, _, _ in states]))
    angles = angle_arrays([m for _, m, _ in states],
                          [o for _, _, o in states])
    jn = jet.jn.copy()
    jn[1, 0, 2] = math.nan
    monkeypatch.setattr(streaming, "check_breakdown", spied)
    with pytest.raises(InconsistentBreakdown,
                       match="a_mu breakdown inconsistent"):
        checked_terms(FrameJet(jet.n, jet.t, jet.b, jn, jet.jt, jet.jb),
                      *angles)
    assert calls == [(3,), (), "ok", ()]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_checked_terms_raise_typed_errors_for_a_non_finite_jacobian(bad):
    # An inf meets an inf of the other sign in the terms, whose NaN
    # fails the breakdown check: the typed error, with no numpy warning
    # (which the test settings turn into errors) on the way.
    from framestream import InconsistentBreakdown
    fid = BUILTIN_FRAMES["sphere"].default
    states = random_states(fid, 3, np.random.default_rng(4))
    jet = frame_jet(builtin_frame(fid), np.array([r for r, _, _ in states]))
    angles = angle_arrays([m for _, m, _ in states],
                          [o for _, _, o in states])
    jn = jet.jn.copy()
    jn[1, 0, 0] = bad
    with pytest.raises(InconsistentBreakdown,
                       match="a_mu breakdown inconsistent"):
        checked_terms(FrameJet(jet.n, jet.t, jet.b, jn, jet.jt, jet.jb),
                      *angles)


def test_checked_terms_reject_a_nan_in_a_single_point_jet():
    from framestream import InconsistentBreakdown
    field = builtin_frame(BUILTIN_FRAMES["sphere"].default)
    jet = frame_jet(field, np.array([0.6, 0.3, 0.5]))
    jn = jet.jn.copy()
    jn[2, 1] = math.nan
    angles = angle_arrays([0.3, -0.5], [1.0, 4.0])
    checked_terms(jet, *angles)
    with pytest.raises(InconsistentBreakdown,
                       match="a_mu breakdown inconsistent"):
        checked_terms(FrameJet(jet.n, jet.t, jet.b, jn, jet.jt, jet.jb),
                      *angles)


# --- the ray oracle keeps a NaN azimuth or mu -----------------------------

@pytest.mark.parametrize("vector", [0, 1], ids=["n", "t"])
def test_ray_oracle_nan_probe_flows_into_the_result(vector):
    sphere = builtin_frame(BUILTIN_FRAMES["sphere"].default)

    def raw(x, y, z):
        out = list(sphere.raw(x, y, z))
        if x > 1.0 + 5e-4:  # only the s = +step probe
            out[vector] = (math.nan, math.nan, math.nan)
        return tuple(out)

    field = FrameField(raw, "nan-beyond")
    r = np.array([1.0, 0.4, 0.3])
    jet = frame_jet(sphere, r)
    angles = angle_arrays([0.8], [0.9])
    d = _direction(jet, *(a[0] for a in angles))
    assert d[0] > 0.5
    res = ray_oracle(field, r, d)
    assert math.isnan(res.richardson_error_estimate)
    assert math.isnan(res.dmu_ds if vector == 0 else res.domega_ds)
    assert math.isfinite(res.domega_ds if vector == 0 else res.dmu_ds)


# --- verify stdout, byte for byte -----------------------------------------

# Stdout size, sha256 and max_residual texts of `framestream verify
# --seed S --no-timestamp`, as the per-state jets gave; the homothety
# residuals are relative to max(|a(r)|, 1/|r|), and the catalog-agreement
# residuals are those of the component-wise catalog (it rounds its dot
# products as written, where numpy's 3-vector @ and LAPACK's solve round
# otherwise).
VERIFY_STDOUT = {
    7: (1253, (
        "2666c8e432a7ae687e7856ae47efd56b36129d07880e8cb0ccc748153315349e",
        ["1.7763568394002505e-15", "7.2737371681341756e-12",
         "1.1102230246251565e-15", "6.788109660987731e-16", "0",
         "1.9378934874580978e-06", "0.50226597644221083"])),
    11: (1254, (
        "0b83f097573220dc23949e1b4a2b66877367d591e36ac39808a0dd765a857cfe",
        ["8.8817841970012523e-16", "8.957723451885613e-12",
         "1.3322676295501878e-15", "8.3916507137548172e-16", "0",
         "1.9378934874580978e-06", "0.50226597644221083"])),
}


def _check_verify_stdout(argv, size, pin, capsys):
    assert main(argv + ["--no-timestamp"]) == 0
    out = capsys.readouterr().out.encode()
    digest, residuals = pin
    got = [line.split(b": ")[1].rstrip(b",").decode()
           for line in out.splitlines() if b'"max_residual"' in line]
    assert got == residuals
    assert len(out) == size and hashlib.sha256(out).hexdigest() == digest


@pytest.mark.parametrize("seed", sorted(VERIFY_STDOUT))
def test_verify_stdout_is_pinned_byte_for_byte(seed, capsys):
    _check_verify_stdout(["verify", "--seed", str(seed)],
                         *VERIFY_STDOUT[seed], capsys)


# The same for `framestream verify --engine fd --seed S --no-timestamp`,
# as the per-point fd jets gave before a stacked fd jet was one raw call
# on all its stencil probes.
VERIFY_FD_STDOUT = {
    7: (1251, (
        "7d7f063cedd3d5e24894662d4518cb4fb8f3e76acec1546c08464ad995e8e000",
        ["6.5997735054779127e-11", "5.3855586656936794e-11",
         "4.7827602989158891e-11", "3.659350384099361e-10", "0",
         "1.9378934874580978e-06", "0.50226597643568838"])),
    11: (1252, (
        "0b8d3a6caf8af5a61d7f094a76517e50a6933ad461e280ee19501d4ccbab14d3",
        ["5.592964980039028e-11", "8.2604742490666183e-11",
         "1.3395728970522214e-10", "5.2715917158742462e-10", "0",
         "1.9378934874580978e-06", "0.50226597643568838"])),
}


@pytest.mark.parametrize("seed", sorted(VERIFY_FD_STDOUT))
def test_verify_fd_stdout_is_pinned_byte_for_byte(seed, capsys):
    _check_verify_stdout(["verify", "--engine", "fd", "--seed", str(seed)],
                         *VERIFY_FD_STDOUT[seed], capsys)


# The same for filtered runs, whose draws interleave differently from a
# full pass: each check's states and extra draws come from the one
# generator in row order, frame by frame, whatever rows run beside them.
# Keyed by (engine, seed, filter flags): (stdout bytes, sha256, texts).
VERIFY_FILTERED_STDOUT = {
    ("dual", 7, ("--check", "identities")): (254, (
        "1cd6e6c8470a5f4a037e43ab4aafcc94f01adfcbce7882a53a9cadb9bb8c2816",
        ["7.0776717819853729e-16"])),
    ("dual", 11, ("--check", "identities")): (255, (
        "c912040ea61276537bff4a208780073644be320a61973247499ce3a638ae164c",
        ["1.1102230246251565e-15"])),
    ("dual", 7, ("--frame", "sphere", "--check", "homothety")): (246, (
        "6cb3493cf3304dc48b7db38c0f2f00027d269e8148dbcae580b0d7f6b4f7ab4b",
        ["7.7870927133813846e-16"])),
    ("dual", 11, ("--frame", "sphere", "--check", "homothety")): (247, (
        "6b0e53b53fccde23958d74e7b4986f6480b5e47187f579195971f7fed0c837f7",
        ["9.7039121028130637e-16"])),
    ("dual", 7, ("--frame", "ellipsoid")): (1250, (
        "d7e5eadaa3f6214b17fa9033c9e92dea983ac6bfdddfb3459347053e8ccb633f",
        ["1.1102230246251565e-15", "6.0729199446996063e-12",
         "4.4408920985006262e-16", "7.2477408299030929e-16", "0",
         "1.9378934874580978e-06", "0.50226597644221083"])),
    ("fd", 7, ("--check", "identities")): (252, (
        "ee0ed2600edc636d5e0617c63d965c8fe91242527a4833773bd09e0ef82401bc",
        ["7.2876649159780982e-11"])),
    ("fd", 11, ("--check", "identities")): (253, (
        "f276bfe5f7443d51b5683ba07d5b68362c6fd738847c8d04f3ee7262a72c6e07",
        ["8.5273232919291786e-11"])),
    ("fd", 7, ("--frame", "sphere", "--check", "homothety")): (244, (
        "2d838cf7d228549817ff6e6e1ce5e8ecae0ea8adb00445607185f9b637471e24",
        ["2.0095648663440118e-10"])),
    ("fd", 11, ("--frame", "sphere", "--check", "homothety")): (245, (
        "17467af845a1013d32eb387c9713763764b6550556e244310945fc78a5bf85df",
        ["6.1780987864534145e-10"])),
    ("fd", 7, ("--frame", "ellipsoid")): (1247, (
        "a3d0d74a1e0f0827dffcdca249b6a2dcdceaab02ed8234cce9022311ba5db00e",
        ["4.8213988357304061e-11", "3.124278613597653e-11",
         "3.7177816381017692e-11", "8.5951846443357611e-10", "0",
         "1.9378934874580978e-06", "0.50226597643568838"])),
}


@pytest.mark.parametrize("engine, seed, flags", sorted(VERIFY_FILTERED_STDOUT))
def test_filtered_verify_stdout_is_pinned_byte_for_byte(engine, seed, flags,
                                                        capsys):
    size, pin = VERIFY_FILTERED_STDOUT[engine, seed, flags]
    _check_verify_stdout(["verify", "--engine", engine, "--seed", str(seed),
                          *flags], size, pin, capsys)
