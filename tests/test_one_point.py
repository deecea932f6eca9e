"""One-point evaluations against the stacked ones on the scatter path.

A single state runs its elementwise steps on Python floats (the fd
stencil's probes and Richardson step, the direction Omega, the ray
probes) and a stack runs them on arrays; both must give the same bits.
The states are those of every default frame at two seeds, plus a point
with -0.0 coordinates, where a probe x + 0.0 * step must round as
numpy's r + offsets does."""
import hashlib
import struct

import numpy as np
import pytest

from framestream import (DiffConfig, FramestreamError, builtin_frame,
                         catalog_coefficients, coefficients_from_jet,
                         frame_jet, ray_oracle, streaming)
from framestream.frames import direction_from_angles
from framestream.streaming import (_angles, angle_arrays, checked_terms,
                                   coefficient_terms, streaming_coefficients)
from framestream.verification import default_frames, random_states

ENGINES = [DiffConfig(), DiffConfig(engine="fd")]
STATES_PER_FRAME = 30
# Valid in every default frame: off the axes, poles and origins.
SIGNED_ZERO_POINT = (-0.0, 0.8, -0.0)


def _cases(seed):
    """(field, points, mus, omegas) of every default frame: its random
    states at ``seed``, then the signed-zero point."""
    rng = np.random.default_rng(seed)
    cases = []
    for fid in default_frames().values():
        states = random_states(fid, STATES_PER_FRAME, rng)
        points = np.array([r for r, _, _ in states] + [SIGNED_ZERO_POINT])
        mus = [mu for _, mu, _ in states] + [0.3]
        omegas = [omega for _, _, omega in states] + [1.1]
        cases.append((builtin_frame(fid), points, mus, omegas))
    return cases


@pytest.mark.parametrize("cfg", ENGINES, ids=["dual", "fd"])
@pytest.mark.parametrize("seed", [7, 11])
def test_single_state_coefficients_have_the_stacked_bits(seed, cfg):
    for field, points, mus, omegas in _cases(seed):
        one = np.array([
            (c.a_mu, c.a_omega, *c.breakdown.values())
            for c in (streaming_coefficients(field, r, mu, omega, cfg)
                      for r, mu, omega in zip(points, mus, omegas))])
        stacked = np.stack(checked_terms(frame_jet(field, points, cfg),
                                         *angle_arrays(mus, omegas)), axis=1)
        assert one.tobytes() == stacked.tobytes(), field.name


def _fields(coeffs):
    """The seven coefficient fields of a result, then its state and its
    frame, each as one float array (stacked over the states of a list)."""
    if isinstance(coeffs, list):
        return [np.array(column) for column in zip(*map(_fields, coeffs))]
    return [np.asarray(x, dtype=float) for x in (
        coeffs.a_mu, coeffs.a_omega, *coeffs.breakdown.values(),
        *coeffs.at, coeffs.frame.n, coeffs.frame.t, coeffs.frame.b)]


def _scatter_stacks():
    """(field, points, mus, omegas) of every default frame, 400 states
    each, drawn as the benchmark's scatter workload draws them at seed
    7."""
    rng = np.random.default_rng(7)
    stacks = []
    for fid in default_frames().values():
        states = random_states(fid, 400, rng)
        stacks.append((builtin_frame(fid), np.array([r for r, _, _ in states]),
                       [mu for _, mu, _ in states],
                       [omega for _, _, omega in states]))
    return stacks


@pytest.mark.parametrize("cfg", ENGINES, ids=["dual", "fd"])
def test_stacked_coefficients_have_the_per_state_bits(cfg):
    for field, points, mus, omegas in _scatter_stacks():
        want = _fields([streaming_coefficients(field, r, mu, omega, cfg)
                        for r, mu, omega in zip(points, mus, omegas)])
        stacked = streaming_coefficients(field, points, mus, omegas, cfg)
        from_jet = coefficients_from_jet(frame_jet(field, points, cfg), mus,
                                         omegas, at_point=points)
        for got in (stacked, from_jet):
            assert [x.tobytes() for x in _fields(got)] == \
                [x.tobytes() for x in want], field.name


def test_a_stack_that_fails_over_keeps_the_per_state_bits(monkeypatch):
    # Where the array attempt raises but no state does, the states'
    # single-state results are stacked into one result.
    field, points, mus, omegas = _cases(7)[3]
    want = _fields(streaming_coefficients(field, points, mus, omegas))
    monkeypatch.setattr(streaming, "angle_arrays", _raises)
    got = streaming_coefficients(field, points, mus, omegas)
    assert [x.tobytes() for x in _fields(got)] == [x.tobytes() for x in want]


def _raises(*args):
    raise FloatingPointError("overflow")


def _error(call):
    try:
        call()
    except FramestreamError as exc:
        return type(exc), str(exc)
    pytest.fail("no error")


@pytest.mark.parametrize("cfg", ENGINES, ids=["dual", "fd"])
def test_a_failing_stack_raises_its_first_failing_state_error(cfg):
    field = builtin_frame(default_frames()["sphere"])
    points = np.array([[1.0, 0.5, 0.2], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    one = _error(lambda: streaming_coefficients(field, points[1], 0.3, 1.1,
                                                cfg))
    assert one[0].__name__ == "EvaluationFailure"
    assert one[1] == "field raised at probe (0.0, 0.0, 1.0)"
    assert _error(lambda: streaming_coefficients(
        field, points, [0.3] * 3, [1.1] * 3, cfg)) == one
    # A polar mu at the first state wins over the later bad points; at
    # the second state, the bad point of that state comes first.
    polar = _error(lambda: streaming_coefficients(field, points[0], 1.0, 1.1,
                                                  cfg))
    assert _error(lambda: streaming_coefficients(
        field, points, [1.0, 0.3, 0.3], [1.1] * 3, cfg)) == polar
    assert _error(lambda: streaming_coefficients(
        field, points, [0.3, 1.0, 0.3], [1.1] * 3, cfg)) == one


@pytest.mark.parametrize("cfg", ENGINES, ids=["dual", "fd"])
def test_a_stack_of_no_states_returns_empty_arrays(cfg):
    field = builtin_frame(default_frames()["graph"])
    for coeffs in (streaming_coefficients(field, np.empty((0, 3)), [], [],
                                          cfg),
                   coefficients_from_jet(frame_jet(field, np.empty((0, 3)),
                                                   cfg), [], [])):
        shapes = [x.shape for x in _fields(coeffs)]
        assert shapes == [(0,)] * 7 + [(0, 3), (0,), (0,)] + [(0, 3)] * 3


@pytest.mark.parametrize("seed", [7, 11])
def test_single_ray_has_the_stacked_bits(seed):
    for field, points, mus, omegas in _cases(seed):
        dirs = np.array([direction_from_angles(field.eval(r), mu, omega)
                         for r, mu, omega in zip(points, mus, omegas)])
        rays = [ray_oracle(field, r, d) for r, d in zip(points, dirs)]
        one = np.array([(ray.dmu_ds, ray.domega_ds,
                         ray.richardson_error_estimate) for ray in rays])
        stacked = ray_oracle(field, points, dirs)
        assert one.tobytes() == np.stack(
            [stacked.dmu_ds, stacked.domega_ds,
             stacked.richardson_error_estimate], axis=1).tobytes(), field.name


class _Recorded:
    """The constant frame, recording the point of every raw call."""

    def __init__(self):
        self.probes = []

    def raw(self, x, y, z):
        self.probes.append((x, y, z))
        return (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)


def test_fd_probes_round_as_the_stacked_stencil():
    h = 1e-5
    r = np.array(SIGNED_ZERO_POINT)
    field = _Recorded()
    frame_jet(field, r, DiffConfig(engine="fd", fd_step=h))
    offsets = np.eye(3)[:, None, :] * np.array(
        [h, -h, h / 2.0, -h / 2.0])[:, None]
    want = np.concatenate([r[None], (r + offsets).reshape(-1, 3)])
    got = np.array(field.probes)
    assert got.tobytes() == want.tobytes()
    # Both signs of zero occur, so the comparison tells them apart.
    signs = np.signbit(got[got == 0.0])
    assert signs.any() and not signs.all()


def test_ray_probes_round_as_the_stacked_rays():
    step = 1e-3
    r = np.array(SIGNED_ZERO_POINT)
    d = np.array([0.6, 0.0, -0.8])
    field = _Recorded()
    ray_oracle(field, r, d, step)
    ss = np.array([-step, -step / 2.0, 0.0, step / 2.0, step])
    # The probes in call order: s = 0 first, then the stencil.
    want = (r + ss[:, None] * d)[[2, 0, 1, 3, 4]]
    got = np.array(field.probes)
    assert got.tobytes() == want.tobytes()
    signs = np.signbit(got[got == 0.0])
    assert signs.any() and not signs.all()


def _separate_terms(jet, mu, s, c, sn):
    """A frozen reference for coefficient_terms that makes each
    contraction in its own numpy call: the nine scalars from two
    broadcast matmuls over (n, t, b), then jn @ Omega and the dots
    t . (jn @ Omega), b . (jn @ Omega).  One state (floats) or one state
    per point of a stacked jet."""
    one = jet.n.ndim == 1
    v = np.array([jet.n, jet.t, jet.b])
    jv = np.matmul(np.array([jet.jn, jet.jt, jet.jb])[:, None],
                   v[None, ..., None])
    dots = np.matmul(v[None, None, ..., None, :], jv[:, :, None])[..., 0, 0]
    sn_, st, sb = dots.tolist() if one else dots
    s_tt, s_tb, s_bt, s_bb = sn_[1][1], sn_[2][1], sn_[1][2], sn_[2][2]
    kn_t, kn_b, kt_b = -sn_[0][1], -sn_[0][2], -st[1][2]
    kb_t, winding = -sb[2][1], sb[0][1]
    mu_surface = (1.0 - mu * mu) * (c * c * s_tt + sn * c * (s_tb + s_bt)
                                    + sn * sn * s_bb)
    mu_curve_n = mu * s * (c * -kn_t + sn * -kn_b)
    omega_curve, omega_wind = s * (c * kt_b - sn * kb_t), mu * winding
    if one:
        omega = np.array([mu * n + s * (c * t + sn * b) for n, t, b in zip(
            jet.n.tolist(), jet.t.tolist(), jet.b.tolist())])
        dn = jet.jn @ omega
        t_dn, b_dn = float(jet.t @ dn), float(jet.b @ dn)
    else:
        m, s_, c_, sn_ = (a[:, None] for a in (mu, s, c, sn))
        omega = m * jet.n + s_ * (c_ * jet.t + sn_ * jet.b)
        dn = np.matmul(jet.jn, omega[..., None])[..., 0]
        t_dn = np.matmul(dn[..., None, :], jet.t[..., None])[..., 0, 0]
        b_dn = np.matmul(dn[..., None, :], jet.b[..., None])[..., 0, 0]
    omega_tilt = -mu * (-sn * t_dn + c * b_dn) / s
    return (mu_surface + mu_curve_n, omega_curve + omega_wind + omega_tilt,
            mu_surface, mu_curve_n, omega_curve, omega_wind, omega_tilt)


@pytest.mark.parametrize("cfg", ENGINES, ids=["dual", "fd"])
@pytest.mark.parametrize("seed", [7, 11])
def test_coefficient_terms_keep_the_bits_of_separate_contractions(seed, cfg):
    for field, points, mus, omegas in _cases(seed):
        for r, mu, omega in zip(points, mus, omegas):
            jet, angles = frame_jet(field, r, cfg), _angles(mu, omega)
            assert (np.array(coefficient_terms(jet, *angles)).tobytes()
                    == np.array(_separate_terms(jet, *angles)).tobytes()), (
                field.name, r)
        jet = frame_jet(field, points, cfg)
        angles = angle_arrays(mus, omegas)
        assert (np.array(coefficient_terms(jet, *angles)).tobytes()
                == np.array(_separate_terms(jet, *angles)).tobytes()), (
            field.name)


# sha256 of the packed rows of the scatter loop below: 10 states of each
# default frame, drawn in registry order from one generator per seed.
SCATTER_PINS = {
    7: "0c731c3e23b7af8ba4643474ebd42d28eb4848392642395fb32c76707c4bbd81",
    11: "b7af3dfbc5d29448d2e41708a3a8193453a0df42a83d72d81a33d6ff753d2462",
}


@pytest.mark.parametrize("seed", sorted(SCATTER_PINS))
def test_scatter_rows_are_pinned(seed):
    """The per-state loop of the benchmark's scatter workload: per state
    the dual and fd coefficients, the catalog and the ray oracle, each
    row packed as eight doubles."""
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    for fid in default_frames().values():
        field = builtin_frame(fid)
        for r, mu, omega in random_states(fid, 10, rng):
            dual = streaming_coefficients(field, r, mu, omega)
            fd = streaming_coefficients(field, r, mu, omega, ENGINES[1])
            cat = catalog_coefficients(fid, r, mu, omega)
            ray = ray_oracle(field, r,
                             direction_from_angles(dual.frame, mu, omega))
            digest.update(struct.pack(
                "8d", dual.a_mu, dual.a_omega, fd.a_mu, fd.a_omega, *cat,
                ray.dmu_ds, ray.domega_ds))
    assert digest.hexdigest() == SCATTER_PINS[seed]
