"""The batched probe stencils against frozen copies of the per-probe
code they replaced: the fd engine, the dual jet's assembly, the ray
oracle and frame_scalars must give the same bits, in the same number of
raw calls, with the same errors."""
import dataclasses
import math

import numpy as np
import pytest

from framestream import (DiffConfig, DomainExit, EvaluationFailure,
                         PolarDirection, UnwrapFailure, builtin_frame,
                         directional_derivative, frame_jet, jacobian,
                         streaming)
from framestream import dual as dm
from framestream.derivatives import FrameJet, FrameScalars, frame_scalars
from framestream.frames import BUILTIN_FRAMES, direction_from_angles
from framestream.verification import random_states, ray_oracle

TWO_PI = 2.0 * math.pi
CFGS = [DiffConfig(engine="fd", fd_step=h) for h in (1e-5, 3e-4)]
# The fd engine always extrapolates; the ids keep their "richTrue" tag.
CFG_IDS = [f"h{c.fd_step:g}-richTrue" for c in CFGS]
STATES_PER_FRAME = 12


# --- frozen copies of the per-probe code ----------------------------------

def _old_probe(field, p):
    try:
        out = field(p)
    except EvaluationFailure:
        raise
    except Exception as exc:
        raise EvaluationFailure(f"field raised at probe {tuple(p)}") from exc
    return out


def _old_directional_derivative(field, r, h, cfg):
    r = np.asarray(r, dtype=float)
    h = np.asarray(h, dtype=float)
    scale = float(np.linalg.norm(h))
    if scale == 0.0:
        return np.zeros(3)
    u = h / scale

    def central(step):
        fp = np.asarray(_old_probe(field, tuple(r + step * u)), dtype=float)
        fm = np.asarray(_old_probe(field, tuple(r - step * u)), dtype=float)
        return (fp - fm) / (2.0 * step)

    d = central(cfg.fd_step)
    d_half = central(cfg.fd_step / 2.0)
    d = (4.0 * d_half - d) / 3.0
    return scale * d


def _old_jacobian(field, r, cfg):
    r = np.asarray(r, dtype=float)
    cols = [_old_directional_derivative(field, r, e, cfg)
            for e in np.eye(3)]
    return np.stack(cols, axis=-1)


def _old_frame_jet(frame_field, r, cfg):
    r = np.asarray(r, dtype=float)
    if cfg.engine == "dual":
        n, t, b = frame_field.raw(*dm.seed_gradient(r))
        vecs, jacs = [], []
        for vec in (n, t, b):
            vecs.append(np.array([dm.value(c) for c in vec]))
            jacs.append(np.array([c.eps if isinstance(c, dm.Dual)
                                  else (0.0,) * 3 for c in vec],
                                 dtype=float))
        return FrameJet(*vecs, *jacs)

    def triple(p):
        return frame_field.raw(p[0], p[1], p[2])

    n, t, b = np.asarray(_old_probe(triple, tuple(r)), dtype=float)
    jn, jt, jb = _old_jacobian(triple, r, cfg)
    return FrameJet(n, t, b, jn, jt, jb)


def _old_frame_scalars(jet):
    n, t, b = jet.n, jet.t, jet.b
    jn_t, jn_b, jn_n = jet.jn @ t, jet.jn @ b, jet.jn @ n
    return FrameScalars(
        s_tt=float(t @ jn_t), s_tb=float(t @ jn_b),
        s_bt=float(b @ jn_t), s_bb=float(b @ jn_b),
        kn_t=-float(t @ jn_n), kn_b=-float(b @ jn_n),
        kt_b=-float(b @ (jet.jt @ t)), kb_t=-float(t @ (jet.jb @ b)),
        winding=float(t @ (jet.jb @ n)))


def _old_ray_oracle(frame_field, r, omega_dir, step=1e-3):
    r = np.asarray(r, dtype=float)
    d = np.asarray(omega_dir, dtype=float)

    def angles_at(s):
        p = r + s * d
        try:
            n, t, b = frame_field.raw(p[0], p[1], p[2])
        except Exception as exc:
            raise DomainExit(f"ray probe left the domain at s={s}") from exc
        n = np.asarray(n, dtype=float)
        t = np.asarray(t, dtype=float)
        b = np.asarray(b, dtype=float)
        return float(d @ n), math.atan2(float(d @ b), float(d @ t))

    mu0, _ = angles_at(0.0)
    if 1.0 - mu0 * mu0 <= 1e-10:
        raise PolarDirection("ray parallel to n at the base point")
    mus, oms, prev = [], [], None
    for s in [-step, -step / 2.0, 0.0, step / 2.0, step]:
        mu, om = angles_at(s)
        if prev is not None:
            jump = om - prev
            jump -= TWO_PI * round(jump / TWO_PI)
            if abs(jump) > math.pi / 2.0:
                raise UnwrapFailure(
                    f"azimuth jump {jump:.3f} between probes; "
                    "reduce the step or move off the polar direction")
            om = prev + jump
        prev = om
        mus.append(mu)
        oms.append(om)

    def derivs(w, h):
        return ((mus[2 + w] - mus[2 - w]) / (2.0 * h),
                (oms[2 + w] - oms[2 - w]) / (2.0 * h))

    dmu_h, dom_h = derivs(2, step)
    dmu_h2, dom_h2 = derivs(1, step / 2.0)
    return ((4.0 * dmu_h2 - dmu_h) / 3.0, (4.0 * dom_h2 - dom_h) / 3.0,
            max(abs(dmu_h2 - dmu_h), abs(dom_h2 - dom_h)) / 3.0)


# --- generated states -----------------------------------------------------

def _cases():
    rng = np.random.default_rng(20250828)
    for name, spec in BUILTIN_FRAMES.items():
        field = builtin_frame(spec.default)
        for r, mu, omega in random_states(spec.default, STATES_PER_FRAME,
                                          rng):
            yield name, field, r, mu, omega


CASES = list(_cases())
FRAMES = sorted(BUILTIN_FRAMES)


def _frame_cases(name):
    return [(field, r, mu, omega)
            for fname, field, r, mu, omega in CASES if fname == name]


def _same(a, b) -> bool:
    """Equal bits: the same shape, dtype and bytes (so -0.0 differs from
    0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def _same_jet(a, b) -> bool:
    return all(_same(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(FrameJet))


# --- bit identity ---------------------------------------------------------

@pytest.mark.parametrize("cfg", CFGS, ids=CFG_IDS)
@pytest.mark.parametrize("name", FRAMES)
def test_fd_frame_jet_bit_identical(name, cfg):
    for field, r, _, _ in _frame_cases(name):
        assert _same_jet(frame_jet(field, r, cfg),
                         _old_frame_jet(field, r, cfg))


@pytest.mark.parametrize("name", FRAMES)
def test_dual_frame_jet_bit_identical(name):
    cfg = DiffConfig()
    for field, r, _, _ in _frame_cases(name):
        assert _same_jet(frame_jet(field, r, cfg),
                         _old_frame_jet(field, r, cfg))


@pytest.mark.parametrize("cfg", CFGS, ids=CFG_IDS)
def test_directional_derivative_non_unit_h_bit_identical(cfg):
    rng = np.random.default_rng(5)
    for _, field, r, _, _ in CASES:
        h = rng.normal(size=3) * rng.uniform(0.1, 5.0)
        for unit_field in (field.n_field, field.t_field, field.b_field):
            assert _same(directional_derivative(unit_field, r, h, cfg),
                         _old_directional_derivative(unit_field, r, h, cfg))


@pytest.mark.parametrize("cfg", CFGS, ids=CFG_IDS)
def test_jacobian_of_vector_and_stacked_fields_bit_identical(cfg):
    for _, field, r, _, _ in CASES:
        def stacked(p, raw=field.raw):
            return raw(p[0], p[1], p[2])
        got = jacobian(stacked, r, cfg)
        assert got.shape == (3, 3, 3) and got.flags.c_contiguous
        assert _same(got, _old_jacobian(stacked, r, cfg))
        assert _same(jacobian(field.n_field, r, cfg),
                     _old_jacobian(field.n_field, r, cfg))


def test_zero_direction_is_zero():
    field = builtin_frame(BUILTIN_FRAMES["sphere"].default)
    got = directional_derivative(field.n_field, [1.0, 2.0, 3.0],
                                 [0.0, 0.0, 0.0], CFGS[0])
    assert _same(got, np.zeros(3))


@pytest.mark.parametrize("name", FRAMES)
def test_frame_scalars_bit_identical(name):
    for field, r, _, _ in _frame_cases(name):
        for cfg in (DiffConfig(), CFGS[0]):
            jet = frame_jet(field, r, cfg)
            assert _same(frame_scalars(jet), _old_frame_scalars(jet))


@pytest.mark.parametrize("name", FRAMES)
def test_ray_oracle_bit_identical(name):
    for field, r, mu, omega in _frame_cases(name):
        d = direction_from_angles(field.eval(r), mu, omega)
        for step in (1e-3, 2.5e-4):
            got = ray_oracle(field, r, d, step)
            assert _same((got.dmu_ds, got.domega_ds,
                          got.richardson_error_estimate),
                         _old_ray_oracle(field, r, d, step))
            assert got.step == step


@pytest.mark.parametrize("name", FRAMES)
def test_streaming_coefficients_bit_identical(name, monkeypatch):
    cases = _frame_cases(name)
    cfgs = (DiffConfig(), CFGS[0], CFGS[1])
    new = [streaming.streaming_coefficients(field, r, mu, omega, cfg)
           for field, r, mu, omega in cases for cfg in cfgs]
    monkeypatch.setattr(streaming, "frame_jet", _old_frame_jet)
    monkeypatch.setattr(streaming, "frame_scalars", _old_frame_scalars)
    old = [streaming.streaming_coefficients(field, r, mu, omega, cfg)
           for field, r, mu, omega in cases for cfg in cfgs]
    for a, b in zip(new, old):
        assert _same((a.a_mu, a.a_omega, *a.breakdown.values()),
                     (b.a_mu, b.a_omega, *b.breakdown.values()))
        assert list(a.breakdown) == list(b.breakdown)


# --- raw call counts ------------------------------------------------------

class _Counted:
    """A frame field whose raw counts its calls and their argument
    types."""

    def __init__(self, field):
        self.inner = field
        self.calls = 0
        self.types = set()

    def raw(self, x, y, z):
        self.calls += 1
        self.types.add(type(x))
        return self.inner.raw(x, y, z)


@pytest.mark.parametrize("calls", [13], ids=["True-13"])
def test_fd_frame_jet_raw_calls(calls):
    field = _Counted(builtin_frame(BUILTIN_FRAMES["ellipsoid"].default))
    frame_jet(field, [1.0, 0.4, 0.3], DiffConfig(engine="fd"))
    assert field.calls == calls
    assert field.types == {float}


def test_ray_oracle_raw_calls():
    field = _Counted(builtin_frame(BUILTIN_FRAMES["sphere"].default))
    ray_oracle(field, [1.0, 0.4, 0.3], [0.0, 0.6, 0.8])
    assert field.calls == 5
    assert field.types == {float}


# --- errors ---------------------------------------------------------------

def test_fd_probe_failure_names_plain_floats():
    def field(p):
        if p[0] > 1.0:
            raise ZeroDivisionError("boom")
        return (p[0], p[1], p[2])

    with pytest.raises(EvaluationFailure) as info:
        jacobian(field, [1.0, 2.0, 3.0], CFGS[0])
    msg = str(info.value)
    assert msg == "field raised at probe (1.00001, 2.0, 3.0)"
    assert "np.float64" not in msg


class _FailsOffCentre:
    """A constant frame whose raw raises only at the probes that
    ``bad(x, y, z)`` picks, none of them the centre (1.0, 0.5, 0.25)."""

    def __init__(self, bad):
        self.bad = bad

    def raw(self, x, y, z):
        if self.bad(x, y, z):
            raise ZeroDivisionError("boom")
        return (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)


# With h = 1e-5 the probes run x + h, x - h, x + h/2, x - h/2, then
# likewise along y and z: the first pick is the first probe, the second
# the eleventh, z + h/2, the third the sixth, y - h.
@pytest.mark.parametrize("bad, probe", [
    (lambda x, y, z: x > 1.0 + 0.5e-5, "(1.00001, 0.5, 0.25)"),
    (lambda x, y, z: 0.25 + 0.25e-5 < z < 0.25 + 0.75e-5,
     "(1.0, 0.5, 0.250005)"),
    (lambda x, y, z: y < 0.5 - 0.75e-5, "(1.0, 0.49999, 0.25)"),
], ids=["first-probe", "eleventh-probe", "sixth-probe"])
def test_fd_failure_names_the_failing_off_centre_probe(bad, probe):
    field = _FailsOffCentre(bad)
    want = f"field raised at probe {probe}"
    with pytest.raises(EvaluationFailure) as info:
        frame_jet(field, [1.0, 0.5, 0.25], CFGS[0])
    assert str(info.value) == want
    with pytest.raises(EvaluationFailure) as info:
        jacobian(lambda p: field.raw(*p), [1.0, 0.5, 0.25], CFGS[0])
    assert str(info.value) == want


def test_fd_field_of_changing_shape_is_an_evaluation_failure():
    def field(p):
        return (p[0], p[1]) if p[2] > 3.0 else (p[0], p[1], p[2])

    with pytest.raises(EvaluationFailure) as info:
        jacobian(field, [1.0, 2.0, 3.0], CFGS[0])
    assert str(info.value) == ("field returned values of shapes "
                               "[(2,), (3,)] at the probes")


class _StubRay:
    """A frame field along the x axis: n = e_z, and (t, b) = (e_x, e_y)
    or (-e_x, -e_y) depending on which side of ``flip_at`` x lies; raw
    raises at x in ``bad``, or everywhere when ``polar``."""

    def __init__(self, flip_at=None, bad=(), polar=False):
        self.flip_at = flip_at
        self.bad = bad
        self.polar = polar

    def raw(self, x, y, z):
        if any(abs(x - b) < 1e-12 for b in self.bad):
            raise ValueError(f"no frame at x={x}")
        if self.polar:
            return (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
        if self.flip_at is not None and x >= self.flip_at:
            return (0.0, 0.0, 1.0), (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)
        return (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


STEP = 1e-3
RAY_ERRORS = {
    # DomainExit at s = 0 comes before PolarDirection.
    "center-fails-polar": (_StubRay(bad=(0.0,), polar=True), DomainExit),
    # PolarDirection comes before a DomainExit at a later probe.
    "polar-then-fails": (_StubRay(bad=(STEP,), polar=True), PolarDirection),
    # A jump between s = -step and -step/2 comes before a DomainExit at
    # s = +step.
    "jump-then-fails": (_StubRay(flip_at=-0.75 * STEP, bad=(STEP,)),
                        UnwrapFailure),
    # A DomainExit at s = -step/2 comes before a jump between the probes
    # at s = -step/2 and 0.
    "fails-then-jump": (_StubRay(flip_at=-0.25 * STEP, bad=(-STEP / 2,)),
                        DomainExit),
    "fails-last": (_StubRay(bad=(STEP,)), DomainExit),
    "fails-first": (_StubRay(bad=(-STEP,)), DomainExit),
}


@pytest.mark.parametrize("case", sorted(RAY_ERRORS))
def test_ray_oracle_error_order(case):
    field, expected = RAY_ERRORS[case]
    args = (field, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], STEP)
    got = _raised(ray_oracle, *args)
    assert got[0] is expected
    assert got == _raised(_old_ray_oracle, *args)
