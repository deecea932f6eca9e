"""Random states and angle arrays drawn as blocks.

``random_states`` and ``_angle_grid`` draw a frame's samples as one block
of uniforms.  The reference below draws them one scalar at a time, as
the package once did; the block draw must give the same states bit for
bit and leave the generator in the same state.
"""
import dataclasses
import math

import numpy as np
import pytest

from framestream import (OutOfRange, frame_jet, frames, run_checks,
                         verification)
from framestream.frames import (BUILTIN_FRAMES, Constant, CylindricalI,
                                CylindricalII, Ellipsoid, Graph, Paraboloid,
                                Sphere)
from framestream.streaming import _angles, angle_arrays
from framestream.verification import (_angle_grid, default_frames,
                                      random_states)

TWO_PI = 2.0 * math.pi


# --- the scalar-draw reference --------------------------------------------

def _ref_cylinder(fid, rng):
    rho = rng.uniform(0.5, 3.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([rho * math.cos(phi), rho * math.sin(phi),
                     rng.uniform(-2.0, 2.0)])


def _ref_shell(rng, top, a=1.0, b=1.0, c=1.0):
    scale = rng.uniform(0.5, top)
    theta = rng.uniform(0.3, math.pi - 0.3)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return scale * np.array([a * math.sin(theta) * math.cos(phi),
                             b * math.sin(theta) * math.sin(phi),
                             c * math.cos(theta)])


def _ref_graph(g, rng):
    x = rng.uniform(-1.5, 1.5)
    y = rng.uniform(-1.5, 1.5)
    return np.array([x, y, float(g.f(x, y))])


_REF_SAMPLERS = {
    Constant: lambda fid, rng: rng.uniform(-2.0, 2.0, size=3),
    CylindricalI: _ref_cylinder,
    CylindricalII: _ref_cylinder,
    Sphere: lambda fid, rng: _ref_shell(rng, 3.0),
    Ellipsoid: lambda fid, rng: _ref_shell(rng, 2.0, fid.a, fid.b, fid.c),
    Paraboloid: lambda fid, rng: _ref_graph(fid.as_graph(), rng),
    Graph: _ref_graph,
}


def _ref_random_states(fid, count, rng):
    sample = _REF_SAMPLERS[type(fid)]
    out = []
    for _ in range(count):
        r = sample(fid, rng)
        mu = rng.uniform(-0.9, 0.9)
        omega = rng.uniform(0.0, TWO_PI)
        out.append((r, float(mu), float(omega)))
    return out


def _ref_angle_grid(count, rng):
    return [(rng.uniform(-0.9, 0.9), rng.uniform(0.0, TWO_PI))
            for _ in range(count)]


# --- bit-identical draws --------------------------------------------------

def _float_only_graph():
    """A user graph whose f takes Python floats only: math.cos rejects
    arrays."""
    return Graph(f=lambda x, y: math.cos(x) * y,
                 f_x=lambda x, y: -math.sin(x) * y,
                 f_y=lambda x, y: math.cos(x),
                 f_xx=lambda x, y: -math.cos(x) * y,
                 f_xy=lambda x, y: -math.sin(x),
                 f_yy=lambda x, y: 0.0)


IDS = {f"default-{name}": spec.default
       for name, spec in sorted(BUILTIN_FRAMES.items())}
IDS.update({"ellipsoid(3,1.5,0.5)": Ellipsoid(3.0, 1.5, 0.5),
            "paraboloid(-1,0.5)": Paraboloid(-1.0, 0.5),
            "float-only-graph": _float_only_graph()})
SEEDS = [0, 7, 11, 1234]
COUNTS = [0, 1, 60]


def _bits(x: float) -> str:
    assert type(x) is float
    return x.hex()


def _same_point(a, b) -> bool:
    return (a.shape == b.shape == (3,) and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("label", list(IDS))
def test_random_states_match_scalar_draws(label, seed, count):
    fid = IDS[label]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = random_states(fid, count, rng)
    want = _ref_random_states(fid, count, ref_rng)
    assert len(got) == len(want) == count
    for (r, mu, omega), (r0, mu0, omega0) in zip(got, want):
        assert _same_point(r, r0)
        assert (_bits(mu), _bits(omega)) == (_bits(mu0), _bits(omega0))
    # The same number of doubles was consumed.
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("count", COUNTS + [16])
@pytest.mark.parametrize("seed", SEEDS)
def test_angle_grid_matches_scalar_draws(seed, count):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _angle_grid(count, rng)
    want = _ref_angle_grid(count, ref_rng)
    assert [tuple(map(_bits, pair)) for pair in got] == \
        [tuple(map(_bits, pair)) for pair in want]
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("count", [-1, 2.5, "3", None])
def test_bad_count_is_out_of_range(count):
    fid = BUILTIN_FRAMES["sphere"].default
    with pytest.raises(OutOfRange, match="count"):
        random_states(fid, count, np.random.default_rng(0))
    with pytest.raises(OutOfRange, match="count"):
        _angle_grid(count, np.random.default_rng(0))


def test_zero_count_draws_nothing():
    rng = np.random.default_rng(5)
    assert random_states(BUILTIN_FRAMES["graph"].default, 0, rng) == []
    assert _angle_grid(0, rng) == []
    assert rng.random() == np.random.default_rng(5).random()


def test_integer_like_count_is_accepted():
    rng = np.random.default_rng(3)
    states = random_states(Sphere(), np.int64(4), rng)
    assert len(states) == 4


@pytest.mark.parametrize("seed", [7, 11])
def test_verify_draws_the_states_of_random_states(seed, monkeypatch):
    """A sampled row of run_checks draws each frame's states once, as
    arrays that it hands to the row's residuals with the frame jet at
    them: those of random_states on the same generator, bit for bit."""
    seen = []

    def spy(fid, field, points, omega, angles, jet, extra, terms):
        seen.append((fid, points, angles[0], omega))
        assert jet.n.tobytes() == frame_jet(field, points).n.tobytes()
        return np.zeros(0)

    monkeypatch.setattr(verification, "_CHECKS", {
        "spy": (0.0, False, verification._Sampled(60, 1, spy, terms=True))})
    [result] = run_checks(seed=seed)
    assert (result.max_residual, result.samples) == (0.0, 7 * 60)
    frames = default_frames()
    assert [fid for fid, *_ in seen] == list(frames.values())
    rng = np.random.default_rng(seed)
    for fid, points, mu, omega in seen:
        want = random_states(fid, 60, rng)
        assert points.shape == (60, 3)
        assert points.tobytes() == np.array(
            [r for r, _, _ in want]).tobytes()
        assert mu.tobytes() == np.array([m for _, m, _ in want]).tobytes()
        assert omega.tobytes() == np.array(
            [om for _, _, om in want]).tobytes()


def test_a_pass_places_each_frame_draw_at_once_and_unwraps_on_arrays(
        monkeypatch):
    """A full seed-7 pass calls each registry placement once per frame
    draw, on the draws' columns: 7 frames for each of catalog, oracle,
    identities and conservation and 4 homothetic ones, 32 calls; and its
    ray-oracle stacks unwrap on arrays, never ray by ray."""
    calls = []

    def counted(spec):
        def place(fid):
            inner = spec.place(fid)

            def spy(*draws):
                calls.append(spec.name)
                return inner(*draws)
            return spy
        return dataclasses.replace(spec, place=place)

    monkeypatch.setattr(frames, "_SPEC_BY_TYPE", {
        kind: counted(spec) for kind, spec in frames._SPEC_BY_TYPE.items()})
    unwraps = []
    next_azimuth = verification._next_azimuth

    def counted_unwrap(*args):
        unwraps.append(args)
        return next_azimuth(*args)

    monkeypatch.setattr(verification, "_next_azimuth", counted_unwrap)
    assert all(r.status == "pass" for r in run_checks(seed=7)
               if r.status != "report-only")
    assert len(calls) == 32
    assert unwraps == []


# --- angle arrays ---------------------------------------------------------

def _per_state(mus, omegas):
    rows = [_angles(mu, omega) for mu, omega in zip(mus, omegas)]
    return [np.array(column, dtype=float) for column in zip(*rows)]


def _edge_angles():
    below_two_pi = math.nextafter(TWO_PI, 0.0)
    mus = [1.0 - 1e-15, -(1.0 - 1e-15), 0.0, -0.0, 0.5, 1.0, -1.0, 0.3]
    omegas = [0.0, below_two_pi, 0.0, below_two_pi, 1e-300, 0.7, 2.0, 12.0]
    return mus, omegas


@pytest.mark.parametrize("seed", SEEDS)
def test_angle_arrays_are_bit_equal_to_per_state_angles(seed):
    rng = np.random.default_rng(seed)
    mus = rng.uniform(-1.0, 1.0, size=200).tolist()
    omegas = rng.uniform(0.0, TWO_PI, size=200).tolist()
    edge_mus, edge_omegas = _edge_angles()
    for m, o in ((mus, omegas), (edge_mus, edge_omegas),
                 (np.array(mus), np.array(omegas)),
                 (mus + edge_mus, omegas + edge_omegas)):
        got = angle_arrays(m, o)
        want = _per_state(m, o)
        assert len(got) == 4
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_angle_arrays_replay_keeps_nan_mu_and_huge_mu():
    mus, omegas = [0.2, math.nan, 1e200, -math.inf], [0.1, 0.2, 0.3, 0.4]
    for a, b in zip(angle_arrays(mus, omegas), _per_state(mus, omegas)):
        assert a.tobytes() == b.tobytes()
    huge = angle_arrays([1e200, 0.5], [0.1, 0.2])
    assert huge[1].tolist() == [0.0, math.sqrt(0.75)]


@pytest.mark.parametrize("mus, omegas, message", [
    ([0.1, 0.2, 0.3], [0.4, math.inf, math.nan], "omega = inf is not finite"),
    ([0.1, 0.2, 0.3], [0.4, math.nan, math.inf], "omega = nan is not finite"),
    ([0.1, "x", 0.3], [0.4, 0.5, math.inf], "mu and omega must be numbers"),
    ([0.1, 0.2], [0.4, None], "mu and omega must be numbers"),
])
def test_angle_arrays_raise_the_first_bad_entry(mus, omegas, message):
    with pytest.raises(OutOfRange, match=message):
        angle_arrays(mus, omegas)


@pytest.mark.parametrize("mus, omegas", [
    ([0.1, 0.2], [0.3]),
    ([0.1], [0.2, 0.3]),
    ([0.1, math.nan], [0.3]),
    ([0.1], [math.nan, 0.3]),
    (0.1, 0.2),
    (None, [0.3]),
], ids=["more-mu", "more-omega", "more-mu-nan", "more-omega-nan", "numbers",
        "none"])
def test_angle_arrays_reject_unpaired_lists(mus, omegas):
    with pytest.raises(OutOfRange) as info:
        angle_arrays(mus, omegas)
    assert str(info.value) == "mu and omega must be paired lists"


def test_angle_arrays_do_not_alias_their_input():
    mus = np.array([0.1, 0.2])
    out = angle_arrays(mus, [0.3, 0.4])
    out[0][0] = 9.0
    assert mus[0] == 0.1
