"""One state assembled from its point's flat parts.

A single-state streaming_coefficients call assembles its result from
the nine frame components and their Jacobian, with no frame jet, and
coefficients_from_jet flattens the caller's jet into the same assembly.
Both must give the same bits in every field, and the single-state call
must raise what it raised when it went through a jet: the same type
and message, with the point's error before the angles'."""
import numpy as np
import pytest

from framestream import (DiffConfig, EvaluationFailure, FrameField,
                         NotOrthonormal, OutOfRange, PolarDirection,
                         builtin_frame, coefficients_from_jet,
                         direction_from_angles, frame_jet, ray_oracle,
                         streaming_coefficients)
from framestream.dual import value
from framestream.streaming import _angles, coefficient_terms
from framestream.verification import default_frames, random_states

ENGINES = [DiffConfig(), DiffConfig(engine="fd")]
STATES_PER_FRAME = 40


def _leaves(coeffs):
    """Every field of a result as bytes: the two coefficients, the five
    parts, the state and the frame.  Every NaN reads as one, as in
    tests/test_frozen_one_point.py: the sign of a NaN product is not a
    property of the code."""
    fields = (coeffs.a_mu, coeffs.a_omega, *coeffs.breakdown.values(),
              *coeffs.at, coeffs.frame.n, coeffs.frame.t, coeffs.frame.b)
    out = []
    for x in fields:
        a = np.asarray(x, dtype=float)
        out.append((type(x).__name__, np.where(np.isnan(a), np.nan,
                                               a).tobytes()))
    return out


@pytest.mark.parametrize("cfg", ENGINES, ids=["dual", "fd"])
@pytest.mark.parametrize("seed", [7, 11])
def test_one_state_has_the_bits_of_its_jet(seed, cfg):
    rng = np.random.default_rng(seed)
    for fid in default_frames().values():
        field = builtin_frame(fid)
        for r, mu, omega in random_states(fid, STATES_PER_FRAME, rng):
            one = streaming_coefficients(field, r, mu, omega, cfg)
            jet = frame_jet(field, r, cfg)
            from_jet = coefficients_from_jet(jet, mu, omega, at_point=r)
            assert _leaves(one) == _leaves(from_jet), (fid, r, mu, omega)
            # The fused contractions against a jet's separate ones.
            terms = np.array(coefficient_terms(jet, *_angles(mu, omega)))
            assert (np.array([one.a_mu, one.a_omega,
                              *one.breakdown.values()]).tobytes()
                    == terms.tobytes()), (fid, r, mu, omega)


_GOOD_POINT = (1.0, 0.5, 0.2)

# (point, mu, omega) -> the parent's error type and message, the same on
# both engines.
FAILING_STATES = [
    ((0.0, 0.0, 1.0), 0.3, 1.1,
     EvaluationFailure, "field raised at probe (0.0, 0.0, 1.0)"),
    ((0.0, 0.0, 0.0), 0.3, 1.1,
     EvaluationFailure, "field raised at probe (0.0, 0.0, 0.0)"),
    ((float("nan"), 0.5, 0.2), 0.3, 1.1,
     NotOrthonormal, "n must be a finite 3-vector"),
    ((1.0, 0.5), 0.3, 1.1,
     OutOfRange, "point must be a 3-vector, not of shape (2,)"),
    (_GOOD_POINT, 1.0, 1.1, PolarDirection, "omega undefined for mu at +-1"),
    (_GOOD_POINT, 1.5, 1.1, OutOfRange, "mu = 1.5 outside [-1, 1]"),
    (_GOOD_POINT, float("nan"), 1.1, OutOfRange, "mu = nan outside [-1, 1]"),
    (_GOOD_POINT, 0.3, float("inf"), OutOfRange, "omega = inf is not finite"),
    (_GOOD_POINT, 0.3, "x", OutOfRange,
     "mu and omega must be numbers: could not convert string to float: 'x'"),
    # The point's error wins over the bad mu.
    ((0.0, 0.0, 1.0), 1.5, 1.1,
     EvaluationFailure, "field raised at probe (0.0, 0.0, 1.0)"),
    ([[1], [2], [3]], 0.3, 1.1,
     OutOfRange, "point must be a 3-vector, not of shape (3, 1)"),
    ("abc", 0.3, 1.1, OutOfRange,
     "point must be an array of numbers: could not convert string to "
     "float: 'abc'"),
    (None, 0.3, 1.1, OutOfRange, "point must be a 3-vector, not of shape ()"),
    ([1.0, [0.5, 0.2], 0.3], 0.3, 1.1, OutOfRange,
     "point must be an array of numbers: setting an array element with a "
     "sequence. The requested array has an inhomogeneous shape after 1 "
     "dimensions. The detected shape was (3,) + inhomogeneous part."),
]


@pytest.mark.parametrize("cfg", ENGINES, ids=["dual", "fd"])
@pytest.mark.parametrize("point, mu, omega, kind, message", FAILING_STATES,
                         ids=["pole", "origin", "nan-point", "short-point",
                              "polar-mu", "mu-1.5", "mu-nan", "omega-inf",
                              "omega-string", "pole-before-mu",
                              "column-point", "string-point", "none-point",
                              "ragged-point"])
def test_a_failing_state_raises_the_error_it_raised_through_a_jet(
        point, mu, omega, kind, message, cfg):
    field = builtin_frame(default_frames()["sphere"])
    with pytest.raises(kind) as info:
        streaming_coefficients(field, point, mu, omega, cfg)
    assert type(info.value) is kind
    assert str(info.value) == message
    if point == _GOOD_POINT:  # the angles' errors through a jet
        with pytest.raises(kind) as info:
            coefficients_from_jet(frame_jet(field, point, cfg), mu, omega)
        assert str(info.value) == message


@pytest.mark.parametrize("at_point, message", [
    ([1, 2], "point must be a 3-vector, not of shape (2,)"),
    ("abc", "point must be an array of numbers: could not convert string "
            "to float: 'abc'"),
], ids=["short", "string"])
def test_a_bad_jet_point_raises_out_of_range(at_point, message):
    jet = frame_jet(builtin_frame(default_frames()["sphere"]), _GOOD_POINT)
    with pytest.raises(OutOfRange) as info:
        coefficients_from_jet(jet, 0.3, 1.1, at_point=at_point)
    assert str(info.value) == message
    # The angles' error comes before the point's.
    with pytest.raises(OutOfRange) as info:
        coefficients_from_jet(jet, 1.5, 1.1, at_point=at_point)
    assert str(info.value) == "mu = 1.5 outside [-1, 1]"


def _good_ray():
    field = builtin_frame(default_frames()["sphere"])
    r = np.array(_GOOD_POINT)
    return field, r, direction_from_angles(field.eval(r), 0.3, 1.1)


@pytest.mark.parametrize("change, message", [
    ({"step": 0}, "ray step must be positive and finite, not 0.0"),
    ({"step": float("inf")}, "ray step must be positive and finite, not inf"),
    ({"step": "x"}, "ray step must be a number: could not convert string "
                    "to float: 'x'"),
    ({"r": np.array(_GOOD_POINT[:2])},
     "ray point and direction must be 3-vectors, or (N, 3) arrays of one "
     "shape"),
    ({"scale": 2.0}, "ray direction must be unit"),
    ({"scale": float("nan")}, "ray direction must be unit"),
], ids=["step-0", "step-inf", "step-string", "point-of-2", "direction-2d",
        "direction-nan"])
def test_a_bad_ray_raises_out_of_range(change, message):
    field, r, d = _good_ray()
    with pytest.raises(OutOfRange) as info:
        ray_oracle(field, change.get("r", r), change.get("scale", 1.0) * d,
                   change.get("step", 1e-3))
    assert type(info.value) is OutOfRange
    assert str(info.value) == message


def test_a_short_vector_at_an_fd_probe_names_that_probe():
    # n loses an entry only beyond x0 + h/2: at the stencil's first probe,
    # x0 + h along x, and at no point that the dual engine reads.
    sphere = builtin_frame(default_frames()["sphere"])
    x0, h = _GOOD_POINT[0], DiffConfig().fd_step

    def raw(x, y, z):
        n, t, b = sphere.raw(x, y, z)
        return (n[:2] if value(x) > x0 + h / 2.0 else n), t, b

    field = FrameField(raw, "short-n-beyond")
    dual = streaming_coefficients(field, _GOOD_POINT, 0.3, 1.1)
    assert _leaves(dual) == _leaves(
        streaming_coefficients(sphere, _GOOD_POINT, 0.3, 1.1))
    with pytest.raises(EvaluationFailure) as info:
        streaming_coefficients(field, _GOOD_POINT, 0.3, 1.1, ENGINES[1])
    assert str(info.value) == ("field returned vectors of lengths (2, 3, 3),"
                               " not 3, at probe (1.00001, 0.5, 0.2)")


# --- a one-state result owns its arrays ------------------------------------

def _owned(coeffs, callers):
    """The result's point and frame, as bytes, after asserting that none
    of them shares memory with an array of the caller."""
    mine = (coeffs.at[0], coeffs.frame.n, coeffs.frame.t, coeffs.frame.b)
    for x in mine:
        for y in callers:
            assert not np.shares_memory(x, y)
    return [x.tobytes() for x in mine]


@pytest.mark.parametrize("cfg", ENGINES, ids=["dual", "fd"])
def test_a_one_state_result_does_not_alias_its_inputs(cfg):
    field = builtin_frame(default_frames()["ellipsoid"])
    r = np.array(_GOOD_POINT)
    coeffs = streaming_coefficients(field, r, 0.3, 1.1, cfg)
    before = _owned(coeffs, [r])
    r[:] = 7.0
    assert _owned(coeffs, [r]) == before

    p = np.array(_GOOD_POINT)
    jet = frame_jet(field, p, cfg)
    arrays = [p, jet.n, jet.t, jet.b, jet.jn, jet.jt, jet.jb]
    coeffs = coefficients_from_jet(jet, 0.3, 1.1, at_point=p)
    before = _owned(coeffs, arrays)
    for x in arrays:
        x[...] = 7.0
    assert _owned(coeffs, arrays) == before
