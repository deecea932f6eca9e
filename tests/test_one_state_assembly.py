"""One state assembled from its point's flat parts.

A single-state streaming_coefficients call assembles its result from
the nine frame components and their Jacobian, with no frame jet, and
coefficients_from_jet flattens the caller's jet into the same assembly.
Both must give the same bits in every field, and the single-state call
must raise what it raised when it went through a jet: the same type
and message, with the point's error before the angles'."""
import numpy as np
import pytest

from framestream import (DiffConfig, EvaluationFailure, NotOrthonormal,
                         OutOfRange, PolarDirection, builtin_frame,
                         coefficients_from_jet, frame_jet,
                         streaming_coefficients)
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
]


@pytest.mark.parametrize("cfg", ENGINES, ids=["dual", "fd"])
@pytest.mark.parametrize("point, mu, omega, kind, message", FAILING_STATES,
                         ids=["pole", "origin", "nan-point", "short-point",
                              "polar-mu", "mu-1.5", "mu-nan", "omega-inf",
                              "omega-string", "pole-before-mu"])
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
