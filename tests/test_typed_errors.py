"""Malformed angles through the public calls that take (mu, omega), and
huge vector entries through those that test a vector for unit norm.

Each call must return or raise a FramestreamError, never a raw Python
or numpy exception, with the bad value as mu or as omega.  The catalog
and conservation_check share the domain of the coefficient path: at
each bad mu they raise the type that streaming_coefficients raises, and
a stack of states raises at each bad angle the type that its
single-state call raises there."""
import dataclasses
import math

import numpy as np
import pytest

from framestream import (FramestreamError, OutOfRange, Sphere,
                         angles_from_direction, apply_streaming,
                         builtin_frame, catalog_coefficients,
                         coefficients_from_jet, conservation_check,
                         direction_from_angles, frame_jet, grad_mu,
                         grad_omega, orthonormalize, ray_oracle,
                         streaming_coefficients)

_FID = Sphere()
_FIELD = builtin_frame(_FID)
_POINT = np.array([1.0, 0.5, 0.2])
_JET = frame_jet(_FIELD, _POINT)
_FRAME = _FIELD.eval(_POINT)
_STACK = np.array([[0.8, -0.4, 0.6], _POINT])
_STACK_JET = frame_jet(_FIELD, _STACK)
_GOOD = 0.3, 1.1
_SAMPLES = _POINT + 0.1 * np.arange(8)[:, None]

BAD_ANGLES = [math.nan, math.inf, -math.inf, 1.5, -1.0000001, 1.0, -1.0,
              "a", None, [], np.zeros((2, 2)), 1 + 1j, True, 2**70]

CALLS = {
    "streaming_coefficients":
        lambda mu, omega: streaming_coefficients(_FIELD, _POINT, mu, omega),
    "coefficients_from_jet":
        lambda mu, omega: coefficients_from_jet(_JET, mu, omega),
    "grad_mu": lambda mu, omega: grad_mu(_FIELD, _POINT, mu, omega),
    "grad_omega": lambda mu, omega: grad_omega(_FIELD, _POINT, mu, omega),
    "catalog": lambda mu, omega: catalog_coefficients(_FID, _POINT, mu,
                                                      omega),
    # The bad value is the second state of a stack of two.
    "catalog-stack": lambda mu, omega: catalog_coefficients(
        _FID, _STACK, [_GOOD[0], mu], [_GOOD[1], omega]),
    # The bad value is the second state of a stack of two.
    "streaming_coefficients-stack": lambda mu, omega: streaming_coefficients(
        _FIELD, _STACK, [_GOOD[0], mu], [_GOOD[1], omega]),
    "coefficients_from_jet-stack": lambda mu, omega: coefficients_from_jet(
        _STACK_JET, [_GOOD[0], mu], [_GOOD[1], omega]),
    "direction_from_angles":
        lambda mu, omega: direction_from_angles(_FRAME, mu, omega),
    # The bad value is the last of eight sample angles.
    "conservation_check": lambda mu, omega: conservation_check(
        _FIELD, _SAMPLES, [_GOOD] * 7 + [(mu, omega)]),
}

# The calls whose mu domain is that of streaming_coefficients.
SAME_DOMAIN = ("catalog", "catalog-stack", "conservation_check")
# The stacked coefficient calls and their single-state calls.
ONE_STATE = {"streaming_coefficients-stack": "streaming_coefficients",
             "coefficients_from_jet-stack": "coefficients_from_jet"}


def _raised(name, mu, omega):
    """The FramestreamError type that CALLS[name] raises, or None where
    it returns; any other exception fails the test, naming the call."""
    try:
        CALLS[name](mu, omega)
    except FramestreamError as exc:
        return type(exc)
    except Exception as exc:  # an untyped escape
        pytest.fail(f"{name}(mu={mu!r}, omega={omega!r}) raised "
                    f"{type(exc).__name__}: {exc}")
    return None


@pytest.mark.parametrize("position", ["mu", "omega"])
@pytest.mark.parametrize("name", list(CALLS))
def test_bad_angles_raise_typed_errors(name, position):
    for bad in BAD_ANGLES:
        mu, omega = (bad, _GOOD[1]) if position == "mu" else (_GOOD[0], bad)
        found = _raised(name, mu, omega)
        if name in SAME_DOMAIN and position == "mu":
            assert found is _raised("streaming_coefficients", mu, omega), bad
        if name in ONE_STATE:
            assert found is _raised(ONE_STATE[name], mu, omega), bad


# --- stacks of states that the coefficient calls refuse --------------------

def _stacked_coeffs():
    return streaming_coefficients(_FIELD, _STACK, [0.3, 0.4], [1.1, 2.0])


@pytest.mark.parametrize("call, message", [
    (lambda: streaming_coefficients(_FIELD, _STACK, [0.3], [1.1]),
     "mu and omega must be lists of one angle for each of the 2 states"),
    (lambda: streaming_coefficients(_FIELD, _STACK, [0.3] * 3, [1.1] * 3),
     "mu and omega must be lists of one angle for each of the 2 states"),
    (lambda: streaming_coefficients(_FIELD, _STACK[:, :2], [0.3] * 2,
                                    [1.1] * 2),
     "point must be a 3-vector, not of shape (2, 2)"),
    (lambda: coefficients_from_jet(_STACK_JET, 0.3, 1.1),
     "mu and omega must be lists of one angle for each of the 2 states"),
    (lambda: coefficients_from_jet(_STACK_JET, [0.3] * 2, [1.1] * 2,
                                   at_point=_POINT),
     "point must be of shape (2, 3), not (3,)"),
    (lambda: apply_streaming(_stacked_coeffs(), [1.0, 0.0, 0.0],
                             [1.0, 0.0, 0.0], 0.0, 0.0),
     "coeffs must be of one point, not 2"),
    (lambda: direction_from_angles(_stacked_coeffs().frame, 0.3, 1.1),
     "frame must be of one point, not 2"),
    (lambda: angles_from_direction(_stacked_coeffs().frame, [1.0, 0.0, 0.0]),
     "frame must be of one point, not 2"),
], ids=["angles-fewer", "angles-more", "points-n-by-2", "jet-scalar-angles",
        "jet-at-point", "apply-stacked-coeffs", "direction-stacked-frame",
        "angles-stacked-frame"])
def test_malformed_stacks_are_out_of_range(call, message):
    with pytest.raises(OutOfRange) as info:
        call()
    assert str(info.value) == message


# --- frame jets built by hand with malformed fields ------------------------

@pytest.mark.parametrize("jet, fields, message", [
    (_JET, {"jn": np.zeros((2, 3))},
     "jet.jn must be of shape (3, 3), not (2, 3)"),
    (_JET, {"n": np.zeros(4)}, "jet.n must be of shape (3,), not (4,)"),
    (_JET, {"jn": None}, "jet.jn must be of shape (3, 3), not ()"),
    (_JET, {"jn": np.full((3, 3), "a")},
     "jet.jn must be an array of numbers"),
    (_STACK_JET, {"jb": _JET.jb},
     "jet.jb must be of shape (2, 3, 3), not (3, 3)"),
], ids=["jn-2-by-3", "n-of-4", "jn-none", "jn-strings", "stack-jb-of-one"])
def test_malformed_jets_are_out_of_range(jet, fields, message):
    with pytest.raises(OutOfRange) as info:
        coefficients_from_jet(dataclasses.replace(jet, **fields), *_GOOD)
    assert str(info.value).startswith(message)


def test_a_jet_of_lists_reads_as_arrays():
    jet = dataclasses.replace(_JET, n=_JET.n.tolist())
    got = coefficients_from_jet(jet, *_GOOD)
    want = coefficients_from_jet(_JET, *_GOOD)
    assert (got.a_mu, got.a_omega) == (want.a_mu, want.a_omega)


# --- vectors whose squared norm overflows --------------------------------

def _huge_calls(big):
    """The calls that test a vector for unit norm, each with one entry
    ``big``: a one-ray and a stacked ray oracle (whose replay is the
    one-ray path), angles_from_direction and orthonormalize's t."""
    rays = np.array([_POINT, _POINT])
    return {
        "ray_oracle": lambda: ray_oracle(_FIELD, _POINT, [big, 0.0, 0.0]),
        "ray_oracle-stack": lambda: ray_oracle(
            _FIELD, rays, [[0.0, 0.6, 0.8], [0.0, big, 0.0]]),
        "angles_from_direction": lambda: angles_from_direction(
            _FRAME, [0.0, 0.0, big]),
        "orthonormalize": lambda: orthonormalize([big, 0.0, 0.0],
                                                 [0.0, 1.0, 0.0]),
    }


@pytest.mark.parametrize("big", [1e200, 1e308])
@pytest.mark.parametrize("name", list(_huge_calls(1.0)))
def test_huge_vector_entries_raise_out_of_range_without_a_warning(name,
                                                                  big):
    # Warnings are errors here: an overflow in the unit-norm test would
    # escape as a RuntimeWarning before the typed error.
    with pytest.raises(OutOfRange, match="must be unit"):
        _huge_calls(big)[name]()
