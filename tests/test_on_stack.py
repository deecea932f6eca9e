"""frames.on_stack, the one replay of every stacked evaluation.

The array call runs where every input entry is finite and it succeeds.
Otherwise the single-state call runs on each row of the inputs in turn,
its outputs are stacked into float arrays, and the first failing row's
error propagates.
"""
import math

import numpy as np
import pytest

from framestream import (DiffConfig, FrameField, builtin_frame,
                         catalog_coefficients, frame_jet)
from framestream import dual as dm
from framestream.frames import BUILTIN_FRAMES, on_stack
from framestream.streaming import angle_arrays
from framestream.verification import ray_oracle

POINTS = np.array([[1.0, 2.0], [3.0, -4.0], [0.5, 6.0]])
SCALES = np.array([0.1, -0.2, 0.3])


def _same(a, b) -> bool:
    """Equal bits: the same shape, dtype and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


class _Rows:
    """A single-state call that records its rows: (p . p * q, p / q)."""

    def __init__(self, fail_at=()):
        self.rows, self.fail_at = [], fail_at

    def __call__(self, p, q):
        self.rows.append(len(self.rows))
        if len(self.rows) - 1 in self.fail_at:
            raise ValueError(f"row {len(self.rows) - 1} fails")
        return float(p @ p) * float(q), p / q


def test_array_call_is_taken_where_it_succeeds():
    rows, out = _Rows(), object()
    assert on_stack(lambda: out, rows, POINTS, SCALES) is out
    assert rows.rows == []


def _raises():
    raise ValueError("rejects arrays")


def _divides_by_zero():
    return np.ones(3) / np.zeros(3)


@pytest.mark.parametrize("array_call, points, scales", [
    (_raises, POINTS, SCALES),
    (_divides_by_zero, POINTS, SCALES),
    (None, POINTS, np.array([0.1, math.nan, 0.3])),
    (None, np.array([[1.0, 2.0], [3.0, -4.0], [math.inf, 6.0]]), SCALES),
], ids=["raise", "floating-point-flag", "nan-input", "inf-input"])
def test_failure_or_non_finite_input_fails_over_to_the_rows(
        array_call, points, scales):
    attempts = []

    def attempt():
        attempts.append(1)
        return array_call()

    rows = _Rows()
    scale_of, ratio = on_stack(attempt, rows, points, scales)
    assert rows.rows == [0, 1, 2]
    # A non-finite input skips the array call altogether.
    assert attempts == ([] if array_call is None else [1])
    assert len(scale_of) == len(ratio) == 3


def test_an_input_that_is_not_numbers_fails_over_to_the_rows():
    attempts = []
    found = on_stack(lambda: attempts.append(1), lambda q: (len(str(q)),),
                     [0.5, "xy", None])
    assert attempts == []
    assert _same(found[0], np.array([3.0, 2.0, 4.0]))


@pytest.mark.parametrize("points, scales", [
    (POINTS, SCALES[:2]), (POINTS[:2], SCALES)], ids=["short-last",
                                                      "short-first"])
def test_a_replay_never_cuts_inputs_of_unequal_length(points, scales):
    with pytest.raises(ValueError, match="zip"):
        on_stack(_raises, _Rows(), points, scales)


def test_first_failing_row_raises_and_no_later_row_runs():
    rows = _Rows(fail_at=(1, 2))
    with pytest.raises(ValueError, match="^row 1 fails$"):
        on_stack(_raises, rows, POINTS, SCALES)
    assert rows.rows == [0, 1]


def test_stacked_outputs_have_the_bits_of_the_rows():
    want = [_Rows()(p, q) for p, q in zip(POINTS, SCALES)]
    scale_of, ratio = on_stack(_raises, _Rows(), POINTS, SCALES)
    assert _same(scale_of, np.array([w[0] for w in want]))
    assert _same(ratio, np.array([w[1] for w in want]))
    assert ratio.shape == (3, 2)


# --- stacks of no rows ---------------------------------------------------

_SPHERE_ID = BUILTIN_FRAMES["sphere"].default
_SPHERE = builtin_frame(_SPHERE_ID)


def _scalar_only(x, y, z):
    if dm.value(x) < 0.0:  # ambiguous on arrays, even empty ones
        raise ValueError("no frame here")
    return _SPHERE.raw(x, y, z)


_SCALAR_ONLY = FrameField(_scalar_only, "scalar-only")
_NO_POINTS = np.empty((0, 3))


def _jet(engine):
    jet = frame_jet(_SCALAR_ONLY, _NO_POINTS, DiffConfig(engine=engine))
    return jet.n, jet.t, jet.b, jet.jn, jet.jt, jet.jb


def _ray():
    found = ray_oracle(_SCALAR_ONLY, _NO_POINTS, _NO_POINTS)
    return found.dmu_ds, found.domega_ds, found.richardson_error_estimate


@pytest.mark.parametrize("call, shapes", [
    (lambda: _jet("dual"), [(0, 3)] * 3 + [(0, 3, 3)] * 3),
    (lambda: _jet("fd"), [(0, 3)] * 3 + [(0, 3, 3)] * 3),
    (_ray, [(0,)] * 3),
    (lambda: catalog_coefficients(_SPHERE_ID, _NO_POINTS, [], []),
     [(0,)] * 2),
    (lambda: angle_arrays([], []), [(0,)] * 4),
], ids=["jet-dual", "jet-fd", "ray-oracle", "catalog", "angle-arrays"])
def test_a_stack_of_no_rows_gives_empty_arrays(call, shapes):
    found = call()
    assert [a.shape for a in found] == shapes
    assert all(a.dtype == np.float64 for a in found)
